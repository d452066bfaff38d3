"""Word lists driving the bias machinery: gender lexica, bilingual dictionaries,
similarity datasets, and analogy query construction.

``FIELDS`` is the lexicon schema: the JSON object's fields in order, each a
list whose entries are of the field's kind.  Every field is required except
``adjective_pairs``.  The kinds are:

    words         [word, ...]
    pairs         [[masculine, feminine], ...]
    occupations   [[masculine, feminine], ...] or [[m, f, english], ...]
    adjectives    [[english, masculine, feminine], ...]
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Iterable, Sequence

from .embeddings import _open_utf8

logger = logging.getLogger(__name__)

FIELDS = {
    "definitional_pairs": "pairs",
    "grammatical_masculine": "words",
    "grammatical_feminine": "words",
    "occupation_pairs": "occupations",
    "inanimate_nouns": "words",
    "attributes_male": "words",
    "attributes_female": "words",
    "adjective_pairs": "adjectives",
}
OPTIONAL_FIELDS = frozenset({"adjective_pairs"})

# Fields whose word lists may not share a word, and what the message calls them.
_DISJOINT = (("grammatical_masculine", "grammatical_feminine", "classes"),
             ("attributes_male", "attributes_female", "sets"))


class LexiconError(ValueError):
    """Schema or invariant violation in a lexicon file."""


@dataclass(frozen=True)
class OccupationPair:
    masculine: str
    feminine: str
    english: str | None = None

    def __post_init__(self):
        _check_words("occupation_pairs", self.words if self.english is None
                     else self.words + (self.english,))
        if self.masculine == self.feminine:
            raise LexiconError(
                f"occupation_pairs: pair members must differ, got {self.masculine!r}")

    @property
    def words(self) -> tuple[str, str]:
        return (self.masculine, self.feminine)


def _check_words(field_name: str, words: Iterable[str]) -> tuple[str, ...]:
    out = []
    for w in words:
        if not isinstance(w, str) or not w.strip():
            raise LexiconError(f"{field_name}: invalid word {w!r}")
        out.append(w)
    return tuple(out)


def _entry(field_name: str, index: int, entry) -> tuple:
    """An entry of a pairs, occupations or adjectives field, which must be a
    JSON array (a list or tuple), as a tuple."""
    if not isinstance(entry, (list, tuple)):
        raise LexiconError(f"{field_name}: entry {index} is not an array of "
                           f"words: {entry!r}")
    return tuple(entry)


def _check_forms(field_name: str, entries, size: int, expected: str,
                 forms: str) -> tuple[tuple[str, ...], ...]:
    """Entries of ``size`` words each, the last two being the gendered forms,
    which must differ."""
    out = []
    for i, t in enumerate(entries):
        t = _entry(field_name, i, t)
        if len(t) != size:
            raise LexiconError(f"{field_name}: expected {expected}, got {t!r}")
        t = _check_words(field_name, t)
        if t[-2] == t[-1]:
            raise LexiconError(f"{field_name}: {forms} must differ, got {t[-2]!r}")
        out.append(t)
    return tuple(out)


def _check_occupations(field_name: str, pairs) -> tuple[OccupationPair, ...]:
    out = []
    for i, p in enumerate(pairs):
        if not isinstance(p, OccupationPair):
            p = _entry(field_name, i, p)
            if len(p) not in (2, 3):
                raise LexiconError(f"{field_name}: expected 2 or 3 entries, got {p!r}")
            p = OccupationPair(*p)
        out.append(p)
    return tuple(out)


_CHECKS = {
    "words": _check_words,
    "pairs": partial(_check_forms, size=2, expected="a pair", forms="pair members"),
    "occupations": _check_occupations,
    "adjectives": partial(_check_forms, size=3, expected="[english, masculine, feminine]",
                          forms="gendered forms"),
}


def _covered(kind: str, entries, space) -> list[bool]:
    """Whether each entry's gendered forms are in ``space``.  Pairs and
    adjective triples both end with (masculine, feminine); an adjective's
    English word is resolved in the English space, not here."""
    if kind == "words":
        return [w in space for w in entries]
    if kind == "occupations":
        return [p.masculine in space and p.feminine in space for p in entries]
    return [e[-2] in space and e[-1] in space for e in entries]


def _to_json(kind: str, entries) -> list:
    if kind == "words":
        return list(entries)
    if kind == "occupations":
        return [[p.masculine, p.feminine] + ([p.english] if p.english is not None else [])
                for p in entries]
    return [list(e) for e in entries]


@dataclass(frozen=True)
class GenderLexicon:
    """Validated gender word lists for one language.

    Invariants enforced here: pair members differ, the two grammatical lists
    are disjoint, and attribute sets are disjoint.  Attribute non-emptiness
    is deliberately deferred to association-score time, so a lexicon without
    attributes still loads.
    """

    definitional_pairs: tuple[tuple[str, str], ...] = ()
    grammatical_masculine: tuple[str, ...] = ()
    grammatical_feminine: tuple[str, ...] = ()
    occupation_pairs: tuple[OccupationPair, ...] = ()
    inanimate_nouns: tuple[str, ...] = ()
    attributes_male: tuple[str, ...] = ()
    attributes_female: tuple[str, ...] = ()
    adjective_pairs: tuple[tuple[str, str, str], ...] = ()

    def __post_init__(self):
        for name in FIELDS:
            if not isinstance(getattr(self, name), (list, tuple)):
                raise LexiconError(f"field {name!r} must be a list")
        for name, kind in FIELDS.items():
            object.__setattr__(self, name, _CHECKS[kind](name, getattr(self, name)))
        for a, b, what in _DISJOINT:
            both = set(getattr(self, a)) & set(getattr(self, b))
            if both:
                raise LexiconError(f"{a}/{b}: word in both {what}: {min(both)!r}")

    def counts(self) -> dict[str, int]:
        return {name: len(getattr(self, name)) for name in FIELDS}


def lexicon_to_json_dict(lex: GenderLexicon) -> dict:
    """Inverse of load_lexicon, for writing lexica back to disk.  An empty
    optional field is left out."""
    return {name: _to_json(kind, getattr(lex, name))
            for name, kind in FIELDS.items()
            if getattr(lex, name) or name not in OPTIONAL_FIELDS}


def load_lexicon(path) -> GenderLexicon:
    """Load and validate a lexicon JSON file.  List sizes are logged."""
    path = Path(path)
    with _open_utf8(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as e:
            raise LexiconError(f"{path}: not valid JSON: {e}") from None
    if not isinstance(raw, dict):
        raise LexiconError(f"{path}: top level must be a JSON object")
    missing = [k for k in FIELDS if k not in raw and k not in OPTIONAL_FIELDS]
    if missing:
        raise LexiconError(f"{path}: missing required field {missing[0]!r}")
    unknown = [k for k in raw if k not in FIELDS]
    if unknown:
        raise LexiconError(f"{path}: unknown field {unknown[0]!r}")
    try:
        lex = GenderLexicon(**raw)
    except LexiconError as e:
        raise LexiconError(f"{path}: {e}") from None
    logger.info("%s: loaded lexicon %s", path, lex.counts())
    return lex


@dataclass(frozen=True)
class CoverageReport:
    """What coverage_filter dropped, keyed by lexicon field in schema order."""

    dropped: dict[str, tuple] = field(default_factory=dict)

    @property
    def total_dropped(self) -> int:
        return sum(len(v) for v in self.dropped.values())

    def __bool__(self) -> bool:
        return self.total_dropped > 0


def coverage_filter(lex: GenderLexicon, space) -> tuple[GenderLexicon, CoverageReport]:
    """Drop lexicon entries not covered by the space's vocabulary.

    Pairs are dropped whole when either gendered member is missing (an
    English annotation is kept as long as the gendered forms are covered;
    anchor resolution happens against the English space, not this one).
    Running the filter twice is a no-op the second time.
    """
    kept: dict[str, tuple] = {}
    dropped: dict[str, tuple] = {}
    for name, kind in FIELDS.items():
        entries = getattr(lex, name)
        covered = _covered(kind, entries, space)
        kept[name] = tuple(e for e, ok in zip(entries, covered) if ok)
        if len(kept[name]) < len(entries):
            gone = tuple(e for e, ok in zip(entries, covered) if not ok)
            dropped[name] = (tuple(p.words for p in gone) if kind == "occupations"
                             else gone)
    report = CoverageReport(dropped=dropped)
    if report:
        logger.info("coverage filter dropped %d entries: %s", report.total_dropped,
                    {k: len(v) for k, v in dropped.items()})
    return GenderLexicon(**kept), report


class BilingualDictionary:
    """Multimap from source words to translation sets, insertion-ordered."""

    def __init__(self, pairs: Iterable[tuple[str, str]] = ()):
        self._entries: dict[str, list[str]] = {}
        self._n_pairs = 0
        for src, tgt in pairs:
            self.add(src, tgt)

    def add(self, source: str, target: str) -> None:
        if not source or not target:
            raise ValueError(f"dictionary entry with empty side: {(source, target)!r}")
        bucket = self._entries.setdefault(source, [])
        if target not in bucket:
            bucket.append(target)
            self._n_pairs += 1

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, source: str) -> bool:
        return source in self._entries

    @property
    def n_pairs(self) -> int:
        return self._n_pairs

    def translations(self, source: str) -> tuple[str, ...]:
        return tuple(self._entries.get(source, ()))

    def items(self):
        for src, tgts in self._entries.items():
            yield src, tuple(tgts)

    def pairs(self):
        for src, tgts in self._entries.items():
            for t in tgts:
                yield src, t


def load_bilingual_dictionary(path) -> BilingualDictionary:
    """Read one ``source<TAB>target`` entry per line; repeats accumulate."""
    path = Path(path)
    d = BilingualDictionary()
    with _open_utf8(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'source<TAB>target', "
                                 f"got {line!r}")
            src, tgt = parts
            if not src or not tgt:
                raise ValueError(f"{path}:{lineno}: empty source or target")
            d.add(src, tgt)
    if len(d) == 0:
        raise ValueError(f"{path}: empty dictionary")
    return d


def identity_dictionary(source_space, target_space) -> BilingualDictionary:
    """Seed dictionary of identical-string matches between two vocabularies."""
    d = BilingualDictionary()
    for w in source_space.words:
        if w in target_space:
            d.add(w, w)
    return d


def load_similarity_dataset(path) -> list[tuple[str, str, float]]:
    """Read ``word1<TAB>word2<TAB>score`` rows for similarity benchmarks;
    a score must be a finite number."""
    path = Path(path)
    rows: list[tuple[str, str, float]] = []
    with _open_utf8(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected "
                                 f"'word1<TAB>word2<TAB>score', got {line!r}")
            w1, w2, raw = parts
            if not w1 or not w2:
                raise ValueError(f"{path}:{lineno}: empty word")
            try:
                score = float(raw)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: unparsable score {raw!r}") from None
            if not math.isfinite(score):
                raise ValueError(f"{path}:{lineno}: non-finite score {raw!r}")
            rows.append((w1, w2, score))
    if not rows:
        raise ValueError(f"{path}: empty similarity dataset")
    return rows


@dataclass(frozen=True)
class AnalogyQuery:
    """One gendered translation-by-analogy query.

    english_context and english_target live in the English space;
    source_context is the gendered form whose gender the gold answer
    must match.
    """

    english_context: str
    english_target: str
    source_context: str
    gold: str
    gold_gender: str

    def __post_init__(self):
        for name in ("english_context", "english_target", "source_context", "gold"):
            if not getattr(self, name):
                raise ValueError(f"AnalogyQuery.{name} must be non-empty")
        if self.gold_gender not in ("masculine", "feminine"):
            raise ValueError(f"gold_gender must be masculine/feminine, "
                             f"got {self.gold_gender!r}")


def build_analogy_queries(occupation_pairs: Sequence[OccupationPair],
                          adjective_pairs: Sequence[tuple[str, str, str]],
                          ) -> list[AnalogyQuery]:
    """Cross every adjective triple with every occupation pair, one query per
    gendered form: 2 * |adjectives| * |occupations| queries total.

    Every occupation pair must carry an English word (it is the analogy's
    English target).
    """
    queries: list[AnalogyQuery] = []
    for occ in occupation_pairs:
        if occ.english is None:
            raise ValueError(f"occupation pair without English word: "
                             f"{occ.words!r}")
        for en_adj, adj_m, adj_f in adjective_pairs:
            queries.append(AnalogyQuery(
                english_context=en_adj, english_target=occ.english,
                source_context=adj_m, gold=occ.masculine,
                gold_gender="masculine"))
            queries.append(AnalogyQuery(
                english_context=en_adj, english_target=occ.english,
                source_context=adj_f, gold=occ.feminine,
                gold_gender="feminine"))
    logger.info("built %d analogy queries (2 x %d adjectives x %d occupations)",
                len(queries), len(adjective_pairs), len(occupation_pairs))
    return queries
