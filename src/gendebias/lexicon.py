"""Word lists driving the bias machinery: gender lexica, bilingual dictionaries,
similarity datasets, and analogy query construction.

The lexicon JSON schema (all fields required unless noted):

    definitional_pairs    [[masculine, feminine], ...]
    grammatical_masculine [word, ...]
    grammatical_feminine  [word, ...]
    occupation_pairs      [[masculine, feminine], ...] or [[m, f, english], ...]
    inanimate_nouns       [word, ...]
    attributes_male       [word, ...]
    attributes_female     [word, ...]
    adjective_pairs       [[english, masculine, feminine], ...]   (optional)
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .embeddings import _open_utf8

logger = logging.getLogger(__name__)

REQUIRED_FIELDS = (
    "definitional_pairs",
    "grammatical_masculine",
    "grammatical_feminine",
    "occupation_pairs",
    "inanimate_nouns",
    "attributes_male",
    "attributes_female",
)


class LexiconError(ValueError):
    """Schema or invariant violation in a lexicon file."""


@dataclass(frozen=True)
class OccupationPair:
    masculine: str
    feminine: str
    english: str | None = None

    def __post_init__(self):
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


def _check_pairs(field_name: str, pairs) -> tuple[tuple[str, str], ...]:
    out = []
    for p in pairs:
        p = tuple(p)
        if len(p) != 2:
            raise LexiconError(f"{field_name}: expected a pair, got {p!r}")
        m, f = _check_words(field_name, p)
        if m == f:
            raise LexiconError(f"{field_name}: pair members must differ, got {m!r}")
        out.append((m, f))
    return tuple(out)


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
        object.__setattr__(self, "definitional_pairs",
                           _check_pairs("definitional_pairs", self.definitional_pairs))
        object.__setattr__(self, "grammatical_masculine",
                           _check_words("grammatical_masculine", self.grammatical_masculine))
        object.__setattr__(self, "grammatical_feminine",
                           _check_words("grammatical_feminine", self.grammatical_feminine))
        occ = []
        for p in self.occupation_pairs:
            if isinstance(p, OccupationPair):
                occ.append(p)
            else:
                p = tuple(p)
                if len(p) in (2, 3):
                    occ.append(OccupationPair(*_check_words("occupation_pairs", p)))
                else:
                    raise LexiconError(
                        f"occupation_pairs: expected 2 or 3 entries, got {p!r}")
        object.__setattr__(self, "occupation_pairs", tuple(occ))
        object.__setattr__(self, "inanimate_nouns",
                           _check_words("inanimate_nouns", self.inanimate_nouns))
        object.__setattr__(self, "attributes_male",
                           _check_words("attributes_male", self.attributes_male))
        object.__setattr__(self, "attributes_female",
                           _check_words("attributes_female", self.attributes_female))
        adj = []
        for t in self.adjective_pairs:
            t = tuple(t)
            if len(t) != 3:
                raise LexiconError(
                    f"adjective_pairs: expected [english, masculine, feminine], got {t!r}")
            en, m, f = _check_words("adjective_pairs", t)
            if m == f:
                raise LexiconError(f"adjective_pairs: gendered forms must differ, got {m!r}")
            adj.append((en, m, f))
        object.__setattr__(self, "adjective_pairs", tuple(adj))

        overlap = set(self.grammatical_masculine) & set(self.grammatical_feminine)
        if overlap:
            w = sorted(overlap)[0]
            raise LexiconError(f"grammatical_masculine/grammatical_feminine: "
                               f"word in both classes: {w!r}")
        both = set(self.attributes_male) & set(self.attributes_female)
        if both:
            w = sorted(both)[0]
            raise LexiconError(f"attributes_male/attributes_female: "
                               f"word in both sets: {w!r}")

    def counts(self) -> dict[str, int]:
        return {
            "definitional_pairs": len(self.definitional_pairs),
            "grammatical_masculine": len(self.grammatical_masculine),
            "grammatical_feminine": len(self.grammatical_feminine),
            "occupation_pairs": len(self.occupation_pairs),
            "inanimate_nouns": len(self.inanimate_nouns),
            "attributes_male": len(self.attributes_male),
            "attributes_female": len(self.attributes_female),
            "adjective_pairs": len(self.adjective_pairs),
        }


def lexicon_to_json_dict(lex: GenderLexicon) -> dict:
    """Inverse of load_lexicon, for writing lexica back to disk."""
    d = {
        "definitional_pairs": [list(p) for p in lex.definitional_pairs],
        "grammatical_masculine": list(lex.grammatical_masculine),
        "grammatical_feminine": list(lex.grammatical_feminine),
        "occupation_pairs": [
            [p.masculine, p.feminine] + ([p.english] if p.english is not None else [])
            for p in lex.occupation_pairs
        ],
        "inanimate_nouns": list(lex.inanimate_nouns),
        "attributes_male": list(lex.attributes_male),
        "attributes_female": list(lex.attributes_female),
    }
    if lex.adjective_pairs:
        d["adjective_pairs"] = [list(t) for t in lex.adjective_pairs]
    return d


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
    missing = [k for k in REQUIRED_FIELDS if k not in raw]
    if missing:
        raise LexiconError(f"{path}: missing required field {missing[0]!r}")
    known = set(REQUIRED_FIELDS) | {"adjective_pairs"}
    unknown = [k for k in raw if k not in known]
    if unknown:
        raise LexiconError(f"{path}: unknown field {unknown[0]!r}")
    for k in known:
        if k in raw and not isinstance(raw[k], list):
            raise LexiconError(f"{path}: field {k!r} must be a list")
    try:
        lex = GenderLexicon(
            definitional_pairs=raw["definitional_pairs"],
            grammatical_masculine=raw["grammatical_masculine"],
            grammatical_feminine=raw["grammatical_feminine"],
            occupation_pairs=raw["occupation_pairs"],
            inanimate_nouns=raw["inanimate_nouns"],
            attributes_male=raw["attributes_male"],
            attributes_female=raw["attributes_female"],
            adjective_pairs=raw.get("adjective_pairs", ()),
        )
    except LexiconError as e:
        raise LexiconError(f"{path}: {e}") from None
    logger.info("%s: loaded lexicon %s", path, lex.counts())
    return lex


@dataclass(frozen=True)
class CoverageReport:
    """What coverage_filter dropped, keyed by lexicon field."""

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
    dropped: dict[str, tuple] = {}

    def keep_words(name, words):
        kept = tuple(w for w in words if w in space)
        gone = tuple(w for w in words if w not in space)
        if gone:
            dropped[name] = gone
        return kept

    def keep_pairs(name, pairs):
        kept, gone = [], []
        for p in pairs:
            if p[0] in space and p[1] in space:
                kept.append(p)
            else:
                gone.append(tuple(p))
        if gone:
            dropped[name] = tuple(gone)
        return tuple(kept)

    occ_kept, occ_gone = [], []
    for p in lex.occupation_pairs:
        if p.masculine in space and p.feminine in space:
            occ_kept.append(p)
        else:
            occ_gone.append(p.words)
    if occ_gone:
        dropped["occupation_pairs"] = tuple(occ_gone)

    adj_kept, adj_gone = [], []
    for en, m, f in lex.adjective_pairs:
        if m in space and f in space:
            adj_kept.append((en, m, f))
        else:
            adj_gone.append((en, m, f))
    if adj_gone:
        dropped["adjective_pairs"] = tuple(adj_gone)

    filtered = GenderLexicon(
        definitional_pairs=keep_pairs("definitional_pairs", lex.definitional_pairs),
        grammatical_masculine=keep_words("grammatical_masculine", lex.grammatical_masculine),
        grammatical_feminine=keep_words("grammatical_feminine", lex.grammatical_feminine),
        occupation_pairs=tuple(occ_kept),
        inanimate_nouns=keep_words("inanimate_nouns", lex.inanimate_nouns),
        attributes_male=keep_words("attributes_male", lex.attributes_male),
        attributes_female=keep_words("attributes_female", lex.attributes_female),
        adjective_pairs=tuple(adj_kept),
    )
    report = CoverageReport(dropped=dropped)
    if report:
        logger.info("coverage filter dropped %d entries: %s", report.total_dropped,
                    {k: len(v) for k, v in dropped.items()})
    return filtered, report


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
    """Read ``word1<TAB>word2<TAB>score`` rows for similarity benchmarks."""
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
        if isinstance(occ, (tuple, list)):
            occ = OccupationPair(*occ)
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
