"""Quality and bias evaluation: word similarity, word translation,
gendered translation-by-analogy, and projection exports."""

from __future__ import annotations

import csv
import itertools
import logging
import os
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy import stats

from .directions import GenderDirections
from .embeddings import (BilingualSpace, EmbeddingSpace, _cosine_scores,
                         _row_blocks, _top_rows, cosine)
from .lexicon import AnalogyQuery, BilingualDictionary, OccupationPair

logger = logging.getLogger(__name__)

MIN_SIMILARITY_ROWS = 5
CSLS_NEIGHBORHOOD = 10
# Query rows scored per matrix product: bounds retrieval memory to this many
# rows times the searched vocabulary.  BLAS may round a product of another
# height differently, so results hold their bits only while this stays fixed.
_SCORE_CHUNK = 1024


@dataclass(frozen=True)
class EvalReport:
    """One evaluation run: task name, metric map, coverage in [0, 1]."""

    task: str
    metrics: dict[str, float]
    coverage: float
    config_digest: str = ""
    details: tuple = field(default_factory=tuple, repr=False)

    def __post_init__(self):
        if not (0.0 <= self.coverage <= 1.0):
            raise ValueError(f"coverage out of range: {self.coverage}")
        for key, value in self.metrics.items():
            if key.startswith("p_at_") and not (0.0 <= value <= 100.0):
                raise ValueError(f"{key} out of range: {value}")
            if key.endswith("mrr") and not (0.0 <= value <= 1.0):
                raise ValueError(f"{key} out of range: {value}")

    def to_json_dict(self) -> dict:
        return {
            "task": self.task,
            "metrics": {k: float(v) for k, v in self.metrics.items()},
            "coverage": float(self.coverage),
            "config_digest": self.config_digest,
        }


def word_similarity_eval(space: EmbeddingSpace,
                         dataset: Sequence[tuple[str, str, float]],
                         ) -> EvalReport:
    """Pearson correlation between model cosines and human scores over the
    covered rows of a similarity dataset (a zero vector leaves its row out).
    Raises ValueError when either column is constant (r is undefined)."""
    if not dataset:
        raise ValueError("empty similarity dataset")
    model, human = [], []
    for w1, w2, score in dataset:
        if w1 in space and w2 in space:
            try:
                model.append(cosine(space.vector(w1), space.vector(w2)))
            except ValueError:  # a zero vector
                continue
            human.append(score)
    if len(model) < MIN_SIMILARITY_ROWS:
        raise ValueError(f"only {len(model)} of {len(dataset)} rows covered; "
                         f"need at least {MIN_SIMILARITY_ROWS}")
    for name, column in (("model cosines", model), ("human scores", human)):
        if min(column) == max(column):
            raise ValueError(f"Pearson r is undefined: the {name} of all "
                             f"{len(model)} covered rows are equal")
    r, _ = stats.pearsonr(model, human)
    return EvalReport(task="word_similarity",
                      metrics={"pearson_r": float(r), "n_pairs": float(len(model))},
                      coverage=len(model) / len(dataset))


def _chunk_threads() -> int:
    """Threads scoring chunks at once: two where two CPUs are usable.  Each
    chunk in flight holds one score block, so retrieval memory grows with
    this count; two keep it within the few blocks the README documents."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    return min(2, cpus)


def _map_chunks(fn, n: int) -> list:
    """``fn(rows)`` for the slice of each _SCORE_CHUNK-row chunk of
    ``range(n)``, results in chunk order.  Chunks run on _chunk_threads()
    threads (numpy releases the GIL in products and partitions); every
    chunk is the same product as in a serial run, so results are
    bit-identical.  The first failing chunk's exception, MemoryError
    included, is raised once the running chunks have ended; chunks not yet
    started are cancelled."""
    chunks = [slice(start, start + _SCORE_CHUNK) for start in range(0, n, _SCORE_CHUNK)]
    threads = min(_chunk_threads(), len(chunks))
    if threads < 2:
        return [fn(rows) for rows in chunks]
    pool = ThreadPoolExecutor(threads, thread_name_prefix="gendebias-chunk")
    try:
        futures = [pool.submit(fn, rows) for rows in chunks]
        wait(futures, return_when=FIRST_EXCEPTION)
    finally:
        pool.shutdown(cancel_futures=True)
    return [future.result() for future in futures]


def _mean_topk(scores: np.ndarray, k: int) -> np.ndarray:
    """Row-wise mean of the k largest finite entries (-inf, a zero vector's
    score, is no neighbor); 0 for a row without any.  Partitions ``scores``
    in place."""
    k = min(k, scores.shape[1])
    scores.partition(scores.shape[1] - k, axis=1)
    top = scores[:, -k:]
    finite = np.isfinite(top)
    return np.where(finite, top, 0.0).sum(axis=1) / np.maximum(finite.sum(axis=1), 1)


def _csls_adjustment(bi: BilingualSpace) -> np.ndarray:
    """Per-target mean cosine to its CSLS_NEIGHBORHOOD nearest mapped-source
    vectors, computed in chunks against the full source vocabulary; 0 for a
    zero target vector."""
    r_tgt = np.zeros(len(bi.target))
    live = np.flatnonzero(bi.target.row_norms() > 0.0)
    bi.source.row_norms()  # fill the cache before chunk threads read it

    def adjust(chunk: slice) -> None:
        rows = live[chunk]
        r_tgt[rows] = _mean_topk(_cosine_scores(bi.source, bi.target.matrix[rows]),
                                 CSLS_NEIGHBORHOOD)

    _map_chunks(adjust, live.size)
    return r_tgt


@dataclass(frozen=True)
class TranslationDetail:
    source: str
    gold: tuple[str, ...]
    retrieved: tuple[str, ...]
    hit_rank: int  # 0 = miss within the retrieved window


def word_translation_eval(bi: BilingualSpace, dictionary: BilingualDictionary,
                          ks: Sequence[int] = (1, 5),
                          csls: bool = False) -> EvalReport:
    """Precision@k of dictionary translation by nearest neighbor retrieval.

    A query counts as a hit at k when ANY of its gold translations appears
    in the top k.  Queries whose source word is out of vocabulary are
    skipped and reported through coverage; a zero query vector is an error,
    and zero target vectors are retrieved after every other target.  With
    csls=True scores are adjusted by the mean similarity of each target to
    its 10 nearest mapped-source neighbors (and of each query to its 10
    nearest targets).
    """
    ks = sorted(set(int(k) for k in ks))
    if not ks or ks[0] < 1:
        raise ValueError(f"invalid k list: {ks}")
    kmax = ks[-1]
    entries = [(w, set(golds)) for w, golds in dictionary.items() if w in bi.source]
    if not entries:
        raise ValueError("no dictionary entry has its source word in the space")
    queries = bi.source.indices([w for w, _ in entries])
    if np.any(bi.source.row_norms()[queries] == 0.0):
        raise ValueError("zero vector among query words")
    r_tgt = _csls_adjustment(bi) if csls else None
    lex_rank = bi.target.lex_rank()
    bi.target.row_norms()  # fill the cache before chunk threads read it

    def retrieve(chunk: slice) -> np.ndarray:
        scores = _cosine_scores(bi.target, bi.source.matrix[queries[chunk]])
        if csls:
            # 2 * scores - r_src - r_tgt, in place; r_src partitions copies of
            # a few rows, so the chunk holds one score block
            r_src = np.empty(len(scores))
            for rows in _row_blocks(len(scores)):
                r_src[rows] = _mean_topk(scores[rows].copy(), CSLS_NEIGHBORHOOD)
            scores *= 2.0
            scores -= r_src[:, None]
            scores -= r_tgt
        return _top_rows(scores, lex_rank, kmax)

    top = itertools.chain.from_iterable(_map_chunks(retrieve, len(entries)))
    details = []
    for (word, golds), row in zip(entries, top):
        retrieved = tuple(bi.target.words[j] for j in row)
        hit_rank = next((pos for pos, cand in enumerate(retrieved, start=1)
                         if cand in golds), 0)
        details.append(TranslationDetail(source=word, gold=tuple(sorted(golds)),
                                         retrieved=retrieved, hit_rank=hit_rank))
    metrics = {f"p_at_{k}": 100.0 * sum(0 < d.hit_rank <= k for d in details)
               / len(entries) for k in ks}
    metrics["n_queries"] = float(len(entries))
    return EvalReport(task="word_translation", metrics=metrics,
                      coverage=len(entries) / len(dictionary),
                      details=tuple(details))


def _rank_of(scores: np.ndarray, gold_idx, candidate_mask: np.ndarray,
             lex_rank: np.ndarray):
    """1-based rank of the gold among masked candidates: strictly better
    scores first, equal scores broken by ascending lexicographic order.
    Row-wise for 2-D ``scores`` and ``candidate_mask`` with one gold index
    per row."""
    gold_idx = np.asarray(gold_idx)
    gold_score = np.take_along_axis(scores, gold_idx[..., None], axis=-1)
    better = candidate_mask & (scores > gold_score)
    tied = (candidate_mask & (scores == gold_score)
            & (lex_rank < lex_rank[gold_idx][..., None]))
    return 1 + np.count_nonzero(better, axis=-1) + np.count_nonzero(tied, axis=-1)


def pair_translation_eval(bi: BilingualSpace, queries: Sequence[AnalogyQuery],
                          occupation_pairs: Sequence[OccupationPair] | None = None,
                          restrict_to: Sequence[str] | None = None) -> EvalReport:
    """Gendered translation-by-analogy over a co-embedded bilingual space.

    Each query ranks source-language candidates by cosine to
    v(english_target) - v(english_context) + v(source_context); the three
    context words are excluded from the candidates (the gold never is).
    Reports mean reciprocal rank per gold gender and their absolute gap.
    With occupation_pairs given, adds the anchor symmetry deviation: the
    mean over English-annotated pairs of |cos(w_m, e) - cos(w_f, e)|.
    A zero gold vector ranks after every nonzero candidate.
    restrict_to narrows the candidate pool for fast smoke tests.
    """
    if not queries:
        raise ValueError("no analogy queries given")
    src, tgt = bi.source, bi.target
    lex_rank = src.lex_rank()
    base_mask = np.full(len(src), restrict_to is None)
    for w in restrict_to or ():
        if w in src:
            base_mask[src.index(w)] = True
    if not base_mask.any():
        raise ValueError("restrict_to leaves no candidates")
    resolved = [q for q in queries
                if q.english_context in tgt and q.english_target in tgt
                and q.source_context in src and q.gold in src]
    targets = (tgt.matrix[tgt.indices(q.english_target for q in resolved)]
               - tgt.matrix[tgt.indices(q.english_context for q in resolved)]
               + src.matrix[src.indices(q.source_context for q in resolved)])
    live = np.linalg.norm(targets, axis=1) > 0.0  # a zero analogy vector has no cosine
    resolved = [q for q, ok in zip(resolved, live) if ok]
    targets = targets[live]
    skipped = len(queries) - len(resolved)
    src.row_norms()  # fill the cache before chunk threads read it

    def ranks_of(rows: slice) -> np.ndarray:
        scores = _cosine_scores(src, targets[rows])
        ranks = np.empty(len(scores), dtype=np.intp)
        # masks and comparisons a few rows at a time, so the chunk holds one
        # score block
        for block in _row_blocks(len(scores)):
            chunk = resolved[rows][block]
            mask = np.repeat(base_mask[None, :], len(chunk), axis=0)
            for row, q in enumerate(chunk):
                for w in (q.source_context, q.english_context, q.english_target):
                    if w in src:
                        mask[row, src.index(w)] = False
            gold_idx = src.indices([q.gold for q in chunk])
            mask[np.arange(len(chunk)), gold_idx] = True  # the gold is always a candidate
            ranks[block] = _rank_of(scores[block], gold_idx, mask, lex_rank)
        return ranks

    rr: dict[str, list[float]] = {"masculine": [], "feminine": []}
    ranks = itertools.chain.from_iterable(_map_chunks(ranks_of, len(resolved)))
    for q, rank in zip(resolved, ranks):
        rr[q.gold_gender].append(1.0 / rank)
    n_resolved = len(rr["masculine"]) + len(rr["feminine"])
    if n_resolved == 0:
        raise ValueError("no analogy query could be resolved against the spaces")
    if skipped:
        logger.info("pair translation: skipped %d of %d queries (missing words)",
                    skipped, len(queries))
    metrics: dict[str, float] = {"n_queries": float(n_resolved)}
    if rr["feminine"]:
        metrics["f_mrr"] = float(np.mean(rr["feminine"]))
    if rr["masculine"]:
        metrics["m_mrr"] = float(np.mean(rr["masculine"]))
    if rr["feminine"] and rr["masculine"]:
        metrics["mrr_diff"] = abs(metrics["m_mrr"] - metrics["f_mrr"])
    if occupation_pairs is not None:
        deviations = []
        for pair in occupation_pairs:
            if (pair.english is None or pair.english not in bi.target
                    or pair.masculine not in src or pair.feminine not in src):
                continue
            e = bi.target.vector(pair.english)
            try:
                deviations.append(abs(cosine(src.vector(pair.masculine), e)
                                      - cosine(src.vector(pair.feminine), e)))
            except ValueError:  # a zero vector
                continue
        if not deviations:
            raise ValueError("anchor symmetry deviation requested but no "
                             "English-annotated occupation pair is covered")
        metrics["asd"] = float(np.mean(deviations))
    return EvalReport(task="pair_translation", metrics=metrics,
                      coverage=n_resolved / len(queries))


def export_projections(space: EmbeddingSpace,
                       annotated_words: Sequence[tuple[str, str]],
                       directions: GenderDirections,
                       ) -> tuple[list[tuple[str, str, float, float]], list[str]]:
    """Rows of (word, group, grammatical projection, semantic projection)
    in the input order.  Missing words are skipped and returned separately."""
    rows = []
    skipped = []
    for word, group in annotated_words:
        if word not in space:
            skipped.append(word)
            continue
        v = space.vector(word)
        rows.append((word, group, float(v @ directions.d_g),
                     float(v @ directions.d_s)))
    if skipped:
        logger.info("projection export skipped %d missing words", len(skipped))
    return rows, skipped


def write_projections_csv(rows: Sequence[tuple[str, str, float, float]], path,
                          meta: str | None = None) -> None:
    """Write projection rows with the header
    word,group,grammatical_proj,semantic_proj (optional # meta line first)."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        if meta is not None:
            fh.write(f"# {meta}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["word", "group", "grammatical_proj", "semantic_proj"])
        for word, group, g_proj, s_proj in rows:
            writer.writerow([word, group, repr(float(g_proj)), repr(float(s_proj))])


def write_translation_csv(details: Sequence[TranslationDetail], path,
                          meta: str | None = None) -> None:
    """Per-query translation detail: source, gold set, retrieved list, the
    1-based rank of the first gold hit (0 = miss)."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        if meta is not None:
            fh.write(f"# {meta}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["source", "gold", "retrieved", "hit_rank"])
        for d in details:
            writer.writerow([d.source, "|".join(d.gold), "|".join(d.retrieved),
                             d.hit_rank])
