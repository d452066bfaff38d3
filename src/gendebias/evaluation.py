"""Quality and bias evaluation: word similarity, exact cosine retrieval
(top-k, word translation), gendered translation-by-analogy, and projection
exports."""

from __future__ import annotations

import csv
import itertools
import logging
import math
import os
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .directions import GenderDirections
from .embeddings import (BilingualSpace, EmbeddingSpace, _norms, _row_blocks,
                         _unit, _ZeroVector, cosine)
from .lexicon import AnalogyQuery, BilingualDictionary, OccupationPair

logger = logging.getLogger(__name__)

MIN_SIMILARITY_ROWS = 5
CSLS_NEIGHBORHOOD = 10
# Query rows scored per matrix product, one column tile of the searched
# vocabulary at a time (_TILE).  BLAS may round a product of another height
# differently, so results hold their bits only while this stays fixed.
_SCORE_CHUNK = 1024
# A CSLS candidate is kept while 2·cos - r_tgt lies within this of its row's
# k-th best.  Its exact score (2·cos - r_src) - r_tgt differs from that
# value less r_src by a few 1e-16 of rounding, so no column of the true top
# k is dropped.
_CSLS_SLACK = 1e-12

# Rows per step where a row-wise operation on a score block needs scratch
# memory (a partition copy, candidate masks): the scratch stays a few rows,
# whatever the block's height.
_PARTITION_ROWS = 16

# Columns per score tile.  Retrieval scores a chunk of queries one tile of
# the searched vocabulary at a time, so a 1,024-row chunk holds 32 MiB of
# scores whatever the vocabulary's size.  Tiles start at fixed multiples of
# _TILE from column 0, and a final one-column tile joins the one before it
# (numpy computes a one-column product by another routine): on the running
# BLAS a tile's scores then have the bits of the same columns of the whole
# product (test_column_tiles_of_a_product_are_bit_identical).
_TILE = 4096

# Smallest buffer, in float64s, a block of cosine scores is computed in:
# 32 MiB and a page.  glibc's malloc maps a block above 32 MiB on its own
# and unmaps it when freed, however its dynamic mmap threshold has moved,
# and only the pages a product writes are resident.  Smaller tiles (a
# vocabulary's last, a short chunk's) would otherwise come from the heap
# arena of the chunk thread that freed the last one, and how much of that
# stays resident, so the process's peak RSS, would vary with thread timing.
_SCORE_BUFFER = ((32 << 20) + 4096) // 8


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
    The arithmetic is scipy 1.17's ``pearsonr``, done in numpy, so r is
    that version's float.  Raises ValueError when a row's human score is
    not finite (naming the row), when a norm of ``space`` overflows float64
    (row_norms), or when either column is constant (r is undefined)."""
    if not dataset:
        raise ValueError("empty similarity dataset")
    space.row_norms()  # a word whose norm overflows is named
    model, human = [], []
    for row, (w1, w2, score) in enumerate(dataset):
        if not math.isfinite(score):
            raise ValueError(f"similarity row {row} ({w1!r}, {w2!r}): "
                             f"non-finite human score {score!r}")
        if w1 in space and w2 in space:
            try:
                cos = cosine(space.vector(w1), space.vector(w2))
            except _ZeroVector:
                continue
            model.append(cos)
            human.append(score)
    if len(model) < MIN_SIMILARITY_ROWS:
        raise ValueError(f"only {len(model)} of {len(dataset)} rows covered; "
                         f"need at least {MIN_SIMILARITY_ROWS}")
    for name, column in (("model cosines", model), ("human scores", human)):
        if min(column) == max(column):
            raise ValueError(f"Pearson r is undefined: the {name} of all "
                             f"{len(model)} covered rows are equal")
    r = np.clip(np.dot(_centred_unit(model), _centred_unit(human)), -1.0, 1.0)
    return EvalReport(task="word_similarity",
                      metrics={"pearson_r": float(r), "n_pairs": float(len(model))},
                      coverage=len(model) / len(dataset))


def _centred_unit(column: Sequence[float]) -> np.ndarray:
    """column minus its mean, over its Euclidean norm.  As in scipy's
    ``pearsonr``, the norm is taken of the column over its largest
    magnitude, then scaled back, so that no square overflows.  ``axis=-1``
    makes norm sum the squares as scipy's does; without an axis it takes a
    dot product, which rounds differently."""
    column = np.asarray(column, dtype=np.float64)
    centred = column - column.mean()
    largest = abs(centred).max()
    return centred / (largest * np.linalg.norm(centred / largest, axis=-1))


def _chunk_threads() -> int:
    """Threads scoring chunks at once: two where two CPUs are usable.  Each
    chunk in flight holds one score tile, so retrieval memory grows with
    this count; two keep it within the bound the README documents."""
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


def _cosine_scores(space: EmbeddingSpace, queries: np.ndarray, cols: slice) -> np.ndarray:
    """Cosine of each query row against the rows ``cols`` of ``space``, from
    the raw matrix and its row_norms().  Zero rows of ``space`` score -inf,
    so they come after every other row.  A query with a non-finite component,
    then a zero query, then one whose norm overflows float64 raises ValueError."""
    qn = _norms(queries)
    if not np.isfinite(queries[~np.isfinite(qn)]).all():
        raise ValueError("non-finite components in a query vector")
    if np.any(qn == 0.0):
        raise ValueError("cosine undefined for zero query vector")
    if np.isinf(qn).any():
        raise ValueError("the norm of a query vector overflows float64")
    norms = space.row_norms()[cols]
    live = norms > 0.0
    block = space.matrix[cols]
    size = len(queries) * len(block)
    scores = np.empty(max(size, _SCORE_BUFFER))[:size].reshape(len(queries), len(block))
    np.matmul(_unit(queries, qn, [None] * len(queries)), block.T, out=scores)
    scores /= np.where(live, norms, 1.0)
    scores[:, ~live] = -np.inf
    return scores


def _column_tiles(n: int) -> list[slice]:
    """The column tiles of an ``n``-column score block: slices starting at
    multiples of _TILE, a final one-column tile joined to the one before."""
    starts = list(range(0, n, _TILE))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def _shortlist(keys, n: int, k: int, slack: float = 0.0):
    """(rows, cols, keys) of the entries of an ``n``-row array that lie at
    or above their row's k-th largest key less ``slack``, every tie
    included (all of a row shorter than k).  ``keys(rows)`` gives the
    array's rows _PARTITION_ROWS at a time, so the scratch stays a few rows."""
    found = []
    for rows in _row_blocks(n, _PARTITION_ROWS):
        block = keys(rows)
        m = block.shape[1]
        kth = np.partition(block, m - min(k, m), axis=1)[:, m - min(k, m)]
        r, c = np.nonzero(block >= (kth - slack)[:, None])
        found.append((r + rows.start, c, block[r, c]))
    return tuple(map(np.concatenate, zip(*found)))


def _within(rows: np.ndarray, keys: np.ndarray, n: int, k: int,
            slack: float = 0.0) -> np.ndarray:
    """Mask of the candidates (one row index and key each, every one of the
    ``n`` rows holding some) whose key lies at or above their row's k-th
    largest less ``slack`` (all of a row with fewer than k)."""
    order = np.lexsort((-keys, rows))
    ordered = rows[order]
    first = np.searchsorted(ordered, np.arange(n))
    last = np.minimum(first + k, np.searchsorted(ordered, np.arange(n), side="right"))
    return keys >= keys[order[last - 1]][rows] - slack


def _select(rows: np.ndarray, cols: np.ndarray, scores: np.ndarray,
            lex_rank: np.ndarray, n: int, k: int) -> np.ndarray:
    """The ``k`` best candidates' columns of each of ``n`` rows (every row
    holding at least k), best first, equal scores in ascending ``lex_rank``
    order: one lexsort on (lex_rank, -score, row) cut at k."""
    order = np.lexsort((lex_rank[cols], -scores, rows))
    first = np.searchsorted(rows[order], np.arange(n))
    return cols[order][first[:, None] + np.arange(k)]


def _top_values(scores: np.ndarray, k: int) -> np.ndarray:
    """The min(k, width) largest entries of each row, in no given order.
    Partitions ``scores`` in place."""
    m = scores.shape[1]
    k = min(k, m)
    scores.partition(m - k, axis=1)
    return scores[:, m - k:]


def _merge_top(top: np.ndarray | None, scores: np.ndarray, k: int) -> np.ndarray:
    """The k largest entries of each row over ``top`` (each row's k largest
    of the tiles before; None before the first) and the tile ``scores``,
    which this partitions in place."""
    tile_top = _top_values(scores, k)
    return tile_top.copy() if top is None else _top_values(np.hstack([top, tile_top]), k)


def _mean_topk(top: np.ndarray) -> np.ndarray:
    """Row-wise mean of the finite entries of ``top``, each row's k largest
    scores (-inf, a zero vector's score, is no neighbor); 0 for a row
    without any.  They are summed in ascending order, so the mean does not
    depend on the tiles they were gathered over."""
    top = np.sort(top, axis=1)
    finite = np.isfinite(top)
    return np.where(finite, top, 0.0).sum(axis=1) / np.maximum(finite.sum(axis=1), 1)


def _neighbours(score_tile, m: int) -> np.ndarray:
    """Each row's CSLS_NEIGHBORHOOD largest scores in a score block of ``m``
    columns, which ``score_tile(cols)`` gives one tile of _column_tiles(m)
    at a time."""
    top = None
    for cols in _column_tiles(m):
        top = _merge_top(top, score_tile(cols), CSLS_NEIGHBORHOOD)
    return top


def _csls_adjustment(bi: BilingualSpace) -> np.ndarray:
    """Per-target mean cosine to its CSLS_NEIGHBORHOOD nearest mapped-source
    vectors, computed in chunks against the full source vocabulary, one
    column tile at a time; 0 for a zero target vector."""
    r_tgt = np.zeros(len(bi.target))
    live = np.flatnonzero(bi.target.row_norms() > 0.0)

    def adjust(chunk: slice) -> None:
        rows = live[chunk]
        queries = bi.target.matrix[rows]
        r_tgt[rows] = _mean_topk(_neighbours(
            lambda cols: _cosine_scores(bi.source, queries, cols), len(bi.source)))

    _map_chunks(adjust, live.size)
    return r_tgt


def _retrieve(score_tile, n: int, m: int, lex_rank: np.ndarray, k: int,
              r_tgt: np.ndarray | None = None) -> np.ndarray:
    """Column indices of the ``k`` best of ``m`` columns for each of ``n``
    rows, best first, equal scores in ascending ``lex_rank`` order, on the
    score block or with ``r_tgt`` on its CSLS scores (2·cos - r_src) - r_tgt,
    r_src being the _mean_topk of each row's CSLS_NEIGHBORHOOD best cosines.
    ``score_tile(cols)`` gives the block's columns ``cols``, one tile of
    _column_tiles(m) at a time.  Between tiles only each row's candidates
    are kept: the columns that can still be among its k best, ties included
    (for CSLS, those whose 2·cos - r_tgt lies within _CSLS_SLACK of the
    row's k-th, as r_src is known only after the last tile)."""
    k = min(k, m)
    slack = 0.0 if r_tgt is None else _CSLS_SLACK
    empty = np.empty(0, dtype=np.intp)
    kept = (empty, empty, np.empty(0), np.empty(0))  # rows, cols, keys, cosines
    top = None
    for cols in _column_tiles(m):
        scores = score_tile(cols)

        def keys(rows):
            return scores[rows] if r_tgt is None else 2.0 * scores[rows] - r_tgt[cols]

        rows, tile_cols, tile_keys = _shortlist(keys, n, k, slack)
        found = (rows, tile_cols + cols.start, tile_keys, scores[rows, tile_cols])
        kept = tuple(map(np.concatenate, zip(kept, found)))
        if cols.stop < m:  # _select cuts after the last tile
            keep = _within(kept[0], kept[2], n, k, slack)
            kept = tuple(a[keep] for a in kept)
        if r_tgt is not None:
            top = _merge_top(top, scores, CSLS_NEIGHBORHOOD)
    rows, cols, _, scores = kept
    if r_tgt is not None:
        scores = (2.0 * scores - _mean_topk(top)[rows]) - r_tgt[cols]
    return _select(rows, cols, scores, lex_rank, n, k)


@dataclass(frozen=True)
class Neighbor:
    """One retrieval hit: word, cosine score, 1-based rank."""

    word: str
    score: float
    rank: int


def top_k(query: np.ndarray, space: EmbeddingSpace, k: int,
          exclude: Iterable[str] = ()) -> list[Neighbor]:
    """Exact brute-force k nearest neighbors by cosine.

    Ties are broken by ascending lexicographic word order, so results are
    deterministic, and zero vectors come last.  Fewer than ``k`` neighbors
    come back only when the candidate set is smaller than ``k``.  Raises
    ValueError for a query with a non-finite component, a zero query, and a
    query or a row of ``space`` whose norm overflows float64.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    query = np.asarray(query, dtype=np.float64)
    if query.shape != (space.dim,):
        raise ValueError(f"query shape {query.shape} does not match dim {space.dim}")
    scores = _cosine_scores(space, query[None, :], slice(None))
    excluded = {space.index(w) for w in exclude if w in space}
    if len(excluded) == len(space):
        raise ValueError("empty candidate set after exclusion")
    # dropping e columns from a ranking moves any other up by at most e
    # places, so the k best of the rest are among the k + e best of all
    best = _retrieve(lambda cols: scores[:, cols], 1, len(space), space.lex_rank(),
                     k + len(excluded))[0]
    top = [i for i in best.tolist() if i not in excluded][:k]
    return [Neighbor(space.words[i], float(np.clip(scores[0, i], -1.0, 1.0)), rank)
            for rank, i in enumerate(top, start=1)]


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
    skipped and reported through coverage; a zero query vector, or a norm
    of either space that overflows float64, is an error, and zero target
    vectors are retrieved after every other target.  With csls=True scores
    are adjusted by the mean similarity of each target to its 10 nearest
    mapped-source neighbors (and of each query to its 10 nearest targets).
    """
    ks = sorted(set(int(k) for k in ks))
    if not ks or ks[0] < 1:
        raise ValueError(f"invalid k list: {ks}")
    kmax = ks[-1]
    entries = [(w, set(golds)) for w, golds in dictionary.items() if w in bi.source]
    if not entries:
        raise ValueError("no dictionary entry has its source word in the space")
    queries = bi.source.indices(w for w, _ in entries)
    if np.any(bi.source.row_norms()[queries] == 0.0):
        raise ValueError("zero vector among query words")
    r_tgt = _csls_adjustment(bi) if csls else None
    lex_rank = bi.target.lex_rank()

    def retrieve(chunk: slice) -> np.ndarray:
        rows = bi.source.matrix[queries[chunk]]
        return _retrieve(lambda cols: _cosine_scores(bi.target, rows, cols),
                         len(rows), len(bi.target), lex_rank, kmax, r_tgt)

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


def _ranks(score_tile, m: int, gold: np.ndarray, excluded: np.ndarray,
           lex_rank: np.ndarray) -> np.ndarray:
    """The 1-based rank of each row's gold column among the columns of a
    score block of ``m`` columns but the row's ``excluded`` ones (an (n, 3)
    array, -1 for none): strictly better scores first, equal scores broken
    by ascending ``lex_rank``.  ``score_tile(cols)`` gives the block's
    columns ``cols``, one tile of _column_tiles(m) at a time, in an array
    this overwrites.  The tiles that hold the golds are scored first and
    each gold's score read from its own tile; then every tile's columns are
    counted against those scores, the last gold tile first while it is in
    hand, so golds in k tiles score k - 1 tiles twice.  Excluded cells
    become NaN, which compares false, so they are never ahead, and a gold's
    own cell ties itself.  Every decision compares the block's own bits."""
    n = len(gold)
    tiles = _column_tiles(m)
    held = np.searchsorted([cols.start for cols in tiles], gold, side="right") - 1
    gold_score = np.empty(n)
    # leaves t and scores at the last gold tile.  Not np.unique: its first
    # call in a process left the spaces an eval-pairs run freed resident
    for t in sorted(set(held.tolist())):
        scores = score_tile(tiles[t])
        here = np.flatnonzero(held == t)
        gold_score[here] = scores[here, gold[here] - tiles[t].start]
    gold_lex = lex_rank[gold]
    ahead = np.zeros(n, dtype=np.intp)
    for i in [t, *range(t), *range(t + 1, len(tiles))]:
        cols = tiles[i]
        if i != t:
            scores = score_tile(cols)
        r, j = np.nonzero((excluded >= cols.start) & (excluded < cols.stop))
        scores[r, excluded[r, j] - cols.start] = np.nan
        lex = lex_rank[cols]
        for rows in _row_blocks(n, _PARTITION_ROWS):
            block, score = scores[rows], gold_score[rows, None]
            ahead[rows] += np.count_nonzero(
                (block > score) | ((block == score) & (lex < gold_lex[rows, None])),
                axis=1)
    return 1 + ahead


def pair_translation_eval(bi: BilingualSpace, queries: Sequence[AnalogyQuery],
                          occupation_pairs: Sequence[OccupationPair] | None = None,
                          ) -> EvalReport:
    """Gendered translation-by-analogy over a co-embedded bilingual space.

    Each query ranks source-language candidates by cosine to
    v(english_target) - v(english_context) + v(source_context).  Every
    source word is a candidate but the query's three context words (the
    English two where the source vocabulary holds them); the gold always
    is one, even when it is a context word.
    Reports mean reciprocal rank per gold gender and their absolute gap.
    With occupation_pairs given, adds the anchor symmetry deviation: the
    mean over English-annotated pairs of |cos(w_m, e) - cos(w_f, e)|.
    A zero gold vector ranks after every nonzero candidate.
    """
    if not queries:
        raise ValueError("no analogy queries given")
    src, tgt = bi.source, bi.target
    lex_rank = src.lex_rank()
    src.row_norms(), tgt.row_norms()  # a word whose norm overflows is named
    resolved = [q for q in queries
                if q.english_context in tgt and q.english_target in tgt
                and q.source_context in src and q.gold in src]
    targets = (tgt.matrix[tgt.indices(q.english_target for q in resolved)]
               - tgt.matrix[tgt.indices(q.english_context for q in resolved)]
               + src.matrix[src.indices(q.source_context for q in resolved)])
    live = _norms(targets) > 0.0  # a zero analogy vector has no cosine
    resolved = [q for q, ok in zip(resolved, live) if ok]
    targets = targets[live]
    skipped = len(queries) - len(resolved)
    deviations = None if occupation_pairs is None else []
    for pair in occupation_pairs or ():
        if (pair.english is None or pair.english not in tgt
                or pair.masculine not in src or pair.feminine not in src):
            continue
        e = tgt.vector(pair.english)
        try:
            deviations.append(abs(cosine(src.vector(pair.masculine), e)
                                  - cosine(src.vector(pair.feminine), e)))
        except _ZeroVector:
            continue
    if not resolved:
        raise ValueError("no analogy query could be resolved against the spaces")

    def ranks_of(rows: slice) -> np.ndarray:
        chunk = resolved[rows]
        queries = targets[rows]
        excluded = np.array([[src.index(w) if w in src else -1 for w in
                              (q.source_context, q.english_context, q.english_target)]
                             for q in chunk], dtype=np.intp)
        return _ranks(lambda cols: _cosine_scores(src, queries, cols), len(src),
                      src.indices([q.gold for q in chunk]), excluded, lex_rank)

    rr = 1.0 / np.concatenate(_map_chunks(ranks_of, len(resolved)))
    gender = np.array([q.gold_gender for q in resolved])
    if skipped:
        logger.info("pair translation: skipped %d of %d queries (missing words)",
                    skipped, len(queries))
    metrics: dict[str, float] = {"n_queries": float(len(resolved))}
    for name, key in (("feminine", "f_mrr"), ("masculine", "m_mrr")):
        mask = gender == name
        if mask.any():
            metrics[key] = float(np.mean(rr[mask]))
    if "f_mrr" in metrics and "m_mrr" in metrics:
        metrics["mrr_diff"] = abs(metrics["m_mrr"] - metrics["f_mrr"])
    if deviations is not None:
        if not deviations:
            raise ValueError("anchor symmetry deviation requested but no "
                             "English-annotated occupation pair is covered")
        metrics["asd"] = float(np.mean(deviations))
    return EvalReport(task="pair_translation", metrics=metrics,
                      coverage=len(resolved) / len(queries))


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
    _write_csv(path, meta, ["word", "group", "grammatical_proj", "semantic_proj"],
               ([word, group, repr(float(g_proj)), repr(float(s_proj))]
                for word, group, g_proj, s_proj in rows))


def write_translation_csv(details: Sequence[TranslationDetail], path,
                          meta: str | None = None) -> None:
    """Per-query translation detail: source, gold set, retrieved list, the
    1-based rank of the first gold hit (0 = miss)."""
    _write_csv(path, meta, ["source", "gold", "retrieved", "hit_rank"],
               ([d.source, "|".join(d.gold), "|".join(d.retrieved), d.hit_rank]
                for d in details))


def _write_csv(path, meta: str | None, header: list[str], rows) -> None:
    """``header`` and ``rows`` as UTF-8 CSV, after a ``# meta`` line if given."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        if meta is not None:
            fh.write(f"# {meta}\n")
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])
