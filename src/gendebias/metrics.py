"""Association-based bias metrics and their significance tests.

The core association is

    s(w, A, B) = mean_a cos(w, a) - mean_b cos(w, b),

positive when w sits closer to attribute set A.  On top of it:

* the classic set statistic  s(X, Y, A, B) = sum_x s(x) - sum_y s(y);
* per-word magnitudes for inanimate nouns, |s(w, A, B)|;
* per-pair magnitudes for gendered form pairs, ||s(w_m)| - |s(w_f)||,
  with a signed variant |s(w_m)| - |s(w_f)|;
* the aggregate statistic  | |sum_x s(x)| - |sum_y s(y)| | whose null
  distribution the permutation test samples.

For paired queries the permutation protocol swaps the (masculine,
feminine) labels within each pair; when 2^|pairs| <= 65536 every sign
pattern is enumerated and the p-value is exact.  Either protocol gives its
null as the arrays (sum_x, sum_y), one entry per permutation.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .embeddings import EmbeddingSpace, _unit, _valid_seed

logger = logging.getLogger(__name__)

EXHAUSTIVE_LIMIT = 65_536
MIN_PERMUTATIONS = 100
MIN_CORRELATION_KEYS = 5

# Exceedance comparisons treat |null - observed| within this relative band as
# ties.  Ties are structural for the aggregate statistic: whenever a swap
# pattern leaves the two association sums with opposite signs, the permuted
# statistic equals the observed |sum_x + sum_y| exactly in real arithmetic,
# and only float roundoff from the separate summation paths breaks the
# equality.  Counting those patterns inconsistently would make the
# "exhaustive" p-value depend on summation order.
TIE_REL_TOL = 1e-9


@dataclass(frozen=True)
class BiasQuery:
    """Target words (X vs Y, or masculine/feminine form pairs) and attribute
    sets for one audit.

    For paired queries X[i] and Y[i] are the two forms of the same word and
    must have equal length.  Attribute sets must be non-empty and disjoint.
    Word resolvability is checked at evaluation time, not here.
    """

    x_words: tuple[str, ...]
    y_words: tuple[str, ...]
    attrs_a: tuple[str, ...]
    attrs_b: tuple[str, ...]
    paired: bool = True

    def __post_init__(self):
        object.__setattr__(self, "x_words", tuple(self.x_words))
        object.__setattr__(self, "y_words", tuple(self.y_words))
        object.__setattr__(self, "attrs_a", tuple(self.attrs_a))
        object.__setattr__(self, "attrs_b", tuple(self.attrs_b))
        if not self.x_words or not self.y_words:
            raise ValueError("X and Y must be non-empty")
        if not self.attrs_a or not self.attrs_b:
            raise ValueError("attribute sets must be non-empty")
        if set(self.attrs_a) & set(self.attrs_b):
            w = sorted(set(self.attrs_a) & set(self.attrs_b))[0]
            raise ValueError(f"attribute sets must be disjoint; {w!r} is in both")
        if self.paired and len(self.x_words) != len(self.y_words):
            raise ValueError(f"paired query needs equal sizes, "
                             f"got {len(self.x_words)} vs {len(self.y_words)}")

    @property
    def n_pairs(self) -> int:
        if not self.paired:
            raise ValueError("n_pairs is undefined for unpaired queries")
        return len(self.x_words)


def _unit_rows(space: EmbeddingSpace, words: Sequence[str]) -> np.ndarray:
    idx = space.indices(words)
    norms = space.row_norms()[idx]
    if np.any(norms == 0.0):
        bad = words[int(np.argmax(norms == 0.0))]
        raise ValueError(f"zero vector for {bad!r}")
    return _unit(space.matrix[idx], norms, words)


def association_scores(words: Sequence[str], attrs_a: Sequence[str],
                       attrs_b: Sequence[str], space: EmbeddingSpace) -> np.ndarray:
    """Vectorized s(w, A, B) for a batch of words."""
    if not attrs_a or not attrs_b:
        raise ValueError("attribute sets must be non-empty")
    w = _unit_rows(space, list(words))
    a = _unit_rows(space, list(attrs_a))
    b = _unit_rows(space, list(attrs_b))
    return (w @ a.T).mean(axis=1) - (w @ b.T).mean(axis=1)


def weat_assoc(word: str, attrs_a: Sequence[str], attrs_b: Sequence[str],
               space: EmbeddingSpace) -> float:
    """s(w, A, B): mean cosine to A minus mean cosine to B."""
    return float(association_scores([word], attrs_a, attrs_b, space)[0])


def weat_statistic(x_words: Sequence[str], y_words: Sequence[str],
                   attrs_a: Sequence[str], attrs_b: Sequence[str],
                   space: EmbeddingSpace) -> float:
    """Classic set statistic: sum_x s(x, A, B) - sum_y s(y, A, B)."""
    sx = association_scores(x_words, attrs_a, attrs_b, space)
    sy = association_scores(y_words, attrs_a, attrs_b, space)
    return float(sx.sum() - sy.sum())


def mweat_inanimate(word: str, attrs_a: Sequence[str], attrs_b: Sequence[str],
                    space: EmbeddingSpace) -> float:
    """Bias magnitude of a single inanimate noun: |s(w, A, B)|."""
    return abs(weat_assoc(word, attrs_a, attrs_b, space))


def mweat_pair(word_m: str, word_f: str, attrs_a: Sequence[str],
               attrs_b: Sequence[str], space: EmbeddingSpace,
               signed: bool = False) -> float:
    """Per-pair bias of a gendered form pair.

    Unsigned (default): ||s(w_m)| - |s(w_f)||.  Signed: |s(w_m)| - |s(w_f)|,
    positive when the masculine form carries the stronger association.
    """
    s_m = weat_assoc(word_m, attrs_a, attrs_b, space)
    s_f = weat_assoc(word_f, attrs_a, attrs_b, space)
    value = abs(s_m) - abs(s_f)
    return value if signed else abs(value)


def _aggregate(sum_x, sum_y):  # floats, or arrays elementwise
    return abs(abs(sum_x) - abs(sum_y))


def mweat_aggregate(query: BiasQuery, space: EmbeddingSpace) -> float:
    """Aggregate statistic | |sum_x s(x)| - |sum_y s(y)| |."""
    sx = association_scores(query.x_words, query.attrs_a, query.attrs_b, space)
    sy = association_scores(query.y_words, query.attrs_a, query.attrs_b, space)
    return _aggregate(float(sx.sum()), float(sy.sum()))


def _pair_swap_sums(s_x: np.ndarray, s_y: np.ndarray, n_perm: int,
                    seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(sum_x, sum_y) of the null under within-pair label swaps: a swap of
    pair i moves sum_x by y_i - x_i and sum_y by the opposite.  Exhaustive
    mode drops code 0, the identity, after the product: a pattern matrix
    without it gives other rows different bits."""
    n = len(s_x)
    exhaustive = (1 << n) <= EXHAUSTIVE_LIMIT
    if exhaustive:
        codes = np.arange(1 << n, dtype=np.uint32)
        swaps = ((codes[:, None] >> np.arange(n)) & 1).astype(bool)
    else:
        swaps = np.random.default_rng(seed).random((n_perm, n)) < 0.5
    delta = (swaps @ (s_y - s_x))[1 if exhaustive else 0:]
    return s_x.sum() + delta, s_y.sum() - delta


def _partition_sums(s_all: np.ndarray, size_x: int, n_perm: int,
                    seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(sum_x, sum_y) of the null under random equal-size repartitions of
    X union Y, each draw summed as its own 1-D slice."""
    rng = np.random.default_rng(seed)
    sum_x = np.empty(n_perm)
    for i in range(n_perm):
        sum_x[i] = s_all[rng.permutation(s_all.shape[0])[:size_x]].sum()
    return sum_x, s_all.sum() - sum_x


def _permutation(query: BiasQuery, space: EmbeddingSpace, n_perm: int,
                 seed: int, protocol: str | None,
                 ) -> tuple[float, float, int, np.ndarray, np.ndarray]:
    """Shared permutation machinery.

    Returns (observed statistic, p-value, permutation count actually used,
    and the x and y association scores).  The null leaves out the identity,
    and p = (#{null >= observed} + 1) / (len(null) + 1); in exhaustive
    pair-swap mode this equals the exact enumeration value
    #{null >= observed} / 2^n.  Null values within TIE_REL_TOL of the
    observed statistic count as exceedances, so structural ties survive
    float roundoff.
    """
    if n_perm < MIN_PERMUTATIONS:
        raise ValueError(f"n_perm must be >= {MIN_PERMUTATIONS}, got {n_perm}")
    _valid_seed(seed)
    if protocol is None:
        protocol = "pair_swap" if query.paired else "partition"
    if protocol not in ("pair_swap", "partition"):
        raise ValueError(f"unknown protocol {protocol!r}")
    if protocol == "pair_swap" and not query.paired:
        raise ValueError("pair_swap protocol requires a paired query")
    sx = association_scores(query.x_words, query.attrs_a, query.attrs_b, space)
    sy = association_scores(query.y_words, query.attrs_a, query.attrs_b, space)
    observed = _aggregate(float(sx.sum()), float(sy.sum()))
    if protocol == "pair_swap":
        sum_x, sum_y = _pair_swap_sums(sx, sy, n_perm, seed)
    else:
        if query.paired:
            logger.info("running partition protocol on a paired query")
        sum_x, sum_y = _partition_sums(np.concatenate([sx, sy]), len(sx),
                                       n_perm, seed)
    null = _aggregate(sum_x, sum_y)
    exceed = int(np.count_nonzero(null >= observed - TIE_REL_TOL * (1.0 + observed)))
    return observed, (exceed + 1) / (len(null) + 1), len(null), sx, sy


def permutation_test(query: BiasQuery, space: EmbeddingSpace,
                     n_perm: int = 10_000, seed: int = 0,
                     protocol: str | None = None) -> float:
    """P-value of the observed mweat_aggregate under the permutation null.

    protocol=None picks pair_swap for paired queries, the classic
    equal-partition protocol otherwise.  Deterministic for a fixed seed;
    exhaustive enumeration replaces sampling when 2^|pairs| <= 65536.
    """
    return _permutation(query, space, n_perm, seed, protocol)[1]


@dataclass(frozen=True)
class PairScore:
    word_m: str
    word_f: str
    s_m: float
    s_f: float
    b_unsigned: float
    b_signed: float


@dataclass(frozen=True)
class WordScore:
    word: str
    s: float
    b: float


@dataclass(frozen=True)
class BiasReport:
    """Full audit output: per-word scores, the aggregate statistic, and its
    permutation p-value."""

    pairs: tuple[PairScore, ...]
    inanimates: tuple[WordScore, ...]
    statistic: float
    p_value: float
    n_permutations: int
    seed: int
    protocol: str = "pair_swap"

    def __post_init__(self):
        if not (0.0 < self.p_value <= 1.0):
            raise ValueError(f"p_value out of range: {self.p_value}")
        if self.statistic < 0.0:
            raise ValueError(f"aggregate statistic must be >= 0, got {self.statistic}")

    def to_json_dict(self) -> dict:
        per_word = [
            {"pair": [p.word_m, p.word_f], "s_m": p.s_m, "s_f": p.s_f,
             "b": p.b_unsigned, "b_signed": p.b_signed}
            for p in self.pairs
        ]
        per_word += [{"word": w.word, "s": w.s, "b": w.b} for w in self.inanimates]
        return {
            "per_word": per_word,
            "statistic": self.statistic,
            "p_value": self.p_value,
            "n_permutations": self.n_permutations,
            "seed": self.seed,
            "protocol": self.protocol,
        }


def audit_bias(lexicon, space: EmbeddingSpace, n_perm: int = 10_000,
               seed: int = 0) -> BiasReport:
    """Score every occupation pair and inanimate noun against the lexicon's
    attribute sets, then test the aggregate with the paired protocol."""
    if not lexicon.occupation_pairs:
        raise ValueError("lexicon has no occupation pairs to audit")
    x_words = tuple(p.masculine for p in lexicon.occupation_pairs)
    y_words = tuple(p.feminine for p in lexicon.occupation_pairs)
    query = BiasQuery(x_words=x_words, y_words=y_words,
                      attrs_a=lexicon.attributes_male,
                      attrs_b=lexicon.attributes_female, paired=True)
    observed, p, n_used, sx, sy = _permutation(query, space, n_perm, seed,
                                               "pair_swap")
    pairs = tuple(
        PairScore(word_m=m, word_f=f, s_m=float(sm), s_f=float(sf),
                  b_unsigned=abs(abs(float(sm)) - abs(float(sf))),
                  b_signed=abs(float(sm)) - abs(float(sf)))
        for m, f, sm, sf in zip(x_words, y_words, sx, sy))
    inanimates = ()
    if lexicon.inanimate_nouns:
        s_in = association_scores(lexicon.inanimate_nouns, query.attrs_a,
                                  query.attrs_b, space)
        inanimates = tuple(WordScore(word=w, s=float(s), b=abs(float(s)))
                           for w, s in zip(lexicon.inanimate_nouns, s_in))
    return BiasReport(pairs=pairs, inanimates=inanimates, statistic=observed,
                      p_value=p, n_permutations=n_used, seed=seed)


def bias_correlation(scores_a: Mapping[str, float],
                     scores_b: Mapping[str, float]) -> tuple[float, float]:
    """Spearman correlation between two per-word score maps over their key
    intersection (ties get average ranks; p from the t approximation).
    The arithmetic is scipy 1.17's ``spearmanr``, so rho and p are that
    version's floats; only the Student-t tail, ``scipy.special.stdtr``, is
    imported.  Raises ValueError when a score there is not finite (naming
    its key and map) or when either map is constant there (rho is
    undefined)."""
    keys = sorted(set(scores_a) & set(scores_b))
    if len(keys) < MIN_CORRELATION_KEYS:
        raise ValueError(f"need at least {MIN_CORRELATION_KEYS} shared words, "
                         f"have {len(keys)}")
    a = np.array([scores_a[k] for k in keys], dtype=np.float64)
    b = np.array([scores_b[k] for k in keys], dtype=np.float64)
    for name, column in (("first", a), ("second", b)):
        bad = np.flatnonzero(~np.isfinite(column))
        if bad.size:
            raise ValueError(f"non-finite score {float(column[bad[0]])!r} for "
                             f"{keys[bad[0]]!r} in the {name} map")
        if column.min() == column.max():
            raise ValueError(f"Spearman rho is undefined: the {name} map scores all "
                             f"{len(keys)} shared words equally")
    # two rows in memory, as scipy's rank columns transpose to, so np.cov
    # sums in scipy's order
    rho = np.corrcoef(np.vstack((_average_ranks(a), _average_ranks(b))))[1, 0]
    dof = len(keys) - 2
    with np.errstate(divide="ignore"):  # rho = +-1 gives t = +-inf, p = 0
        t = rho * np.sqrt((dof / ((rho + 1.0) * (1.0 - rho))).clip(0))
    from scipy.special import stdtr  # imported here: no other CLI step needs scipy

    return float(rho), float(2 * stdtr(dof, -abs(t)))


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of x, tied values sharing the mean of their ranks.  The
    ranks are half-integers, so they are exactly scipy's ``rankdata``."""
    _, group, counts = np.unique(x, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[group]
