"""Gender direction geometry.

Two directions are extracted per space and then decoupled:

* the semantic direction, the top principal component of mean-centered
  (feminine - masculine) definitional difference vectors, oriented so that
  the feminine side is positive;
* the grammatical direction, a two-class ridge LDA over grammatically
  masculine vs. feminine noun lists, same orientation convention.

The semantic direction is orthogonalized against the grammatical one so
that projections onto it measure semantic gender with the grammatical
component removed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .embeddings import BilingualSpace, EmbeddingSpace, _valid_seed

logger = logging.getLogger(__name__)

DEFAULT_RIDGE = 1e-3

# Residual threshold below which mean-centered differences count as identical.
_DEGENERATE_TOL = 1e-12


def project(vector: np.ndarray, direction: np.ndarray) -> float:
    """Scalar projection <vector, direction>."""
    vector = np.asarray(vector, dtype=np.float64)
    direction = np.asarray(direction, dtype=np.float64)
    if vector.shape != direction.shape:
        raise ValueError(f"dimension mismatch: {vector.shape} vs {direction.shape}")
    return float(np.dot(vector, direction))


def _dedupe_pairs(pairs: Sequence[tuple[str, str]]) -> list[tuple[str, str]]:
    seen: set[tuple[str, str]] = set()
    out = []
    for p in pairs:
        key = (p[0], p[1])
        if key not in seen:
            seen.add(key)
            out.append(key)
    return out


def _difference_rows(space: EmbeddingSpace,
                     pairs: Sequence[tuple[str, str]]) -> np.ndarray:
    """One (feminine - masculine) row per pair."""
    return (space.matrix[space.indices(f for _, f in pairs)]
            - space.matrix[space.indices(m for m, _ in pairs)])


def _pca_over_differences(diffs: np.ndarray) -> tuple[np.ndarray, float]:
    """Oriented top principal component of mean-centered difference rows."""
    mean_diff = diffs.mean(axis=0)
    centered = diffs - mean_diff
    if np.all(np.linalg.norm(centered, axis=1) <= _DEGENERATE_TOL):
        # all differences identical: the common difference is the direction
        norm = np.linalg.norm(mean_diff)
        if norm == 0.0:
            raise ValueError("definitional differences are all zero")
        return mean_diff / norm, 1.0
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    direction = vt[0]
    explained = s[0] ** 2 / (s ** 2).sum()
    if np.dot(mean_diff, direction) < 0.0:
        direction = -direction
    return direction, float(explained)


def semantic_direction(space: EmbeddingSpace,
                       definitional_pairs: Sequence[tuple[str, str]],
                       ) -> tuple[np.ndarray, float]:
    """Top principal component of mean-centered (feminine - masculine)
    definitional differences.

    Returns (unit direction, explained variance ratio).  The sign is fixed
    so that <mean(feminine) - mean(masculine), direction> >= 0.  Pairs not
    fully covered by the space are skipped; duplicates count once.
    """
    pairs = _dedupe_pairs(definitional_pairs)
    usable = [(m, f) for m, f in pairs if m in space and f in space]
    if len(usable) < 2:
        raise ValueError(f"need at least 2 covered definitional pairs, "
                         f"have {len(usable)}")
    return _pca_over_differences(_difference_rows(space, usable))


class _TooFewNouns(ValueError):
    """A noun class too small to fit or to split into folds: CV is skipped."""


def _check_lda_classes(n_masc: int, n_fem: int, dim: int, ridge: float) -> None:
    """Input checks shared by every LDA fit: a finite ridge >= 0, two nouns
    per class, and a warning when a class is small for the dimension."""
    if not np.isfinite(ridge):
        raise ValueError(f"ridge must be finite, got {ridge}")
    if ridge < 0.0:
        raise ValueError(f"ridge must be >= 0, got {ridge}")
    if n_masc < 2 or n_fem < 2:
        raise _TooFewNouns(f"need at least 2 covered nouns per class, "
                           f"have {n_masc} masculine / {n_fem} feminine")
    if min(n_masc, n_fem) < dim / 10:
        logger.warning("small noun classes for LDA (%d/%d words, dim %d)",
                       n_masc, n_fem, dim)


def _lda_solve(pooled: np.ndarray, mean_gap: np.ndarray,
               ridge: float) -> np.ndarray:
    """Unit solution of (pooled + eps*I) d = mean_gap with
    eps = ridge * trace(pooled) / dim; eps = 0 requires a full-rank pooled
    covariance."""
    dim = pooled.shape[0]
    eps = ridge * float(np.trace(pooled)) / dim
    if eps == 0.0:
        s = np.linalg.svd(pooled, compute_uv=False)
        if s.min() <= s.max() * dim * np.finfo(float).eps:
            raise ValueError("pooled covariance is rank-deficient; "
                             "set ridge > 0 to regularize")
    system = pooled + eps * np.eye(dim)
    try:
        d = np.linalg.solve(system, mean_gap)
    except np.linalg.LinAlgError as e:
        raise ValueError(f"singular LDA system even after ridge: {e}") from None
    norm = np.linalg.norm(d)
    if norm == 0.0:
        raise ValueError("grammatical class means coincide; direction undefined")
    return d / norm


def grammatical_direction(space: EmbeddingSpace,
                          masculine: Sequence[str],
                          feminine: Sequence[str],
                          ridge: float = DEFAULT_RIDGE) -> np.ndarray:
    """Two-class LDA direction between grammatical noun classes.

    Solves (Sigma_pooled + eps*I) d = mu_fem - mu_masc with
    eps = ridge * trace(Sigma_pooled) / dim, normalizes d, and orients it so
    feminine nouns project higher on average than masculine ones.  ridge is
    the relative shrinkage coefficient; 0 disables regularization and then a
    rank-deficient pooled covariance is an error.
    """
    masc = [w for w in masculine if w in space]
    fem = [w for w in feminine if w in space]
    _check_lda_classes(len(masc), len(fem), space.dim, ridge)
    return _lda_fit(_scatter_stats(space.matrix[space.indices(masc)]),
                    _scatter_stats(space.matrix[space.indices(fem)]), ridge)[0]


def _scatter_stats(rows: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """(count, mean, centred scatter c^T c) of a block of rows."""
    mean = rows.mean(axis=0)
    centred = rows - mean
    return len(rows), mean, centred.T @ centred


def _merge_stats(parts) -> tuple[int, np.ndarray, np.ndarray]:
    """(count, mean, centred scatter) of the union of row blocks given by
    their own statistics: the block scatters plus the parallel-axis term
    sum_j n_j (mu_j - mu)(mu_j - mu)^T, so no uncentred X^T X is formed."""
    n = sum(p[0] for p in parts)
    mean = sum(p[0] * p[1] for p in parts) / n
    spread = np.vstack([np.sqrt(p[0]) * (p[1] - mean) for p in parts])
    return n, mean, sum(p[2] for p in parts) + spread.T @ spread


def _lda_fit(masc, fem, ridge: float) -> tuple[np.ndarray, float, float]:
    """(d, mu_m @ d, mu_f @ d): the LDA direction of two noun classes given
    by their (count, mean mu, centred scatter), oriented so mu_f projects higher."""
    (n_m, mu_m, s_m), (n_f, mu_f, s_f) = masc, fem
    d = _lda_solve((s_m + s_f) / (n_m + n_f - 2), mu_f - mu_m, ridge)
    proj_m, proj_f = float(mu_m @ d), float(mu_f @ d)
    if proj_f < proj_m:
        return -d, -proj_m, -proj_f
    return d, proj_m, proj_f


def lda_cross_validation(space: EmbeddingSpace,
                         masculine: Sequence[str],
                         feminine: Sequence[str],
                         folds: int = 5,
                         seed: int = 0,
                         ridge: float = DEFAULT_RIDGE) -> float:
    """Stratified k-fold accuracy of the LDA projection classifier.

    Each fold's classifier is the LDA direction of the other folds' nouns
    (as ``grammatical_direction`` fits it) and thresholds the projection at
    the midpoint of the two training-class mean projections.  Each fold's
    count, mean and centred scatter are computed once and merged into the
    training statistics of the other folds.  Deterministic for a fixed seed.
    """
    if folds < 2:
        raise ValueError(f"need at least 2 folds, got {folds}")
    _valid_seed(seed)
    masc = [w for w in masculine if w in space]
    fem = [w for w in feminine if w in space]
    if len(masc) < folds or len(fem) < folds:
        raise _TooFewNouns(f"need at least {folds} covered words per class, "
                           f"have {len(masc)}/{len(fem)}")
    rng = np.random.default_rng(seed)
    parts = []  # per class, the matrix row indices of each fold
    for words in (masc, fem):
        idx = space.indices(words)
        order = rng.permutation(len(words))
        parts.append([idx[part] for part in np.array_split(order, folds)])
    stats = [[_scatter_stats(space.matrix[p]) for p in cls] for cls in parts]
    correct = 0
    for k in range(folds):
        masc_stats, fem_stats = (_merge_stats(cls[:k] + cls[k + 1:]) for cls in stats)
        _check_lda_classes(masc_stats[0], fem_stats[0], space.dim, ridge)
        d, proj_m, proj_f = _lda_fit(masc_stats, fem_stats, ridge)
        threshold = (proj_m + proj_f) / 2.0
        correct += int(np.count_nonzero(space.matrix[parts[0][k]] @ d <= threshold))
        correct += int(np.count_nonzero(space.matrix[parts[1][k]] @ d > threshold))
    return correct / (len(masc) + len(fem))


def orthogonalize(d_pca: np.ndarray, d_g: np.ndarray) -> np.ndarray:
    """Remove the grammatical component from the semantic direction and
    renormalize.  Errors when the two directions are numerically parallel."""
    d_pca = np.asarray(d_pca, dtype=np.float64)
    d_g = np.asarray(d_g, dtype=np.float64)
    for name, d in (("d_pca", d_pca), ("d_g", d_g)):
        if not abs(np.linalg.norm(d) - 1.0) <= 1e-6:  # NaN fails too
            raise ValueError(f"{name} must be unit-norm")
    overlap = float(np.dot(d_pca, d_g))
    if abs(overlap) >= 1.0 - 1e-9:
        raise ValueError(f"directions are parallel (|overlap| = {abs(overlap):.12f}); "
                         f"semantic residual undefined")
    residual = d_pca - overlap * d_g
    return residual / np.linalg.norm(residual)


@dataclass(frozen=True)
class GenderDirections:
    """The direction bundle every downstream stage consumes.

    d_pca   semantic direction before orthogonalization
    d_g     grammatical (LDA) direction
    d_s     semantic direction with the grammatical component removed
    """

    d_pca: np.ndarray
    d_g: np.ndarray
    d_s: np.ndarray
    pca_explained_ratio: float
    overlap: float
    lda_cv_accuracy: float | None = None

    def __post_init__(self):
        for name in ("d_pca", "d_g", "d_s"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
            if not abs(np.linalg.norm(arr) - 1.0) <= 1e-9:  # NaN fails too
                raise ValueError(f"{name} is not unit-norm")
        if self.d_pca.shape != self.d_g.shape or self.d_g.shape != self.d_s.shape:
            raise ValueError("direction dimensions disagree")
        if abs(float(np.dot(self.d_s, self.d_g))) > 1e-6:
            raise ValueError("d_s is not orthogonal to d_g")

    @property
    def dim(self) -> int:
        return self.d_pca.shape[0]

    def to_json_dict(self) -> dict:
        d = {
            "d_pca": [float(x) for x in self.d_pca],
            "d_g": [float(x) for x in self.d_g],
            "d_s": [float(x) for x in self.d_s],
            "pca_explained_ratio": float(self.pca_explained_ratio),
            "overlap": float(self.overlap),
        }
        if self.lda_cv_accuracy is not None:
            d["lda_cv_accuracy"] = float(self.lda_cv_accuracy)
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "GenderDirections":
        return cls(
            d_pca=np.array(d["d_pca"], dtype=np.float64),
            d_g=np.array(d["d_g"], dtype=np.float64),
            d_s=np.array(d["d_s"], dtype=np.float64),
            pca_explained_ratio=float(d["pca_explained_ratio"]),
            overlap=float(d["overlap"]),
            lda_cv_accuracy=(float(d["lda_cv_accuracy"])
                             if "lda_cv_accuracy" in d else None),
        )


def _bundle(d_pca: np.ndarray, explained: float, space: EmbeddingSpace,
            lexicon, ridge: float, cv_folds: int | None,
            seed: int) -> GenderDirections:
    """Finish a bundle from its semantic PCA direction: the LDA direction
    and its cross-validation come from the gendered-language space."""
    d_g = grammatical_direction(space, lexicon.grammatical_masculine,
                                lexicon.grammatical_feminine, ridge=ridge)
    d_s = orthogonalize(d_pca, d_g)
    accuracy = None
    if cv_folds is not None:
        try:
            accuracy = lda_cross_validation(space, lexicon.grammatical_masculine,
                                            lexicon.grammatical_feminine,
                                            folds=cv_folds, seed=seed, ridge=ridge)
        except _TooFewNouns as e:
            logger.info("skipping LDA cross-validation: %s", e)
    return GenderDirections(d_pca=d_pca, d_g=d_g, d_s=d_s,
                            pca_explained_ratio=explained,
                            overlap=float(np.dot(d_pca, d_g)),
                            lda_cv_accuracy=accuracy)


def build_directions(space: EmbeddingSpace, lexicon, *,
                     ridge: float = DEFAULT_RIDGE,
                     cv_folds: int | None = 5,
                     seed: int = 0) -> GenderDirections:
    """Assemble the direction bundle for one monolingual space.

    cv_folds=None skips cross-validation (lda_cv_accuracy stays None); it is
    also skipped, with a log line, when a noun class is smaller than the
    fold count.
    """
    d_pca, explained = semantic_direction(space, lexicon.definitional_pairs)
    return _bundle(d_pca, explained, space, lexicon, ridge, cv_folds, seed)


def bilingual_directions(bi: BilingualSpace, lexicon,
                         english_definitional_pairs: Sequence[tuple[str, str]], *,
                         ridge: float = DEFAULT_RIDGE,
                         cv_folds: int | None = 5,
                         seed: int = 0) -> GenderDirections:
    """Direction bundle for a co-embedded bilingual space.

    The grammatical direction comes from the gendered language alone; the
    semantic PCA pools definitional differences from both languages (source
    pairs against the source side, English pairs against the target side).
    A word pair listed in both languages contributes once, from the source
    side.  The two sides must already be aligned.
    """
    src_pairs = _dedupe_pairs(lexicon.definitional_pairs)
    src_set = set(src_pairs)
    en_pairs = [p for p in _dedupe_pairs(english_definitional_pairs)
                if p not in src_set]
    src_usable = [(m, f) for m, f in src_pairs
                  if m in bi.source and f in bi.source]
    en_usable = [(m, f) for m, f in en_pairs
                 if m in bi.target and f in bi.target]
    if len(src_usable) + len(en_usable) < 2:
        raise ValueError("need at least 2 covered definitional pairs across languages")
    diffs = []
    if src_usable:
        diffs.append(_difference_rows(bi.source, src_usable))
    if en_usable:
        diffs.append(_difference_rows(bi.target, en_usable))
    d_pca, explained = _pca_over_differences(np.vstack(diffs))
    return _bundle(d_pca, explained, bi.source, lexicon, ridge, cv_folds, seed)
