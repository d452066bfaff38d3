"""Bias mitigation pipelines.

Five pipelines share three primitives:

* anchor shifting: move both forms of an occupation pair along the
  decoupled semantic direction so their projections become symmetric about
  an anchor (the origin, or an aligned English word's projection);
* English hard-debiasing: neutralize non-gendered English words against the
  English semantic direction and re-equalize designated pairs;
* orthogonal re-alignment: map the gendered language onto (debiased)
  English with the least-squares rotation from a seed dictionary.

Shifts deliberately skip renormalization so the pair-symmetry residuals
stay at zero; a final renormalization pass is available separately and
reports what it does to the residuals.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .directions import (DEFAULT_RIDGE, GenderDirections, bilingual_directions,
                         semantic_direction)
from .embeddings import (BilingualSpace, EmbeddingSpace, _finite, _norms, _unit,
                         unit_normalize)
from .lexicon import BilingualDictionary, GenderLexicon, identity_dictionary

logger = logging.getLogger(__name__)

METHODS = ("shift_ori", "shift_en", "de_align", "hybrid_ori", "hybrid_en")

# Residual norm, over the vector's own, at or below which it is parallel.
_PARALLEL_TOL = 1e-12


def _neutralize_rows(matrix: np.ndarray, rows, direction: np.ndarray,
                     words: Sequence[str | None]) -> None:
    """Remove the direction from matrix[rows] and renormalize those rows, in
    place.  The module's one zero/parallel/overflow check: words[row] names
    the first row that fails it (None for an unnamed vector)."""
    block = matrix[rows]  # a copy: ``matrix`` is left as it was on an error
    names = [words[row] for row in rows]
    sizes = _finite(_norms(block), names)
    block -= np.outer(block @ direction, direction)
    norms = _norms(block)
    bad = norms <= _PARALLEL_TOL * sizes
    if bad.any():
        i = int(np.argmax(bad))
        word = names[i]
        label = "" if word is None else f" for {word!r}"
        if sizes[i] == 0.0:
            raise ValueError(f"zero vector{label}")
        raise ValueError(f"vector{label} is parallel to the direction; "
                         f"neutralized residual is zero")
    matrix[rows] = _unit(block, norms, names, out=block)


def _shift_rows(matrix: np.ndarray, masc, fem, anchors: np.ndarray,
                direction: np.ndarray) -> None:
    """Shift every pair (matrix[masc[i]], matrix[fem[i]]) along the direction
    so its projections become symmetric about anchors[i], in place, in one
    indexed update.  No row may occur twice in masc and fem together."""
    step = np.outer((matrix[masc] @ direction + matrix[fem] @ direction
                     - 2.0 * anchors) / 2.0, direction)
    matrix[masc] -= step
    matrix[fem] -= step


def _pair_residuals(matrix: np.ndarray, masc, fem, anchors: np.ndarray,
                    direction: np.ndarray) -> np.ndarray:
    """|<w_m, d> + <w_f, d> - 2*anchor| for every pair."""
    return np.abs(matrix[masc] @ direction + matrix[fem] @ direction
                  - 2.0 * anchors)


def _pair_rows(space: EmbeddingSpace, anchors: dict[tuple[str, str], float],
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Masculine rows, feminine rows and anchor values of the anchored pairs."""
    return (space.indices(m for m, _ in anchors),
            space.indices(f for _, f in anchors),
            np.fromiter(anchors.values(), dtype=np.float64, count=len(anchors)))


def neutralize(vector: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """Remove the direction component and renormalize to unit length.
    Raises ValueError for a non-finite, zero, overflowing or parallel vector."""
    matrix = np.array(vector, dtype=np.float64, ndmin=2)
    if not np.isfinite(matrix).all():
        raise ValueError("non-finite components in the vector")
    _neutralize_rows(matrix, [0], np.asarray(direction, dtype=np.float64),
                     (None,))
    return matrix[0]


def shift_pair(vec_m: np.ndarray, vec_f: np.ndarray, direction: np.ndarray,
               anchor_proj: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Shift both vectors along the direction so their projections become
    symmetric about anchor_proj.  No renormalization."""
    matrix = np.array([vec_m, vec_f], dtype=np.float64)
    _shift_rows(matrix, [0], [1], np.array([anchor_proj], dtype=np.float64),
                np.asarray(direction, dtype=np.float64))
    return matrix[0], matrix[1]


@dataclass(frozen=True)
class MitigationOutcome:
    """What a shift pipeline did: the new space, per-pair symmetry residuals
    |<w_m, d_s> + <w_f, d_s> - 2*anchor| measured on the final space, the
    anchors used, and how many distinct rows changed."""

    method: str
    space: "EmbeddingSpace | BilingualSpace"
    residual: dict[tuple[str, str], float]
    words_touched: int
    anchors_used: dict[tuple[str, str], float]
    directions: GenderDirections | None = None

    @property
    def source_space(self) -> EmbeddingSpace:
        if isinstance(self.space, BilingualSpace):
            return self.space.source
        return self.space

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "words_touched": self.words_touched,
            "residuals": {f"{m}/{f}": float(r)
                          for (m, f), r in self.residual.items()},
            "anchors": {f"{m}/{f}": float(a)
                        for (m, f), a in self.anchors_used.items()},
            "max_residual": (max(map(float, self.residual.values()))
                             if self.residual else 0.0),
        }


def _shift_outcome(method: str, space: "EmbeddingSpace | BilingualSpace",
                   lexicon: GenderLexicon, directions: GenderDirections,
                   anchors: dict[tuple[str, str], float] | None = None,
                   ) -> MitigationOutcome:
    """Shift every occupation pair of the gendered-language side so it is
    symmetric about its anchor (anchors=None: the origin), neutralize the
    inanimate nouns that are not pair forms, and leave every other row
    bit-identical.  Residuals are measured on the final matrix."""
    if not lexicon.occupation_pairs and not lexicon.inanimate_nouns:
        raise ValueError("lexicon has neither occupation pairs nor inanimate nouns; "
                         "nothing to mitigate")
    if anchors is None:
        anchors = {p.words: 0.0 for p in lexicon.occupation_pairs}
    bilingual = isinstance(space, BilingualSpace)
    source = space.source if bilingual else space
    d_s = directions.d_s
    masc, fem, values = _pair_rows(source, anchors)
    forms = np.concatenate([masc, fem])
    rows, counts = np.unique(forms, return_counts=True)
    if (counts > 1).any():
        word = source.words[rows[np.argmax(counts > 1)]]
        first, second = [pair for pair in anchors if word in pair][:2]
        raise ValueError(f"form {word!r} is shared by occupation pairs "
                         f"{first!r} and {second!r}; both cannot be symmetric")
    # occupation forms take precedence over a double listing as inanimate
    nouns = np.setdiff1d(source.indices(lexicon.inanimate_nouns), forms)
    matrix = np.array(source.matrix, copy=True)
    _shift_rows(matrix, masc, fem, values, d_s)
    _neutralize_rows(matrix, nouns, d_s, source.words)
    residual = _pair_residuals(matrix, masc, fem, values, d_s)
    new_source = source._derive(matrix, normalized=False)
    return MitigationOutcome(
        method=method,
        space=BilingualSpace(new_source, space.target) if bilingual else new_source,
        residual=dict(zip(anchors, residual.tolist())),
        words_touched=len(forms) + len(nouns), anchors_used=anchors,
        directions=directions)


def mitigate_shift_ori(space: EmbeddingSpace, lexicon: GenderLexicon,
                       directions: GenderDirections) -> MitigationOutcome:
    """Origin-anchored shifting: every occupation pair becomes symmetric
    about zero semantic projection; inanimate nouns are neutralized."""
    return _shift_outcome("shift_ori", space, lexicon, directions)


def _english_anchors(bi: BilingualSpace, lexicon: GenderLexicon,
                     d_s: np.ndarray) -> dict[tuple[str, str], float]:
    english: dict[tuple[str, str], str] = {}
    for pair in lexicon.occupation_pairs:
        if pair.english is None:
            raise ValueError(f"occupation pair {pair.words!r} has no English "
                             f"anchor word")
        if pair.english not in bi.target:
            raise ValueError(f"English anchor {pair.english!r} for pair "
                             f"{pair.words!r} is not in the English space")
        listed = english.setdefault(pair.words, pair.english)
        if listed != pair.english:
            raise ValueError(f"occupation pair {pair.words!r} is listed with "
                             f"English anchors {listed!r} and {pair.english!r}")
    return {words: float(bi.target.vector(en) @ d_s) for words, en in english.items()}


def mitigate_shift_en(bi: BilingualSpace, lexicon: GenderLexicon,
                      directions: GenderDirections) -> MitigationOutcome:
    """English-anchored shifting in an already co-embedded bilingual space:
    each pair becomes symmetric about its English translation's semantic
    projection; inanimate nouns are neutralized."""
    return _shift_outcome("shift_en", bi, lexicon, directions,
                          _english_anchors(bi, lexicon, directions.d_s))


@dataclass(frozen=True)
class EnglishDebiasConfig:
    """Inputs for hard-debiasing the English side."""

    definitional_pairs: tuple[tuple[str, str], ...]
    equalize_pairs: tuple[tuple[str, str], ...]
    gender_specific: tuple[str, ...]

    @classmethod
    def from_lexicon(cls, lexicon: GenderLexicon,
                     equalize_pairs: Sequence[tuple[str, str]] | None = None,
                     ) -> "EnglishDebiasConfig":
        """Default config: equalize the definitional pairs themselves and
        protect definitional, equalize, and attribute words."""
        definitional = tuple((m, f) for m, f in lexicon.definitional_pairs)
        equalize = (tuple((m, f) for m, f in equalize_pairs)
                    if equalize_pairs is not None else definitional)
        protected = set()
        for m, f in definitional:
            protected.update((m, f))
        for m, f in equalize:
            protected.update((m, f))
        protected.update(lexicon.attributes_male)
        protected.update(lexicon.attributes_female)
        return cls(definitional_pairs=definitional, equalize_pairs=equalize,
                   gender_specific=tuple(sorted(protected)))


def hard_debias_english(space: EmbeddingSpace,
                        definitional_pairs: Sequence[tuple[str, str]],
                        equalize_pairs: Sequence[tuple[str, str]],
                        gender_specific: Sequence[str]) -> EmbeddingSpace:
    """Hard-debias an English space against its own semantic direction.

    Every word outside gender_specific and the equalize pairs is
    neutralized; each equalize pair is moved to a common direction-free
    base with opposite, equal-magnitude components along the direction.
    The output space is unit-normalized.
    """
    if not space.normalized:
        space = unit_normalize(space)
    d_en, _ = semantic_direction(space, definitional_pairs)
    exempt = set(gender_specific).union(*equalize_pairs)
    matrix = np.array(space.matrix, copy=True)
    _neutralize_rows(matrix,
                     np.flatnonzero([w not in exempt for w in space.words]),
                     d_en, space.words)
    for m, f in equalize_pairs:
        im = space.index(m)
        iff = space.index(f)
        a = matrix[im]
        b = matrix[iff]
        mu = (a + b) / 2.0
        nu = mu - np.dot(mu, d_en) * d_en
        nu_norm = float(np.linalg.norm(nu))
        if nu_norm > 1.0:
            raise ValueError(f"equalize pair ({m!r}, {f!r}) has off-direction "
                             f"base norm {nu_norm:.6f} > 1; cannot equalize")
        spread = np.sqrt(1.0 - nu_norm ** 2)
        side = float(np.dot(a, d_en) - np.dot(mu, d_en))
        if side == 0.0:
            raise ValueError(f"equalize pair ({m!r}, {f!r}) has identical "
                             f"projections; sides are ambiguous")
        sign = 1.0 if side > 0.0 else -1.0
        matrix[im] = nu + sign * spread * d_en
        matrix[iff] = nu - sign * spread * d_en
    return space._derive(matrix, normalized=True)


def procrustes_matrix(source: EmbeddingSpace, target: EmbeddingSpace,
                      seed_dict: BilingualDictionary) -> np.ndarray:
    """Orthogonal matrix W minimizing sum ||W x - y||^2 over covered seed
    pairs, via SVD of the cross-covariance.

    Requires at least dim covered pairs; below 5*dim a warning is logged.
    """
    pairs = [(s, t) for s, t in seed_dict.pairs() if s in source and t in target]
    dim = source.dim
    if target.dim != dim:
        raise ValueError(f"dimension mismatch: {dim} vs {target.dim}")
    if len(pairs) < dim:
        raise ValueError(f"insufficient seed pairs: {len(pairs)} covered, "
                         f"need at least dim = {dim}")
    if len(pairs) < 5 * dim:
        logger.warning("only %d seed pairs for dim %d; alignment may be unstable",
                       len(pairs), dim)
    x = source.matrix[source.indices(s for s, _ in pairs)]
    y = target.matrix[target.indices(t for _, t in pairs)]
    cross = y.T @ x
    u, s, vt = np.linalg.svd(cross)
    if s.min() <= s.max() * max(cross.shape) * np.finfo(float).eps:
        raise ValueError("rank-deficient cross-covariance; seed pairs do not "
                         "span the space")
    return u @ vt


def procrustes_align(source: EmbeddingSpace, target: EmbeddingSpace,
                     seed_dict: BilingualDictionary) -> BilingualSpace:
    """Rotate the source space onto the target with the seed-pair solution.
    Pure rotation: norms and all within-source cosines are preserved."""
    w = procrustes_matrix(source, target, seed_dict)
    rotated = source._derive(source.matrix @ w.T, normalized=source.normalized)
    return BilingualSpace(rotated, target)


def mitigate_de_align(source: EmbeddingSpace, english: EmbeddingSpace,
                      seed_dict: BilingualDictionary | None,
                      en_config: EnglishDebiasConfig) -> BilingualSpace:
    """Hard-debias English, then re-align the gendered language onto it.

    With seed_dict=None, identical-string vocabulary matches are used.
    """
    debiased = hard_debias_english(english, en_config.definitional_pairs,
                                   en_config.equalize_pairs,
                                   en_config.gender_specific)
    if seed_dict is None:
        seed_dict = identity_dictionary(source, debiased)
        logger.info("de_align: using %d identical-string seed pairs",
                    seed_dict.n_pairs)
    return procrustes_align(source, debiased, seed_dict)


def mitigate_hybrid(source: EmbeddingSpace, english: EmbeddingSpace,
                    lexicon: GenderLexicon, variant: str,
                    seed_dict: BilingualDictionary | None,
                    en_config: EnglishDebiasConfig, *,
                    ridge: float = DEFAULT_RIDGE,
                    cv_folds: int | None = None,
                    seed: int = 0) -> MitigationOutcome:
    """Re-align onto debiased English, recompute directions in the aligned
    space, then shift (variant "ori": origin anchors; "en": English anchors).

    The "en" variant is exactly shift_en applied after de_align.
    """
    if variant not in ("ori", "en"):
        raise ValueError(f"unknown hybrid variant {variant!r}")
    bi = mitigate_de_align(source, english, seed_dict, en_config)
    dirs = bilingual_directions(bi, lexicon, en_config.definitional_pairs,
                                ridge=ridge, cv_folds=cv_folds, seed=seed)
    anchors = _english_anchors(bi, lexicon, dirs.d_s) if variant == "en" else None
    return _shift_outcome(f"hybrid_{variant}", bi, lexicon, dirs, anchors)


def renormalize_outcome(outcome: MitigationOutcome) -> MitigationOutcome:
    """Unit-normalize a shift outcome's gendered-language vectors and report
    the recomputed pair residuals (renormalization trades exact symmetry
    for unit norms)."""
    if outcome.directions is None:
        raise ValueError("outcome carries no directions; cannot recompute residuals")
    src = unit_normalize(outcome.source_space)
    new_space = (BilingualSpace(src, outcome.space.target)
                 if isinstance(outcome.space, BilingualSpace) else src)
    residual = dict(zip(outcome.anchors_used, _pair_residuals(
        src.matrix, *_pair_rows(src, outcome.anchors_used),
        outcome.directions.d_s).tolist()))
    if residual:
        logger.info("renormalization raised max pair residual to %.3e",
                    max(residual.values()))
    return replace(outcome, method=outcome.method + "+renorm", space=new_space,
                   residual=residual)
