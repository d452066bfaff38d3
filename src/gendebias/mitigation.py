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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .directions import (DEFAULT_RIDGE, GenderDirections, bilingual_directions,
                         semantic_direction)
from .embeddings import BilingualSpace, EmbeddingSpace, unit_normalize
from .lexicon import BilingualDictionary, GenderLexicon, identity_dictionary

logger = logging.getLogger(__name__)

METHODS = ("shift_ori", "shift_en", "de_align", "hybrid_ori", "hybrid_en")

# Residual norm below which a vector counts as parallel to the direction.
_PARALLEL_TOL = 1e-12


def neutralize(vector: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """Remove the direction component and renormalize to unit length."""
    vector = np.asarray(vector, dtype=np.float64)
    direction = np.asarray(direction, dtype=np.float64)
    residual = vector - np.dot(vector, direction) * direction
    norm = np.linalg.norm(residual)
    if norm <= _PARALLEL_TOL * max(1.0, np.linalg.norm(vector)):
        raise ValueError("vector is parallel to the direction; "
                         "neutralized residual is zero")
    return residual / norm


def shift_pair(vec_m: np.ndarray, vec_f: np.ndarray, direction: np.ndarray,
               anchor_proj: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Shift both vectors along the direction so their projections become
    symmetric about anchor_proj.  No renormalization."""
    vec_m = np.asarray(vec_m, dtype=np.float64)
    vec_f = np.asarray(vec_f, dtype=np.float64)
    direction = np.asarray(direction, dtype=np.float64)
    delta = (np.dot(vec_m, direction) + np.dot(vec_f, direction)
             - 2.0 * anchor_proj) / 2.0
    return vec_m - delta * direction, vec_f - delta * direction


@dataclass(frozen=True)
class MitigationOutcome:
    """What a shift pipeline did: the new space, per-pair symmetry residuals
    |<w_m, d_s> + <w_f, d_s> - 2*anchor| measured after the shift, the
    anchors used, and how many vectors were touched."""

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


def _shift_and_neutralize(space: EmbeddingSpace, lexicon: GenderLexicon,
                          d_s: np.ndarray,
                          anchors: dict[tuple[str, str], float],
                          ) -> tuple[EmbeddingSpace, dict, int]:
    """Apply pair shifts with the given anchors, neutralize inanimate nouns,
    and leave every other row bit-identical."""
    if not lexicon.occupation_pairs and not lexicon.inanimate_nouns:
        raise ValueError("lexicon has neither occupation pairs nor inanimate nouns; "
                         "nothing to mitigate")
    matrix = np.array(space.matrix, copy=True)
    residual: dict[tuple[str, str], float] = {}
    touched = 0
    pair_words = {w for p in lexicon.occupation_pairs for w in p.words}
    for pair in lexicon.occupation_pairs:
        im = space.index(pair.masculine)
        iff = space.index(pair.feminine)
        anchor = anchors[pair.words]
        new_m, new_f = shift_pair(matrix[im], matrix[iff], d_s, anchor)
        matrix[im] = new_m
        matrix[iff] = new_f
        residual[pair.words] = abs(float(matrix[im] @ d_s) + float(matrix[iff] @ d_s)
                                   - 2.0 * anchor)
        touched += 2
    for word in lexicon.inanimate_nouns:
        if word in pair_words:
            # occupation forms take precedence over a double listing
            continue
        i = space.index(word)
        matrix[i] = neutralize(matrix[i], d_s)
        touched += 1
    return space.with_matrix(matrix, normalized=False), residual, touched


def mitigate_shift_ori(space: EmbeddingSpace, lexicon: GenderLexicon,
                       directions: GenderDirections) -> MitigationOutcome:
    """Origin-anchored shifting: every occupation pair becomes symmetric
    about zero semantic projection; inanimate nouns are neutralized."""
    anchors = {p.words: 0.0 for p in lexicon.occupation_pairs}
    new_space, residual, touched = _shift_and_neutralize(
        space, lexicon, directions.d_s, anchors)
    return MitigationOutcome(method="shift_ori", space=new_space,
                             residual=residual, words_touched=touched,
                             anchors_used=anchors, directions=directions)


def _english_anchors(bi: BilingualSpace, lexicon: GenderLexicon,
                     d_s: np.ndarray) -> dict[tuple[str, str], float]:
    anchors = {}
    for pair in lexicon.occupation_pairs:
        if pair.english is None:
            raise ValueError(f"occupation pair {pair.words!r} has no English "
                             f"anchor word")
        if pair.english not in bi.target:
            raise ValueError(f"English anchor {pair.english!r} for pair "
                             f"{pair.words!r} is not in the English space")
        anchors[pair.words] = float(bi.target.vector(pair.english) @ d_s)
    return anchors


def mitigate_shift_en(bi: BilingualSpace, lexicon: GenderLexicon,
                      directions: GenderDirections) -> MitigationOutcome:
    """English-anchored shifting in an already co-embedded bilingual space:
    each pair becomes symmetric about its English translation's semantic
    projection; inanimate nouns are neutralized."""
    anchors = _english_anchors(bi, lexicon, directions.d_s)
    new_source, residual, touched = _shift_and_neutralize(
        bi.source, lexicon, directions.d_s, anchors)
    return MitigationOutcome(method="shift_en",
                             space=BilingualSpace(new_source, bi.target),
                             residual=residual, words_touched=touched,
                             anchors_used=anchors, directions=directions)


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
    protected = set(gender_specific)
    equalize_members = set()
    for m, f in equalize_pairs:
        equalize_members.update((m, f))
    matrix = np.array(space.matrix, copy=True)
    for i, word in enumerate(space.words):
        if word in protected or word in equalize_members:
            continue
        matrix[i] = neutralize(matrix[i], d_en)
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
    return space.with_matrix(matrix, normalized=True)


def procrustes_matrix(source: EmbeddingSpace, target: EmbeddingSpace,
                      seed_dict: BilingualDictionary) -> np.ndarray:
    """Orthogonal matrix W minimizing sum ||W x - y||^2 over covered seed
    pairs, via SVD of the cross-covariance.

    Requires at least dim covered pairs; below 5*dim a warning is logged.
    """
    xs, ys = [], []
    for src_word, tgt_word in seed_dict.pairs():
        if src_word in source and tgt_word in target:
            xs.append(source.vector(src_word))
            ys.append(target.vector(tgt_word))
    dim = source.dim
    if target.dim != dim:
        raise ValueError(f"dimension mismatch: {dim} vs {target.dim}")
    if len(xs) < dim:
        raise ValueError(f"insufficient seed pairs: {len(xs)} covered, "
                         f"need at least dim = {dim}")
    if len(xs) < 5 * dim:
        logger.warning("only %d seed pairs for dim %d; alignment may be unstable",
                       len(xs), dim)
    x = np.vstack(xs)
    y = np.vstack(ys)
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
    rotated = source.with_matrix(source.matrix @ w.T,
                                 normalized=source.normalized)
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
    if variant == "en":
        anchors = _english_anchors(bi, lexicon, dirs.d_s)
    else:
        anchors = {p.words: 0.0 for p in lexicon.occupation_pairs}
    new_source, residual, touched = _shift_and_neutralize(
        bi.source, lexicon, dirs.d_s, anchors)
    return MitigationOutcome(method=f"hybrid_{variant}",
                             space=BilingualSpace(new_source, bi.target),
                             residual=residual, words_touched=touched,
                             anchors_used=anchors, directions=dirs)


def renormalize_outcome(outcome: MitigationOutcome) -> MitigationOutcome:
    """Unit-normalize a shift outcome's gendered-language vectors and report
    the recomputed pair residuals (renormalization trades exact symmetry
    for unit norms)."""
    if outcome.directions is None:
        raise ValueError("outcome carries no directions; cannot recompute residuals")
    d_s = outcome.directions.d_s
    src = unit_normalize(outcome.source_space)
    if isinstance(outcome.space, BilingualSpace):
        new_space: EmbeddingSpace | BilingualSpace = BilingualSpace(
            src, outcome.space.target)
    else:
        new_space = src
    residual = {}
    for (m, f), anchor in outcome.anchors_used.items():
        res = abs(float(src.vector(m) @ d_s) + float(src.vector(f) @ d_s)
                  - 2.0 * anchor)
        residual[(m, f)] = res
    if residual:
        logger.info("renormalization raised max pair residual to %.3e",
                    max(residual.values()))
    return MitigationOutcome(method=outcome.method + "+renorm", space=new_space,
                             residual=residual,
                             words_touched=outcome.words_touched,
                             anchors_used=outcome.anchors_used,
                             directions=outcome.directions)
