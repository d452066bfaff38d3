"""Synthetic embedding fixtures with planted gender geometry.

The planted fixture builds a gendered "source" language and an English
"target" sharing per-concept base vectors, so translation structure is real
while the gender geometry is fully controlled:

* a grammatical axis: source nouns sit at +/- grammatical_offset;
* a semantic axis: occupation forms get asymmetric offsets (the planted
  bias), definitional and attribute words get symmetric ones;
* English carries no grammatical marks and only a small random semantic
  lean on occupation words;
* the whole source frame is rotated by a random orthogonal matrix, so
  alignment back onto English is a real task.

Everything is deterministic in the seed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .embeddings import (_NORM_BLOCK, BilingualSpace, EmbeddingSpace, _norms,
                         _row_blocks, _unit)
from .lexicon import BilingualDictionary, GenderLexicon

DEFAULT_DIM = 50
DEFAULT_NOISE = 0.02
DEFAULT_GRAMMATICAL_OFFSET = 0.4
# (masculine, feminine) offsets on the feminine-positive semantic axis; the
# masculine form sits deeper on its side, so it carries the stronger
# association magnitude.
DEFAULT_OCCUPATION_OFFSETS = (-0.3, 0.1)
# A word's base row and the coefficients of its grammatical and semantic
# axis terms, each added with its sign (u - c * axis and u + (-c) * axis are
# the same floats).  A term a word does not have takes _NO_TERM: adding -0.0
# changes no float.
_TERMS = np.dtype([("base", np.intp), ("g", np.float64), ("s", np.float64)])
_NO_TERM = -0.0


@dataclass(frozen=True)
class PlantedFixture:
    """A bilingual synthetic corpus with known gender geometry.

    grammatical_axis / semantic_axis are unit vectors in the English
    (latent) frame; the source space stores vectors rotated by `rotation`,
    so the corresponding source-frame axes are rotation @ axis.
    """

    source: EmbeddingSpace
    english: EmbeddingSpace
    lexicon: GenderLexicon
    english_lexicon: GenderLexicon
    seed_dictionary: BilingualDictionary
    rotation: np.ndarray
    grammatical_axis: np.ndarray
    semantic_axis: np.ndarray

    @property
    def bilingual(self) -> BilingualSpace:
        """Both sides as loaded; note the source side is NOT aligned."""
        return BilingualSpace(self.source, self.english)

    @property
    def source_grammatical_axis(self) -> np.ndarray:
        return self.rotation @ self.grammatical_axis

    @property
    def source_semantic_axis(self) -> np.ndarray:
        return self.rotation @ self.semantic_axis


def _names(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{i:03d}" for i in range(n)]


def random_orthogonal(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random orthogonal matrix via QR with sign fixing."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def random_space(n_words: int, dim: int, seed: int = 0,
                 prefix: str = "w") -> EmbeddingSpace:
    """Random unit-vector space, handy for oracles and smoke tests."""
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((n_words, dim))
    mat /= np.linalg.norm(mat, axis=1)[:, None]
    return EmbeddingSpace(_names(prefix, n_words), mat, normalized=True)


def planted_fixture(seed: int = 0, dim: int = DEFAULT_DIM,
                    n_definitional: int = 20, n_occupations: int = 30,
                    n_attributes: int = 8, n_adjectives: int = 7,
                    n_nouns: int = 370, n_inanimate: int = 60,
                    grammatical_offset: float = DEFAULT_GRAMMATICAL_OFFSET,
                    occupation_offsets: tuple[float, float] = DEFAULT_OCCUPATION_OFFSETS,
                    definitional_offset: float = 0.3,
                    attribute_offset: float = 0.3,
                    noise: float = DEFAULT_NOISE,
                    base_scale: float = 0.8,
                    english_occupation_lean: float = 0.05,
                    rotate_source: bool = True) -> PlantedFixture:
    """Build the planted-bias fixture (defaults: 500 source words, dim 50).

    Source word counts: 2*n_definitional + 2*n_occupations + 2*n_attributes
    + 2*n_adjectives + n_nouns.  n_nouns must be even; the first n_inanimate
    nouns (alternating classes) form the inanimate audit list.
    """
    if dim < 4:
        raise ValueError("dim must be at least 4")
    if n_nouns % 2 != 0:
        raise ValueError("n_nouns must be even")
    if n_inanimate > n_nouns:
        raise ValueError("n_inanimate cannot exceed n_nouns")
    rng = np.random.default_rng(seed)
    g_axis = np.zeros(dim)
    g_axis[0] = 1.0
    s_axis = np.zeros(dim)
    s_axis[1] = 1.0

    # The loops only draw, in the fixture's order of Generator calls: a
    # base's normals go to columns 2: of a row of `bases`, a word's noise to
    # its own row, and the word records its base and the coefficients of
    # its two axis terms.  The arithmetic runs after them.
    bases = np.zeros((n_definitional + n_occupations + 2 * n_attributes
                      + n_adjectives + n_nouns, dim))
    drawn = itertools.count()
    src_words: list[str] = []
    src_rows = np.empty((2 * (n_definitional + n_occupations + n_attributes
                              + n_adjectives) + n_nouns, dim))
    src_terms = np.empty(len(src_rows), dtype=_TERMS)
    en_words: list[str] = []
    en_rows = np.empty((2 * (n_definitional + n_attributes) + n_occupations
                        + n_adjectives + n_nouns, dim))
    en_terms = np.empty(len(en_rows), dtype=_TERMS)
    dict_pairs: list[tuple[str, str]] = []

    def base() -> int:
        b = next(drawn)
        rng.standard_normal(out=bases[b, 2:])
        return b

    def put_source(word: str, b: int, g_coef: float,
                   s_coef: float = _NO_TERM) -> None:
        rng.standard_normal(out=src_rows[len(src_words)])
        src_terms[len(src_words)] = b, g_coef, s_coef
        src_words.append(word)

    def put_english(word: str, b: int, s_coef: float = _NO_TERM) -> None:
        rng.standard_normal(out=en_rows[len(en_words)])
        en_terms[len(en_words)] = b, _NO_TERM, s_coef
        en_words.append(word)

    g = grammatical_offset
    occ_m_offset, occ_f_offset = occupation_offsets

    definitional_pairs = []
    for i in range(n_definitional):
        u = base()
        amp = definitional_offset + 0.08 * rng.standard_normal()
        m, f = f"def_m{i:03d}", f"def_f{i:03d}"
        put_source(m, u, -g, -amp)
        put_source(f, u, g, amp)
        em, ef = f"en_def_m{i:03d}", f"en_def_f{i:03d}"
        en_amp = definitional_offset + 0.08 * rng.standard_normal()
        put_english(em, u, -en_amp)
        put_english(ef, u, en_amp)
        dict_pairs += [(m, em), (f, ef)]
        definitional_pairs.append((m, f))

    occupation_pairs = []
    for i in range(n_occupations):
        u = base()
        m, f = f"occ_m{i:03d}", f"occ_f{i:03d}"
        put_source(m, u, -g, occ_m_offset)
        put_source(f, u, g, occ_f_offset)
        e = f"en_occ{i:03d}"
        put_english(e, u, english_occupation_lean * rng.standard_normal())
        dict_pairs += [(m, e), (f, e)]
        occupation_pairs.append((m, f, e))

    attributes_male, attributes_female = [], []
    for i in range(n_attributes):
        m, f = f"attr_m{i:03d}", f"attr_f{i:03d}"
        um, uf = base(), base()
        put_source(m, um, -g, -attribute_offset)
        put_source(f, uf, g, attribute_offset)
        em, ef = f"en_attr_m{i:03d}", f"en_attr_f{i:03d}"
        put_english(em, um, -attribute_offset)
        put_english(ef, uf, attribute_offset)
        dict_pairs += [(m, em), (f, ef)]
        attributes_male.append(m)
        attributes_female.append(f)

    adjective_pairs = []
    for i in range(n_adjectives):
        u = base()
        m, f = f"adj_m{i:03d}", f"adj_f{i:03d}"
        put_source(m, u, -g)
        put_source(f, u, g)
        e = f"en_adj{i:03d}"
        put_english(e, u)
        dict_pairs += [(m, e), (f, e)]
        adjective_pairs.append((e, m, f))

    nouns_m, nouns_f, inanimate = [], [], []
    for i in range(n_nouns // 2):
        for cls in ("m", "f"):
            u = base()
            w = f"noun_{cls}{i:03d}"
            sign = -1.0 if cls == "m" else 1.0
            lean = 0.1 * rng.uniform(-1.0, 1.0)
            put_source(w, u, sign * g, lean)
            e = f"en_noun_{cls}{i:03d}"
            put_english(e, u)
            dict_pairs.append((w, e))
            (nouns_m if cls == "m" else nouns_f).append(w)
            if len(inanimate) < n_inanimate:
                inanimate.append(w)

    # Each row is built with the operations of building it alone, in their
    # order: base_scale * base / norm, the grammatical term, the semantic
    # term, the noise.  A base's norm is np.linalg.norm's, the square root
    # of one ddot (a batched reduction sums in another order).
    norms = np.sqrt([v.dot(v) for v in bases[:, 2:]])
    bases *= base_scale
    bases /= norms[:, None]
    for rows, terms in ((src_rows, src_terms), (en_rows, en_terms)):
        for block in _row_blocks(len(rows), max(1, _NORM_BLOCK // dim)):
            vec = bases[terms["base"][block]]
            vec += terms["g"][block, None] * g_axis
            vec += terms["s"][block, None] * s_axis
            rows[block] *= noise
            rows[block] += vec
    del bases
    if rotate_source:
        rotation = random_orthogonal(dim, rng)
        src_rows = src_rows @ rotation.T
    else:
        rotation = np.eye(dim)
    source = EmbeddingSpace._owning(
        src_words, _unit(src_rows, _norms(src_rows), src_words, out=src_rows),
        normalized=True, language_tag="src")
    english = EmbeddingSpace._owning(
        en_words, _unit(en_rows, _norms(en_rows), en_words, out=en_rows),
        normalized=True, language_tag="en")
    lexicon = GenderLexicon(
        definitional_pairs=definitional_pairs,
        grammatical_masculine=nouns_m,
        grammatical_feminine=nouns_f,
        occupation_pairs=occupation_pairs,
        inanimate_nouns=inanimate,
        attributes_male=attributes_male,
        attributes_female=attributes_female,
        adjective_pairs=adjective_pairs,
    )
    english_lexicon = GenderLexicon(
        definitional_pairs=[(f"en_def_m{i:03d}", f"en_def_f{i:03d}")
                            for i in range(n_definitional)],
        attributes_male=[f"en_attr_m{i:03d}" for i in range(n_attributes)],
        attributes_female=[f"en_attr_f{i:03d}" for i in range(n_attributes)],
    )
    return PlantedFixture(
        source=source, english=english, lexicon=lexicon,
        english_lexicon=english_lexicon,
        seed_dictionary=BilingualDictionary(dict_pairs),
        rotation=rotation, grammatical_axis=g_axis, semantic_axis=s_axis)
