"""Dense word-embedding spaces: text I/O, normalization, cosine queries, exact top-k."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

logger = logging.getLogger(__name__)

# Tolerance for the unit-norm check on spaces declared normalized.
NORM_TOL = 1e-6


@dataclass(frozen=True)
class Neighbor:
    """One retrieval hit: word, cosine score, 1-based rank."""

    word: str
    score: float
    rank: int


class EmbeddingSpace:
    """Immutable mapping from words to fixed-dimension float64 vectors.

    Word order is the construction order and is the iteration order
    everywhere.  The backing matrix is marked read-only; every transform in
    this package returns a new space rather than mutating one.

    Parameters
    ----------
    words : sequence of str
        Unique, non-empty tokens.
    matrix : array-like, shape (len(words), dim)
        One row per word, finite entries only.
    normalized : bool
        Declare that rows are unit-length (checked to ``NORM_TOL``).
    language_tag : str
        Free-form label ("es", "en", ...) carried through transforms.
    """

    def __init__(self, words: Sequence[str], matrix, *, normalized: bool = False,
                 language_tag: str = ""):
        words = tuple(words)
        if not words:
            raise ValueError("embedding space needs at least one word")
        mat = np.array(matrix, dtype=np.float64, copy=True)
        if mat.ndim != 2 or mat.shape[0] != len(words):
            raise ValueError(
                f"matrix shape {mat.shape} does not match {len(words)} words")
        if mat.shape[1] < 1:
            raise ValueError("embedding dimension must be at least 1")
        if not np.all(np.isfinite(mat)):
            bad = int(np.argwhere(~np.isfinite(mat).all(axis=1))[0][0])
            raise ValueError(f"non-finite components in vector for {words[bad]!r}")
        index: dict[str, int] = {}
        for i, w in enumerate(words):
            if not isinstance(w, str) or not w:
                raise ValueError(f"invalid word at position {i}: {w!r}")
            if w in index:
                raise ValueError(f"duplicate word in space: {w!r}")
            index[w] = i
        if normalized:
            norms = np.linalg.norm(mat, axis=1)
            off = np.abs(norms - 1.0)
            if np.any(off > NORM_TOL):
                bad = int(np.argmax(off))
                raise ValueError(
                    f"space declared normalized but ||{words[bad]!r}|| = {norms[bad]:.8f}")
        mat.setflags(write=False)
        self._words = words
        self._index = index
        self._matrix = mat
        self.normalized = bool(normalized)
        self.language_tag = language_tag
        self._row_norms: np.ndarray | None = None
        self._lex_rank: np.ndarray | None = None

    # -- basic protocol ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._words)

    def __contains__(self, word: str) -> bool:
        return word in self._index

    def __repr__(self) -> str:
        tag = f", lang={self.language_tag!r}" if self.language_tag else ""
        return f"EmbeddingSpace({len(self)} words, dim={self.dim}{tag})"

    @property
    def words(self) -> tuple[str, ...]:
        return self._words

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[1]

    def index(self, word: str) -> int:
        try:
            return self._index[word]
        except KeyError:
            raise KeyError(f"word not in embedding space: {word!r}") from None

    def vector(self, word: str) -> np.ndarray:
        return self._matrix[self.index(word)]

    def indices(self, words: Iterable[str]) -> np.ndarray:
        return np.array([self.index(w) for w in words], dtype=np.intp)

    def with_matrix(self, matrix, *, normalized: bool = False) -> "EmbeddingSpace":
        """Same vocabulary, new vectors."""
        return EmbeddingSpace(self._words, matrix, normalized=normalized,
                              language_tag=self.language_tag)

    # -- cached per-space tables --------------------------------------------

    def row_norms(self) -> np.ndarray:
        if self._row_norms is None:
            self._row_norms = np.linalg.norm(self._matrix, axis=1)
            self._row_norms.setflags(write=False)
        return self._row_norms

    def lex_rank(self) -> np.ndarray:
        # lex_rank[i] = position of words[i] in ascending lexicographic order,
        # used as the deterministic tie-break key in retrieval.
        if self._lex_rank is None:
            order = sorted(range(len(self._words)), key=lambda i: self._words[i])
            rank = np.empty(len(self._words), dtype=np.intp)
            for pos, i in enumerate(order):
                rank[i] = pos
            rank.setflags(write=False)
            self._lex_rank = rank
        return self._lex_rank


@dataclass(frozen=True)
class BilingualSpace:
    """A gendered-language space and an English space sharing one dimension.

    Construction does not align anything; callers decide whether the two
    sides are already co-embedded.
    """

    source: EmbeddingSpace
    target: EmbeddingSpace

    def __post_init__(self):
        if self.source.dim != self.target.dim:
            raise ValueError(
                f"dimension mismatch: source {self.source.dim} vs target {self.target.dim}")

    @property
    def dim(self) -> int:
        return self.source.dim


def load_text_embeddings(path, max_words: int | None = None) -> EmbeddingSpace:
    """Read the plain-text format: header ``<count> <dim>``, then one
    ``word c1 ... c_dim`` line per vector, single-space separated; trailing
    spaces (fastText writes one) are ignored.

    Duplicate words keep the first occurrence; the number skipped is logged.
    Raises ValueError on a malformed header, wrong component count,
    non-finite components, an empty vocabulary, or a body that ends before
    the header's count (a truncated file) while more words were wanted.
    """
    if max_words is not None and max_words < 1:
        raise ValueError(f"max_words must be positive, got {max_words}")
    path = Path(path)
    words: list[str] = []
    seen: set[str] = set()
    rows: list[np.ndarray] = []
    duplicates = 0
    rows_read = 0
    with path.open("r", encoding="utf-8") as fh:
        header = fh.readline()
        parts = header.split()
        if len(parts) != 2:
            raise ValueError(f"{path}: malformed header line: {header!r}")
        try:
            count, dim = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"{path}: malformed header line: {header!r}") from None
        if count < 1 or dim < 1:
            raise ValueError(f"{path}: empty vocabulary or dimension in header")
        limit = count if max_words is None else min(count, max_words)
        for lineno, line in enumerate(fh, start=2):
            if len(words) >= limit:
                break
            rows_read += 1
            fields = line.rstrip("\n").rstrip(" ").split(" ")
            if len(fields) != dim + 1:
                raise ValueError(
                    f"{path}:{lineno}: expected {dim} components, got {len(fields) - 1}")
            word = fields[0]
            if not word:
                raise ValueError(f"{path}:{lineno}: empty word")
            if word in seen:
                duplicates += 1
                continue
            try:
                vec = np.array([float(x) for x in fields[1:]], dtype=np.float64)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: unparsable component") from None
            if not np.all(np.isfinite(vec)):
                raise ValueError(f"{path}:{lineno}: non-finite component for {word!r}")
            seen.add(word)
            words.append(word)
            rows.append(vec)
    if len(words) < limit and rows_read < count:
        raise ValueError(f"{path}: truncated file: header declares {count} "
                         f"words, body has {rows_read}")
    if duplicates:
        logger.warning("%s: skipped %d duplicate words (kept first occurrence)",
                       path, duplicates)
    return EmbeddingSpace(words, np.vstack(rows))


def save_text_embeddings(space: EmbeddingSpace, path) -> None:
    """Write the text format back out with 10 significant digits, which keeps
    the load/save round trip within 1e-6 per component."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(f"{len(space)} {space.dim}\n")
        for word, row in zip(space.words, space.matrix):
            comps = " ".join(f"{x:.10g}" for x in row)
            fh.write(f"{word} {comps}\n")


def unit_normalize(space: EmbeddingSpace) -> EmbeddingSpace:
    """Scale every vector to unit Euclidean norm.  Errors on a zero vector."""
    norms = space.row_norms()
    if np.any(norms == 0.0):
        bad = int(np.argmax(norms == 0.0))
        raise ValueError(f"cannot normalize zero vector for {space.words[bad]!r}")
    return space.with_matrix(space.matrix / norms[:, None], normalized=True)


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of two vectors, clamped to [-1, 1]."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine undefined for zero vector")
    return float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))


def _cosine_scores(space: EmbeddingSpace, query: np.ndarray) -> np.ndarray:
    """Cosine of the query against every row; zero-norm rows score -inf."""
    qn = np.linalg.norm(query)
    if qn == 0.0:
        raise ValueError("cosine undefined for zero query vector")
    norms = space.row_norms()
    scores = space.matrix @ (query / qn)
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = np.where(norms > 0.0, scores / norms, -np.inf)
    return scores


def top_k(query: np.ndarray, space: EmbeddingSpace, k: int,
          exclude: Iterable[str] = ()) -> list[Neighbor]:
    """Exact brute-force k nearest neighbors by cosine.

    Ties are broken by ascending lexicographic word order, so results are
    deterministic.  Fewer than ``k`` neighbors come back only when the
    candidate set is smaller than ``k``.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    query = np.asarray(query, dtype=np.float64)
    if query.shape != (space.dim,):
        raise ValueError(f"query shape {query.shape} does not match dim {space.dim}")
    scores = _cosine_scores(space, query)
    mask = np.ones(len(space), dtype=bool)
    for w in exclude:
        if w in space:
            mask[space.index(w)] = False
    candidates = np.nonzero(mask)[0]
    if candidates.size == 0:
        raise ValueError("empty candidate set after exclusion")
    order = np.lexsort((space.lex_rank()[candidates], -scores[candidates]))
    top = candidates[order[:k]]
    return [Neighbor(word=space.words[i], score=float(np.clip(scores[i], -1.0, 1.0)),
                     rank=r + 1)
            for r, i in enumerate(top)]
