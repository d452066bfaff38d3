"""Dense word-embedding spaces: text I/O, normalization, cosine queries, exact top-k."""

from __future__ import annotations

import itertools
import logging
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

logger = logging.getLogger(__name__)

# Tolerance for the unit-norm check on spaces declared normalized.
NORM_TOL = 1e-6

# numpy's message for a field np.loadtxt cannot convert; ``row`` counts the
# lines fed to it from 0.
_LOADTXT_ERROR = re.compile(
    r"could not convert string (?P<token>.*) to float64 at row (?P<row>\d+), "
    r"column \d+\.", re.S)


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

    The body is streamed line by line into one ``np.loadtxt`` parse, so every
    component is bit-identical to Python's ``float(token)`` except that
    underscore digit separators (``1_0``) and non-ASCII digits are rejected;
    fastText never writes either.  Duplicate words keep the first
    occurrence; the number skipped is logged.  Raises ValueError on a
    malformed header, wrong component count, an empty word, unparsable or
    non-finite components (naming the path and line), or a body that ends
    before the header's count (a truncated file) while more words were
    wanted.
    """
    if max_words is not None and max_words < 1:
        raise ValueError(f"max_words must be positive, got {max_words}")
    path = Path(path)
    words: list[str] = []
    linenos: list[int] = []
    seen: set[str] = set()
    duplicates = 0
    rows_read = 0

    def components(fh, dim: int, limit: int):
        # Per-line string bookkeeping only; numpy parses what this yields.
        nonlocal duplicates, rows_read
        for lineno, line in enumerate(fh, start=2):
            if len(words) >= limit:
                return
            rows_read += 1
            word, sep, rest = line.rstrip("\n").rstrip(" ").partition(" ")
            got = rest.count(" ") + 1 if sep else 0
            if got != dim:
                raise ValueError(f"{path}:{lineno}: expected {dim} components, got {got}")
            if not word:
                raise ValueError(f"{path}:{lineno}: empty word")
            if word in seen:
                duplicates += 1
                continue
            seen.add(word)
            words.append(word)
            linenos.append(lineno)
            yield rest

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
        rows = components(fh, dim, limit)
        # Peek one row so an empty body never reaches loadtxt, which would
        # warn about it; the truncation check below reports it instead.
        first = next(rows, None)
        matrix = np.empty((0, dim))
        if first is not None:
            try:
                matrix = np.loadtxt(itertools.chain((first,), rows), dtype=np.float64,
                                    delimiter=" ", comments=None, ndmin=2)
            except ValueError as exc:
                bad = _LOADTXT_ERROR.fullmatch(str(exc))
                if bad is None:
                    raise
                row = int(bad["row"])
                raise ValueError(f"{path}:{linenos[row]}: unparsable component "
                                 f"{bad['token']} for {words[row]!r}") from None
    if len(words) < limit and rows_read < count:
        raise ValueError(f"{path}: truncated file: header declares {count} "
                         f"words, body has {rows_read}")
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise ValueError(f"{path}:{linenos[row]}: non-finite component for {words[row]!r}")
    if duplicates:
        logger.warning("%s: skipped %d duplicate words (kept first occurrence)",
                       path, duplicates)
    return EmbeddingSpace(words, matrix)


def save_text_embeddings(space: EmbeddingSpace, path) -> None:
    """Write the text format back out with 10 significant digits (``%.10g``),
    which keeps the load/save round trip within 1e-6 per component.  The
    bytes are those of a per-component ``f"{x:.10g}"``; each row is
    formatted by one ``%`` operation."""
    path = Path(path)
    fmt = " ".join(["%.10g"] * space.dim)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(f"{len(space)} {space.dim}\n")
        fh.writelines(f"{word} {fmt % tuple(row.tolist())}\n"
                      for word, row in zip(space.words, space.matrix))


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
