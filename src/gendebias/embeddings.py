"""Dense word-embedding spaces: text I/O, normalization, cosine."""

from __future__ import annotations

import codecs
import itertools
import logging
import math
import numbers
import os
import re
import stat
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

logger = logging.getLogger(__name__)

# Tolerance for the unit-norm check on spaces declared normalized.
NORM_TOL = 1e-6

# Components per step of a row-norm pass: the squares stay in cache.
_NORM_BLOCK = 1 << 16

# A row without a component this large (the smallest magnitude whose square
# is a normal float64) is scaled by its largest magnitude before its norm is
# taken or it is divided by one: its squares lose bits to underflow.
_TINY = 2.0 ** -511

# numpy's message for a field np.loadtxt cannot convert; ``row`` counts the
# lines fed to it from 0.
_LOADTXT_ERROR = re.compile(
    r"could not convert string (?P<token>.*) to float64 at row (?P<row>\d+), "
    r"column \d+\.", re.S)


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
        Declare that rows are unit-length (checked to ``NORM_TOL``) or
        all-zero.
    language_tag : str
        Free-form label ("es", "en", ...) carried through transforms.
    """

    def __init__(self, words: Sequence[str], matrix, *, normalized: bool = False,
                 language_tag: str = ""):
        self._own(words, np.array(matrix, dtype=np.float64, copy=True), normalized,
                  language_tag)

    @classmethod
    def _owning(cls, words: Sequence[str], matrix: np.ndarray, *,
                normalized: bool = False, language_tag: str = "") -> "EmbeddingSpace":
        """The space the constructor builds, holding ``matrix`` itself instead
        of a copy: a float64 array that no one else holds (one a loader just
        made), which the space makes read-only."""
        space = object.__new__(cls)
        space._own(words, matrix, normalized, language_tag)
        return space

    def _own(self, words: Sequence[str], mat: np.ndarray, normalized: bool,
             language_tag: str) -> None:
        """Check ``words`` (non-empty, unique, non-empty strings), then _set."""
        words = tuple(words)
        if not words:
            raise ValueError("embedding space needs at least one word")
        index: dict[str, int] = {}
        for i, w in enumerate(words):
            if not isinstance(w, str) or not w:
                raise ValueError(f"invalid word at position {i}: {w!r}")
            if w in index:
                raise ValueError(f"duplicate word in space: {w!r}")
            index[w] = i
        self._set(words, index, [None], mat, normalized, language_tag)

    def _set(self, words: tuple[str, ...], index: dict[str, int], lex_rank: list,
             mat: np.ndarray, normalized: bool, language_tag: str) -> None:
        """Hold ``mat``, a float64 array no one else holds, on checked words
        and their index; ``lex_rank`` is the one-item cache cell of their
        tie-break ranks.  Checks the matrix and keeps its row norms and the
        first word whose norm overflows float64, which row_norms() refuses."""
        if mat.ndim != 2 or mat.shape[0] != len(words):
            raise ValueError(
                f"matrix shape {mat.shape} does not match {len(words)} words")
        if mat.shape[1] < 1:
            raise ValueError("embedding dimension must be at least 1")
        norms = _norms(mat)
        # a norm is not finite where a component is not, or where it overflows
        over = np.flatnonzero(~np.isfinite(norms))
        bad = over[~np.isfinite(mat[over]).all(axis=1)]
        if bad.size:
            raise ValueError(f"non-finite components in vector for {words[bad[0]]!r}")
        if normalized:
            off = np.where(norms == 0.0, 0.0, np.abs(norms - 1.0))
            if np.any(off > NORM_TOL):
                bad = int(np.argmax(off))
                raise ValueError(
                    f"space declared normalized but ||{words[bad]!r}|| = {norms[bad]:.9g}")
        mat.setflags(write=False)
        self._words = words
        self._index = index
        self._matrix = mat
        self.normalized = bool(normalized)
        self.language_tag = language_tag
        self._row_norms = norms
        self._overflow = words[over[0]] if over.size else None
        self._lex_rank = lex_rank

    def _derive(self, mat: np.ndarray, *, normalized: bool) -> "EmbeddingSpace":
        """Same vocabulary, its words, index and tie-break ranks shared, with
        ``mat`` (a freshly computed float64 array that no one else holds and
        the new space makes read-only) as its vectors."""
        space = object.__new__(EmbeddingSpace)
        space._set(self._words, self._index, self._lex_rank, mat, normalized,
                   self.language_tag)
        return space

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
        """Same vocabulary, new vectors (a copy of ``matrix``)."""
        return self._derive(np.array(matrix, dtype=np.float64, copy=True),
                            normalized=normalized)

    # -- per-space tables ----------------------------------------------------

    def row_norms(self) -> np.ndarray:
        """Each row's Euclidean norm, taken when the space was built
        (read-only).  Raises ValueError naming the first word whose norm
        overflows float64: such a row has no unit row or cosine."""
        if self._overflow is not None:
            raise ValueError(f"the norm of {self._overflow!r} overflows float64")
        return self._row_norms

    def lex_rank(self) -> np.ndarray:
        # lex_rank[i] = position of words[i] in ascending lexicographic order,
        # used as the deterministic tie-break key in retrieval; one cell for
        # every space derived from the same words.
        if self._lex_rank[0] is None:
            order = sorted(range(len(self._words)), key=lambda i: self._words[i])
            rank = np.argsort(order)  # the inverse permutation of order
            rank.setflags(write=False)
            self._lex_rank[0] = rank
        return self._lex_rank[0]


def _norms(mat: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(mat, axis=1)``, bit for bit (each row is reduced on
    its own), a block of rows at a time, except that an underflowing row
    gets its true norm (_rescued); read-only."""
    norms = np.empty(len(mat))
    with np.errstate(over="ignore"):  # an overflowing norm is inf
        for rows in _row_blocks(len(mat), max(1, _NORM_BLOCK // mat.shape[1])):
            norms[rows] = _rescued(np.linalg.norm(mat[rows], axis=1), mat[rows])
    norms.setflags(write=False)
    return norms


def _rescued(norms: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """``norms``, the computed norms of the rows of ``mat``, with each row of
    _tiny_rows given its true norm: its largest magnitude times the norm of
    the row over it, as evaluation._centred_unit takes a norm."""
    rows, largest = _tiny_rows(norms, mat)
    if rows.size:
        norms[rows] = largest * np.linalg.norm(mat[rows] / largest[:, None], axis=1)
    return norms


def _tiny_rows(norms: np.ndarray, mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The indices and largest magnitudes of the nonzero rows of ``mat``
    without a component of at least _TINY, sought only among the rows whose
    ``norms`` (computed or true) lie below 2·_TINY·√dim, as all theirs do."""
    rows = np.flatnonzero(norms < 2.0 * _TINY * math.sqrt(mat.shape[1]))
    if not rows.size:  # the common case, kept cheap for cosine()
        return rows, np.empty(0)
    largest = np.abs(mat[rows]).max(axis=1)
    tiny = (largest > 0.0) & (largest < _TINY)
    return rows[tiny], largest[tiny]


def _row_blocks(n: int, rows: int):
    """Slices of at most ``rows`` rows that cover ``range(n)`` in order."""
    return (slice(start, start + rows) for start in range(0, n, rows))


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


@contextmanager
def _open_utf8(path):
    """``path`` opened for reading as UTF-8.  Invalid UTF-8 met while the
    block reads it raises ValueError naming the file, line and byte offset."""
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError:
        raise _utf8_error(path) from None


def _utf8_error(path: Path) -> ValueError:
    """The error for the first invalid UTF-8 sequence in ``path``, located by
    decoding the bytes again block by block."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    offset = newlines = 0
    with path.open("rb") as fh:
        while True:
            block = fh.read(1 << 20)
            # bytes of a character split across blocks, carried into this one
            pending = len(decoder.getstate()[0])
            try:
                decoder.decode(block, final=not block)
            except UnicodeDecodeError as e:
                line = newlines + e.object.count(b"\n", 0, e.start) + 1
                return ValueError(f"{path}:{line}: invalid UTF-8 at byte "
                                  f"{offset - pending + e.start} ({e.reason})")
            if not block:
                return ValueError(f"{path}: invalid UTF-8")
            offset += len(block)
            newlines += block.count(b"\n")


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
    non-finite components (naming the path and line), invalid UTF-8 (naming
    the path, line and byte offset), or a body that ends before the
    header's count (a truncated file) while more words were wanted.
    """
    space, duplicates = _read_text_embeddings(path, max_words)
    _log_duplicates(path, duplicates)
    return space


def _read_text_embeddings(path, max_words: int | None,
                          unit: bool = False) -> tuple[EmbeddingSpace, int]:
    """The space load_text_embeddings reads and the number of duplicate
    words it skipped.  With ``unit``, the space unit_normalize would make
    of it, the parsed matrix divided in place; a row whose norm overflows
    float64 then raises ValueError naming the path and line."""
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

    with _open_utf8(path) as fh:
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
        # Given max_rows, loadtxt fills one array of that many rows instead of
        # growing one.  A regular file holds at most a row per 2·dim + 1
        # bytes, which caps what a wrong header count can make it allocate.
        info = os.fstat(fh.fileno())
        max_rows = (min(limit, info.st_size // (2 * dim + 1))
                    if stat.S_ISREG(info.st_mode) else None)
        if first is not None:
            try:
                matrix = np.loadtxt(itertools.chain((first,), rows), dtype=np.float64,
                                    delimiter=" ", comments=None, ndmin=2,
                                    max_rows=max_rows)
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
    # a row whose norm is not finite holds a non-finite component or (which
    # only the unit space refuses) a norm that overflows float64
    norms = _norms(matrix)
    for row in np.flatnonzero(~np.isfinite(norms)).tolist():
        if not np.isfinite(matrix[row]).all():
            raise ValueError(f"{path}:{linenos[row]}: non-finite component "
                             f"for {words[row]!r}")
        if unit:
            raise ValueError(f"{path}:{linenos[row]}: the norm of {words[row]!r} "
                             "overflows float64")
    if unit:
        _unit(matrix, norms, words, out=matrix)
    return EmbeddingSpace._owning(words, matrix, normalized=unit), duplicates


def _log_duplicates(path, duplicates: int) -> None:
    if duplicates:
        logger.warning("%s: skipped %d duplicate words (kept first occurrence)",
                       Path(path), duplicates)


# -- %.10g of a block of components at once -----------------------------------
#
# Each component gets a 24-byte slot of three little-endian words, NUL where
# a byte is unused; one bytes.translate drops the NULs.
#   bytes 0-7    " ", "-" for a negative sign, "0." and zeros for -4 <= X < 0
#   bytes 8-18   the 10 significant digits without their trailing zeros (the
#                integer digits of a fixed-notation value stay), with "." after
#                the integer digits, or after the first digit in exponent form
#   bytes 19-22  "e+XX" / "e-XX" in exponent form (X < -4 or X >= 10)
#   byte 23      "\n" after a row's last component
# X is the decimal exponent of the rounded value, as %g uses it.

# Components per block: the scratch arrays stay a few MB whatever the size of
# the space (a block holds whole rows, at least one).
_FORMAT_BLOCK = 1 << 14

# 10**(9 - e) is exact in float64 for 0 <= 9 - e <= 22.  A component is
# written by numpy only where one such power scales it; every other magnitude,
# subnormals included, is formatted by Python.
_EXP_MIN, _EXP_MAX = -13, 9
_NEXP = _EXP_MAX - _EXP_MIN + 1

# A scaled significand s = |x| * 10**(9 - e) is trusted when it lies in
# [1e9, 9999999999] (no carry) and is not within 1e-5 of a rounding tie: its
# float64 error is at most 1e10 * 2**-53, so rint(s) is then the correctly
# rounded significand, and no exact tie ever needs dtoa's tie rule.
_S_MID, _S_HALF = 5499999999.5, 4499999999.5
_TIE_BAND = 0.5 - 1e-5

# _SCALE[floor(log10|x|) + 324] = 10**(9 - e) where a multiplication makes it
# exact, else 0, which sends the component to Python.
_SCALE = np.array([float(10 ** (9 - e)) if _EXP_MIN <= e <= _EXP_MAX else 0.0
                   for e in range(-324, 309)])


def _digit_words(width: int, first: int) -> np.ndarray:
    """Slot words 1 and 2 holding the ASCII digits of every ``width``-digit
    group (leading zeros kept) placed from significant digit ``first``."""
    groups = np.arange(10 ** width)
    words = np.zeros((2, groups.size), dtype="<u8")
    for j in range(width):
        digit = (groups // 10 ** (width - 1 - j) % 10 + ord("0")).astype("<u8")
        pos = first + j
        words[pos // 8] |= digit << np.uint64(8 * (pos % 8))
    return words


def _digit_count(width: int, first: int) -> np.ndarray:
    """The slot-table offset of the significant-digit count k a group sets:
    k = the position after its last non-zero digit (0 for the zero group);
    the largest over a significand's groups is its k."""
    groups = np.arange(10 ** width)
    zeros = sum((groups % 10 ** j == 0).astype(np.intp) for j in range(1, width + 1))
    k = np.where(groups > 0, first + width - zeros, 0)
    # slot index = (11 * neg + k) * _NEXP + e - _EXP_MIN, e + 324 added later
    return k * _NEXP - 324 - _EXP_MIN


_DIGITS_HI = _digit_words(4, 0)[0]       # significand digits 0-3
_DIGITS_MID = _digit_words(3, 4)[0]      # digits 4-6
_DIGITS_LO1, _DIGITS_LO2 = _digit_words(3, 7)   # digit 7 | digits 8-9
_COUNT_HI, _COUNT_MID, _COUNT_LO = (_digit_count(4, 0), _digit_count(3, 4),
                                    _digit_count(3, 7))


def _slot_tables():
    """Per (sign, k, X): the slot's literal bytes, the digit bytes that stay
    in place and those that move one byte right past the point, as three
    words each, and the slot's byte count."""
    size = 2 * 11 * _NEXP
    literal, keep, shift = (np.zeros((3, size), dtype="<u8") for _ in range(3))
    width = np.zeros(size, dtype=np.intp)
    for neg, k, x in itertools.product((0, 1), range(1, 11), range(_EXP_MIN, _EXP_MAX + 1)):
        lit, kept, moved = bytearray(24), bytearray(24), bytearray(24)
        lit[:2] = b" -" if neg else b" \0"
        n_digits = k
        if not -4 <= x < 10:        # d.ddde+XX
            point = 0
            lit[19:23] = b"e%+03d" % x
        elif x >= 0:                # integer digits, zeros included, then .ddd
            point = x
            n_digits = max(k, x + 1)
        else:                       # 0.000ddd
            point = 10
            lit[2:3 - x] = b"0." + b"0" * (-x - 1)
        has_point = n_digits > point + 1
        if has_point:
            lit[9 + point] = ord(".")
        for j in range(n_digits):
            if has_point and j > point:
                moved[9 + j] = 0xFF
            else:
                kept[8 + j] = 0xFF
        i = (11 * neg + k) * _NEXP + x - _EXP_MIN
        for table, data in ((literal, lit), (keep, kept), (shift, moved)):
            table[:, i] = np.frombuffer(bytes(data), dtype="<u8")
        width[i] = sum(map(bool, lit)) + n_digits
    return literal, keep, shift, width


(_LEAD, _MARK1, _MARK2), (_, _KEEP1, _KEEP2), (_, _SHIFT1, _SHIFT2), _WIDTH = _slot_tables()


def _format_rows(block: np.ndarray,
                 readback: np.ndarray | None = None) -> tuple[bytearray, np.ndarray]:
    """The bytes ``" c1 c2 ... c_dim\\n"`` of each row of ``block``, every
    component as ``f"{c:.10g}"`` spells it, and the byte count of each row.
    With ``readback`` (an array of ``block``'s shape), also fill it with
    ``float`` of each component's token, the value the loader reads."""
    rows, dim = block.shape
    x = block.ravel()
    a = np.abs(x)
    zero = a == 0.0
    a[zero] = 1.0   # spelled "1", then its digit is made "0"
    # e + 324 for e = floor(log10 a); where log10 rounds across a power of
    # ten, s lands just below 1e9 or at 1e10 and is left to Python
    ei = np.log10(a)
    ei += 324.0
    ei = ei.astype(np.intp)
    s = _SCALE[ei]
    s *= a
    m = np.rint(s)
    tie = s - m
    np.abs(tie, out=tie)
    odd = tie > _TIE_BAND
    s -= _S_MID
    np.abs(s, out=s)
    odd |= s > _S_HALF
    # ties, carries past a power of ten, misestimated exponents and
    # magnitudes no single exact power scales are formatted by Python (spelled
    # "1" until their tokens replace them)
    fallback = np.flatnonzero(odd)
    m[fallback] = 1e9
    ei[fallback] = 324
    sig = m.astype(np.intp)
    hi = sig // 1000000
    sig -= hi * 1000000
    mid = sig // 1000
    sig -= mid * 1000
    ci = _COUNT_HI[hi]
    np.maximum(ci, _COUNT_MID[mid], out=ci)
    np.maximum(ci, _COUNT_LO[sig], out=ci)
    ci += ei
    ci += np.signbit(x) * (11 * _NEXP)
    digits1 = _DIGITS_HI[hi]
    digits1 |= _DIGITS_MID[mid]
    digits1 |= _DIGITS_LO1[sig]
    digits1 -= zero
    digits2 = _DIGITS_LO2[sig]
    out = bytearray(24 * x.size)
    slots = np.frombuffer(out, dtype="<u8").reshape(x.size, 3)
    slots[:, 0] = _LEAD[ci]
    # a digit past the point moves one byte right; digit 7 into word 2
    moved = digits2 << np.uint64(8)
    moved |= digits1 >> np.uint64(56)
    moved &= _SHIFT2[ci]
    moved |= _MARK2[ci]
    digits2 &= _KEEP2[ci]
    moved |= digits2
    slots[:, 2] = moved
    moved = digits1 << np.uint64(8)
    moved &= _SHIFT1[ci]
    moved |= _MARK1[ci]
    digits1 &= _KEEP1[ci]
    moved |= digits1
    slots[:, 1] = moved
    slots[dim - 1::dim, 2] |= np.uint64(ord("\n") << 56)
    widths = _WIDTH[ci]
    if fallback.size:
        # one % operation for them all; "S22" pads each token with NULs
        texts = ("%.10g " * fallback.size % tuple(x[fallback].tolist())).split()
        tokens = np.array(texts, dtype="S22").view(np.uint8).reshape(-1, 22)
        slots.view(np.uint8)[fallback, 1:23] = tokens
        widths[fallback] = np.count_nonzero(tokens, axis=1) + 1
    lengths = widths.reshape(rows, dim).sum(axis=1)
    lengths += 1
    if readback is not None:
        # A token is m / 10**(9 - e) with m < 2**53 and 0 <= 9 - e <= 22,
        # both exact in float64: one IEEE division then rounds the token's
        # value correctly, which makes it float(token) (Clinger's fast path).
        # Rounding is symmetric, so the sign is copied from x, and a zero
        # reads back as itself.  Tokens Python formatted are read as the
        # loader reads them.
        value = np.copysign(m / _SCALE[ei], x)
        value[zero] = x[zero]
        if fallback.size:
            value[fallback] = [float(t) for t in texts]
        readback[...] = value.reshape(rows, dim)
    return out.translate(None, b"\0"), lengths


def save_text_embeddings(space: EmbeddingSpace, path) -> None:
    """Write the text format back out with 10 significant digits (``%.10g``),
    which keeps the load/save round trip within 1e-6 per component.  The
    bytes are those of a per-component ``f"{x:.10g}"``.  Blocks of at most
    _FORMAT_BLOCK components (whole rows, at least one) are converted at
    once by numpy: the 10-digit significand is ``rint`` of the component
    scaled by one exact power of ten, which is the correctly rounded one
    unless it lies within 1e-5 of a rounding tie.  Ties, carries past a
    power of ten and magnitudes outside [1e-13, 1e10) are formatted by
    Python.  Raises ValueError naming the word,
    before writing anything, if a word holds a space, ``\\n`` or ``\\r`` (the
    loader would split it), if a word cannot be encoded as UTF-8 (it holds a
    lone surrogate), or if ``%.10g`` would round a component past the
    float64 maximum (the loader reads that token as inf)."""
    _write_text(space, path)


def _write_text(space: EmbeddingSpace, path, readback: np.ndarray | None = None) -> None:
    """save_text_embeddings.  With ``readback`` (a float64 array of the
    matrix's shape), also fill it with the matrix load_text_embeddings reads
    from the file written."""
    bad = next((w for w in space.words if " " in w or "\n" in w or "\r" in w), None)
    if bad is not None:
        raise ValueError(f"cannot write {bad!r}: a word in the text format cannot "
                         "hold a space, '\\n' or '\\r'")
    try:
        "".join(space.words).encode("utf-8")
    except UnicodeEncodeError as e:
        bad = next(w for w in space.words if e.object[e.start] in w)
        raise ValueError(f"cannot write {bad!r}: it cannot be encoded as UTF-8") from None
    # the smallest magnitude %.10g spells 1.797693135e+308; its predecessor
    # is still written as 1.797693134e+308
    largest = np.maximum(space.matrix.max(axis=1), -space.matrix.min(axis=1))
    over = largest >= 1.7976931345e308
    if over.any():
        raise ValueError(f"cannot write {space.words[int(np.argmax(over))]!r}: %.10g "
                         "rounds one of its components past the float64 maximum")
    rows = max(1, _FORMAT_BLOCK // space.dim)
    with Path(path).open("wb") as fh:
        fh.write(f"{len(space)} {space.dim}\n".encode())
        for start in range(0, len(space), rows):
            block = slice(start, start + rows)
            body, lengths = _format_rows(space.matrix[block],
                                         None if readback is None else readback[block])
            view = memoryview(body)
            parts = []
            end = 0
            for word, length in zip(space.words[block], lengths.tolist()):
                parts += (word.encode(), view[end:end + length])
                end += length
            fh.write(b"".join(parts))


def unit_normalize(space: EmbeddingSpace) -> EmbeddingSpace:
    """Scale every vector to unit Euclidean norm; an all-zero vector stays
    zero.  Raises ValueError naming a word whose norm overflows float64."""
    return space._derive(_unit(space.matrix, space.row_norms(), space.words),
                         normalized=True)


def _unit(matrix: np.ndarray, norms: np.ndarray, words: Sequence[str],
          out: np.ndarray | None = None) -> np.ndarray:
    """``matrix`` (finite) divided by its row norms ``norms`` into ``out``
    (or a new array), an all-zero row left zero.  Raises ValueError naming
    the word of ``words`` whose row's norm overflows float64, a row the
    division would make zero.  A row of _tiny_rows is scaled by its largest
    magnitude first and divided by the norm of what that leaves."""
    scale = np.where(_finite(norms, words) == 0.0, 1.0, norms)
    small, largest = _tiny_rows(norms, matrix)
    if small.size:
        rows = matrix[small] / largest[:, None]
        rows /= np.linalg.norm(rows, axis=1)[:, None]
    unit = np.divide(matrix, scale[:, None], out=out)
    if small.size:
        unit[small] = rows
    return unit


def _finite(norms: np.ndarray, words: Sequence[str | None]) -> np.ndarray:
    """``norms``, the row norms of ``words`` (None for an unnamed vector) in
    an array that is not a space's; raises ValueError naming the word whose
    norm overflows float64, as EmbeddingSpace.row_norms() does."""
    over = np.isinf(norms)
    if over.any():
        word = words[int(np.argmax(over))]
        name = "the vector" if word is None else repr(word)
        raise ValueError(f"the norm of {name} overflows float64")
    return norms


def _valid_seed(seed) -> None:
    """Raise ValueError naming ``seed`` unless it is an integer >= 0, numpy's
    integers included: the only seeds numpy's generators take."""
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed: expected non-negative integer, got {seed!r}")


class _ZeroVector(ValueError):
    """cosine() of a zero vector, which an evaluation leaves out."""


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of two vectors, clamped to [-1, 1].  Raises
    ValueError for a zero vector or one whose norm is not finite (a
    component is not, or the norm overflows float64)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    pair = np.stack([a.ravel(), b.ravel()])
    with np.errstate(over="ignore"):
        na, nb = _rescued(np.array([np.linalg.norm(a), np.linalg.norm(b)]), pair)
    if na == 0.0 or nb == 0.0:
        raise _ZeroVector("cosine undefined for zero vector")
    if not (np.isfinite(na) and np.isfinite(nb)):
        raise ValueError("cosine undefined: a vector's norm is not finite in float64")
    if na * nb < np.finfo(np.float64).tiny:  # the product underflows: use unit vectors
        (a, b), na, nb = _unit(pair, np.array([na, nb]), (None, None)), 1.0, 1.0
    return float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))

