import logging
import math
import re
import string
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from conftest import small_space
from gendebias import (
    EmbeddingSpace,
    cosine,
    load_text_embeddings,
    save_text_embeddings,
    top_k,
    unit_normalize,
)
from gendebias import embeddings
from gendebias.embeddings import _top_rows


# Every finite float64, with the edges hypothesis might not reach by itself.
_ANY_FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e-308, 1e308, -1e308, 1.7976931348623157e308,
                     1.7976931345e308, -1.7976931344999998e308]))

# Component tokens as writers spell them: shortest repr, %.10g, exponent
# forms and free-form decimals, kept where float() stays finite (%.10g of
# the largest float64 rounds up past it).
_FINITE_TOKEN = st.one_of(
    _ANY_FINITE.map(repr),
    _ANY_FINITE.map(lambda x: f"{x:.10g}"),
    _ANY_FINITE.map(lambda x: f"{x:.5E}"),
    st.from_regex(r"[+-]?[0-9]{1,25}(\.[0-9]{0,25})?([eE][+-]?[0-9]{1,3})?",
                  fullmatch=True),
).filter(lambda t: math.isfinite(float(t)))


def _nextafter_steps(x, steps):
    """``x`` moved ``steps`` float64 neighbours up (or down, when negative)."""
    for _ in range(abs(steps)):
        x = float(np.nextafter(x, np.inf if steps > 0 else 0.0))
    return x


# Components at every class edge of the %.10g writer: neighbours of the
# fixed/exponent and 10-digit boundaries, exact ties at the 10th digit
# (1234567890.5, 123456789.25, 12345678.125), carries past a power of ten,
# zeros, subnormals, and magnitudes without an exact power of ten.
_WRITER_CASES = st.builds(
    lambda x, negative: -x if negative else x,
    st.one_of(
        _ANY_FINITE.filter(lambda x: abs(x) < 1.7976931345e308),
        st.builds(_nextafter_steps, st.sampled_from([1e-5, 1e-4, 1.0, 1e9, 1e10, 1e-13, 1e23]),
                  st.integers(-3, 3)),
        st.integers(1, 3).flatmap(lambda j: st.integers(10 ** (10 - j), 10 ** (11 - j) - 1).map(
            lambda n: (2 ** j * n + 1) / 2 ** j)),
        st.builds(lambda n, e: (n + 0.5) * 2.0 ** e, st.integers(0, 2 ** 20), st.integers(-60, 60)),
        st.sampled_from([9.9999999995, 0.99999999996, 999999999.95, 9999999999.5, 0.0]),
        st.floats(0.0, 2.2250738585072014e-308),
    ),
    st.booleans())


def _per_component_text(words, matrix) -> bytes:
    return (f"{matrix.shape[0]} {matrix.shape[1]}\n" + "".join(
        f"{w} " + " ".join(f"{x:.10g}" for x in row) + "\n"
        for w, row in zip(words, matrix.tolist()))).encode("utf-8")


def _dict_of(space):
    return {w: space.vector(w) for w in space.words}


class TestEmbeddingSpace:
    def test_basic_accessors(self):
        space = EmbeddingSpace(["a", "b"], [[1.0, 0.0], [0.0, 1.0]])
        assert len(space) == 2
        assert space.dim == 2
        assert "a" in space and "c" not in space
        assert space.index("b") == 1
        assert np.allclose(space.vector("a"), [1.0, 0.0])

    def test_matrix_is_read_only(self):
        space = EmbeddingSpace(["a"], [[1.0, 2.0]])
        with pytest.raises(ValueError):
            space.matrix[0, 0] = 5.0

    def test_duplicate_words_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingSpace(["a", "a"], [[1.0], [2.0]])

    def test_missing_word_error_names_it(self):
        space = EmbeddingSpace(["a"], [[1.0]])
        with pytest.raises(KeyError, match="zzz"):
            space.index("zzz")

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingSpace(["a"], [[float("nan")]])
        with pytest.raises(ValueError):
            EmbeddingSpace(["a"], [[float("inf")]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingSpace(["a", "b"], [[1.0, 0.0]])

    def test_with_matrix_replaces_rows(self):
        space = EmbeddingSpace(["a", "b"], [[1.0, 0.0], [0.0, 1.0]])
        other = space.with_matrix(np.asarray([[0.0, 2.0], [2.0, 0.0]]))
        assert other.words == space.words
        assert np.allclose(other.vector("a"), [0.0, 2.0])
        # original untouched
        assert np.allclose(space.vector("a"), [1.0, 0.0])


class TestNormalization:
    def test_rows_become_unit(self, rng):
        space = small_space(40, 7, seed=3)
        norms = np.linalg.norm(space.matrix, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-12)
        assert space.normalized

    def test_idempotent(self):
        space = small_space(20, 5, seed=4)
        again = unit_normalize(space)
        assert np.max(np.abs(again.matrix - space.matrix)) < 1e-15

    def test_zero_vector_stays_zero(self):
        space = EmbeddingSpace(["a", "b"], [[3.0, 4.0], [0.0, 0.0]])
        unit = unit_normalize(space)
        assert unit.normalized
        assert unit.matrix.tolist() == [[0.6, 0.8], [0.0, 0.0]]

    def test_normalized_space_accepts_only_unit_or_zero_rows(self):
        EmbeddingSpace(["a", "b"], [[1.0, 0.0], [0.0, 0.0]], normalized=True)
        with pytest.raises(ValueError, match="'b'"):
            EmbeddingSpace(["a", "b"], [[1.0, 0.0], [0.0, 1e-3]], normalized=True)


class TestCosine:
    def test_matches_reference(self, rng):
        for _ in range(50):
            a = rng.standard_normal(9)
            b = rng.standard_normal(9)
            assert cosine(a, b) == pytest.approx(oracles.cosine(a, b), abs=1e-12)

    def test_symmetry_and_scale_invariance(self, rng):
        a = rng.standard_normal(6)
        b = rng.standard_normal(6)
        assert cosine(a, b) == cosine(b, a)
        assert cosine(3.0 * a, 0.5 * b) == pytest.approx(cosine(a, b), abs=1e-12)

    def test_clamped_to_valid_range(self):
        v = np.asarray([1.0, 1e-200])
        assert cosine(v, v) <= 1.0
        assert cosine(v, -v) >= -1.0

    def test_identical_and_opposite(self):
        v = np.asarray([0.6, 0.8])
        assert cosine(v, v) == pytest.approx(1.0, abs=1e-15)
        assert cosine(v, -v) == pytest.approx(-1.0, abs=1e-15)


class TestTopK:
    def test_matches_full_sort_oracle(self):
        for seed in range(5):
            space = small_space(120, 8, seed=seed)
            rng = np.random.default_rng(seed + 100)
            query = rng.standard_normal(8)
            got = top_k(query, space, k=10)
            want = oracles.top_k_sorted(_dict_of(space), query, 10)
            assert [n.word for n in got] == [w for w, _ in want]
            for n, (_, s) in zip(got, want):
                assert n.score == pytest.approx(s, abs=1e-12)
                assert 1 <= n.rank <= 10

    def test_full_k_is_a_permutation(self):
        space = small_space(30, 5, seed=9)
        got = top_k(space.vector("w000"), space, k=30)
        assert sorted(n.word for n in got) == sorted(space.words)

    def test_exclusion(self):
        space = small_space(15, 4, seed=2)
        got = top_k(space.vector("w003"), space, k=15, exclude={"w003"})
        assert "w003" not in {n.word for n in got}
        assert len(got) == 14

    def test_k_larger_than_vocab(self):
        space = small_space(6, 3, seed=1)
        assert len(top_k(space.vector("w000"), space, k=50)) == 6

    def test_everything_excluded_is_an_error(self):
        space = small_space(3, 3, seed=1)
        with pytest.raises(ValueError):
            top_k(space.vector("w000"), space, k=1, exclude=set(space.words))

    def test_exact_ties_break_lexicographically(self):
        # two distinct words with identical vectors: alphabetical order wins,
        # regardless of row order
        m = np.asarray([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        space = EmbeddingSpace(["zeta", "alpha", "other"], m)
        got = top_k(np.asarray([1.0, 0.0]), space, k=2)
        assert [n.word for n in got] == ["alpha", "zeta"]

    def test_zero_norm_query_rejected(self):
        space = small_space(4, 3, seed=5)
        with pytest.raises(ValueError):
            top_k(np.zeros(3), space, k=2)

    def test_zero_norm_rows_rank_last(self):
        m = np.asarray([[1.0, 0.0], [0.0, 0.0], [-1.0, 0.0]])
        space = EmbeddingSpace(["hit", "null", "anti"], m)
        got = top_k(np.asarray([1.0, 0.0]), space, k=3)
        assert got[-1].word == "null"

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_top_rows_matches_per_row_lexsort(self, data):
        # rows are partitioned a block at a time: cross block boundaries
        block = data.draw(st.integers(1, 3))
        n_rows = data.draw(st.integers(1, 8))
        width = data.draw(st.integers(1, 12))
        k = data.draw(st.integers(1, width + 3))
        # quantized scores force ties; -inf is what a zero row scores
        scores = data.draw(arrays(
            np.float64, (n_rows, width),
            elements=st.one_of(st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 0.5, 1.0]),
                               st.floats(-1.0, 1.0))))
        lex_rank = np.array(data.draw(st.permutations(range(width))), dtype=np.intp)
        want = np.array([np.lexsort((lex_rank, -row))[:k] for row in scores])
        with mock.patch.object(embeddings, "_PARTITION_ROWS", block):
            assert np.array_equal(_top_rows(scores, lex_rank, k), want)


class TestTextFormat:
    def test_round_trip(self, tmp_path):
        space = small_space(25, 6, seed=7)
        path = tmp_path / "space.vec"
        save_text_embeddings(space, path)
        back = load_text_embeddings(path)
        assert back.words == space.words
        assert np.allclose(back.matrix, space.matrix, atol=1e-6)

    def test_header_must_match_body(self, tmp_path):
        path = tmp_path / "bad.vec"
        path.write_text("2 3\na 1 0 0\nb 0 1\n")
        with pytest.raises(ValueError):
            load_text_embeddings(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.vec"
        path.write_text("hello world\na 1 0\n")
        with pytest.raises(ValueError):
            load_text_embeddings(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.vec"
        path.write_text("")
        with pytest.raises(ValueError):
            load_text_embeddings(path)

    def test_max_words_truncates(self, tmp_path):
        space = small_space(20, 4, seed=8)
        path = tmp_path / "space.vec"
        save_text_embeddings(space, path)
        small = load_text_embeddings(path, max_words=5)
        assert small.words == space.words[:5]

    def test_duplicates_keep_first(self, tmp_path, caplog):
        path = tmp_path / "dup.vec"
        path.write_text("3 2\na 1 0\nb 0 1\na 9 9\n")
        with caplog.at_level(logging.WARNING):
            space = load_text_embeddings(path)
        assert len(space) == 2
        assert np.allclose(space.vector("a"), [1.0, 0.0])
        assert any("duplicate" in r.message.lower() for r in caplog.records)

    def test_truncated_body_rejected(self, tmp_path):
        # declared count larger than actual rows: a truncated download
        path = tmp_path / "short.vec"
        path.write_text("5 2\na 1 0\nb 0 1\n")
        with pytest.raises(ValueError, match=r"short\.vec.*5.*2"):
            load_text_embeddings(path)
        # a word limit the short body satisfies is not an error
        assert len(load_text_embeddings(path, max_words=2)) == 2

    def test_fasttext_trailing_space(self, tmp_path):
        # fastText writes a space after the last component of every row
        path = tmp_path / "ft.vec"
        path.write_text("2 3\nfoo 0.1 0.2 0.3 \nbar 1 2 3 \n")
        space = load_text_embeddings(path)
        assert space.words == ("foo", "bar")
        assert np.allclose(space.vector("foo"), [0.1, 0.2, 0.3])

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), trailing=st.booleans())
    def test_round_trip_property(self, data, trailing):
        n = data.draw(st.integers(1, 8))
        dim = data.draw(st.integers(1, 6))
        # a space, \n or \r would split a word's line; a tab and the other
        # characters str.splitlines breaks on do not
        words = data.draw(st.lists(
            st.text(string.ascii_letters + "áñü_ \t\n\r\x0b\x0c\x85\u2028",
                    min_size=1, max_size=6),
            min_size=n, max_size=n, unique=True))
        matrix = data.draw(arrays(np.float64, (n, dim), elements=st.floats(
            -1e3, 1e3, allow_nan=False, allow_infinity=False)))
        space = EmbeddingSpace(words, matrix)
        unwritable = [w for w in words if " " in w or "\n" in w or "\r" in w]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "space.vec"
            if unwritable:
                with pytest.raises(ValueError, match=re.escape(repr(unwritable[0]))):
                    save_text_embeddings(space, path)
                assert not path.exists()
                return
            save_text_embeddings(space, path)
            if trailing:
                lines = path.read_text(encoding="utf-8").split("\n")[:-1]
                body = "".join(line + " \n" for line in lines[1:])
                path.write_text(lines[0] + "\n" + body, encoding="utf-8")
            back = load_text_embeddings(path)
        assert back.words == space.words
        assert np.all(np.abs(back.matrix - space.matrix) <= 1e-6)

    def test_non_numeric_component(self, tmp_path):
        path = tmp_path / "bad.vec"
        path.write_text("1 2\na 1 xyz\n")
        with pytest.raises(ValueError, match=r"bad\.vec:2: unparsable .*xyz.*'a'"):
            load_text_embeddings(path)

    def test_header_only_is_truncated_without_warning(self, tmp_path):
        path = tmp_path / "head.vec"
        path.write_text("3 2\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"head\.vec: truncated.*3.*0"):
                load_text_embeddings(path)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_component_names_line(self, tmp_path, token):
        path = tmp_path / "bad.vec"
        path.write_text(f"3 2\na 1 0\nb 0.5 {token}\nc 0 1\n")
        with pytest.raises(ValueError, match=r"bad\.vec:3: non-finite .*'b'"):
            load_text_embeddings(path)

    @pytest.mark.parametrize("body, message", [
        ("a 1 0\na 9 9\nb 0 x\n", r"bad\.vec:4: unparsable .*'b'"),
        ("a 1 0\na 9 9\nb 0 nan\n", r"bad\.vec:4: non-finite .*'b'"),
        ("a 1 0\na 9 9\nb 0\n", r"bad\.vec:4: expected 2 components, got 1"),
    ])
    def test_bad_line_after_duplicate_reports_its_own_line(self, tmp_path, body,
                                                           message):
        path = tmp_path / "bad.vec"
        path.write_text("3 2\n" + body)
        with pytest.raises(ValueError, match=message):
            load_text_embeddings(path)

    @pytest.mark.parametrize("text, message", [
        ("1 3\na 1  2\n", r"bad\.vec:2: unparsable"),      # empty field
        ("1 1\na\n", r"bad\.vec:2: expected 1 components, got 0"),
        ("1 1\n 1\n", r"bad\.vec:2: empty word"),
    ])
    def test_malformed_body_lines(self, tmp_path, text, message):
        path = tmp_path / "bad.vec"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_text_embeddings(path)

    def test_underscore_digits_rejected(self, tmp_path):
        # Python's float() reads "1_0" as 10.0; the bulk parser does not,
        # and fastText never writes digit separators.
        assert float("1_0") == 10.0
        path = tmp_path / "bad.vec"
        path.write_text("1 2\na 1_0 2\n")
        with pytest.raises(ValueError, match=r"bad\.vec:2: unparsable .*1_0"):
            load_text_embeddings(path)

    @settings(max_examples=60, deadline=None)
    @given(matrix=arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 6)),
                         elements=_ANY_FINITE))
    def test_writer_bytes_match_per_component_format(self, matrix):
        # %.10g rounds magnitudes near the float64 maximum up to a token that
        # reads back as inf: the writer refuses those, naming the first word.
        words = [f"w{i}" for i in range(matrix.shape[0])]
        overflow = [w for w, row in zip(words, matrix.tolist())
                    if any(math.isinf(float(f"{x:.10g}")) for x in row)]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "space.vec"
            if overflow:
                with pytest.raises(ValueError, match=f"'{overflow[0]}'.*past the float64"):
                    save_text_embeddings(EmbeddingSpace(words, matrix), path)
                assert not path.exists()
                return
            save_text_embeddings(EmbeddingSpace(words, matrix), path)
            got = path.read_bytes()
        want = f"{matrix.shape[0]} {matrix.shape[1]}\n" + "".join(
            f"{w} " + " ".join(f"{x:.10g}" for x in row.tolist()) + "\n"
            for w, row in zip(words, matrix))
        assert got == want.encode("utf-8")

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_writer_matches_per_component_format_at_every_class_edge(self, data):
        # a small block budget makes a few rows span several blocks
        budget = data.draw(st.integers(1, 40), label="block budget")
        matrix = data.draw(arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(1, 9)),
                                  elements=_WRITER_CASES), label="matrix")
        words = [f"w{i}" for i in range(matrix.shape[0])]
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(embeddings, "_FORMAT_BLOCK", budget):
            path = Path(tmp) / "space.vec"
            save_text_embeddings(EmbeddingSpace(words, matrix), path)
            assert path.read_bytes() == _per_component_text(words, matrix)

    def test_writer_spans_blocks_at_full_budget(self, tmp_path):
        # dim 7 does not divide the block budget; three blocks, the last short
        rng = np.random.default_rng(11)
        rows = 2 * (embeddings._FORMAT_BLOCK // 7) + 3
        edges = [_nextafter_steps(b, k) for b in (1e-5, 1e-4, 1.0, 1e9, 1e10) for k in range(-3, 4)]
        pool = np.array(edges + [1234567890.5, 123456789.25, 12345678.125, 9.9999999995,
                                 0.99999999996, 999999999.95, 0.0, 5e-324, 1e-310, 1e300])
        matrix = np.where(rng.random((rows, 7)) < 0.1,
                          rng.choice(pool, (rows, 7)) * rng.choice([-1.0, 1.0], (rows, 7)),
                          rng.standard_normal((rows, 7)) * 0.05)
        words = [f"w{i}" for i in range(rows)]
        path = tmp_path / "space.vec"
        save_text_embeddings(EmbeddingSpace(words, matrix), path)
        assert path.read_bytes() == _per_component_text(words, matrix)

    @pytest.mark.parametrize("seed", range(4))
    def test_writer_matches_per_component_format_on_log_uniform_magnitudes(
            self, tmp_path, seed):
        # 1e-35 .. 1e54 take two exact scalings in the numpy kernel; the rest
        # of [1e-40, 1e60] is formatted by Python; both signs
        rng = np.random.default_rng(seed)
        magnitudes = 10.0 ** rng.uniform(-40.0, 60.0, (300, 40))
        powers = 10.0 ** rng.integers(-40, 61, (300, 40)).astype(np.float64)
        steps = rng.integers(-2, 3, (300, 40))
        near = np.where(steps < 0, np.nextafter(powers, 0.0),
                        np.where(steps > 0, np.nextafter(powers, np.inf), powers))
        matrix = np.where(rng.random((300, 40)) < 0.2, near, magnitudes)
        matrix *= rng.choice([-1.0, 1.0], matrix.shape)
        words = [f"w{i}" for i in range(len(matrix))]
        path = tmp_path / "space.vec"
        save_text_embeddings(EmbeddingSpace(words, matrix), path)
        assert path.read_bytes() == _per_component_text(words, matrix)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_writer_read_back_is_what_the_loader_reads(self, data):
        # The CLI stores the writer's read-back in a sidecar as if it were a
        # parse of the bytes written; compared as bits, so -0.0 counts.
        budget = data.draw(st.integers(1, 40), label="block budget")
        log_uniform = st.builds(lambda e, s: s * 10.0 ** e, st.floats(-40.0, 60.0),
                                st.sampled_from([-1.0, 1.0]))
        matrix = data.draw(arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(1, 9)),
                                  elements=st.one_of(_WRITER_CASES, log_uniform)),
                           label="matrix")
        words = [f"w{i}" for i in range(matrix.shape[0])]
        readback = np.empty_like(matrix)
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(embeddings, "_FORMAT_BLOCK", budget):
            path = Path(tmp) / "space.vec"
            embeddings._write_text(EmbeddingSpace(words, matrix), path, readback)
            assert path.read_bytes() == _per_component_text(words, matrix)
            want = load_text_embeddings(path).matrix
        assert np.array_equal(readback.view(np.uint64), want.view(np.uint64))

    @settings(max_examples=60, deadline=None)
    @given(tokens=st.lists(st.lists(_FINITE_TOKEN, min_size=3, max_size=3),
                           min_size=1, max_size=5))
    def test_loaded_components_are_bit_identical_to_float(self, tokens):
        body = "".join(f"w{i} " + " ".join(row) + "\n" for i, row in enumerate(tokens))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "space.vec"
            path.write_text(f"{len(tokens)} 3\n" + body, encoding="utf-8")
            got = load_text_embeddings(path).matrix
        want = np.array([[float(t) for t in row] for row in tokens], dtype=np.float64)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_values_survive_at_output_precision(self, tmp_path):
        space = unit_normalize(
            EmbeddingSpace(["a", "b"], [[0.123456789, 1.0], [1.0, -0.5]]))
        path = tmp_path / "prec.vec"
        save_text_embeddings(space, path)
        back = load_text_embeddings(path)
        assert np.allclose(back.matrix, space.matrix, atol=1e-9)

    def test_writer_refuses_a_word_with_a_space(self, tmp_path):
        path = tmp_path / "w.vec"
        for words, bad in ((["ok", "a b", "c\nd"], "a b"),
                           (["a", "\udc80", "b\udfff"], "\udc80")):  # not UTF-8
            space = EmbeddingSpace(words, np.eye(3))
            with pytest.raises(ValueError, match=re.escape(f"cannot write {bad!r}")):
                save_text_embeddings(space, path)
            assert not path.exists()

    def test_vec_cut_inside_a_character(self, tmp_path):
        path = tmp_path / "cut.vec"
        data = "2 2\na 1 0\ncaña 0 1\n".encode("utf-8")
        cut = data.index("ñ".encode("utf-8"))
        path.write_bytes(data[:cut + 1])
        with pytest.raises(ValueError, match=rf"cut\.vec:3: invalid UTF-8 at byte "
                                             rf"{cut} \(unexpected end of data\)"):
            load_text_embeddings(path)

    def test_invalid_utf8_located_past_the_first_block(self, tmp_path):
        # "ñ" straddles the 1 MiB block boundary of the re-scan; the bad
        # byte comes after it, on line 3
        head = b"x" * ((1 << 20) - 5)
        data = b"2 1\n" + head + "ñ".encode("utf-8") + b" 1\nb\xff 2\n"
        assert data.index("ñ".encode("utf-8")) == (1 << 20) - 1
        bad = data.index(b"\xff")
        path = tmp_path / "big.vec"
        path.write_bytes(data)
        with pytest.raises(ValueError, match=rf"big\.vec:3: invalid UTF-8 at byte "
                                             rf"{bad} \(invalid start byte\)"):
            load_text_embeddings(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_text_embeddings(tmp_path / "nope.vec")


class TestDerivedCaches:
    def test_row_norms(self):
        space = EmbeddingSpace(["a", "b"], [[3.0, 4.0], [0.0, 2.0]])
        assert np.allclose(space.row_norms(), [5.0, 2.0])

    @pytest.mark.parametrize("dim", [1, 37, 129, 300, 70_000])
    def test_row_norms_have_the_bits_of_a_fresh_norm(self, dim):
        # rows span several norm blocks, the last one short
        rng = np.random.default_rng(dim)
        rows = max(3, 3 * embeddings._NORM_BLOCK // dim + 5)
        matrix = rng.standard_normal((rows, dim)) * 10.0 ** rng.uniform(-3, 3, (rows, 1))
        raw = EmbeddingSpace([f"w{i}" for i in range(rows)], matrix)
        unit = unit_normalize(raw)
        declared = EmbeddingSpace(raw.words, unit.matrix, normalized=True)
        for space in (raw, unit, declared, unit.with_matrix(unit.matrix, normalized=True)):
            want = np.linalg.norm(space.matrix, axis=1)
            assert space.row_norms().tobytes() == want.tobytes()
            assert not space.row_norms().flags.writeable

    @pytest.mark.parametrize("derive", ["constructor", "with_matrix"])
    def test_callers_array_stays_writable_and_unshared(self, derive):
        matrix = np.array([[1.0, 0.0], [0.0, 1.0]])
        if derive == "constructor":
            space = EmbeddingSpace(["a", "b"], matrix, normalized=True)
        else:
            space = EmbeddingSpace(["a", "b"], np.eye(2)).with_matrix(matrix, normalized=True)
        assert matrix.flags.writeable
        matrix[0, 0] = 5.0
        assert space.matrix.tolist() == [[1.0, 0.0], [0.0, 1.0]]
        assert space.row_norms().tolist() == [1.0, 1.0]

    def test_derived_space_shares_lex_rank(self):
        space = EmbeddingSpace(["c", "a", "b"], np.eye(3) * 2.0)
        unit = unit_normalize(space)           # derived before either computes it
        rank = unit.lex_rank()
        assert space.lex_rank() is rank
        assert space.with_matrix(np.ones((3, 3))).lex_rank() is rank
        assert unit_normalize(unit).lex_rank() is rank

    @pytest.mark.parametrize("derive", ["constructor", "with_matrix"])
    def test_failed_normalized_declaration_keeps_its_message(self, derive):
        matrix = [[1.0, 0.0], [0.0, 2.0]]
        message = re.escape("space declared normalized but ||'b'|| = 2.00000000")
        with pytest.raises(ValueError, match=message):
            if derive == "constructor":
                EmbeddingSpace(["a", "b"], matrix, normalized=True)
            else:
                EmbeddingSpace(["a", "b"], np.eye(2)).with_matrix(matrix, normalized=True)

    def test_lex_rank_orders_words(self):
        space = EmbeddingSpace(["c", "a", "b"], np.eye(3))
        rank = space.lex_rank()
        assert rank[space.index("a")] < rank[space.index("b")]
        assert rank[space.index("b")] < rank[space.index("c")]
