import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from conftest import small_space
from gendebias import (
    BiasQuery,
    BiasReport,
    EmbeddingSpace,
    GenderLexicon,
    PairScore,
    audit_bias,
    bias_correlation,
    mweat_aggregate,
    mweat_inanimate,
    mweat_pair,
    permutation_test,
    unit_normalize,
    weat_assoc,
    weat_statistic,
)
from gendebias import metrics as gm


def random_instance(seed, n_targets=8, n_attrs=3, dim=6):
    rng = np.random.default_rng(seed)
    n = 2 * n_targets + 2 * n_attrs
    words = [f"w{i:02d}" for i in range(n)]
    space = unit_normalize(EmbeddingSpace(words, rng.standard_normal((n, dim))))
    X = words[:n_targets]
    Y = words[n_targets:2 * n_targets]
    A = words[2 * n_targets:2 * n_targets + n_attrs]
    B = words[2 * n_targets + n_attrs:]
    vecs = {w: space.vector(w) for w in words}
    return space, vecs, X, Y, A, B


def mirror_space(n_pairs, seed=0):
    """Pairs whose two forms sit at angles theta and pi/2 - theta from the
    single attribute words at e0/e1, so s_f = -s_m exactly by symmetry."""
    rng = np.random.default_rng(seed)
    words, rows = ["attr_a", "attr_b"], [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    X, Y = [], []
    for i in range(n_pairs):
        theta = rng.uniform(0.05, np.pi / 2 - 0.05)
        words += [f"m{i}", f"f{i}"]
        rows += [np.array([np.cos(theta), np.sin(theta)]),
                 np.array([np.sin(theta), np.cos(theta)])]
        X.append(f"m{i}")
        Y.append(f"f{i}")
    space = EmbeddingSpace(words, np.vstack(rows), normalized=True)
    return space, BiasQuery(X, Y, ["attr_a"], ["attr_b"])


def leaning_space(n_pairs, seed=0, lean=0.5, spread=0.3, asymmetry=0.0):
    """Pairs whose both forms lean toward attribute A (same-sign sums); an
    asymmetry > 0 plants a systematic masculine surplus."""
    rng = np.random.default_rng(seed)
    words = ["attr_a", "attr_b"]
    rows = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    X, Y = [], []
    base = np.pi / 4 - lean  # angle below the diagonal leans toward attr_a
    for i in range(n_pairs):
        tm = base - asymmetry + spread * rng.uniform(-1.0, 1.0) * 0.3
        tf = base + spread * rng.uniform(-1.0, 1.0) * 0.3
        words += [f"m{i}", f"f{i}"]
        rows += [np.array([np.cos(tm), np.sin(tm)]),
                 np.array([np.cos(tf), np.sin(tf)])]
        X.append(f"m{i}")
        Y.append(f"f{i}")
    space = EmbeddingSpace(words, np.vstack(rows), normalized=True)
    return space, BiasQuery(X, Y, ["attr_a"], ["attr_b"])


class TestAssociationScores:
    def test_matches_double_loop(self):
        for seed in range(20):
            space, vecs, X, Y, A, B = random_instance(seed)
            for w in X + Y:
                got = weat_assoc(w, A, B, space)
                want = oracles.weat_assoc(vecs, w, A, B)
                assert got == pytest.approx(want, abs=1e-12)

    def test_equidistant_word_scores_zero(self):
        space = EmbeddingSpace(
            ["w", "a", "b"],
            [[1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        assert weat_assoc("w", ["a"], ["b"], space) == pytest.approx(0.0, abs=1e-15)

    def test_attraction_is_positive(self):
        space = EmbeddingSpace(
            ["w", "a", "b"], [[0.9, 0.1], [1.0, 0.0], [0.0, 1.0]])
        assert weat_assoc("w", ["a"], ["b"], space) > 0

    def test_raw_magnitudes_do_not_matter(self):
        # association is cosine-based, so per-row scaling changes nothing
        space = EmbeddingSpace(["w", "a", "b"],
                               [[0.9, 0.1], [1.0, 0.0], [0.0, 1.0]])
        scaled = space.with_matrix(space.matrix * np.array([[3.0], [0.5], [7.0]]))
        assert weat_assoc("w", ["a"], ["b"], scaled) == pytest.approx(
            weat_assoc("w", ["a"], ["b"], space), abs=1e-12)

    def test_overflowing_norm_names_the_word(self):
        # once scored 0: its row divided by an infinite norm
        space = EmbeddingSpace(["w", "a", "b"], [[1e200, 1e200], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="the norm of 'w' overflows float64"):
            weat_assoc("w", ["a"], ["b"], space)
        with pytest.raises(ValueError, match="the norm of 'w' overflows float64"):
            weat_assoc("a", ["w"], ["b"], space)

    def test_unknown_word_raises(self):
        space = small_space(4, 3, seed=0)
        with pytest.raises(KeyError):
            weat_assoc("missing", ["w000"], ["w001"], space)

    def test_empty_attributes_rejected(self):
        space = small_space(4, 3, seed=0)
        with pytest.raises(ValueError):
            weat_assoc("w000", [], ["w001"], space)


class TestStatistics:
    def test_weat_statistic_matches_oracle(self):
        for seed in range(10):
            space, vecs, X, Y, A, B = random_instance(seed)
            got = weat_statistic(X, Y, A, B, space)
            want = oracles.weat_statistic(vecs, X, Y, A, B)
            assert got == pytest.approx(want, abs=1e-12)

    def test_mweat_pair_matches_oracle(self):
        for seed in range(10):
            space, vecs, X, Y, A, B = random_instance(seed)
            for m, f in zip(X, Y):
                for signed in (False, True):
                    got = mweat_pair(m, f, A, B, space, signed=signed)
                    want = oracles.mweat_pair(vecs, m, f, A, B, signed=signed)
                    assert got == pytest.approx(want, abs=1e-12)

    def test_mweat_aggregate_matches_oracle(self):
        for seed in range(10):
            space, vecs, X, Y, A, B = random_instance(seed)
            q = BiasQuery(X, Y, A, B)
            got = mweat_aggregate(q, space)
            want = oracles.mweat_aggregate(vecs, X, Y, A, B)
            assert got == pytest.approx(want, abs=1e-12)

    def test_unsigned_pair_is_abs_of_signed(self):
        space, vecs, X, Y, A, B = random_instance(3)
        for m, f in zip(X, Y):
            signed = mweat_pair(m, f, A, B, space, signed=True)
            unsigned = mweat_pair(m, f, A, B, space)
            assert unsigned == abs(signed)

    def test_hand_computed_plane_case(self):
        # w_m on the A axis (s=1), w_f on the diagonal (s=0): pair bias 1
        space = EmbeddingSpace(
            ["m", "f", "a", "b"],
            [[1.0, 0.0], [np.sqrt(0.5), np.sqrt(0.5)], [1.0, 0.0], [0.0, 1.0]])
        assert mweat_pair("m", "f", ["a"], ["b"], space) == pytest.approx(1.0, abs=1e-12)
        assert mweat_inanimate("m", ["a"], ["b"], space) == pytest.approx(1.0, abs=1e-12)
        q = BiasQuery(["m"], ["f"], ["a"], ["b"])
        assert mweat_aggregate(q, space) == pytest.approx(1.0, abs=1e-12)

    def test_inanimate_with_planted_lean(self):
        # inanimate noun offset 0.2 toward the attribute axis shows b > 0.1
        rng = np.random.default_rng(2)
        u = rng.standard_normal(8) * 0.3
        a = np.zeros(8); a[0] = 1.0
        b = np.zeros(8); b[1] = 1.0
        w = u + 0.6 * a
        space = unit_normalize(EmbeddingSpace(["w", "a", "b"], np.vstack([w, a, b])))
        assert mweat_inanimate("w", ["a"], ["b"], space) > 0.1


class TestBiasQuery:
    def test_validation(self):
        with pytest.raises(ValueError):
            BiasQuery([], ["y"], ["a"], ["b"])
        with pytest.raises(ValueError):
            BiasQuery(["x"], ["y"], [], ["b"])
        with pytest.raises(ValueError, match="disjoint"):
            BiasQuery(["x"], ["y"], ["a", "c"], ["b", "c"])
        with pytest.raises(ValueError, match="equal"):
            BiasQuery(["x1", "x2"], ["y1"], ["a"], ["b"], paired=True)

    def test_unpaired_sizes_may_differ(self):
        q = BiasQuery(["x1", "x2"], ["y1"], ["a"], ["b"], paired=False)
        with pytest.raises(ValueError):
            q.n_pairs

    def test_n_pairs(self):
        assert BiasQuery(["x", "z"], ["y", "w"], ["a"], ["b"]).n_pairs == 2


class TestPermutationTest:
    def test_mirror_symmetry_gives_p_one(self):
        space, query = mirror_space(8)
        assert mweat_aggregate(query, space) == pytest.approx(0.0, abs=1e-12)
        assert permutation_test(query, space, n_perm=500, seed=0) == 1.0

    def test_exhaustive_matches_exact_enumeration(self):
        for seed in range(25):
            space, vecs, X, Y, A, B = random_instance(seed, n_targets=4)
            q = BiasQuery(X, Y, A, B)
            p = permutation_test(q, space, n_perm=500, seed=0)
            want = oracles.pair_swap_pvalue_exact(vecs, X, Y, A, B)
            assert p == want

    def test_exhaustive_is_seed_independent(self):
        space, vecs, X, Y, A, B = random_instance(7, n_targets=6)
        q = BiasQuery(X, Y, A, B)
        assert permutation_test(q, space, seed=1) == permutation_test(q, space, seed=99)

    def test_planted_asymmetry_is_detected(self):
        # all forms lean toward A, masculine consistently deeper: the
        # label-swap null crushes the observed surplus
        space, query = leaning_space(50, seed=4, asymmetry=0.12)
        p = permutation_test(query, space, n_perm=2000, seed=0)
        assert p <= 0.001

    def test_exchangeable_forms_are_not_flagged(self):
        space, query = leaning_space(50, seed=4, asymmetry=0.0)
        p = permutation_test(query, space, n_perm=2000, seed=0)
        assert p > 0.05

    def test_monte_carlo_deterministic_per_seed(self):
        space, query = leaning_space(20, seed=5, asymmetry=0.03)
        a = permutation_test(query, space, n_perm=500, seed=11)
        b = permutation_test(query, space, n_perm=500, seed=11)
        assert a == b

    def test_min_permutations_enforced(self):
        space, query = mirror_space(4)
        with pytest.raises(ValueError):
            permutation_test(query, space, n_perm=50)

    @pytest.mark.parametrize("n_pairs", [12, 30])   # enumerated, then sampled
    @pytest.mark.parametrize("seed", [-1, 1.5, "7"])
    def test_seed_must_be_a_non_negative_integer(self, n_pairs, seed):
        # -1 was once never read on 12 pairs and refused by numpy, unnamed,
        # on 30
        space, query = mirror_space(n_pairs)
        with pytest.raises(ValueError, match="^seed: expected non-negative integer"):
            permutation_test(query, space, n_perm=500, seed=seed)
        assert (permutation_test(query, space, n_perm=500, seed=np.int64(3))
                == permutation_test(query, space, n_perm=500, seed=3))

    def test_pair_swap_requires_paired_query(self):
        space, vecs, X, Y, A, B = random_instance(1)
        q = BiasQuery(X, Y[:4], A, B, paired=False)
        with pytest.raises(ValueError, match="paired"):
            permutation_test(q, space, protocol="pair_swap")

    def test_partition_protocol_on_unpaired(self):
        space, vecs, X, Y, A, B = random_instance(1)
        q = BiasQuery(X, Y[:4], A, B, paired=False)
        p = permutation_test(q, space, n_perm=500, seed=0)
        assert 0.0 < p <= 1.0

    def test_unknown_protocol_rejected(self):
        space, query = mirror_space(4)
        with pytest.raises(ValueError, match="protocol"):
            permutation_test(query, space, protocol="bootstrap")

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), protocol=st.sampled_from(["pair_swap", "partition"]),
           seed=st.integers(0, 2**32 - 1))
    def test_p_in_unit_interval_property(self, data, protocol, seed):
        # up to 16 pairs enumerate exhaustively, more are sampled
        n_pairs = data.draw(st.integers(1, 20))
        n_attrs = data.draw(st.integers(1, 3))
        dim = data.draw(st.integers(2, 5))
        n = 2 * n_pairs + 2 * n_attrs
        matrix = data.draw(arrays(np.float64, (n, dim), elements=st.floats(-1.0, 1.0)))
        assume(np.all(np.linalg.norm(matrix, axis=1) > 1e-3))
        words = [f"w{i:02d}" for i in range(n)]
        space = EmbeddingSpace(words, matrix)
        query = BiasQuery(words[:n_pairs], words[n_pairs:2 * n_pairs],
                          words[2 * n_pairs:2 * n_pairs + n_attrs],
                          words[2 * n_pairs + n_attrs:])
        p = permutation_test(query, space, n_perm=100, seed=seed, protocol=protocol)
        assert 0.0 < p <= 1.0

    def test_p_never_zero(self):
        space, query = leaning_space(10, seed=9, asymmetry=0.3)
        p = permutation_test(query, space, n_perm=1000, seed=0)
        assert p >= 1.0 / 1025


def _scores(data, n, shape):
    """Association-score vectors for n pairs: any signs, opposite-sign sums
    (x leans A, y leans B), or mirrored pairs (s_y = -s_x, structural ties)."""
    scores = arrays(np.float64, n, elements=st.floats(-2.0, 2.0))
    s_x = data.draw(scores)
    if shape == "mirrored":
        return s_x, -s_x
    s_y = data.draw(scores)
    if shape == "opposite":
        return np.abs(s_x), -np.abs(s_y)
    return s_x, s_y


def _plane_query(data, n_pairs, shape):
    """A space whose pairs sit on the unit circle against attribute words at
    e0 and e1: mirrored forms (x, y) and (y, x), so s_f = -s_m exactly; or
    forms leaning to opposite attributes; or any angles."""
    angles = st.lists(st.floats(0.05, np.pi / 2 - 0.05), min_size=n_pairs,
                      max_size=n_pairs)
    m = np.array(data.draw(angles))
    f = np.array(data.draw(angles)) if shape != "mirrored" else m
    if shape == "opposite":
        m, f = m / 2, np.pi / 2 - f / 2
    forms = np.column_stack([np.cos(np.concatenate([m, f])),
                             np.sin(np.concatenate([m, f]))])
    if shape == "mirrored":
        forms[n_pairs:] = forms[n_pairs:, ::-1]
    words = ["attr_a", "attr_b"] + [f"m{i}" for i in range(n_pairs)] \
        + [f"f{i}" for i in range(n_pairs)]
    space = EmbeddingSpace(words, np.vstack([np.eye(2), forms]))
    return space, BiasQuery(words[2:2 + n_pairs], words[2 + n_pairs:],
                            ["attr_a"], ["attr_b"])


_SHAPES = st.sampled_from(["any", "opposite", "mirrored"])


class TestNullSums:
    """Each protocol's (sum_x, sum_y) against the earlier two-product
    pair-swap formula and per-draw partition loop (tests/oracles.py).  n runs
    to 24 pairs, so both exhaustive enumeration (2^n <= EXHAUSTIVE_LIMIT) and
    sampling are drawn."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), n=st.integers(1, 24), shape=_SHAPES,
           n_perm=st.integers(100, 300), seed=st.integers(0, 2**32 - 1))
    def test_pair_swap_sums_bit_identical_to_two_products(self, data, n, shape,
                                                          n_perm, seed):
        s_x, s_y = _scores(data, n, shape)
        sum_x, sum_y = gm._pair_swap_sums(s_x, s_y, n_perm, seed)
        want_x, want_y = oracles.pair_swap_sums_two_products(
            s_x, s_y, n_perm, seed, gm.EXHAUSTIVE_LIMIT)
        if (1 << n) <= gm.EXHAUSTIVE_LIMIT:
            want_x, want_y = want_x[1:], want_y[1:]  # code 0, the identity
        assert sum_x.tobytes() == want_x.tobytes()
        # the second product was the first negated, save for a zero's sign
        assert np.array_equal(sum_y, want_y)
        assert (gm._aggregate(sum_x, sum_y).tobytes()
                == gm._aggregate(want_x, want_y).tobytes())

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), n=st.integers(1, 24), shape=_SHAPES,
           n_perm=st.integers(100, 300), seed=st.integers(0, 2**32 - 1))
    def test_partition_sums_bit_identical_to_per_draw_loop(self, data, n, shape,
                                                           n_perm, seed):
        s_x, s_y = _scores(data, n, shape)
        s_all = np.concatenate([s_x, s_y])
        got = gm._partition_sums(s_all, n, n_perm, seed)
        want = oracles.partition_sums_per_draw(s_all, n, n_perm, seed)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n_pairs=st.integers(1, 24), shape=_SHAPES,
           protocol=st.sampled_from(["pair_swap", "partition"]),
           n_perm=st.integers(100, 300), seed=st.integers(0, 2**32 - 1))
    def test_p_value_bit_identical_to_two_product_count(self, data, n_pairs,
                                                        shape, protocol,
                                                        n_perm, seed):
        space, query = _plane_query(data, n_pairs, shape)
        observed, p, count, sx, sy = gm._permutation(query, space, n_perm, seed,
                                                      protocol)
        want = oracles.permutation_two_products(sx, sy, n_perm, seed, protocol,
                                                gm.EXHAUSTIVE_LIMIT,
                                                gm.TIE_REL_TOL)
        assert ((repr(observed), repr(p), count)
                == (repr(want[0]), repr(want[1]), want[2]))
        assert type(p) is float and type(count) is int


class TestBiasReport:
    def test_audit_scores_match_direct_computation(self, fixture_aligned):
        lex = fixture_aligned.lexicon
        space = fixture_aligned.source
        report = audit_bias(lex, space, n_perm=500, seed=0)
        assert len(report.pairs) == len(lex.occupation_pairs)
        assert len(report.inanimates) == len(lex.inanimate_nouns)
        for ps, pair in zip(report.pairs, lex.occupation_pairs):
            s_m = weat_assoc(pair.masculine, lex.attributes_male,
                             lex.attributes_female, space)
            assert ps.s_m == pytest.approx(s_m, abs=1e-12)
            assert ps.b_unsigned == pytest.approx(abs(abs(ps.s_m) - abs(ps.s_f)),
                                                  abs=1e-15)

    def test_statistic_recomputable_from_per_word_scores(self, fixture_aligned):
        report = audit_bias(fixture_aligned.lexicon, fixture_aligned.source,
                            n_perm=500, seed=0)
        sum_m = sum(p.s_m for p in report.pairs)
        sum_f = sum(p.s_f for p in report.pairs)
        assert report.statistic == pytest.approx(abs(abs(sum_m) - abs(sum_f)),
                                                 abs=1e-12)

    def test_json_shape(self, fixture_aligned):
        report = audit_bias(fixture_aligned.lexicon, fixture_aligned.source,
                            n_perm=500, seed=3)
        d = report.to_json_dict()
        assert set(d) == {"per_word", "statistic", "p_value", "n_permutations",
                          "seed", "protocol"}
        assert d["seed"] == 3
        assert d["protocol"] == "pair_swap"
        n_pairs = len(fixture_aligned.lexicon.occupation_pairs)
        assert len(d["per_word"]) == n_pairs + len(fixture_aligned.lexicon.inanimate_nouns)
        assert "pair" in d["per_word"][0]
        assert "word" in d["per_word"][n_pairs]

    def test_p_value_range_enforced(self):
        with pytest.raises(ValueError):
            BiasReport(pairs=(), inanimates=(), statistic=1.0, p_value=0.0,
                       n_permutations=100, seed=0)
        with pytest.raises(ValueError):
            BiasReport(pairs=(), inanimates=(), statistic=-0.5, p_value=0.5,
                       n_permutations=100, seed=0)

    def test_audit_requires_occupation_pairs(self, fixture_aligned):
        lex = GenderLexicon(attributes_male=["attr_m000"],
                            attributes_female=["attr_f000"])
        with pytest.raises(ValueError, match="occupation"):
            audit_bias(lex, fixture_aligned.source)


class TestBiasCorrelation:
    def test_monotone_maps_correlate_perfectly(self):
        a = {f"w{i}": float(i) for i in range(10)}
        b = {f"w{i}": float(i) ** 3 + 2.0 for i in range(10)}
        rho, p = bias_correlation(a, b)
        assert rho == pytest.approx(1.0, abs=1e-12)
        assert p < 1e-6

    def test_reversed_maps_correlate_negatively(self):
        a = {f"w{i}": float(i) for i in range(10)}
        b = {f"w{i}": -float(i) for i in range(10)}
        rho, _ = bias_correlation(a, b)
        assert rho == pytest.approx(-1.0, abs=1e-12)

    def test_matches_rank_then_pearson_oracle(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            keys = [f"w{i}" for i in range(15)]
            a = {k: float(v) for k, v in zip(keys, rng.standard_normal(15))}
            b = {k: float(v) for k, v in zip(keys, rng.standard_normal(15))}
            rho, p = bias_correlation(a, b)
            want = oracles.spearman([a[k] for k in sorted(keys)],
                                    [b[k] for k in sorted(keys)])
            assert rho == pytest.approx(want, abs=1e-9)
            assert p == pytest.approx(oracles.spearman_pvalue(want, 15), abs=1e-9)

    @pytest.mark.parametrize("constant", ["first", "second"])
    def test_constant_map_is_an_error(self, constant):
        varying = {f"w{i}": float(i) for i in range(8)}
        flat = {f"w{i}": 0.25 for i in range(8)}
        maps = (flat, varying) if constant == "first" else (varying, flat)
        with pytest.raises(ValueError, match=f"undefined: the {constant} map .* all 8"):
            bias_correlation(*maps)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("bad", ["first", "second"])
    def test_non_finite_score_is_an_error(self, bad, value):
        varying = {f"w{i}": float(i) for i in range(8)}
        spoiled = {**varying, "w5": value}
        maps = (spoiled, varying) if bad == "first" else (varying, spoiled)
        with pytest.raises(ValueError, match=f"non-finite score {value!r} for 'w5' "
                                             f"in the {bad} map"):
            bias_correlation(*maps)

    def test_non_finite_score_off_the_intersection_is_unused(self):
        a = {f"w{i}": float(i) for i in range(8)}
        b = {**a, "extra": math.nan}
        rho, _ = bias_correlation(a, b)
        assert rho == pytest.approx(1.0, abs=1e-12)

    def test_intersection_only(self):
        a = {f"w{i}": float(i) for i in range(8)}
        b = {f"w{i}": float(i) for i in range(3, 12)}
        rho, _ = bias_correlation(a, b)
        assert rho == pytest.approx(1.0, abs=1e-12)

    def test_too_few_shared_words(self):
        a = {f"w{i}": float(i) for i in range(4)}
        with pytest.raises(ValueError, match="5"):
            bias_correlation(a, dict(a))

    def test_ties_get_average_ranks(self):
        a = {"v": 1.0, "w": 1.0, "x": 2.0, "y": 3.0, "z": 4.0}
        b = {"v": 1.0, "w": 2.0, "x": 3.0, "y": 4.0, "z": 5.0}
        rho, _ = bias_correlation(a, b)
        want = oracles.spearman([a[k] for k in sorted(a)],
                                [b[k] for k in sorted(b)])
        assert rho == pytest.approx(want, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([-2.0, -0.5, 0.0, 0.5, 3.0])
                    | st.floats(-1e6, 1e6), min_size=5, max_size=200),
           st.sampled_from(["ties", "drawn", "monotone", "antitone", "near"]),
           st.integers(0, 2**32 - 1))
    @example([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], "monotone", 0)   # rho is 1.0
    @example([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], "antitone", 0)   # rho is -1.0
    def test_bias_correlation_bit_identical_to_scipy(self, values, link, seed):
        import scipy.stats

        a = np.array(values)
        rng = np.random.default_rng(seed)
        b = {"ties": lambda: rng.choice([-1.0, 0.0, 2.5, 7.0], a.size),
             "drawn": lambda: rng.standard_normal(a.size),
             "monotone": lambda: 2.0 * a,
             "antitone": lambda: -a,
             "near": lambda: a + 1e-3 * a.std() * rng.standard_normal(a.size),
             }[link]()
        assume(a.min() != a.max() and b.min() != b.max())
        keys = [f"w{i:03d}" for i in range(a.size)]
        rho, p = bias_correlation(dict(zip(keys, a)), dict(zip(keys, b)))
        want = scipy.stats.spearmanr(a, b)
        assert (rho, p) == (want.statistic, want.pvalue)
        if abs(rho) == 1.0:   # t is infinite
            assert p == 0.0
