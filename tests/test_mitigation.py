import dataclasses
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from conftest import small_space
from gendebias import (
    BiasQuery,
    BilingualDictionary,
    BilingualSpace,
    EmbeddingSpace,
    EnglishDebiasConfig,
    GenderLexicon,
    MitigationOutcome,
    bilingual_directions,
    build_directions,
    hard_debias_english,
    identity_dictionary,
    mitigate_de_align,
    mitigate_hybrid,
    mitigate_shift_en,
    mitigate_shift_ori,
    mweat_aggregate,
    neutralize,
    procrustes_align,
    procrustes_matrix,
    renormalize_outcome,
    semantic_direction,
    shift_pair,
    unit_normalize,
)
from gendebias.mitigation import METHODS, _neutralize_rows, _shift_outcome


def occupation_query(lexicon):
    return BiasQuery(tuple(p.masculine for p in lexicon.occupation_pairs),
                     tuple(p.feminine for p in lexicon.occupation_pairs),
                     lexicon.attributes_male, lexicon.attributes_female)


def random_orthogonal(dim, seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


TOY_LEXICON = dict(definitional_pairs=[("dm1", "df1"), ("dm2", "df2")],
                   grammatical_masculine=["gm1", "gm2"],
                   grammatical_feminine=["gf1", "gf2"],
                   attributes_male=["dm1"], attributes_female=["df1"])


def toy_space():
    """13 words in dim 6: definitional pairs on axis 1, grammatical words on
    axis 0, and the occupation forms "m" (+0.5 on axis 1), "f" (-0.1), "f2"."""
    rng = np.random.default_rng(0)
    words = ["m", "f", "a", "b", "dm1", "df1", "dm2", "df2",
             "gm1", "gm2", "gf1", "gf2", "f2"]
    mat = rng.standard_normal((len(words), 6)) * 0.2
    mat[0, 1] = 0.5
    mat[1, 1] = -0.1
    mat[4:6, 1] = (-0.4, 0.4)
    mat[6:8, 1] = (-0.5, 0.5)
    mat[8:10, 0] = -0.4
    mat[10:12, 0] = 0.4
    return EmbeddingSpace(words, mat)


def toy_shift_ori(space=None, **lexicon):
    space = toy_space() if space is None else space
    lex = GenderLexicon(**TOY_LEXICON, **lexicon)
    dirs = build_directions(toy_space(), lex, cv_folds=None)
    return mitigate_shift_ori(space, lex, dirs), dirs


class TestPrimitives:
    def test_neutralize_removes_component(self, rng):
        d = rng.standard_normal(8)
        d /= np.linalg.norm(d)
        for _ in range(10):
            v = rng.standard_normal(8)
            w = neutralize(v, d)
            assert abs(float(w @ d)) < 1e-12
            assert abs(np.linalg.norm(w) - 1.0) < 1e-12

    def test_neutralize_parallel_vector_rejected(self):
        d = np.zeros(4)
        d[0] = 1.0
        with pytest.raises(ValueError, match="parallel"):
            neutralize(3.0 * d, d)

    def test_neutralize_zero_vector_rejected(self):
        d = np.zeros(4)
        d[0] = 1.0
        with pytest.raises(ValueError, match="^zero vector$"):
            neutralize(np.zeros(4), d)

    def test_neutralize_underflowing_vector_gets_its_true_norm(self):
        # every square of 1e-170 underflows, yet the norm is 1.4e-170
        d = np.eye(4)[2]
        got = neutralize([1e-170, 1e-170, 0.0, 0.0], d)
        assert got == pytest.approx([math.sqrt(0.5), math.sqrt(0.5), 0.0, 0.0], abs=1e-15)

    def test_neutralize_subnormal_norm_still_gives_a_unit_row(self):
        # the residual's norm is subnormal, too few bits to divide by
        got = neutralize([5e-322, 5e-322, 0.0, 0.0], np.eye(4)[2])
        assert got == pytest.approx([math.sqrt(0.5), math.sqrt(0.5), 0.0, 0.0], abs=1e-15)

    def test_neutralize_overflowing_vector_rejected(self):
        # its squares overflow float64, as everywhere a norm is needed; no
        # numpy warning may come first
        d = np.eye(4)[2]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^the norm of the vector overflows float64$"):
                neutralize([1e200, 1e200, 0.0, 0.0], d)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_neutralize_non_finite_vector_rejected(self, value):
        # a NaN vector once came back as [nan, nan]
        with pytest.raises(ValueError, match="^non-finite components in the vector$"):
            neutralize([value, 0.0], [1.0, 0.0])

    def test_overflowing_row_rejected_by_name(self):
        matrix = np.array([[1.0, 0.0, 0.0], [1e200, 1e200, 0.0], [0.0, 1.0, 0.0]])
        with pytest.raises(ValueError, match="^the norm of 'b' overflows float64$"):
            _neutralize_rows(matrix, np.array([2, 1]), np.eye(3)[2], ("a", "b", "c"))

    def test_shift_pair_symmetric_about_anchor(self, rng):
        d = rng.standard_normal(6)
        d /= np.linalg.norm(d)
        for anchor in (0.0, 0.37, -0.2):
            vm = rng.standard_normal(6)
            vf = rng.standard_normal(6)
            nm, nf = shift_pair(vm, vf, d, anchor_proj=anchor)
            assert float(nm @ d) + float(nf @ d) == pytest.approx(2.0 * anchor,
                                                                  abs=1e-12)

    def test_shift_preserves_gap_and_complement(self, rng):
        d = rng.standard_normal(6)
        d /= np.linalg.norm(d)
        vm = rng.standard_normal(6)
        vf = rng.standard_normal(6)
        nm, nf = shift_pair(vm, vf, d)
        # the within-pair projection gap survives
        assert float((nm - nf) @ d) == pytest.approx(float((vm - vf) @ d),
                                                     abs=1e-12)
        # components orthogonal to the direction are untouched
        perp = lambda v: v - float(v @ d) * d
        assert np.max(np.abs(perp(nm) - perp(vm))) < 1e-12
        assert np.max(np.abs(perp(nf) - perp(vf))) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(vecs=arrays(np.float64, (3, 7), elements=st.floats(-10.0, 10.0)),
           anchor=st.floats(-2.0, 2.0))
    def test_shift_pair_projections_opposite_about_anchor(self, vecs, anchor):
        vm, vf, d = vecs
        norm = np.linalg.norm(d)
        assume(norm > 1e-3)
        d = d / norm
        nm, nf = shift_pair(vm, vf, d, anchor_proj=anchor)
        # roundoff of a few dot products over values of this scale
        scale = 1.0 + np.abs(vm).sum() + np.abs(vf).sum() + abs(anchor)
        assert abs((float(nm @ d) - anchor) + (float(nf @ d) - anchor)) <= 1e-13 * scale

    def test_shift_does_not_renormalize(self, rng):
        d = np.zeros(5)
        d[0] = 1.0
        vm = np.array([0.9, 0.1, 0.0, 0.0, 0.0])
        vf = np.array([0.5, 0.0, 0.2, 0.0, 0.0])
        nm, _ = shift_pair(vm, vf, d)
        assert abs(np.linalg.norm(nm) - 1.0) > 1e-3


@pytest.fixture(scope="module")
def shift_ori_outcome(fixture_aligned):
    dirs = build_directions(fixture_aligned.source, fixture_aligned.lexicon)
    return mitigate_shift_ori(fixture_aligned.source, fixture_aligned.lexicon,
                              dirs), dirs


@pytest.fixture(scope="module")
def shift_en_outcome(fixture_aligned):
    dirs = bilingual_directions(
        fixture_aligned.bilingual, fixture_aligned.lexicon,
        fixture_aligned.english_lexicon.definitional_pairs)
    return mitigate_shift_en(fixture_aligned.bilingual,
                             fixture_aligned.lexicon, dirs), dirs


@pytest.fixture(scope="module")
def debiased_english(fixture_aligned):
    cfg = EnglishDebiasConfig.from_lexicon(fixture_aligned.english_lexicon)
    out = hard_debias_english(fixture_aligned.english, cfg.definitional_pairs,
                              cfg.equalize_pairs, cfg.gender_specific)
    d_en, _ = semantic_direction(unit_normalize(fixture_aligned.english),
                                 cfg.definitional_pairs)
    return out, cfg, d_en


class TestShiftOri:
    def test_pair_residuals_vanish(self, shift_ori_outcome):
        out, _ = shift_ori_outcome
        assert max(out.residual.values()) <= 1e-12

    def test_inanimate_projections_vanish(self, shift_ori_outcome, fixture_aligned):
        out, dirs = shift_ori_outcome
        for w in fixture_aligned.lexicon.inanimate_nouns:
            assert abs(float(out.space.vector(w) @ dirs.d_s)) <= 1e-9

    def test_aggregate_strictly_decreases(self, shift_ori_outcome, fixture_aligned):
        out, _ = shift_ori_outcome
        q = occupation_query(fixture_aligned.lexicon)
        assert mweat_aggregate(q, out.space) < mweat_aggregate(
            q, fixture_aligned.source)

    def test_untouched_rows_bit_identical(self, shift_ori_outcome, fixture_aligned):
        out, _ = shift_ori_outcome
        lex = fixture_aligned.lexicon
        touched = set(lex.inanimate_nouns)
        for p in lex.occupation_pairs:
            touched.update(p.words)
        for w in fixture_aligned.source.words:
            if w not in touched:
                assert np.array_equal(out.space.vector(w),
                                      fixture_aligned.source.vector(w)), w

    def test_bookkeeping(self, shift_ori_outcome, fixture_aligned):
        out, dirs = shift_ori_outcome
        lex = fixture_aligned.lexicon
        assert out.method == "shift_ori"
        assert out.words_touched == 2 * len(lex.occupation_pairs) + len(
            lex.inanimate_nouns)
        assert set(out.anchors_used.values()) == {0.0}
        assert out.directions is dirs
        d = out.to_json_dict()
        assert d["method"] == "shift_ori"
        assert d["max_residual"] <= 1e-12
        assert len(d["residuals"]) == len(lex.occupation_pairs)

    def test_occupation_word_is_shifted_not_neutralized(self):
        # a pair member doubling as an inanimate noun must keep its shifted
        # projection rather than being zeroed afterwards
        out, dirs = toy_shift_ori(occupation_pairs=[("m", "f")],
                                  inanimate_nouns=["m", "a"])
        proj_m = float(out.space.vector("m") @ dirs.d_s)
        proj_f = float(out.space.vector("f") @ dirs.d_s)
        assert abs(proj_m + proj_f) < 1e-12  # shifted symmetric
        assert abs(proj_m) > 0.01            # not neutralized
        assert abs(float(out.space.vector("a") @ dirs.d_s)) < 1e-9
        assert out.words_touched == 3

    def test_form_shared_by_two_pairs_rejected(self):
        # shifting ("m", "f2") after ("m", "f") moves "m" again, so the
        # first pair cannot stay symmetric
        with pytest.raises(ValueError, match=r"form 'm' is shared by occupation "
                                             r"pairs \('m', 'f'\) and \('m', 'f2'\)"):
            toy_shift_ori(occupation_pairs=[("m", "f"), ("m", "f2")],
                          inanimate_nouns=["a"])
        with pytest.raises(ValueError, match="form 'f' is shared"):
            toy_shift_ori(occupation_pairs=[("m", "f"), ("f", "f2")])

    def test_repeated_pair_shifted_once(self):
        once, _ = toy_shift_ori(occupation_pairs=[("m", "f")],
                                inanimate_nouns=["a"])
        twice, _ = toy_shift_ori(occupation_pairs=[("m", "f"), ("m", "f")],
                                 inanimate_nouns=["a"])
        assert np.array_equal(twice.space.matrix, once.space.matrix)
        assert twice.residual == once.residual
        assert twice.words_touched == once.words_touched == 3

    def test_words_touched_counts_distinct_rows(self):
        out, _ = toy_shift_ori(occupation_pairs=[("m", "f")],
                               inanimate_nouns=["a", "b", "a"])
        assert out.words_touched == 4

    def test_zero_inanimate_noun_named(self):
        space = toy_space()
        matrix = np.array(space.matrix)
        matrix[space.index("b")] = 0.0
        with pytest.raises(ValueError, match="^zero vector for 'b'$"):
            toy_shift_ori(space.with_matrix(matrix),
                          occupation_pairs=[("m", "f")],
                          inanimate_nouns=["a", "b"])

    def test_nothing_to_mitigate_is_an_error(self, fixture_aligned):
        lex = fixture_aligned.lexicon
        empty = GenderLexicon(definitional_pairs=lex.definitional_pairs,
                              grammatical_masculine=lex.grammatical_masculine,
                              grammatical_feminine=lex.grammatical_feminine,
                              attributes_male=lex.attributes_male,
                              attributes_female=lex.attributes_female)
        dirs = build_directions(fixture_aligned.source, lex)
        with pytest.raises(ValueError, match="nothing to mitigate"):
            mitigate_shift_ori(fixture_aligned.source, empty, dirs)


class TestShiftKernels:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n_pairs=st.integers(0, 4), n_other=st.integers(1, 5),
           dim=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
    def test_matches_sequential_oracle(self, data, n_pairs, n_other, dim, seed):
        rng = np.random.default_rng(seed)
        pairs = [(f"m{i}", f"f{i}") for i in range(n_pairs)]
        words = [w for p in pairs for w in p] + [f"o{i}" for i in range(n_other)]
        # listings may repeat a pair and overlap pair forms with nouns
        listed = data.draw(st.lists(st.sampled_from(pairs), max_size=6)
                           if pairs else st.just([]))
        inanimate = data.draw(st.lists(st.sampled_from(words), max_size=8))
        assume(listed or inanimate)
        listed_pairs = list(dict.fromkeys(listed))
        matrix = rng.standard_normal((len(words), dim))
        d = rng.standard_normal(dim)
        d /= np.linalg.norm(d)
        anchors = {p: float(rng.uniform(-1.0, 1.0)) for p in listed_pairs}
        space = EmbeddingSpace(words, matrix)
        lex = GenderLexicon(occupation_pairs=listed, inanimate_nouns=inanimate)
        out = _shift_outcome("t", space, lex, SimpleNamespace(d_s=d), anchors)
        want, residual, touched = oracles.shift_then_neutralize(
            dict(zip(words, matrix)), listed, anchors, inanimate, d)
        for w in words:
            scale = 1.0 + np.abs(matrix[space.index(w)]).sum()
            got = out.space.vector(w)
            assert np.max(np.abs(got - want[w])) <= 1e-12 * scale, w
        assert list(out.residual) == listed_pairs
        for p in listed_pairs:
            assert abs(out.residual[p] - residual[p]) <= 1e-12
        assert out.words_touched == touched
        changed = set(inanimate).union(*listed_pairs)
        for w in set(words) - changed:
            assert np.array_equal(out.space.vector(w), space.vector(w)), w


class TestShiftEn:
    def test_pairs_symmetric_about_english_anchor(self, shift_en_outcome, fixture_aligned):
        out, dirs = shift_en_outcome
        assert max(out.residual.values()) <= 1e-12
        for pair in fixture_aligned.lexicon.occupation_pairs:
            anchor = float(fixture_aligned.english.vector(pair.english) @ dirs.d_s)
            pm = float(out.source_space.vector(pair.masculine) @ dirs.d_s)
            pf = float(out.source_space.vector(pair.feminine) @ dirs.d_s)
            assert pm + pf == pytest.approx(2.0 * anchor, abs=1e-9)
            assert out.anchors_used[pair.words] == pytest.approx(anchor, abs=1e-12)

    def test_target_side_untouched(self, shift_en_outcome, fixture_aligned):
        out, _ = shift_en_outcome
        assert out.space.target is fixture_aligned.english

    def test_aggregate_decreases(self, shift_en_outcome, fixture_aligned):
        out, _ = shift_en_outcome
        q = occupation_query(fixture_aligned.lexicon)
        assert mweat_aggregate(q, out.source_space) < mweat_aggregate(
            q, fixture_aligned.source)

    def test_pair_without_english_annotation(self, fixture_aligned):
        lex = fixture_aligned.lexicon
        stripped = GenderLexicon(
            definitional_pairs=lex.definitional_pairs,
            grammatical_masculine=lex.grammatical_masculine,
            grammatical_feminine=lex.grammatical_feminine,
            occupation_pairs=[(p.masculine, p.feminine)
                              for p in lex.occupation_pairs],
            inanimate_nouns=lex.inanimate_nouns,
            attributes_male=lex.attributes_male,
            attributes_female=lex.attributes_female)
        dirs = bilingual_directions(
            fixture_aligned.bilingual, stripped,
            fixture_aligned.english_lexicon.definitional_pairs)
        with pytest.raises(ValueError, match="English"):
            mitigate_shift_en(fixture_aligned.bilingual, stripped, dirs)

    def test_anchor_word_missing_from_english_space(self, fixture_aligned):
        lex = fixture_aligned.lexicon
        first = lex.occupation_pairs[0]
        renamed = GenderLexicon(
            definitional_pairs=lex.definitional_pairs,
            grammatical_masculine=lex.grammatical_masculine,
            grammatical_feminine=lex.grammatical_feminine,
            occupation_pairs=[(first.masculine, first.feminine, "no_such_word")]
                             + [p for p in lex.occupation_pairs[1:]],
            inanimate_nouns=lex.inanimate_nouns,
            attributes_male=lex.attributes_male,
            attributes_female=lex.attributes_female)
        dirs = bilingual_directions(
            fixture_aligned.bilingual, renamed,
            fixture_aligned.english_lexicon.definitional_pairs)
        with pytest.raises(ValueError, match="no_such_word"):
            mitigate_shift_en(fixture_aligned.bilingual, renamed, dirs)

    def test_conflicting_english_anchors_rejected(self, shift_en_outcome,
                                                  fixture_aligned):
        # the same pair with two English words has no single anchor to be
        # symmetric about
        _, dirs = shift_en_outcome
        lex = fixture_aligned.lexicon
        first, second = lex.occupation_pairs[:2]
        twice = dataclasses.replace(lex, occupation_pairs=(
            first, (first.masculine, first.feminine, second.english),
            *lex.occupation_pairs[1:]))
        with pytest.raises(ValueError, match=(
                rf"^occupation pair \('{first.masculine}', '{first.feminine}'\) is "
                rf"listed with English anchors '{first.english}' and "
                rf"'{second.english}'$")):
            mitigate_shift_en(fixture_aligned.bilingual, twice, dirs)

    def test_repeated_english_listing_accepted(self, shift_en_outcome,
                                               fixture_aligned):
        out, dirs = shift_en_outcome
        lex = fixture_aligned.lexicon
        repeated = dataclasses.replace(
            lex, occupation_pairs=lex.occupation_pairs + lex.occupation_pairs[:1])
        again = mitigate_shift_en(fixture_aligned.bilingual, repeated, dirs)
        assert again.anchors_used == out.anchors_used
        assert np.array_equal(again.source_space.matrix, out.source_space.matrix)


class TestEnglishDebiasConfig:
    def test_equalize_defaults_to_definitional(self, fixture_aligned):
        cfg = EnglishDebiasConfig.from_lexicon(fixture_aligned.english_lexicon)
        assert cfg.equalize_pairs == cfg.definitional_pairs
        for m, f in cfg.definitional_pairs:
            assert m in cfg.gender_specific and f in cfg.gender_specific
        for w in fixture_aligned.english_lexicon.attributes_male:
            assert w in cfg.gender_specific

    def test_custom_equalize_pairs(self, fixture_aligned):
        pairs = fixture_aligned.english_lexicon.definitional_pairs[:2]
        cfg = EnglishDebiasConfig.from_lexicon(fixture_aligned.english_lexicon,
                                               equalize_pairs=pairs)
        assert cfg.equalize_pairs == tuple(pairs)


class TestHardDebias:
    def test_non_protected_words_neutralized(self, debiased_english):
        out, cfg, d_en = debiased_english
        protected = set(cfg.gender_specific)
        for m, f in cfg.equalize_pairs:
            protected.update((m, f))
        checked = 0
        for w in out.words:
            if w not in protected:
                assert abs(float(out.vector(w) @ d_en)) <= 1e-9, w
                checked += 1
        assert checked > 0

    def test_equalized_pairs_mirror_along_direction(self, debiased_english):
        out, cfg, d_en = debiased_english
        for m, f in cfg.equalize_pairs:
            pm = float(out.vector(m) @ d_en)
            pf = float(out.vector(f) @ d_en)
            assert pm == pytest.approx(-pf, abs=1e-9)
            assert abs(pm) > 0.0

    def test_equalized_pairs_equidistant_to_neutralized_words(self, debiased_english):
        out, cfg, d_en = debiased_english
        protected = set(cfg.gender_specific)
        neutral = [w for w in out.words if w not in protected][:50]
        from gendebias import cosine
        for m, f in cfg.equalize_pairs:
            for w in neutral:
                gap = abs(cosine(out.vector(w), out.vector(m))
                          - cosine(out.vector(w), out.vector(f)))
                assert gap <= 1e-6

    def test_output_is_unit_normalized(self, debiased_english):
        out, _, _ = debiased_english
        assert out.normalized
        assert np.max(np.abs(np.linalg.norm(out.matrix, axis=1) - 1.0)) < 1e-9

    def test_protected_non_equalized_words_only_renormalized(self, fixture_aligned):
        cfg = EnglishDebiasConfig.from_lexicon(fixture_aligned.english_lexicon)
        normalized = unit_normalize(fixture_aligned.english)
        out = hard_debias_english(normalized, cfg.definitional_pairs,
                                  cfg.equalize_pairs, cfg.gender_specific)
        only_protected = [w for w in cfg.gender_specific
                          if not any(w in p for p in cfg.equalize_pairs)]
        assert only_protected
        for w in only_protected:
            assert np.array_equal(out.vector(w), normalized.vector(w)), w

    def test_matches_per_row_neutralize_oracle(self, debiased_english,
                                               fixture_aligned):
        out, cfg, d_en = debiased_english
        normalized = unit_normalize(fixture_aligned.english)
        exempt = set(cfg.gender_specific).union(*cfg.equalize_pairs)
        free = [w for w in out.words if w not in exempt]
        assert free
        for w in free:
            want = oracles.neutralize(normalized.vector(w), d_en)
            assert np.max(np.abs(out.vector(w) - want)) <= 1e-12, w

    def test_zero_row_rejected_by_name(self, fixture_aligned):
        cfg = EnglishDebiasConfig.from_lexicon(fixture_aligned.english_lexicon)
        space = fixture_aligned.english
        word = next(w for w in space.words if w not in cfg.gender_specific)
        matrix = np.array(space.matrix)
        matrix[space.index(word)] = 0.0
        with pytest.raises(ValueError, match=f"^zero vector for {word!r}$"):
            hard_debias_english(space.with_matrix(matrix), cfg.definitional_pairs,
                                cfg.equalize_pairs, cfg.gender_specific)

    def test_parallel_word_rejected_by_name(self):
        rng = np.random.default_rng(2)
        axis = np.zeros(6)
        axis[0] = 1.0
        base1, base2 = rng.standard_normal((2, 6))
        base1[0] = base2[0] = 0.0
        rows = {"dm1": base1 - 0.4 * axis, "df1": base1 + 0.4 * axis,
                "dm2": base2 - 0.5 * axis, "df2": base2 + 0.5 * axis,
                "other": rng.standard_normal(6), "zz_axis": axis, "aa_axis": -axis}
        space = EmbeddingSpace(list(rows), np.vstack(list(rows.values())))
        with pytest.raises(ValueError, match="'zz_axis' is parallel"):
            hard_debias_english(space, [("dm1", "df1"), ("dm2", "df2")],
                                [("dm1", "df1")], ["dm1", "df1", "dm2", "df2"])

    def test_identical_projection_pair_rejected(self):
        rng = np.random.default_rng(1)
        base = rng.standard_normal(6)
        rows = {"dm1": None, "df1": None, "dm2": None, "df2": None}
        d_axis = np.zeros(6)
        d_axis[0] = 1.0
        rows["dm1"] = base - 0.4 * d_axis
        rows["df1"] = base + 0.4 * d_axis
        base2 = rng.standard_normal(6)
        rows["dm2"] = base2 - 0.5 * d_axis
        rows["df2"] = base2 + 0.5 * d_axis
        same = rng.standard_normal(6)
        same[0] = 0.0
        rows["eq_m"] = same
        rows["eq_f"] = same
        words = list(rows)
        space = unit_normalize(EmbeddingSpace(words, np.vstack([rows[w] for w in words])))
        # the equalize pair has identical vectors orthogonal to the direction
        eq_m = space.vector("eq_m") - float(space.vector("eq_m") @ d_axis) * d_axis
        mat = np.array(space.matrix)
        mat[words.index("eq_m")] = eq_m / np.linalg.norm(eq_m)
        mat[words.index("eq_f")] = eq_m / np.linalg.norm(eq_m)
        space = EmbeddingSpace(words, mat)
        with pytest.raises(ValueError, match="identical"):
            hard_debias_english(space, [("dm1", "df1"), ("dm2", "df2")],
                                [("eq_m", "eq_f")], ["dm1", "df1", "dm2", "df2"])


class TestProcrustes:
    def test_planted_rotation_recovered_exactly(self):
        space = small_space(80, 8, seed=0)
        q = random_orthogonal(8, seed=1)
        target = EmbeddingSpace(space.words, space.matrix @ q.T, normalized=True)
        w = procrustes_matrix(space, target, identity_dictionary(space, target))
        assert np.max(np.abs(w - q)) < 1e-9

    def test_matches_scipy_on_noisy_pairs(self):
        rng = np.random.default_rng(3)
        space = small_space(100, 6, seed=3)
        q = random_orthogonal(6, seed=4)
        noisy = space.matrix @ q.T + 0.01 * rng.standard_normal((100, 6))
        target = EmbeddingSpace(space.words, noisy)
        w = procrustes_matrix(space, target, identity_dictionary(space, target))
        want = oracles.procrustes_rotation(space.matrix, target.matrix)
        assert np.max(np.abs(w - want)) < 1e-9

    def test_result_is_orthogonal(self):
        space = small_space(50, 7, seed=5)
        q = random_orthogonal(7, seed=6)
        target = EmbeddingSpace(space.words, space.matrix @ q.T)
        w = procrustes_matrix(space, target, identity_dictionary(space, target))
        assert np.max(np.abs(w @ w.T - np.eye(7))) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 12),
           extra_words=st.integers(0, 30), data=st.data())
    def test_rotation_keeps_every_cosine(self, seed, dim, extra_words, data):
        # random spaces and a random seed dictionary; the six English
        # definitional words keep their gender component through
        # hard-debiasing, so seed pairs onto them keep the cross-covariance
        # full rank
        rng = np.random.default_rng(seed)
        n = dim + 6 + extra_words
        source = EmbeddingSpace([f"s{i}" for i in range(n)], rng.standard_normal((n, dim)))
        english = EmbeddingSpace([f"e{i}" for i in range(n)], rng.standard_normal((n, dim)))
        n_pairs = data.draw(st.integers(dim, n - 6), label="n_pairs")
        targets = np.concatenate([np.arange(6), 6 + rng.permutation(n - 6)[:n_pairs]])
        seed_dict = BilingualDictionary(
            (f"s{i}", f"e{j}") for i, j in zip(rng.permutation(n), targets))

        r = procrustes_matrix(source, english, seed_dict)
        assert np.max(np.abs(r.T @ r - np.eye(dim))) <= 1e-12

        lex = GenderLexicon(definitional_pairs=[("e0", "e1"), ("e2", "e3"), ("e4", "e5")])
        cfg = EnglishDebiasConfig.from_lexicon(lex, equalize_pairs=[])
        aligned = mitigate_de_align(source, english, seed_dict, cfg).source
        units = [s.matrix / s.row_norms()[:, None] for s in (source, aligned)]
        cosines = [u @ u.T for u in units]
        assert np.max(np.abs(cosines[1] - cosines[0])) <= 1e-12

    def test_too_few_seed_pairs(self):
        space = small_space(4, 6, seed=7)
        target = small_space(4, 6, seed=8)
        with pytest.raises(ValueError, match="seed pairs"):
            procrustes_matrix(space, target, identity_dictionary(space, target))

    def test_rank_deficient_seed_pairs(self):
        rng = np.random.default_rng(9)
        flat = np.zeros((8, 4))
        flat[:, :2] = rng.standard_normal((8, 2))
        space = EmbeddingSpace([f"w{i}" for i in range(8)], flat)
        target = EmbeddingSpace([f"w{i}" for i in range(8)], flat)
        with pytest.raises(ValueError, match="rank"):
            procrustes_matrix(space, target, identity_dictionary(space, target))

    def test_align_preserves_within_source_geometry(self):
        space = small_space(60, 6, seed=10)
        q = random_orthogonal(6, seed=11)
        target = EmbeddingSpace(space.words, space.matrix @ q.T, normalized=True)
        bi = procrustes_align(space, target, identity_dictionary(space, target))
        gram_before = space.matrix @ space.matrix.T
        gram_after = bi.source.matrix @ bi.source.matrix.T
        assert np.max(np.abs(gram_before - gram_after)) < 1e-12
        assert bi.source.normalized == space.normalized


class TestDeAlign:
    def test_composition_is_debias_then_align(self, fixture_rotated):
        cfg = EnglishDebiasConfig.from_lexicon(fixture_rotated.english_lexicon)
        bi = mitigate_de_align(fixture_rotated.source, fixture_rotated.english,
                               fixture_rotated.seed_dictionary, cfg)
        debiased = hard_debias_english(fixture_rotated.english,
                                       cfg.definitional_pairs,
                                       cfg.equalize_pairs, cfg.gender_specific)
        manual = procrustes_align(fixture_rotated.source, debiased,
                                  fixture_rotated.seed_dictionary)
        assert np.array_equal(bi.source.matrix, manual.source.matrix)
        assert np.array_equal(bi.target.matrix, manual.target.matrix)

    def test_identity_seed_fallback(self):
        space = small_space(40, 5, seed=12, prefix="shared")
        q = random_orthogonal(5, seed=13)
        rotated = EmbeddingSpace(space.words, space.matrix @ q.T,
                                 normalized=True)
        # give the target enough structure for a semantic direction
        lex = GenderLexicon(definitional_pairs=[("shared000", "shared001"),
                                                ("shared002", "shared003")])
        cfg = EnglishDebiasConfig.from_lexicon(lex)
        bi = mitigate_de_align(rotated, space, None, cfg)
        assert bi.source.words == rotated.words

    def test_rotation_cannot_change_the_aggregate(self, fixture_rotated):
        # the re-alignment is a within-source isometry, so the aggregate
        # statistic is exactly preserved; reduction must come from the
        # shift stage of a hybrid pipeline
        cfg = EnglishDebiasConfig.from_lexicon(fixture_rotated.english_lexicon)
        bi = mitigate_de_align(fixture_rotated.source, fixture_rotated.english,
                               fixture_rotated.seed_dictionary, cfg)
        q = occupation_query(fixture_rotated.lexicon)
        before = mweat_aggregate(q, fixture_rotated.source)
        after = mweat_aggregate(q, bi.source)
        assert after == pytest.approx(before, abs=1e-9)


class TestHybrid:
    def test_variant_validated(self, fixture_rotated):
        cfg = EnglishDebiasConfig.from_lexicon(fixture_rotated.english_lexicon)
        with pytest.raises(ValueError, match="variant"):
            mitigate_hybrid(fixture_rotated.source, fixture_rotated.english,
                            fixture_rotated.lexicon, "both",
                            fixture_rotated.seed_dictionary, cfg)

    def test_hybrid_en_is_shift_en_after_de_align(self, fixture_rotated):
        cfg = EnglishDebiasConfig.from_lexicon(fixture_rotated.english_lexicon)
        out = mitigate_hybrid(fixture_rotated.source, fixture_rotated.english,
                              fixture_rotated.lexicon, "en",
                              fixture_rotated.seed_dictionary, cfg)
        bi = mitigate_de_align(fixture_rotated.source, fixture_rotated.english,
                               fixture_rotated.seed_dictionary, cfg)
        dirs = bilingual_directions(bi, fixture_rotated.lexicon,
                                    cfg.definitional_pairs, cv_folds=None)
        manual = mitigate_shift_en(bi, fixture_rotated.lexicon, dirs)
        assert np.array_equal(out.source_space.matrix,
                              manual.source_space.matrix)
        assert out.method == "hybrid_en"

    def test_hybrid_ori_reduces_bias_with_tiny_residuals(self, fixture_rotated):
        cfg = EnglishDebiasConfig.from_lexicon(fixture_rotated.english_lexicon)
        out = mitigate_hybrid(fixture_rotated.source, fixture_rotated.english,
                              fixture_rotated.lexicon, "ori",
                              fixture_rotated.seed_dictionary, cfg)
        assert out.method == "hybrid_ori"
        assert max(out.residual.values()) <= 1e-12
        q = occupation_query(fixture_rotated.lexicon)
        assert mweat_aggregate(q, out.source_space) < mweat_aggregate(
            q, fixture_rotated.source)
        assert out.directions is not None

    def test_methods_tuple(self):
        assert METHODS == ("shift_ori", "shift_en", "de_align", "hybrid_ori",
                           "hybrid_en")


class TestRenormalize:
    def test_unit_norms_and_recomputed_residuals(self, fixture_aligned):
        dirs = build_directions(fixture_aligned.source, fixture_aligned.lexicon)
        out = mitigate_shift_ori(fixture_aligned.source,
                                 fixture_aligned.lexicon, dirs)
        renormed = renormalize_outcome(out)
        norms = np.linalg.norm(renormed.source_space.matrix, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12
        assert renormed.method == "shift_ori+renorm"
        # renormalization trades exact pair symmetry for unit norms
        assert max(renormed.residual.values()) > 0.0

    def test_requires_directions(self, fixture_aligned):
        out = MitigationOutcome(method="shift_ori",
                                space=fixture_aligned.source, residual={},
                                words_touched=0, anchors_used={})
        with pytest.raises(ValueError, match="directions"):
            renormalize_outcome(out)
