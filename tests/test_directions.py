import dataclasses
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import small_space
from gendebias import (
    BilingualSpace,
    EmbeddingSpace,
    GenderDirections,
    bilingual_directions,
    build_directions,
    grammatical_direction,
    lda_cross_validation,
    orthogonalize,
    project,
    semantic_direction,
    unit_normalize,
)

E = np.eye(10)


def space_from(pairs_of_vectors, prefix="p"):
    """Build a space from [(vec_m, vec_f), ...] with generated names, plus the
    matching pair names."""
    words, rows, pairs = [], [], []
    for i, (vm, vf) in enumerate(pairs_of_vectors):
        words += [f"{prefix}m{i:02d}", f"{prefix}f{i:02d}"]
        rows += [vm, vf]
        pairs.append((f"{prefix}m{i:02d}", f"{prefix}f{i:02d}"))
    return EmbeddingSpace(words, np.vstack(rows)), pairs


def class_space(rng, n_per_class, dim, offset_axis, offset, spread=0.1,
                cov_diag=None):
    """Two labelled Gaussian clouds separated along one axis."""
    cov = np.full(dim, spread) if cov_diag is None else np.asarray(cov_diag)
    masc = rng.standard_normal((n_per_class, dim)) * cov - offset * offset_axis
    fem = rng.standard_normal((n_per_class, dim)) * cov + offset * offset_axis
    words = [f"m{i:03d}" for i in range(n_per_class)] + \
            [f"f{i:03d}" for i in range(n_per_class)]
    space = EmbeddingSpace(words, np.vstack([masc, fem]))
    return space, words[:n_per_class], words[n_per_class:]


class TestProject:
    def test_scalar_projection(self):
        assert project([3.0, 4.0], [1.0, 0.0]) == 3.0
        assert project([3.0, 4.0], [0.0, 1.0]) == 4.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            project([1.0], [1.0, 0.0])


class TestSemanticDirection:
    def test_single_axis_differences_recover_exactly(self):
        # every (feminine - masculine) difference sits on one coordinate axis
        # with varying magnitude, so the top component is that axis exactly
        vecs = [(u - c * E[2], u + c * E[2])
                for u, c in zip(np.random.default_rng(1).standard_normal((4, 10)),
                                (0.2, 0.3, 0.5, 0.7))]
        space, pairs = space_from(vecs)
        d, explained = semantic_direction(space, pairs)
        assert abs(project(d, E[2])) > 1.0 - 1e-9
        assert project(d, E[2]) > 0  # oriented toward the feminine side
        assert explained == pytest.approx(1.0, abs=1e-9)

    def test_matches_dense_eigensolver(self, rng):
        for seed in range(5):
            r = np.random.default_rng(seed)
            base = r.standard_normal((30, 10))
            diffs = r.standard_normal((30, 10)) * 0.3
            vecs = [(u, u + dv) for u, dv in zip(base, diffs)]
            space, pairs = space_from(vecs)
            d, explained = semantic_direction(space, pairs)
            want_d, want_explained = oracles.pca_top_component_eigh(diffs)
            assert abs(float(d @ want_d)) > 1.0 - 1e-9
            assert explained == pytest.approx(want_explained, abs=1e-9)

    def test_noise_recovery(self):
        # planted axis with 1% noise: recovered within 0.99 cosine
        r = np.random.default_rng(7)
        vecs = []
        for i in range(20):
            u = r.standard_normal(10)
            amp = 0.3 + 0.05 * r.standard_normal()
            noise = 0.01 * r.standard_normal(10)
            vecs.append((u - amp * E[1], u + amp * E[1] + noise))
        space, pairs = space_from(vecs)
        d, _ = semantic_direction(space, pairs)
        assert abs(project(d, E[1])) > 0.99

    def test_needs_two_covered_pairs(self):
        space, pairs = space_from([(E[0], E[1]), (E[2], E[3])])
        with pytest.raises(ValueError, match="2"):
            semantic_direction(space, pairs[:1])
        with pytest.raises(ValueError):
            semantic_direction(space, [("nope", "nada"), ("zip", "zilch")])

    def test_duplicates_count_once(self):
        space, pairs = space_from([(E[0], E[1]), (E[2], E[3]), (E[4], E[5])])
        d1, e1 = semantic_direction(space, pairs)
        d2, e2 = semantic_direction(space, list(pairs) + list(pairs))
        assert np.array_equal(d1, d2)
        assert e1 == e2

    def test_identical_differences_degenerate_case(self):
        # mean-centering kills all variance; the common difference itself is
        # the direction and the ratio is reported as 1
        u1, u2, u3 = np.random.default_rng(3).standard_normal((3, 10))
        delta = 0.4 * E[1]
        space, pairs = space_from([(u1, u1 + delta), (u2, u2 + delta),
                                   (u3, u3 + delta)])
        d, explained = semantic_direction(space, pairs)
        assert abs(project(d, E[1])) > 1.0 - 1e-12
        assert explained == 1.0

    def test_sign_follows_mean_difference(self):
        r = np.random.default_rng(11)
        vecs = []
        for i in range(6):
            u = r.standard_normal(10)
            c = 0.2 + 0.1 * r.random()
            vecs.append((u + c * E[3], u - c * E[3]))  # feminine side negative
        space, pairs = space_from(vecs)
        d, _ = semantic_direction(space, pairs)
        assert project(d, E[3]) < 0


class TestGrammaticalDirection:
    def test_recovers_separating_axis(self):
        rng = np.random.default_rng(5)
        space, masc, fem = class_space(rng, 300, 10, E[0], 0.5, spread=0.05)
        d = grammatical_direction(space, masc, fem)
        assert abs(project(d, E[0])) > 0.99
        assert project(d, E[0]) > 0  # feminine class sits on the positive side

    def test_whitening_beats_raw_mean_difference(self):
        # the mean gap has a large component along a high-variance axis and a
        # small one along a quiet axis; LDA must favor the quiet axis
        rng = np.random.default_rng(8)
        cov = np.full(10, 0.05)
        cov[2] = 2.0
        offset_axis = 0.15 * E[0] + 1.0 * E[2]
        space, masc, fem = class_space(rng, 400, 10, offset_axis, 1.0,
                                       cov_diag=cov)
        d = grammatical_direction(space, masc, fem)
        assert abs(project(d, E[0])) > abs(project(d, E[2]))
        assert abs(project(d, E[0])) > 0.9

    def test_matches_explicit_inverse(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            space, masc, fem = class_space(rng, 50, 8, np.eye(8)[1], 0.4)
            d = grammatical_direction(space, masc, fem, ridge=1e-3)
            xm = space.matrix[space.indices(masc)]
            xf = space.matrix[space.indices(fem)]
            want = oracles.lda_direction_inverse(xm, xf, ridge=1e-3)
            assert np.max(np.abs(d - want)) < 1e-9

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        space, masc, fem = class_space(rng, 60, 6, np.eye(6)[0], 0.4)
        scaled = space.with_matrix(space.matrix * 3.0)
        d1 = grammatical_direction(space, masc, fem)
        d2 = grammatical_direction(scaled, masc, fem)
        assert np.max(np.abs(d1 - d2)) < 1e-9

    def test_small_classes_rejected(self):
        space = small_space(10, 4, seed=0)
        with pytest.raises(ValueError):
            grammatical_direction(space, ["w000"], ["w001", "w002"])

    def test_negative_ridge_rejected(self):
        space = small_space(10, 4, seed=0)
        with pytest.raises(ValueError):
            grammatical_direction(space, ["w000", "w001"], ["w002", "w003"],
                                  ridge=-0.5)

    def test_zero_ridge_needs_full_rank(self):
        # 2+2 points in 4 dimensions leave the pooled covariance rank 2
        space = small_space(4, 4, seed=2)
        with pytest.raises(ValueError, match="ridge"):
            grammatical_direction(space, ["w000", "w001"], ["w002", "w003"],
                                  ridge=0.0)

    def test_zero_ridge_full_rank_works(self):
        rng = np.random.default_rng(9)
        space, masc, fem = class_space(rng, 40, 5, np.eye(5)[0], 0.5)
        d = grammatical_direction(space, masc, fem, ridge=0.0)
        assert abs(np.linalg.norm(d) - 1.0) < 1e-12


class TestLdaCrossValidation:
    def test_separable_classes_score_high(self):
        rng = np.random.default_rng(6)
        space, masc, fem = class_space(rng, 50, 8, np.eye(8)[0], 0.5)
        assert lda_cross_validation(space, masc, fem) >= 0.95

    def test_shuffled_labels_score_near_chance(self):
        rng = np.random.default_rng(13)
        space, masc, fem = class_space(rng, 100, 8, np.eye(8)[0], 0.5)
        pool = list(masc) + list(fem)
        perm = rng.permutation(len(pool))
        shuffled_m = [pool[i] for i in perm[:100]]
        shuffled_f = [pool[i] for i in perm[100:]]
        acc = lda_cross_validation(space, shuffled_m, shuffled_f, seed=3)
        assert 0.3 < acc < 0.7

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(2)
        space, masc, fem = class_space(rng, 30, 6, np.eye(6)[0], 0.3)
        a = lda_cross_validation(space, masc, fem, seed=5)
        b = lda_cross_validation(space, masc, fem, seed=5)
        assert a == b

    def test_fold_count_validated(self):
        space = small_space(20, 4, seed=0)
        masc = [f"w{i:03d}" for i in range(10)]
        fem = [f"w{i:03d}" for i in range(10, 20)]
        with pytest.raises(ValueError):
            lda_cross_validation(space, masc, fem, folds=1)
        with pytest.raises(ValueError):
            lda_cross_validation(space, masc, fem, folds=11)


    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 12),
           extra_m=st.integers(10, 30), extra_f=st.integers(10, 30),
           folds=st.integers(2, 10), ridge=st.sampled_from([0.0, 1e-3, 0.5]),
           separation=st.sampled_from([0.0, 0.3, 2.0]), shuffled=st.booleans())
    def test_matches_per_fold_reference(self, seed, dim, extra_m, extra_f,
                                        folds, ridge, separation, shuffled):
        # at least dim + 10 nouns per class keep every training fold's pooled
        # covariance full rank, so ridge 0 is well posed
        rng = np.random.default_rng(seed)
        n_m, n_f = dim + extra_m, dim + extra_f
        axis = rng.standard_normal(dim)
        x = rng.standard_normal((n_m + n_f, dim))
        x[:n_m] -= separation * axis
        x[n_m:] += separation * axis
        words = [f"w{i:03d}" for i in range(n_m + n_f)]
        if shuffled:
            words = [words[i] for i in rng.permutation(len(words))]
        masc = words[:n_m] + ["missing_m"]
        fem = ["missing_f"] + words[n_m:]
        space = EmbeddingSpace(words, x)
        got = lda_cross_validation(space, masc, fem, folds=folds, seed=seed,
                                   ridge=ridge)
        want = oracles.lda_cv_reference(dict(zip(words, x)), masc, fem,
                                        folds=folds, seed=seed, ridge=ridge)
        assert got == want

    def test_negative_ridge_rejected(self):
        rng = np.random.default_rng(1)
        space, masc, fem = class_space(rng, 20, 4, np.eye(4)[0], 0.5)
        with pytest.raises(ValueError, match="ridge must be >= 0, got -0.1"):
            lda_cross_validation(space, masc, fem, ridge=-0.1)

    def test_training_class_below_two_words_rejected(self, fixture_aligned,
                                                     caplog):
        # 3 masculine nouns in 2 folds: fold 0 trains on a single one
        lex = fixture_aligned.lexicon
        short = dataclasses.replace(
            lex, grammatical_masculine=lex.grammatical_masculine[:3])
        message = "need at least 2 covered nouns per class, have 1 masculine / "
        with pytest.raises(ValueError, match=message):
            lda_cross_validation(fixture_aligned.source,
                                 short.grammatical_masculine,
                                 short.grammatical_feminine, folds=2)
        with caplog.at_level(logging.INFO, logger="gendebias.directions"):
            bundle = build_directions(fixture_aligned.source, short, cv_folds=2)
        assert bundle.lda_cv_accuracy is None
        assert any(r.message.startswith("skipping LDA cross-validation: " + message)
                   for r in caplog.records)

    def test_zero_ridge_rank_deficient_rejected(self):
        # 2 folds of 8 nouns per class train on 8 rows in 10 dimensions
        rng = np.random.default_rng(4)
        space, masc, fem = class_space(rng, 8, 10, E[0], 0.5)
        with pytest.raises(ValueError, match="rank-deficient"):
            lda_cross_validation(space, masc, fem, folds=2, ridge=0.0)
        assert 0.0 <= lda_cross_validation(space, masc, fem, folds=2) <= 1.0

    @pytest.mark.parametrize("n_per_class, warned", [(5, 5), (7, 0)])
    def test_small_class_warning_per_fold(self, caplog, n_per_class, warned):
        # dim 50 warns when a training class has fewer than 5 nouns: 5 nouns
        # in 5 folds train on 4 in every fold, 7 nouns on 5 or 6
        rng = np.random.default_rng(8)
        space, masc, fem = class_space(rng, n_per_class, 50, np.eye(50)[0], 0.5)
        with caplog.at_level(logging.WARNING, logger="gendebias.directions"):
            lda_cross_validation(space, masc, fem, folds=5)
        small = [r.getMessage() for r in caplog.records
                 if r.getMessage().startswith("small noun classes")]
        assert small == ["small noun classes for LDA (4/4 words, dim 50)"] * warned


class TestOrthogonalize:
    def test_plane_example(self):
        d_pca = np.array([1.0, 1.0]) / np.sqrt(2.0)
        d_g = np.array([1.0, 0.0])
        d_s = orthogonalize(d_pca, d_g)
        assert np.allclose(d_s, [0.0, 1.0], atol=1e-12)

    def test_already_orthogonal_is_untouched(self):
        d_s = orthogonalize(E[3], E[0])
        assert np.max(np.abs(d_s - E[3])) < 1e-15

    def test_result_is_unit_and_orthogonal(self, rng):
        for _ in range(20):
            a = rng.standard_normal(10)
            b = rng.standard_normal(10)
            a /= np.linalg.norm(a)
            b /= np.linalg.norm(b)
            d_s = orthogonalize(a, b)
            assert abs(np.linalg.norm(d_s) - 1.0) < 1e-12
            assert abs(float(d_s @ b)) < 1e-12

    def test_parallel_directions_rejected(self):
        with pytest.raises(ValueError, match="parallel"):
            orthogonalize(E[0], E[0])
        with pytest.raises(ValueError, match="parallel"):
            orthogonalize(E[0], -E[0])

    def test_non_unit_inputs_rejected(self):
        with pytest.raises(ValueError):
            orthogonalize(2.0 * E[0], E[1])


class TestGenderDirections:
    def make(self):
        return GenderDirections(d_pca=(E[0] + E[1]) / np.sqrt(2.0), d_g=E[0],
                                d_s=E[1], pca_explained_ratio=0.8,
                                overlap=1.0 / np.sqrt(2.0), lda_cv_accuracy=0.97)

    def test_validation(self):
        with pytest.raises(ValueError, match="unit"):
            GenderDirections(d_pca=2 * E[0], d_g=E[0], d_s=E[1],
                             pca_explained_ratio=1.0, overlap=0.0)
        with pytest.raises(ValueError, match="orthogonal"):
            GenderDirections(d_pca=E[0], d_g=E[0],
                             d_s=(E[0] + E[1]) / np.sqrt(2.0),
                             pca_explained_ratio=1.0, overlap=1.0)

    def test_json_round_trip_is_exact(self, tmp_path):
        bundle = self.make()
        path = tmp_path / "dirs.json"
        bundle.save_json(path)
        back = GenderDirections.load_json(path)
        assert np.array_equal(back.d_pca, bundle.d_pca)
        assert np.array_equal(back.d_g, bundle.d_g)
        assert np.array_equal(back.d_s, bundle.d_s)
        assert back.pca_explained_ratio == bundle.pca_explained_ratio
        assert back.overlap == bundle.overlap
        assert back.lda_cv_accuracy == bundle.lda_cv_accuracy

    def test_optional_accuracy_omitted(self):
        bundle = GenderDirections(d_pca=(E[0] + E[1]) / np.sqrt(2.0), d_g=E[0],
                                  d_s=E[1], pca_explained_ratio=0.8,
                                  overlap=1.0 / np.sqrt(2.0))
        d = bundle.to_json_dict()
        assert "lda_cv_accuracy" not in d
        assert GenderDirections.from_json_dict(d).lda_cv_accuracy is None

    def test_arrays_immutable(self):
        bundle = self.make()
        with pytest.raises(ValueError):
            bundle.d_s[0] = 9.0


class TestBuildDirections:
    def test_planted_axes_recovered(self, fixture_aligned):
        bundle = build_directions(fixture_aligned.source, fixture_aligned.lexicon)
        g_axis = fixture_aligned.source_grammatical_axis
        s_axis = fixture_aligned.source_semantic_axis
        assert abs(project(bundle.d_g, g_axis)) > 0.99
        assert abs(project(bundle.d_s, s_axis)) > 0.95
        assert bundle.lda_cv_accuracy >= 0.95
        assert abs(bundle.overlap - float(bundle.d_pca @ bundle.d_g)) < 1e-15

    def test_rotation_does_not_change_recovery(self, fixture_rotated):
        bundle = build_directions(fixture_rotated.source, fixture_rotated.lexicon)
        assert abs(project(bundle.d_g, fixture_rotated.source_grammatical_axis)) > 0.99
        assert abs(project(bundle.d_s, fixture_rotated.source_semantic_axis)) > 0.95

    def test_feminine_side_is_positive(self, fixture_aligned):
        space = fixture_aligned.source
        lex = fixture_aligned.lexicon
        bundle = build_directions(space, lex)
        fem_mean = np.mean([project(space.vector(w), bundle.d_g)
                            for w in lex.grammatical_feminine])
        masc_mean = np.mean([project(space.vector(w), bundle.d_g)
                             for w in lex.grammatical_masculine])
        assert fem_mean > masc_mean
        fem_def = np.mean([project(space.vector(f), bundle.d_s)
                           for _, f in lex.definitional_pairs])
        masc_def = np.mean([project(space.vector(m), bundle.d_s)
                            for m, _ in lex.definitional_pairs])
        assert fem_def > masc_def

    def test_deterministic(self, fixture_aligned):
        a = build_directions(fixture_aligned.source, fixture_aligned.lexicon)
        b = build_directions(fixture_aligned.source, fixture_aligned.lexicon)
        assert np.array_equal(a.d_s, b.d_s)
        assert a.lda_cv_accuracy == b.lda_cv_accuracy

    def test_cv_skipped_when_requested(self, fixture_aligned):
        bundle = build_directions(fixture_aligned.source, fixture_aligned.lexicon,
                                  cv_folds=None)
        assert bundle.lda_cv_accuracy is None


class TestBilingualDirections:
    def _bilingual_case(self, noise=0.01, n_src=8, n_en=8):
        """Both languages share a semantic axis (e1); only the gendered
        language carries a grammatical axis (e0) on its noun classes."""
        r = np.random.default_rng(21)
        src_vecs, en_vecs = [], []
        for _ in range(n_src):
            u = r.standard_normal(10)
            amp = 0.3 + 0.05 * r.random()
            src_vecs.append((u - amp * E[1] + noise * r.standard_normal(10),
                             u + amp * E[1] + noise * r.standard_normal(10)))
        for _ in range(n_en):
            u = r.standard_normal(10)
            amp = 0.25 + 0.05 * r.random()
            en_vecs.append((u - amp * E[1] + noise * r.standard_normal(10),
                            u + amp * E[1] + noise * r.standard_normal(10)))
        src_space, src_pairs = space_from(src_vecs, prefix="s")
        en_space, en_pairs = space_from(en_vecs, prefix="e")
        # add gendered noun classes to the source side for the LDA
        # class size well above the dimension, otherwise sampling correlations
        # in the pooled covariance visibly tilt the whitened direction
        nouns = []
        noun_words = []
        for i in range(2000):
            sign = -1.0 if i % 2 == 0 else 1.0
            noun_words.append(f"n{'m' if sign < 0 else 'f'}{i:04d}")
            nouns.append(r.standard_normal(10) * 0.05 + sign * 0.4 * E[0])
        full = EmbeddingSpace(list(src_space.words) + noun_words,
                              np.vstack([src_space.matrix, np.vstack(nouns)]))
        from gendebias import GenderLexicon
        lex = GenderLexicon(
            definitional_pairs=src_pairs,
            grammatical_masculine=[w for w in noun_words if w.startswith("nm")],
            grammatical_feminine=[w for w in noun_words if w.startswith("nf")],
        )
        return BilingualSpace(full, en_space), lex, en_pairs

    def test_pooled_recovery_of_shared_axis(self):
        bi, lex, en_pairs = self._bilingual_case()
        bundle = bilingual_directions(bi, lex, en_pairs)
        assert abs(project(bundle.d_s, E[1])) > 0.98
        assert abs(project(bundle.d_g, E[0])) > 0.98

    def test_no_english_pairs_matches_monolingual(self):
        bi, lex, _ = self._bilingual_case()
        bundle = bilingual_directions(bi, lex, [])
        mono_d, mono_explained = semantic_direction(bi.source,
                                                    lex.definitional_pairs)
        assert np.array_equal(bundle.d_pca, mono_d)
        assert bundle.pca_explained_ratio == mono_explained

    def test_pair_listed_in_both_languages_counts_once(self):
        # co-embedded case where both sides share the vocabulary: repeating a
        # source pair in the English list must not re-weight it
        space = small_space(12, 6, seed=3, prefix="w")
        from gendebias import GenderLexicon
        pairs = [("w000", "w001"), ("w002", "w003"), ("w004", "w005")]
        bi = BilingualSpace(space, space)
        lex = GenderLexicon(definitional_pairs=pairs,
                            grammatical_masculine=["w006", "w007", "w008"],
                            grammatical_feminine=["w009", "w010", "w011"])
        a = bilingual_directions(bi, lex, [pairs[0]], cv_folds=None)
        b = bilingual_directions(bi, lex, [], cv_folds=None)
        assert np.array_equal(a.d_pca, b.d_pca)

    def test_needs_two_pairs_across_languages(self):
        space = small_space(8, 5, seed=1)
        from gendebias import GenderLexicon
        lex = GenderLexicon(definitional_pairs=[("w000", "w001")],
                            grammatical_masculine=["w002", "w003"],
                            grammatical_feminine=["w004", "w005"])
        bi = BilingualSpace(space, space)
        with pytest.raises(ValueError, match="2"):
            bilingual_directions(bi, lex, [], cv_folds=None)

    def test_fixture_bilingual_bundle_valid(self, fixture_aligned):
        bundle = bilingual_directions(
            fixture_aligned.bilingual, fixture_aligned.lexicon,
            fixture_aligned.english_lexicon.definitional_pairs)
        assert abs(float(bundle.d_s @ bundle.d_g)) < 1e-6
        assert abs(np.linalg.norm(bundle.d_s) - 1.0) < 1e-9


class TestSemanticDirectionProperties:
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_pairs=st.integers(3, 12),
           dim=st.integers(3, 10))
    def test_rotation_equivariance(self, seed, n_pairs, dim):
        # differences spread along one planted axis far above the noise,
        # so the top component is isolated by a wide spectral gap
        rng = np.random.default_rng(seed)
        axis = rng.standard_normal(dim)
        axis /= np.linalg.norm(axis)
        vecs = []
        for c in rng.permutation(np.linspace(-1.0, 3.0, n_pairs)):
            base = rng.standard_normal(dim)
            diff = c * axis + 0.05 * rng.standard_normal(dim)
            vecs.append((base, base + diff))
        space, pairs = space_from(vecs)
        q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
        q = q * np.sign(np.diag(r))
        d, explained = semantic_direction(space, pairs)
        d_rot, explained_rot = semantic_direction(
            space.with_matrix(space.matrix @ q.T), pairs)
        assert abs(float(d_rot @ (q @ d))) >= 1.0 - 1e-9
        assert explained_rot == pytest.approx(explained, abs=1e-9)
        assert 0.0 < explained <= 1.0
