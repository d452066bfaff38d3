"""Acceptance checks, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one
[criterion N] PASS/FAIL line per criterion as it completes.
"""

import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

import oracles
from conftest import small_space
from gendebias import (
    BiasQuery,
    BilingualDictionary,
    BilingualSpace,
    EmbeddingSpace,
    EnglishDebiasConfig,
    bias_correlation,
    bilingual_directions,
    build_directions,
    hard_debias_english,
    lda_cross_validation,
    mitigate_de_align,
    mitigate_hybrid,
    mitigate_shift_en,
    mitigate_shift_ori,
    mweat_aggregate,
    mweat_inanimate,
    mweat_pair,
    permutation_test,
    procrustes_align,
    procrustes_matrix,
    semantic_direction,
    top_k,
    unit_normalize,
    weat_assoc,
    weat_statistic,
    word_similarity_eval,
    word_translation_eval,
)


@contextmanager
def criterion(num, description, budget_s=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"\n[criterion {num}] FAIL ({elapsed:.1f}s) - {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"\n[criterion {num}] PASS ({elapsed:.1f}s) - {description}")
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {num} exceeded {budget_s}s budget"


def occupation_query(lexicon):
    return BiasQuery(tuple(p.masculine for p in lexicon.occupation_pairs),
                     tuple(p.feminine for p in lexicon.occupation_pairs),
                     lexicon.attributes_male, lexicon.attributes_female)


def random_orthogonal(dim, seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def run_all_pipelines(fx_aligned, fx_rotated):
    """The five pipelines on their natural fixture views, with the
    direction bundle each one anchors against."""
    en_cfg = EnglishDebiasConfig.from_lexicon(fx_rotated.english_lexicon)
    dirs_mono = build_directions(fx_aligned.source, fx_aligned.lexicon)
    dirs_bi = bilingual_directions(fx_aligned.bilingual, fx_aligned.lexicon,
                                   fx_aligned.english_lexicon.definitional_pairs)
    results = {
        "shift_ori": (mitigate_shift_ori(fx_aligned.source, fx_aligned.lexicon,
                                         dirs_mono), dirs_mono),
        "shift_en": (mitigate_shift_en(fx_aligned.bilingual, fx_aligned.lexicon,
                                       dirs_bi), dirs_bi),
    }
    for variant in ("ori", "en"):
        out = mitigate_hybrid(fx_rotated.source, fx_rotated.english,
                              fx_rotated.lexicon, variant,
                              fx_rotated.seed_dictionary, en_cfg)
        results[f"hybrid_{variant}"] = (out, out.directions)
    aligned_bi = mitigate_de_align(fx_rotated.source, fx_rotated.english,
                                   fx_rotated.seed_dictionary, en_cfg)
    results["de_align"] = (aligned_bi, None)
    return results, en_cfg


class TestAcceptance:
    def test_criterion_1_orthogonality_and_shift_exactness(
            self, fixture_aligned, fixture_rotated):
        with criterion(1, "orthogonality and shift exactness", budget_s=5.0):
            assert len(fixture_aligned.source) == 500
            assert fixture_aligned.source.dim == 50
            results, en_cfg = run_all_pipelines(fixture_aligned, fixture_rotated)

            for name, (out, dirs) in results.items():
                if name == "de_align":
                    continue
                assert abs(float(dirs.d_s @ dirs.d_g)) <= 1e-6, name
                assert max(out.residual.values()) <= 1e-12, name
                fx = fixture_aligned if name.startswith("shift") else fixture_rotated
                space = out.source_space
                for w in fx.lexicon.inanimate_nouns:
                    assert abs(float(space.vector(w) @ dirs.d_s)) <= 1e-9, (name, w)

            # the re-alignment pipeline anchors nothing; directions built on
            # its output must still be orthogonal
            aligned_bi, _ = results["de_align"]
            dirs_after = bilingual_directions(
                aligned_bi, fixture_rotated.lexicon, en_cfg.definitional_pairs)
            assert abs(float(dirs_after.d_s @ dirs_after.d_g)) <= 1e-6

    def test_criterion_2_bias_reduction(self, fixture_aligned, fixture_rotated):
        with criterion(2, "bias reduction on the planted fixture",
                       budget_s=30.0):
            q = occupation_query(fixture_aligned.lexicon)
            pre = mweat_aggregate(q, fixture_aligned.source)
            pre_rot = mweat_aggregate(q, fixture_rotated.source)
            assert pre == pytest.approx(pre_rot, abs=1e-9)
            results, _ = run_all_pipelines(fixture_aligned, fixture_rotated)

            for name in ("shift_ori", "shift_en", "hybrid_ori", "hybrid_en"):
                out, _ = results[name]
                post = mweat_aggregate(q, out.source_space)
                print(f"  {name}: {pre:.4f} -> {post:.4f}")
                assert post < pre, name

            hybrid_space = results["hybrid_ori"][0].source_space
            p_post = permutation_test(q, hybrid_space, n_perm=2000, seed=0)
            print(f"  hybrid_ori permutation p: {p_post:.4f}")
            assert p_post > 0.05

            # a rotation is an isometry of the source space: every cosine,
            # hence the aggregate, is preserved up to roundoff, so the
            # alignment-only pipeline must leave the statistic where it was
            post_align = mweat_aggregate(q, results["de_align"][0].source)
            print(f"  de_align: {pre_rot:.4f} -> {post_align:.4f} "
                  f"(delta {post_align - pre_rot:+.2e})")
            assert post_align == pytest.approx(pre_rot, abs=1e-9), (
                "re-alignment is an orthogonal isometry of the source space "
                f"and must preserve the aggregate (pre={pre_rot:.6f}, "
                f"post={post_align:.6f})")

    def test_criterion_3_oracle_equivalence(self):
        with criterion(3, "association and retrieval oracles"):
            for seed in range(20):
                rng = np.random.default_rng(seed)
                space = small_space(50, 8, seed=seed)
                vecs = {w: space.vector(w) for w in space.words}
                words = list(space.words)
                x = words[:6]
                y = words[6:12]
                a = words[12:16]
                b = words[16:20]
                for w in words[20:26]:
                    got = weat_assoc(w, a, b, space)
                    assert got == pytest.approx(
                        oracles.weat_assoc(vecs, w, a, b), abs=1e-12)
                assert weat_statistic(x, y, a, b, space) == pytest.approx(
                    oracles.weat_statistic(vecs, x, y, a, b), abs=1e-12)
                assert mweat_pair(x[0], y[0], a, b, space) == pytest.approx(
                    oracles.mweat_pair(vecs, x[0], y[0], a, b), abs=1e-12)
                assert mweat_inanimate(words[26], a, b, space) == pytest.approx(
                    oracles.mweat_inanimate(vecs, words[26], a, b), abs=1e-12)
                query = BiasQuery(tuple(x), tuple(y), tuple(a), tuple(b))
                assert mweat_aggregate(query, space) == pytest.approx(
                    oracles.mweat_aggregate(vecs, x, y, a, b), abs=1e-12)

            for seed in range(5):
                space = small_space(200, 10, seed=100 + seed)
                vecs = {w: space.vector(w) for w in space.words}
                rng = np.random.default_rng(seed)
                for k in (1, 7, 50):
                    qw = space.words[int(rng.integers(len(space)))]
                    got = top_k(space.vector(qw), space, k=k, exclude={qw})
                    want = oracles.top_k_sorted(vecs, vecs[qw], k, exclude={qw})
                    assert [n.word for n in got] == [w for w, _ in want]
                    assert [n.rank for n in got] == list(range(1, len(want) + 1))
                    for n, (_, ws) in zip(got, want):
                        assert n.score == pytest.approx(ws, abs=1e-12)
                scores = np.round(rng.standard_normal(len(space)), 1)
                mask = rng.uniform(size=len(space)) < 0.8
                gold = int(rng.integers(len(space)))
                mask[gold] = True
                pool = {space.words[i]: float(scores[i])
                        for i in range(len(space)) if mask[i]}
                assert oracles._rank_of(scores, gold, mask, space.lex_rank()) == \
                    oracles.analogy_rank(pool, space.words[gold])

    def test_criterion_4_permutation_exactness_and_calibration(self):
        with criterion(4, "permutation exactness and null calibration",
                       budget_s=60.0):
            # exhaustive enumeration at 4 pairs against the rational-arithmetic
            # oracle (all 16 swap patterns, structural ties included)
            for seed in range(25):
                rng = np.random.default_rng(1000 + seed)
                space = small_space(14, 6, seed=1000 + seed)
                words = list(space.words)
                x = words[:4]
                y = words[4:8]
                a = words[8:11]
                b = words[11:14]
                vecs = {w: space.vector(w) for w in words}
                got = permutation_test(BiasQuery(tuple(x), tuple(y),
                                                 tuple(a), tuple(b)),
                                       space, n_perm=500, seed=seed)
                want = oracles.pair_swap_pvalue_exact(vecs, x, y, a, b)
                assert got == float(want), f"seed {seed}: {got} != {want}"

            # under an exchangeable null with both forms leaning the same
            # way, p is uniform on {2k/1024}; the rejection rate at 0.05
            # sits near 0.049
            rejections = 0
            n_trials = 200
            for trial in range(n_trials):
                rng = np.random.default_rng(5000 + trial)
                n_pairs = 10
                dim = 6
                rows = []
                words = []
                for i in range(n_pairs):
                    for form in ("m", "f"):
                        v = rng.standard_normal(dim) * 0.3
                        v[0] += 0.5
                        words.append(f"{form}{i:02d}")
                        rows.append(v)
                words += ["attr_a0", "attr_a1", "attr_b0", "attr_b1"]
                rows += [np.eye(dim)[0], np.eye(dim)[0] + 0.1 * np.eye(dim)[1],
                         np.eye(dim)[2], np.eye(dim)[2] + 0.1 * np.eye(dim)[3]]
                space = unit_normalize(EmbeddingSpace(words, np.vstack(rows)))
                query = BiasQuery(tuple(f"m{i:02d}" for i in range(n_pairs)),
                                  tuple(f"f{i:02d}" for i in range(n_pairs)),
                                  ("attr_a0", "attr_a1"),
                                  ("attr_b0", "attr_b1"))
                if permutation_test(query, space, n_perm=2048, seed=trial) < 0.05:
                    rejections += 1
            rate = rejections / n_trials
            print(f"  calibration: {rejections}/{n_trials} rejections "
                  f"({rate:.3f})")
            assert 0.01 <= rate <= 0.12

    def test_criterion_5_planted_rotation_alignment(self):
        with criterion(5, "planted-rotation alignment recovery", budget_s=5.0):
            dim = 50
            src = small_space(200, dim, seed=42, prefix="s")
            q = random_orthogonal(dim, seed=43)
            tgt = EmbeddingSpace([f"t{i:03d}" for i in range(200)],
                                 src.matrix @ q.T, normalized=True)
            seed_dict = BilingualDictionary(
                [(f"s{i:03d}", f"t{i:03d}") for i in range(100)])
            held_out = BilingualDictionary(
                [(f"s{i:03d}", f"t{i:03d}") for i in range(100, 200)])
            w = procrustes_matrix(src, tgt, seed_dict)
            assert np.max(np.abs(w - q)) < 1e-6
            bi = procrustes_align(src, tgt, seed_dict)
            report = word_translation_eval(bi, held_out, ks=(1,))
            assert report.metrics["p_at_1"] == 100.0
            gram_before = src.matrix @ src.matrix.T
            gram_after = bi.source.matrix @ bi.source.matrix.T
            assert np.max(np.abs(gram_before - gram_after)) < 1e-9

    def test_criterion_6_hard_debias_properties(self, fixture_aligned):
        with criterion(6, "hard-debias neutralize and equalize properties"):
            cfg = EnglishDebiasConfig.from_lexicon(fixture_aligned.english_lexicon)
            out = hard_debias_english(fixture_aligned.english,
                                      cfg.definitional_pairs,
                                      cfg.equalize_pairs, cfg.gender_specific)
            d_en, _ = semantic_direction(unit_normalize(fixture_aligned.english),
                                         cfg.definitional_pairs)
            protected = set(cfg.gender_specific)
            neutralized = [w for w in out.words if w not in protected]
            assert neutralized
            for w in neutralized:
                assert abs(float(out.vector(w) @ d_en)) <= 1e-9, w
            for m, f in cfg.equalize_pairs:
                vm = out.vector(m)
                vf = out.vector(f)
                for w in neutralized:
                    wv = out.vector(w)
                    gap = abs(float(wv @ vm) / (np.linalg.norm(wv) * np.linalg.norm(vm))
                              - float(wv @ vf) / (np.linalg.norm(wv) * np.linalg.norm(vf)))
                    assert gap <= 1e-6, (m, f, w)

    def test_criterion_7_direction_recovery(self):
        with criterion(7, "LDA and PCA direction recovery"):
            shuffled_accs = []
            for seed in range(20):
                rng = np.random.default_rng(200 + seed)
                dim = 10
                n = 100
                masc = rng.standard_normal((n, dim)) * 0.1
                fem = rng.standard_normal((n, dim)) * 0.1
                masc[:, 0] -= 0.4
                fem[:, 0] += 0.4
                words = ([f"m{i:03d}" for i in range(n)]
                         + [f"f{i:03d}" for i in range(n)])
                space = unit_normalize(
                    EmbeddingSpace(words, np.vstack([masc, fem])))
                m_words = words[:n]
                f_words = words[n:]
                assert lda_cross_validation(space, m_words, f_words,
                                            seed=seed) >= 0.95
                pooled = list(words)
                rng.shuffle(pooled)
                shuffled_accs.append(lda_cross_validation(
                    space, pooled[:n], pooled[n:], seed=seed))
            mean_acc = float(np.mean(shuffled_accs))
            print(f"  shuffled-label CV accuracy: {mean_acc:.3f}")
            assert 0.4 <= mean_acc <= 0.6

            for seed in range(5):
                rng = np.random.default_rng(300 + seed)
                dim = 12
                axis = np.eye(dim)[3]
                pairs = []
                rows = []
                words = []
                # amplitudes vary per pair so the axis carries variance
                # after the differences are mean-centered
                for i in range(15):
                    base = rng.standard_normal(dim) * 0.5
                    amp = 0.4 + 0.1 * rng.standard_normal()
                    noise = 0.01 * rng.standard_normal(dim)
                    words += [f"dm{i:02d}", f"df{i:02d}"]
                    rows += [base - amp * axis, base + amp * axis + noise]
                    pairs.append((f"dm{i:02d}", f"df{i:02d}"))
                space = EmbeddingSpace(words, np.vstack(rows))
                d, _ = semantic_direction(space, pairs)
                assert abs(float(d @ axis)) > 0.99

    def test_criterion_8_statistics_correctness(self):
        with criterion(8, "correlation statistics vs brute-force oracles"):
            keys = [f"k{i}" for i in range(12)]
            base = {k: float(i) for i, k in enumerate(keys)}
            mono = {k: 10.0 + base[k] ** 3 for k in keys}
            rho, p = bias_correlation(base, mono)
            assert rho == 1.0 and p < 1e-6
            rho, _ = bias_correlation(base, {k: -v for k, v in mono.items()})
            assert rho == -1.0

            space = small_space(30, 8, seed=400)
            words = space.words
            dataset = []
            for i in range(0, 28, 2):
                c = float(space.vector(words[i]) @ space.vector(words[i + 1]))
                dataset.append((words[i], words[i + 1], 2.0 * c - 1.0))
            rep = word_similarity_eval(space, dataset)
            assert rep.metrics["pearson_r"] == pytest.approx(1.0, abs=1e-12)

            for seed in range(20):
                rng = np.random.default_rng(500 + seed)
                n = 15
                xs = {f"k{i}": float(rng.standard_normal()) for i in range(n)}
                ys = {f"k{i}": float(rng.standard_normal()) for i in range(n)}
                rho, p = bias_correlation(xs, ys)
                xv = [xs[f"k{i}"] for i in range(n)]
                yv = [ys[f"k{i}"] for i in range(n)]
                want_rho = oracles.spearman(xv, yv)
                assert rho == pytest.approx(want_rho, abs=1e-9)
                assert p == pytest.approx(oracles.spearman_pvalue(want_rho, n),
                                          abs=1e-9)

                space = small_space(20, 6, seed=500 + seed)
                ws = space.words
                data = [(ws[i], ws[i + 1], float(rng.uniform(0, 10)))
                        for i in range(0, 20, 2)]
                rep = word_similarity_eval(space, data)
                model = [oracles.cosine(space.vector(a), space.vector(b))
                         for a, b, _ in data]
                want_r = oracles.pearson(model, [s for _, _, s in data])
                assert rep.metrics["pearson_r"] == pytest.approx(want_r,
                                                                 abs=1e-9)

    def test_criterion_9_full_data_integration(self):
        data_dir = os.environ.get("GENDEBIAS_INTEGRATION_DATA")
        if not data_dir:
            pytest.skip(
                "set GENDEBIAS_INTEGRATION_DATA to a directory holding "
                "es.vec and en.vec (aligned fastText text format), "
                "lexicon_es.json (with English-annotated occupation pairs and "
                "adjective_pairs), lexicon_en.json, dict_en_es.txt, and "
                "similarity_es.tsv")
        with criterion(9, "full-data integration against published values"):
            from gendebias import (build_analogy_queries, coverage_filter,
                                   load_bilingual_dictionary, load_lexicon,
                                   load_similarity_dataset,
                                   load_text_embeddings, pair_translation_eval)
            root = os.path.join(data_dir, "")
            es = unit_normalize(load_text_embeddings(root + "es.vec",
                                                     max_words=200_000))
            en = unit_normalize(load_text_embeddings(root + "en.vec",
                                                     max_words=200_000))
            lex, _ = coverage_filter(load_lexicon(root + "lexicon_es.json"), es)
            en_lex, _ = coverage_filter(load_lexicon(root + "lexicon_en.json"),
                                        en)

            q = occupation_query(lex)
            statistic = mweat_aggregate(q, es)
            assert abs(statistic - 3.6918) <= 0.1 * 3.6918

            dirs = build_directions(es, lex)
            assert dirs.lda_cv_accuracy == pytest.approx(0.92, abs=0.05)

            en_cfg = EnglishDebiasConfig.from_lexicon(en_lex)
            out = mitigate_hybrid(es, en, lex, "ori", None, en_cfg)
            assert permutation_test(q, out.source_space,
                                    n_perm=2000, seed=0) > 0.05

            dictionary = load_bilingual_dictionary(root + "dict_en_es.txt")
            trans = word_translation_eval(BilingualSpace(en, es), dictionary,
                                          ks=(1, 5))
            assert abs(trans.metrics["p_at_1"] - 79.2) <= 1.0
            assert abs(trans.metrics["p_at_5"] - 89.0) <= 1.0

            sim = word_similarity_eval(es, load_similarity_dataset(
                root + "similarity_es.tsv"))
            assert abs(sim.metrics["pearson_r"] - 0.7392) <= 0.02

            annotated = [p for p in lex.occupation_pairs if p.english]
            queries = build_analogy_queries(annotated, lex.adjective_pairs)
            pairs_rep = pair_translation_eval(BilingualSpace(es, en), queries,
                                              occupation_pairs=annotated)
            assert abs(pairs_rep.metrics["mrr_diff"] - 0.4867) <= 0.05
