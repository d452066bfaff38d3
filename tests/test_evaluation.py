import csv
import dataclasses
import math
import re
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from conftest import small_space
from gendebias import (
    AnalogyQuery,
    BilingualDictionary,
    BilingualSpace,
    EmbeddingSpace,
    EvalReport,
    GenderDirections,
    GenderLexicon,
    OccupationPair,
    export_projections,
    pair_translation_eval,
    top_k,
    word_similarity_eval,
    word_translation_eval,
    write_projections_csv,
    write_translation_csv,
)
from gendebias import embeddings, evaluation
from gendebias.evaluation import TranslationDetail


def copied_pair(n_words=40, dim=20, seed=0):
    """Source space plus a renamed exact copy as the target space."""
    src = small_space(n_words, dim, seed=seed, prefix="s")
    tgt = EmbeddingSpace([f"t{i:03d}" for i in range(n_words)], src.matrix,
                         language_tag="en", normalized=True)
    pairs = [(f"s{i:03d}", f"t{i:03d}") for i in range(n_words)]
    return BilingualSpace(src, tgt), BilingualDictionary(pairs)


def with_zero_word(space, word):
    """``space`` plus one all-zero vector under ``word``."""
    return EmbeddingSpace(space.words + (word,),
                          np.vstack([space.matrix, np.zeros(space.dim)]),
                          language_tag=space.language_tag)


class TestEvalReport:
    def test_coverage_bounds(self):
        with pytest.raises(ValueError, match="coverage"):
            EvalReport(task="x", metrics={}, coverage=1.2)
        with pytest.raises(ValueError, match="coverage"):
            EvalReport(task="x", metrics={}, coverage=-0.1)

    def test_metric_ranges(self):
        with pytest.raises(ValueError, match="p_at_1"):
            EvalReport(task="x", metrics={"p_at_1": 101.0}, coverage=1.0)
        with pytest.raises(ValueError, match="f_mrr"):
            EvalReport(task="x", metrics={"f_mrr": 1.5}, coverage=1.0)

    def test_json_round_trip(self):
        rep = EvalReport(task="x", metrics={"p_at_1": np.float64(50.0)},
                         coverage=0.5, config_digest="abc")
        d = rep.to_json_dict()
        assert set(d) == {"task", "metrics", "coverage", "config_digest"}
        assert type(d["metrics"]["p_at_1"]) is float


class TestWordSimilarity:
    def test_affine_scores_give_perfect_correlation(self):
        space = small_space(30, 8, seed=1)
        words = space.words
        dataset = []
        for i in range(0, 28, 2):
            c = float(space.vector(words[i]) @ space.vector(words[i + 1]))
            dataset.append((words[i], words[i + 1], 3.0 * c + 5.0))
        rep = word_similarity_eval(space, dataset)
        assert rep.metrics["pearson_r"] == pytest.approx(1.0, abs=1e-12)
        assert rep.coverage == 1.0
        assert rep.task == "word_similarity"

    def test_reversed_scores_give_minus_one(self):
        space = small_space(30, 8, seed=2)
        words = space.words
        dataset = [(words[i], words[i + 1],
                    -float(space.vector(words[i]) @ space.vector(words[i + 1])))
                   for i in range(0, 20, 2)]
        rep = word_similarity_eval(space, dataset)
        assert rep.metrics["pearson_r"] == pytest.approx(-1.0, abs=1e-12)

    def test_matches_pearson_oracle(self, rng):
        space = small_space(40, 6, seed=3)
        words = space.words
        dataset = [(words[i], words[i + 1], float(rng.uniform(0, 10)))
                   for i in range(0, 40, 2)]
        rep = word_similarity_eval(space, dataset)
        model = [oracles.cosine(space.vector(w1), space.vector(w2))
                 for w1, w2, _ in dataset]
        want = oracles.pearson(model, [s for _, _, s in dataset])
        assert rep.metrics["pearson_r"] == pytest.approx(want, abs=1e-9)

    def test_oov_rows_lower_coverage(self):
        space = small_space(20, 6, seed=4)
        words = space.words
        dataset = [(words[i], words[i + 1], float(i)) for i in range(10)]
        dataset.append(("missing", words[0], 1.0))
        dataset.append((words[0], "also_missing", 2.0))
        rep = word_similarity_eval(space, dataset)
        assert rep.coverage == pytest.approx(10 / 12)
        assert rep.metrics["n_pairs"] == 10.0

    def test_too_few_covered_rows(self):
        space = small_space(10, 4, seed=5)
        words = space.words
        dataset = [(words[0], words[1], 1.0), (words[2], words[3], 2.0),
                   ("gone", "away", 3.0)]
        with pytest.raises(ValueError, match="at least 5"):
            word_similarity_eval(space, dataset)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("row", [0, 3, 6])
    def test_non_finite_human_score_is_an_error(self, row, value):
        # row 6 is not covered: a bad score is an error wherever it is
        space = small_space(20, 6, seed=1)
        words = space.words
        dataset = [(words[2 * i], words[2 * i + 1], float(i)) for i in range(6)]
        dataset.append(("gone", words[0], 1.0))
        dataset[row] = (*dataset[row][:2], value)
        with pytest.raises(ValueError, match=re.escape(
                f"similarity row {row} ({dataset[row][0]!r}, {dataset[row][1]!r}): "
                f"non-finite human score {value!r}")):
            word_similarity_eval(space, dataset)

    def test_non_finite_model_cosine_is_an_error(self):
        # the norm of a row of 1e200s overflows: its cosine with an ordinary
        # row once read 0.0 (row 3), with another such row inf / inf (row 4);
        # the space is refused by its first such word
        matrix = np.random.default_rng(0).standard_normal((8, 4))
        matrix[4:6] = 1e200
        space = EmbeddingSpace([f"w{i}" for i in range(8)], matrix)
        dataset = [(f"w{i}", f"w{(i + 1) % 8}", float(i)) for i in range(8)]
        # no overflow warning either (the suite makes one an error)
        with pytest.raises(ValueError, match="^the norm of 'w4' overflows float64$"):
            word_similarity_eval(space, dataset)

    def test_constant_column_is_an_error(self):
        space = small_space(12, 4, seed=8)
        words = space.words
        same_word = [(w, w, float(i)) for i, w in enumerate(words[:6])]   # cosine 1
        with pytest.raises(ValueError, match="undefined: the model cosines of all 6"):
            word_similarity_eval(space, same_word)
        flat = [(words[i], words[i + 6], 3.0) for i in range(6)]
        with pytest.raises(ValueError, match="undefined: the human scores of all 6"):
            word_similarity_eval(space, flat)

    def test_empty_dataset(self):
        space = small_space(10, 4, seed=6)
        with pytest.raises(ValueError, match="empty"):
            word_similarity_eval(space, [])

    @settings(max_examples=200, deadline=None)
    @given(st.integers(5, 150), st.floats(1e-4, 1e4),
           st.sampled_from(["drawn", "ties", "collinear"]),
           st.integers(0, 2**32 - 1))
    def test_pearson_r_bit_identical_to_scipy(self, n, scale, link, seed):
        import scipy.stats

        rng = np.random.default_rng(seed)
        space = EmbeddingSpace([f"w{i}" for i in range(2 * n)],
                               rng.standard_normal((2 * n, 8)))
        model = [embeddings.cosine(space.vector(f"w{2 * i}"),
                                   space.vector(f"w{2 * i + 1}")) for i in range(n)]
        human = scale * {"drawn": lambda: rng.uniform(0.0, 10.0, n),
                         "ties": lambda: rng.integers(0, 4, n).astype(float),
                         "collinear": lambda: np.array(model)
                                              + 1e-9 * rng.standard_normal(n),
                         }[link]()
        assume(human.min() != human.max())
        dataset = [(f"w{2 * i}", f"w{2 * i + 1}", float(h))
                   for i, h in enumerate(human)]
        r = word_similarity_eval(space, dataset).metrics["pearson_r"]
        assert r == scipy.stats.pearsonr(model, human.tolist()).statistic

    def test_zero_vector_rows_skipped(self):
        rng = np.random.default_rng(7)
        mat = np.vstack([np.zeros(4), rng.standard_normal((12, 4))])
        space = EmbeddingSpace([f"w{i}" for i in range(13)], mat)
        words = space.words
        dataset = [(words[0], words[1], 1.0)]  # zero vector, skipped
        dataset += [(words[i], words[i + 6], float(i)) for i in range(1, 7)]
        rep = word_similarity_eval(space, dataset)
        assert rep.metrics["n_pairs"] == 6.0
        assert rep.coverage == pytest.approx(6 / 7)


class TestWordTranslation:
    def test_planted_copy_is_perfectly_retrievable(self):
        bi, dictionary = copied_pair()
        rep = word_translation_eval(bi, dictionary, ks=(1, 5))
        assert rep.metrics["p_at_1"] == 100.0
        assert rep.metrics["p_at_5"] == 100.0
        assert rep.coverage == 1.0
        assert all(d.hit_rank == 1 for d in rep.details)

    def test_csls_keeps_exact_matches_on_top(self):
        bi, dictionary = copied_pair(seed=7)
        rep = word_translation_eval(bi, dictionary, ks=(1,), csls=True)
        assert rep.metrics["p_at_1"] == 100.0

    def test_any_gold_counts_as_hit(self):
        bi, _ = copied_pair(n_words=10, seed=8)
        dictionary = BilingualDictionary([("s000", "t005"), ("s000", "t000")])
        rep = word_translation_eval(bi, dictionary, ks=(1,))
        assert rep.metrics["p_at_1"] == 100.0

    def test_miss_reports_hit_rank_zero(self):
        bi, _ = copied_pair(n_words=10, seed=9)
        dictionary = BilingualDictionary([("s000", "t005")])
        rep = word_translation_eval(bi, dictionary, ks=(1,))
        assert rep.metrics["p_at_1"] == 0.0
        assert rep.details[0].hit_rank == 0
        assert rep.details[0].retrieved == ("t000",)

    def test_oov_queries_lower_coverage(self):
        bi, _ = copied_pair(n_words=10, seed=10)
        dictionary = BilingualDictionary([("s000", "t000"), ("s001", "t001"),
                                          ("nowhere", "t002")])
        rep = word_translation_eval(bi, dictionary, ks=(1,))
        assert rep.coverage == pytest.approx(2 / 3)
        assert rep.metrics["n_queries"] == 2.0

    def test_hit_rank_respects_k_window(self):
        bi, _ = copied_pair(n_words=10, seed=11)
        # gold is the copy of a *different* word: present somewhere in the
        # ranking but almost surely not first
        dictionary = BilingualDictionary([("s000", "t003")])
        rep = word_translation_eval(bi, dictionary, ks=(1, 10))
        assert rep.metrics["p_at_1"] == 0.0
        assert rep.metrics["p_at_10"] == 100.0
        assert rep.details[0].hit_rank > 1

    def test_k_list_validated_and_deduplicated(self):
        bi, dictionary = copied_pair(n_words=10, seed=12)
        with pytest.raises(ValueError, match="k list"):
            word_translation_eval(bi, dictionary, ks=(0, 1))
        rep = word_translation_eval(bi, dictionary, ks=(5, 1, 5))
        assert {"p_at_1", "p_at_5", "n_queries"} == set(rep.metrics)

    def test_no_covered_entry_is_an_error(self):
        bi, _ = copied_pair(n_words=10, seed=13)
        with pytest.raises(ValueError, match="no dictionary entry"):
            word_translation_eval(bi, BilingualDictionary([("x", "t000")]))

    def test_zero_query_word_is_an_error(self):
        bi, dictionary = copied_pair(n_words=10, seed=13)
        bi = BilingualSpace(with_zero_word(bi.source, "s_null"), bi.target)
        dictionary.add("s_null", "t000")
        with pytest.raises(ValueError, match="zero vector among query words"):
            word_translation_eval(bi, dictionary)

    @pytest.mark.parametrize("csls", [False, True])
    @pytest.mark.parametrize("side", ["source", "target"])
    def test_overflowing_norm_is_refused(self, csls, side):
        # a target row whose norm overflows once scored 0.0 against every
        # query; a source row is a query, or a CSLS neighbor with csls
        bi, dictionary = copied_pair(n_words=10, seed=14)
        space = getattr(bi, side)
        matrix = np.vstack([space.matrix, np.full(space.dim, 1e200)])
        big = EmbeddingSpace(space.words + ("big",), matrix)
        bi = dataclasses.replace(bi, **{side: big})
        if side == "source":
            dictionary.add("big", "t000")
        with pytest.raises(ValueError, match="the norm of 'big' overflows float64"):
            word_translation_eval(bi, dictionary, csls=csls)

    @pytest.mark.parametrize("csls", [False, True])
    @pytest.mark.parametrize("n_words", [40, 6])
    def test_zero_rows_change_nothing(self, csls, n_words):
        # a zero target word is never retrieved before a nonzero one, and
        # neither zero word enters a CSLS neighborhood, also when a space
        # has fewer nonzero words than CSLS_NEIGHBORHOOD
        bi, dictionary = copied_pair(n_words=n_words, seed=17)
        want = word_translation_eval(bi, dictionary, ks=(1, 5), csls=csls)
        padded = BilingualSpace(with_zero_word(bi.source, "s_null"),
                                with_zero_word(bi.target, "a_null"))
        got = word_translation_eval(padded, dictionary, ks=(1, 5), csls=csls)
        assert got.metrics == want.metrics
        assert got.details == want.details
        full = word_translation_eval(padded, dictionary, ks=(len(padded.target),),
                                     csls=csls)
        assert all(d.retrieved[-1] == "a_null" for d in full.details)

    @pytest.mark.parametrize("csls", [False, True])
    def test_chunked_scoring_matches_one_block(self, monkeypatch, csls):
        bi, dictionary = copied_pair(seed=18)
        want = word_translation_eval(bi, dictionary, ks=(1, 5), csls=csls)
        monkeypatch.setattr(evaluation, "_SCORE_CHUNK", 3)
        got = word_translation_eval(bi, dictionary, ks=(1, 5), csls=csls)
        assert got.metrics == want.metrics
        assert got.details == want.details


def analogy_case(dim=8, n_distractors=20, seed=14):
    """Bilingual space where one gold word sits exactly at the analogy
    point b - a + c, far from random distractors."""
    rng = np.random.default_rng(seed)
    a = np.zeros(dim)
    a[0] = 1.0
    b = np.zeros(dim)
    b[1] = 1.0
    tgt = EmbeddingSpace(["en_ctx", "en_tgt"], np.vstack([a, b]), language_tag="en")
    c = np.zeros(dim)
    c[2] = 1.0
    gold_vec = b - a + c
    rows = [c, gold_vec]
    words = ["src_ctx", "gold_f"]
    for i in range(n_distractors):
        words.append(f"noise{i:02d}")
        v = rng.standard_normal(dim)
        rows.append(v / np.linalg.norm(v))
    src = EmbeddingSpace(words, np.vstack(rows))
    bi = BilingualSpace(src, tgt)
    query = AnalogyQuery(english_context="en_ctx", english_target="en_tgt",
                         source_context="src_ctx", gold="gold_f",
                         gold_gender="feminine")
    return bi, query


class TestPairTranslation:
    def test_gold_at_analogy_point_ranks_first(self):
        bi, query = analogy_case()
        rep = pair_translation_eval(bi, [query])
        assert rep.metrics["f_mrr"] == 1.0
        assert rep.metrics["n_queries"] == 1.0
        assert rep.coverage == 1.0
        assert "m_mrr" not in rep.metrics
        assert "mrr_diff" not in rep.metrics

    def test_zero_gold_ranks_after_every_nonzero_candidate(self):
        bi, query = analogy_case(seed=22)
        zero_gold = np.where(np.asarray(bi.source.words)[:, None] == "gold_f",
                             0.0, bi.source.matrix)
        src = with_zero_word(bi.source.with_matrix(zero_gold), "a_null")
        rep = pair_translation_eval(BilingualSpace(src, bi.target), [query])
        # 20 nonzero distractors, then the equally scored zero "a_null" first
        assert rep.metrics["f_mrr"] == 1.0 / 22

    def test_underflowing_analogy_vector_is_ranked(self):
        # et - ec + ctx = (1e-170, 1e-170): every square underflows, and the
        # query was once skipped as a zero analogy vector
        src = EmbeddingSpace(["ctx", "gold", "other"],
                             [[1e-170, 1e-170], [1.0, 1.0], [1.0, -1.0]])
        tgt = EmbeddingSpace(["ec", "et"], [[1.0, 0.0], [1.0, 0.0]], language_tag="en")
        query = AnalogyQuery("ec", "et", "ctx", "gold", "feminine")
        rep = pair_translation_eval(BilingualSpace(src, tgt), [query])
        assert rep.coverage == 1.0
        assert rep.metrics["f_mrr"] == 1.0
        # a tiny gold orthogonal to it ranks after "other": its score must
        # not read 0 / 0, which would put it first
        src = src.with_matrix([[1e-170, 1e-170], [1e-170, -1e-170], [1.0, 1.0]])
        rep = pair_translation_eval(BilingualSpace(src, tgt), [query])
        assert rep.metrics["f_mrr"] == 0.5

    def test_source_context_is_excluded_from_candidates(self, rng):
        # plant the source context itself at the winning position; it must
        # not outrank the gold because it is never a candidate
        dim = 8
        b_minus_a = np.zeros(dim)
        b_minus_a[1] = 1.0
        b_minus_a[0] = -1.0
        tgt = EmbeddingSpace(["en_ctx", "en_tgt"],
                             np.vstack([np.eye(dim)[0], np.eye(dim)[1]]),
                             language_tag="en")
        ctx = (b_minus_a + np.eye(dim)[2]) / 2.0  # analogy point is 1.5*ctx
        rows = [ctx, ctx * 1.5]
        words = ["src_ctx", "gold_f"]
        for i in range(10):
            v = rng.standard_normal(dim)
            words.append(f"noise{i:02d}")
            rows.append(v)
        src = EmbeddingSpace(words, np.vstack(rows))
        query = AnalogyQuery(english_context="en_ctx", english_target="en_tgt",
                             source_context="src_ctx", gold="gold_f",
                             gold_gender="feminine")
        rep = pair_translation_eval(BilingualSpace(src, tgt), [query])
        assert rep.metrics["f_mrr"] == 1.0

    def test_shared_vocabulary_english_words_excluded(self):
        bi, query = analogy_case(seed=15)
        # add a source word named like the English target, sitting exactly at
        # the analogy point; exclusion keeps it out of the pool
        src = bi.source
        point = (bi.target.vector("en_tgt") - bi.target.vector("en_ctx")
                 + src.vector("src_ctx"))
        words = list(src.words) + ["en_tgt"]
        mat = np.vstack([src.matrix, point])
        rep = pair_translation_eval(
            BilingualSpace(EmbeddingSpace(words, mat), bi.target), [query])
        assert rep.metrics["f_mrr"] == 1.0

    def test_both_genders_reported_with_gap(self):
        bi, query_f = analogy_case(seed=16)
        query_m = AnalogyQuery(english_context="en_ctx", english_target="en_tgt",
                               source_context="src_ctx", gold="noise00",
                               gold_gender="masculine")
        rep = pair_translation_eval(bi, [query_f, query_m])
        assert rep.metrics["f_mrr"] == 1.0
        assert 0.0 < rep.metrics["m_mrr"] < 1.0
        assert rep.metrics["mrr_diff"] == pytest.approx(
            rep.metrics["f_mrr"] - rep.metrics["m_mrr"])

    def test_unresolvable_queries_skip_and_lower_coverage(self):
        bi, query = analogy_case(seed=19)
        bad = AnalogyQuery(english_context="en_ctx", english_target="gone",
                           source_context="src_ctx", gold="gold_f",
                           gold_gender="feminine")
        rep = pair_translation_eval(bi, [query, bad])
        assert rep.coverage == 0.5
        with pytest.raises(ValueError, match="resolved"):
            pair_translation_eval(bi, [bad])

    def test_empty_query_list(self):
        bi, _ = analogy_case(seed=20)
        with pytest.raises(ValueError, match="queries"):
            pair_translation_eval(bi, [])

    def test_anchor_symmetry_deviation_value(self):
        dim = 4
        e = np.eye(dim)[0]
        vm = np.array([math.cos(0.2), math.sin(0.2), 0.0, 0.0])
        vf = np.array([math.cos(0.9), 0.0, math.sin(0.9), 0.0])
        tgt = EmbeddingSpace(["en_ctx", "en_tgt", "job"],
                             np.vstack([np.eye(dim)[1], np.eye(dim)[2], e]),
                             language_tag="en")
        src_rows = [np.eye(dim)[3], np.eye(dim)[2] - np.eye(dim)[1] + np.eye(dim)[3],
                    vm, vf]
        src = EmbeddingSpace(["src_ctx", "gold_f", "form_m", "form_f"],
                             np.vstack(src_rows))
        query = AnalogyQuery(english_context="en_ctx", english_target="en_tgt",
                             source_context="src_ctx", gold="gold_f",
                             gold_gender="feminine")
        pairs = [OccupationPair("form_m", "form_f", english="job")]
        rep = pair_translation_eval(BilingualSpace(src, tgt), [query],
                                    occupation_pairs=pairs)
        want = abs(math.cos(0.2) - math.cos(0.9))
        assert rep.metrics["asd"] == pytest.approx(want, abs=1e-12)

    def test_asd_names_a_pair_whose_norm_overflows(self):
        bi, query = analogy_case(seed=21)
        src = bi.source
        words = list(src.words) + ["huge"]
        big = np.full((1, src.dim), 1e200)
        src = EmbeddingSpace(words, np.vstack([src.matrix, big]))
        pairs = [OccupationPair("huge", "noise00", english="en_tgt")]
        with pytest.raises(ValueError, match="^the norm of 'huge' overflows float64$"):
            pair_translation_eval(BilingualSpace(src, bi.target), [query],
                                  occupation_pairs=pairs)

    def test_asd_requires_a_covered_annotated_pair(self):
        bi, query = analogy_case(seed=21)
        pairs = [OccupationPair("noise00", "noise01")]  # no English anchor
        with pytest.raises(ValueError, match="English-annotated"):
            pair_translation_eval(bi, [query], occupation_pairs=pairs)

    def test_rank_matches_full_sort_oracle(self, rng):
        rows = []
        for trial in range(20):
            n = 30
            words = [f"w{i:03d}" for i in range(n)]
            # quantized scores force genuine ties
            scores = np.round(rng.standard_normal(n), 1)
            mask = rng.uniform(size=n) < 0.7
            gold_idx = int(rng.integers(n))
            mask[gold_idx] = True
            lex_rank = np.argsort(np.argsort(words))
            got = oracles._rank_of(scores, gold_idx, mask, lex_rank)
            pool = {words[i]: float(scores[i]) for i in range(n) if mask[i]}
            assert got == oracles.analogy_rank(pool, words[gold_idx])
            rows.append((scores, gold_idx, mask, got))
        scores, golds, masks, ranks = (np.array(c) for c in zip(*rows))
        assert oracles._rank_of(scores, golds, masks, lex_rank).tolist() == ranks.tolist()

    def test_batched_ranks_match_one_query_at_a_time(self, monkeypatch):
        rng = np.random.default_rng(23)
        src_words = [f"s{i:02d}" for i in range(30)]
        src_rows = rng.standard_normal((30, 6))
        src_rows[7] = 0.0  # ranks last; query 5's analogy e1 - e1 + s07 is zero
        bi = BilingualSpace(EmbeddingSpace(src_words, src_rows),
                            EmbeddingSpace([f"e{i}" for i in range(8)],
                                           rng.standard_normal((8, 6))))
        queries = [AnalogyQuery(english_context=f"e{rng.integers(8)}",
                                english_target=f"e{rng.integers(8)}",
                                source_context=src_words[rng.integers(30)],
                                gold=src_words[rng.integers(30)],
                                gold_gender=("masculine", "feminine")[i % 2])
                   for i in range(11)]
        queries[3] = dataclasses.replace(queries[3], gold="missing")
        queries[5] = dataclasses.replace(queries[5], english_target="e1",
                                         english_context="e1", source_context="s07")
        queries[8] = dataclasses.replace(queries[8], gold=queries[8].source_context)
        one_by_one = {"masculine": [], "feminine": []}
        for q in queries[:3] + queries[4:5] + queries[6:]:
            rep = pair_translation_eval(bi, [q])
            one_by_one[q.gold_gender].append(rep.metrics[q.gold_gender[0] + "_mrr"])
        monkeypatch.setattr(evaluation, "_SCORE_CHUNK", 3)
        monkeypatch.setattr(evaluation, "_PARTITION_ROWS", 2)
        rep = pair_translation_eval(bi, queries)
        assert rep.metrics["n_queries"] == 9.0
        assert rep.coverage == 9 / 11
        assert rep.metrics["m_mrr"] == np.mean(one_by_one["masculine"])
        assert rep.metrics["f_mrr"] == np.mean(one_by_one["feminine"])


def tied_pair(seed=21):
    """Bilingual space with rounded components, a duplicated target row
    (exact score ties) and a zero row on each side, its dictionary, and 11
    analogy queries over it."""
    rng = np.random.default_rng(seed)
    src = np.round(rng.standard_normal((30, 5)), 1)
    tgt = np.round(src + 0.3 * rng.standard_normal(src.shape), 1)
    tgt[1] = tgt[0]
    src_words = [f"s{i:02d}" for i in range(30)]
    tgt_words = [f"t{i:02d}" for i in range(30)]
    bi = BilingualSpace(
        with_zero_word(EmbeddingSpace(src_words, src), "s_null"),
        with_zero_word(EmbeddingSpace(tgt_words, tgt, language_tag="en"), "t_null"))
    dictionary = BilingualDictionary(
        [(s, t) for s, t in zip(src_words, tgt_words)] + [("s05", "t00")])
    queries = [AnalogyQuery(english_context=tgt_words[rng.integers(30)],
                            english_target=tgt_words[rng.integers(30)],
                            source_context=src_words[rng.integers(30)],
                            gold=src_words[rng.integers(30)],
                            gold_gender=("masculine", "feminine")[i % 2])
               for i in range(11)]
    return bi, dictionary, queries


def threads(monkeypatch, n):
    monkeypatch.setattr(evaluation, "_chunk_threads", lambda: n)


def test_row_blocks_of_a_product_are_bit_identical():
    # Result files do not depend on the number of usable CPUs only because
    # the running BLAS gives each chunk's rows of a score product the bits
    # of the same rows of the whole product; a BLAS that breaks it fails here.
    rng = np.random.default_rng(6)
    queries = rng.standard_normal((2 * evaluation._SCORE_CHUNK, 300))
    vocab = rng.standard_normal((5000, 300))
    whole = queries @ vocab.T
    for start in range(0, len(queries), evaluation._SCORE_CHUNK):
        rows = slice(start, start + evaluation._SCORE_CHUNK)
        assert np.array_equal(queries[rows] @ vocab.T, whole[rows])


def test_a_chunk_scores_the_same_on_a_worker_thread(monkeypatch):
    # Result files do not depend on the number of usable CPUs because chunk
    # boundaries sit at fixed multiples of _SCORE_CHUNK and a chunk's product
    # has the same bits whichever thread computes it.  6,593 (the benchmark's
    # English vocabulary) is an odd width, where a chunk's rows need not have
    # the bits of the same rows of one product over all queries.
    threads(monkeypatch, 2)
    rng = np.random.default_rng(6)
    queries = rng.standard_normal((2 * evaluation._SCORE_CHUNK, 300))
    vocab = rng.standard_normal((6593, 300))
    main = threading.current_thread()

    def score(rows):
        assert threading.current_thread() is not main
        return rows, queries[rows] @ vocab.T

    for rows, scores in evaluation._map_chunks(score, len(queries)):
        assert np.array_equal(scores, queries[rows] @ vocab.T)


@pytest.mark.parametrize("csls", [False, True])
def test_an_overflowing_target_row_is_named_on_a_worker_thread(monkeypatch, csls):
    # plain translation meets the target's refusal in _cosine_scores, on a
    # chunk thread; its error is the one a single thread raises
    n = evaluation._SCORE_CHUNK + 100
    rng = np.random.default_rng(9)
    source = EmbeddingSpace([f"s{i}" for i in range(n)], rng.standard_normal((n, 4)))
    target = EmbeddingSpace([f"t{i}" for i in range(50)] + ["big"],
                            np.vstack([rng.standard_normal((50, 4)), np.full(4, 1e200)]))
    bi = BilingualSpace(source, target)
    dictionary = BilingualDictionary([(f"s{i}", f"t{i % 50}") for i in range(n)])
    scorers = set()
    cosine_scores = evaluation._cosine_scores

    def scores(*args):
        scorers.add(threading.current_thread())
        return cosine_scores(*args)

    monkeypatch.setattr(evaluation, "_cosine_scores", scores)
    messages = []
    for n_threads in (1, 2):
        threads(monkeypatch, n_threads)
        with pytest.raises(ValueError) as err:
            word_translation_eval(bi, dictionary, csls=csls)
        messages.append(str(err.value))
    assert messages == ["the norm of 'big' overflows float64"] * 2
    if not csls:   # CSLS refuses the target before any chunk is scored
        assert scorers - {threading.current_thread()}


def test_column_tiles_of_a_product_are_bit_identical():
    # Retrieval scores a chunk one column tile at a time; its results are
    # those of the whole product only because the running BLAS gives each
    # tile the bits of the same columns of the whole product.  6,593 is the
    # benchmark's English vocabulary, 8,193 ends in a one-column tile that
    # is folded into the one before, 12,289 spans three tiles.
    rng = np.random.default_rng(6)
    queries = rng.standard_normal((evaluation._SCORE_CHUNK, 300))
    assert evaluation._column_tiles(8193)[-1] == slice(evaluation._TILE, 8193)
    for width in (6593, 8193, 12289):
        space = EmbeddingSpace([f"w{i}" for i in range(width)],
                               rng.standard_normal((width, 300)))
        whole = evaluation._cosine_scores(space, queries, slice(None))
        tiles = evaluation._column_tiles(width)
        assert len(tiles) > 1
        for cols in tiles:
            assert np.array_equal(evaluation._cosine_scores(space, queries, cols),
                                  whole[:, cols]), (width, cols)


def test_short_score_tiles_sit_in_a_buffer_malloc_maps_on_its_own():
    # glibc's malloc maps a block above 32 MiB on its own and unmaps it when
    # freed, whatever its dynamic threshold; a smaller tile could stay
    # resident in a chunk thread's heap arena, so the peak RSS would vary
    # with thread timing
    rng = np.random.default_rng(7)
    space = EmbeddingSpace([f"w{i}" for i in range(300)],
                           rng.standard_normal((300, 16)))
    queries = rng.standard_normal((5, 16))
    scores = evaluation._cosine_scores(space, queries, slice(0, 300))
    assert scores.shape == (5, 300) and scores.flags.c_contiguous
    assert scores.base.nbytes > 32 << 20
    unit = queries / np.linalg.norm(queries, axis=1)[:, None]
    assert np.array_equal(scores, unit @ space.matrix.T / space.row_norms())


# Quantized scores force exact ties (-0.0 ties 0.0), -inf is what a zero
# row scores, and scores 1e-13 or one ulp apart fall within the CSLS
# slack.
TILE_SCORES = st.one_of(
    st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 0.25, 0.5, np.nextafter(0.5, 1.0),
                     0.5 + 1e-13, 1.0]),
    st.floats(-1.0, 1.0))


def tiled(tile, block=evaluation._PARTITION_ROWS):
    """Score tiles of ``tile`` columns and row blocks of ``block`` rows."""
    return mock.patch.multiple(evaluation, _TILE=tile, _PARTITION_ROWS=block)


def score_block(data):
    """Drawn scores and tie-break ranks, the block's tiles as a kernel asks
    for them, and a tile width and row block height."""
    n = data.draw(st.integers(1, 6))
    m = data.draw(st.integers(1, 24))
    scores = data.draw(arrays(np.float64, (n, m), elements=TILE_SCORES))
    lex_rank = np.array(data.draw(st.permutations(range(m))), dtype=np.intp)
    shape = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 3))
    return scores, lex_rank, (lambda cols: scores[:, cols].copy()), shape


class TestColumnTileMerges:
    """Every retrieval kernel merges its column tiles into the whole score
    block's answer.  The scores are given, so this checks the merges apart
    from the BLAS."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_top_k(self, data):
        scores, lex_rank, tiles, shape = score_block(data)
        n, m = scores.shape
        k = data.draw(st.integers(1, m + 2))
        want = np.array([np.lexsort((lex_rank, -row))[:k] for row in scores])
        with tiled(*shape):
            assert np.array_equal(evaluation._retrieve(tiles, n, m, lex_rank, k), want)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_neighbourhood_mean(self, data):
        scores, _, tiles, shape = score_block(data)
        m = scores.shape[1]
        with tiled(*shape):
            got = evaluation._mean_topk(evaluation._neighbours(tiles, m))
        with tiled(m + 1):
            want = evaluation._mean_topk(evaluation._neighbours(tiles, m))
        assert got.tobytes() == want.tobytes()
        for value, row in zip(want, scores):
            top = np.sort(row)[-evaluation.CSLS_NEIGHBORHOOD:]
            top = top[np.isfinite(top)]
            assert value == pytest.approx(top.mean() if top.size else 0.0, abs=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_csls_selection(self, data):
        scores, lex_rank, tiles, shape = score_block(data)
        n, m = scores.shape
        k = data.draw(st.integers(1, m + 2))
        r_tgt = data.draw(arrays(np.float64, m, elements=st.one_of(
            st.sampled_from([0.0, 0.25, 0.5, 0.5 + 1e-13]), st.floats(-1.0, 1.0))))
        top = np.sort(scores, axis=1)[:, -evaluation.CSLS_NEIGHBORHOOD:]
        csls = (2.0 * scores - evaluation._mean_topk(top)[:, None]) - r_tgt
        want = np.array([np.lexsort((lex_rank, -row))[:k] for row in csls])
        with tiled(*shape):
            got = evaluation._retrieve(tiles, n, m, lex_rank, k, r_tgt)
        assert np.array_equal(got, want)

    def test_neighbourhood_mean_does_not_depend_on_the_tiles(self):
        rng = np.random.default_rng(8)
        scores = rng.standard_normal((64, 301))
        tiles = (lambda cols: scores[:, cols].copy())
        with tiled(302):
            top = evaluation._neighbours(tiles, 301)
        want = evaluation._mean_topk(top).tobytes()
        for tile in (1, 7, 64):
            with tiled(tile):
                got = evaluation._mean_topk(evaluation._neighbours(tiles, 301))
            assert got.tobytes() == want, tile
        # whatever order a partition leaves the k values in
        shuffled = np.array([rng.permutation(row) for row in top])
        assert evaluation._mean_topk(shuffled).tobytes() == want

    def test_csls_keeps_a_column_just_below_on_the_shortlist_key(self):
        # column 0 leads on 2·cos - r_tgt by rounding alone, column 1 on the
        # exact CSLS score
        scores = np.array([[0.2721710178793158, 0.27217101787931597] + [-0.9] * 8])
        r_tgt = np.array([0.3902063846869176, 0.390206384686918] + [1.0] * 8)
        r_src = evaluation._mean_topk(scores)
        assert (2.0 * scores[0, 0] - r_tgt[0]) > (2.0 * scores[0, 1] - r_tgt[1])
        csls = (2.0 * scores - r_src[:, None]) - r_tgt
        assert csls[0, 1] > csls[0, 0]
        with tiled(11):
            got = evaluation._retrieve(lambda cols: scores[:, cols].copy(), 1, 10,
                                       np.arange(10), 1, r_tgt)
        assert got.tolist() == [[1]]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_rank(self, data):
        scores, lex_rank, tiles, shape = score_block(data)
        n, m = scores.shape
        gold = np.array(data.draw(st.lists(st.integers(0, m - 1), min_size=n,
                                           max_size=n)), dtype=np.intp)
        # three excluded columns per row: -1 for none, -2 for the gold itself,
        # repeats allowed
        picks = data.draw(arrays(np.intp, (n, 3), elements=st.integers(-2, m - 1)))
        excluded = np.where(picks == -2, gold[:, None], picks)
        mask = np.ones((n, m), dtype=bool)
        r, j = np.nonzero(excluded >= 0)
        mask[r, excluded[r, j]] = False
        with tiled(*shape):
            got = evaluation._ranks(tiles, m, gold, excluded, lex_rank)
        assert got.tolist() == oracles._rank_of(scores, gold, mask, lex_rank).tolist()

    @pytest.mark.parametrize("golds, gold_tiles", [([5, 6, 7], 1), ([7, 0, 20], 3),
                                                   ([20, 17, 10], 2)])
    def test_rank_scores_each_gold_tile_but_the_last_twice(self, golds, gold_tiles):
        # tiles of 4 over 21 columns: 0-3, 4-7, 8-11, 12-15 and 16-20, the
        # one-column tile joined to the one before; the last gold tile is
        # counted while it is in hand, every other one is scored again
        rng = np.random.default_rng(9)
        scores = rng.standard_normal((3, 21))
        calls = []

        def tiles(cols):
            calls.append(cols)
            return scores[:, cols].copy()

        with tiled(4):
            got = evaluation._ranks(tiles, 21, np.array(golds), np.full((3, 3), -1),
                                    np.arange(21))
            assert len(calls) == len(evaluation._column_tiles(21)) + gold_tiles - 1
        assert got.tolist() == oracles._rank_of(scores, np.array(golds),
                                                np.ones((3, 21), bool),
                                                np.arange(21)).tolist()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_top_k_matches_a_lexsort_of_the_score_row(data):
    # duplicate rows tie exactly and zero rows score -inf; tiles of a few
    # columns put the excluded columns in other tiles than the ones that
    # take their places
    n = data.draw(st.integers(1, 12))
    dim = data.draw(st.integers(1, 3))
    components = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 1.0]), st.floats(-2.0, 2.0))
    rows = []
    for _ in range(n):
        kind = data.draw(st.sampled_from(["new", "copy", "zero"]) if rows
                         else st.just("new"))
        if kind == "zero":
            rows.append(np.zeros(dim))
        elif kind == "copy":
            rows.append(rows[data.draw(st.integers(0, len(rows) - 1))])
        else:
            rows.append(data.draw(arrays(np.float64, dim, elements=components)))
    words = data.draw(st.permutations([f"w{i:02d}" for i in range(n)]))
    space = EmbeddingSpace(words, np.array(rows))
    query_word = data.draw(st.one_of(st.none(), st.sampled_from(words)))
    query = (data.draw(arrays(np.float64, dim, elements=components))
             if query_word is None else space.vector(query_word))
    assume(np.any(query != 0.0))
    exclude = data.draw(st.lists(st.sampled_from(words), max_size=n - 1, unique=True))
    if query_word is not None and data.draw(st.booleans()):
        exclude.append(query_word)
    exclude += data.draw(st.lists(st.sampled_from(["absent", "w99"]), max_size=2))
    gone = {space.index(w) for w in exclude if w in space}
    assume(len(gone) < n)
    k = data.draw(st.integers(1, n + 2))
    with tiled(data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))):
        got = top_k(query, space, k, exclude=exclude)
    row = evaluation._cosine_scores(space, query[None, :], slice(None))[0]
    keep = np.array([i for i in range(n) if i not in gone])
    want = keep[np.lexsort((space.lex_rank()[keep], -row[keep]))][:k]
    assert [hit.word for hit in got] == [space.words[i] for i in want]
    assert [hit.rank for hit in got] == list(range(1, len(want) + 1))
    assert (np.array([hit.score for hit in got]).tobytes()
            == np.clip(row[want], -1.0, 1.0).tobytes())


def test_retrieval_memory_does_not_grow_with_the_vocabulary(monkeypatch):
    # Each chunk holds one column tile of scores and its rows' candidates,
    # whatever the vocabulary's size: with 128-row chunks, an untiled score
    # block would add 1 KiB per word.
    monkeypatch.setattr(evaluation, "_SCORE_CHUNK", 128)
    monkeypatch.setattr(evaluation, "_TILE", 256)
    threads(monkeypatch, 1)
    peaks = []
    for n_words in (2048, 8192):
        rng = np.random.default_rng(5)
        bi = BilingualSpace(
            EmbeddingSpace([f"s{i}" for i in range(n_words)],
                           rng.standard_normal((n_words, 16))),
            EmbeddingSpace([f"t{i}" for i in range(n_words)],
                           rng.standard_normal((n_words, 16))))
        dictionary = BilingualDictionary([(f"s{i}", f"t{i}") for i in range(400)])
        queries = [AnalogyQuery(english_context=f"t{i}", english_target=f"t{i + 1}",
                                source_context=f"s{i + 2}", gold=f"s{i + 3}",
                                gold_gender=("masculine", "feminine")[i % 2])
                   for i in range(400)]
        for space in (bi.source, bi.target):  # the per-space caches
            space.row_norms()
            space.lex_rank()
        tracemalloc.start()
        try:
            word_translation_eval(bi, dictionary, csls=True)
            csls = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            pair_translation_eval(bi, queries)
            pairs = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        peaks.append((csls, pairs))
    for small, big in zip(*peaks):
        assert big - small < 64 * (8192 - 2048)


class TestChunkThreads:
    """Retrieval chunks scored on two threads give the serial results."""

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(evaluation, "_SCORE_CHUNK", 3)

    @pytest.fixture()
    def fast_switching(self):
        # switch threads as often as possible, so a chunk that read another
        # chunk's state would show
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            yield
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("csls", [False, True])
    def test_two_threads_match_one(self, monkeypatch, fast_switching, csls):
        bi, dictionary, _ = tied_pair()
        threads(monkeypatch, 1)
        want = word_translation_eval(bi, dictionary, ks=(1, 3, 31), csls=csls)
        threads(monkeypatch, 2)
        got = word_translation_eval(bi, dictionary, ks=(1, 3, 31), csls=csls)
        assert got.metrics == want.metrics
        assert got.details == want.details

    def test_two_threads_match_one_for_csls_adjustment_and_pairs(
            self, monkeypatch, fast_switching):
        bi, _, queries = tied_pair()
        threads(monkeypatch, 1)
        want_adjustment = evaluation._csls_adjustment(bi)
        want_pairs = pair_translation_eval(bi, queries)
        threads(monkeypatch, 2)
        assert evaluation._csls_adjustment(bi).tobytes() == want_adjustment.tobytes()
        assert pair_translation_eval(bi, queries).metrics == want_pairs.metrics

    def test_chunks_run_on_helpers_that_end_with_the_call(self, monkeypatch):
        bi, dictionary, _ = tied_pair()
        threads(monkeypatch, 2)
        scored_on = set()
        cosine_scores = evaluation._cosine_scores

        def recording(space, queries, cols):
            scored_on.add(threading.current_thread())
            return cosine_scores(space, queries, cols)

        monkeypatch.setattr(evaluation, "_cosine_scores", recording)
        before = set(threading.enumerate())
        word_translation_eval(bi, dictionary, csls=True)
        assert scored_on and threading.main_thread() not in scored_on
        assert set(threading.enumerate()) == before
        assert not any(t.is_alive() for t in scored_on)

    def test_memory_error_in_second_chunk_reaches_caller(self, monkeypatch):
        bi, dictionary, _ = tied_pair()
        threads(monkeypatch, 2)
        second = bi.source.matrix[bi.source.indices(
            [word for word, _ in dictionary.items()][3:6])]
        cosine_scores = evaluation._cosine_scores

        def exhausted(space, queries, cols):
            if np.array_equal(queries, second):
                raise MemoryError("Unable to allocate 18.7 GiB")
            return cosine_scores(space, queries, cols)

        monkeypatch.setattr(evaluation, "_cosine_scores", exhausted)
        before = set(threading.enumerate())
        with pytest.raises(MemoryError, match="18.7 GiB"):
            word_translation_eval(bi, dictionary)
        assert set(threading.enumerate()) == before


class TestProjectionExport:
    def test_axis_aligned_projections(self):
        dim = 4
        dirs = GenderDirections(d_pca=np.eye(dim)[1], d_g=np.eye(dim)[0],
                                d_s=np.eye(dim)[1], pca_explained_ratio=1.0,
                                overlap=0.0)
        space = EmbeddingSpace(["inan0", "occ_m"],
                               np.vstack([np.eye(dim)[1],
                                          0.5 * np.eye(dim)[0] - 0.25 * np.eye(dim)[1]]))
        rows, skipped = export_projections(
            space, [("inan0", "inanimate"), ("occ_m", "occupation_m"),
                    ("gone", "inanimate")], dirs)
        assert skipped == ["gone"]
        assert rows[0] == ("inan0", "inanimate", 0.0, 1.0)
        assert rows[1][2] == pytest.approx(0.5)
        assert rows[1][3] == pytest.approx(-0.25)

    def test_csv_round_trip(self, tmp_path):
        rows = [("casa", "inanimate", 0.1234567890123, -0.9876543210987),
                ("médico", "occupation_m", 1.0 / 3.0, 2.0 / 7.0)]
        path = tmp_path / "proj.csv"
        write_projections_csv(rows, path, meta="method=shift_ori")
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "# method=shift_ori"
        parsed = list(csv.reader(lines[1:]))
        assert parsed[0] == ["word", "group", "grammatical_proj", "semantic_proj"]
        for want, got in zip(rows, parsed[1:]):
            assert got[0] == want[0] and got[1] == want[1]
            assert float(got[2]) == want[2]  # repr round-trips exactly
            assert float(got[3]) == want[3]

    def test_csv_without_meta(self, tmp_path):
        path = tmp_path / "proj.csv"
        write_projections_csv([("w", "g", 0.0, 1.0)], path)
        assert path.read_text(encoding="utf-8").splitlines()[0].startswith("word,")

    def test_translation_csv(self, tmp_path):
        details = [TranslationDetail(source="casa", gold=("home", "house"),
                                     retrieved=("house", "flat"), hit_rank=1),
                   TranslationDetail(source="pan", gold=("bread",),
                                     retrieved=("loaf",), hit_rank=0)]
        path = tmp_path / "trans.csv"
        write_translation_csv(details, path, meta="k=2")
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "# k=2"
        parsed = list(csv.reader(lines[1:]))
        assert parsed[0] == ["source", "gold", "retrieved", "hit_rank"]
        assert parsed[1] == ["casa", "home|house", "house|flat", "1"]
        assert parsed[2] == ["pan", "bread", "loaf", "0"]
