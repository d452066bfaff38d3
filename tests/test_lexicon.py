import dataclasses
import json
import re
from pathlib import Path

import pytest

import gendebias
from conftest import small_space
from gendebias import (
    BilingualDictionary,
    CoverageReport,
    EmbeddingSpace,
    GenderLexicon,
    LexiconError,
    OccupationPair,
    build_analogy_queries,
    coverage_filter,
    identity_dictionary,
    lexicon_to_json_dict,
    load_bilingual_dictionary,
    load_lexicon,
    load_similarity_dataset,
)
from gendebias.lexicon import FIELDS, OPTIONAL_FIELDS

DATA_DIR = Path(gendebias.__file__).parent / "data"

MINIMAL = {
    "definitional_pairs": [["hombre", "mujer"]],
    "grammatical_masculine": ["libro"],
    "grammatical_feminine": ["mesa"],
    "occupation_pairs": [["doctor", "doctora", "doctor_en"], ["actor", "actriz"]],
    "inanimate_nouns": ["pared"],
    "attributes_male": ["el"],
    "attributes_female": ["ella"],
    "adjective_pairs": [["good", "bueno", "buena"]],
}


def exactly(message):
    return rf"\A{re.escape(message)}\Z"


def write_lexicon(tmp_path, payload, name="lex.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestLoading:
    def test_minimal_round_trip(self, tmp_path):
        lex = load_lexicon(write_lexicon(tmp_path, MINIMAL))
        assert lex.definitional_pairs == (("hombre", "mujer"),)
        assert lex.occupation_pairs[0].english == "doctor_en"
        assert lex.occupation_pairs[1].english is None
        assert lex.adjective_pairs == (("good", "bueno", "buena"),)
        back = lexicon_to_json_dict(lex)
        assert back == MINIMAL

    def test_bundled_samples_load(self):
        es = load_lexicon(DATA_DIR / "lexicon_es_sample.json")
        en = load_lexicon(DATA_DIR / "lexicon_en_sample.json")
        assert es.counts()["occupation_pairs"] == 30
        assert all(p.english for p in es.occupation_pairs)
        assert en.counts()["definitional_pairs"] == 10

    def test_missing_field_named(self, tmp_path):
        payload = dict(MINIMAL)
        del payload["inanimate_nouns"]
        with pytest.raises(LexiconError, match="inanimate_nouns"):
            load_lexicon(write_lexicon(tmp_path, payload))

    def test_unknown_field_named(self, tmp_path):
        payload = dict(MINIMAL, extra_field=[1, 2])
        with pytest.raises(LexiconError, match="extra_field"):
            load_lexicon(write_lexicon(tmp_path, payload))

    def test_non_list_field(self, tmp_path):
        payload = dict(MINIMAL, inanimate_nouns="pared")
        with pytest.raises(LexiconError, match="inanimate_nouns"):
            load_lexicon(write_lexicon(tmp_path, payload))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(LexiconError, match=exactly(
                f"{path}: not valid JSON: Expecting property name enclosed in "
                "double quotes: line 1 column 2 (char 1)")):
            load_lexicon(path)

    def test_top_level_must_be_object(self, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(LexiconError,
                           match=exactly(f"{path}: top level must be a JSON object")):
            load_lexicon(path)

    def test_adjective_pairs_optional(self, tmp_path):
        payload = dict(MINIMAL)
        del payload["adjective_pairs"]
        lex = load_lexicon(write_lexicon(tmp_path, payload))
        assert lex.adjective_pairs == ()


class TestSchema:
    def test_field_table_lists_the_dataclass_fields_in_order(self):
        assert list(FIELDS) == [f.name for f in dataclasses.fields(GenderLexicon)]

    # one covered and one uncovered entry of each kind, and how the
    # coverage report lists the uncovered one
    ENTRIES = {
        "words": (["in", "out"], "out"),
        "pairs": ([["in", "in2"], ["in", "out"]], ("in", "out")),
        "occupations": ([["in", "in2", "en"], ["out", "in2", "en"]], ("out", "in2")),
        "adjectives": ([["en", "in", "in2"], ["in", "en", "out"]], ("in", "en", "out")),
    }

    @pytest.mark.parametrize("name", list(FIELDS))
    def test_one_uncovered_entry_dropped_from_each_field(self, name, tmp_path):
        entries, label = self.ENTRIES[FIELDS[name]]
        lex = GenderLexicon(**{name: entries})
        space = EmbeddingSpace(["in", "in2"], [[1.0, 0.0], [0.0, 1.0]])
        filtered, report = coverage_filter(lex, space)
        assert getattr(filtered, name) == getattr(lex, name)[:1]
        assert report.dropped == {name: (label,)}
        payload = lexicon_to_json_dict(filtered)
        # schema order; an empty optional field is left out
        assert list(payload) == [k for k in FIELDS
                                 if k not in OPTIONAL_FIELDS or k == name]
        assert payload[name] == entries[:1]
        assert load_lexicon(write_lexicon(tmp_path, payload)) == filtered


class TestInvariants:
    def test_pair_members_must_differ(self):
        with pytest.raises(LexiconError, match=exactly(
                "definitional_pairs: pair members must differ, got 'mismo'")):
            GenderLexicon(definitional_pairs=[["mismo", "mismo"]])
        with pytest.raises(LexiconError, match=exactly(
                "occupation_pairs: pair members must differ, got 'igual'")):
            OccupationPair("igual", "igual")

    def test_grammatical_classes_disjoint(self):
        with pytest.raises(LexiconError, match="both"):
            GenderLexicon(grammatical_masculine=["sol", "pan"],
                          grammatical_feminine=["luna", "sol"])

    def test_attribute_sets_disjoint(self):
        with pytest.raises(LexiconError, match="both"):
            GenderLexicon(attributes_male=["x"], attributes_female=["x"])

    def test_occupation_pair_wrong_arity(self):
        with pytest.raises(LexiconError, match=exactly(
                "occupation_pairs: expected 2 or 3 entries, got ('a', 'b', 'c', 'd')")):
            GenderLexicon(occupation_pairs=[["a", "b", "c", "d"]])

    def test_adjective_triple_validated(self):
        with pytest.raises(LexiconError, match=exactly(
                "adjective_pairs: expected [english, masculine, feminine], "
                "got ('good', 'bueno')")):
            GenderLexicon(adjective_pairs=[["good", "bueno"]])
        with pytest.raises(LexiconError, match=exactly(
                "adjective_pairs: gendered forms must differ, got 'bueno'")):
            GenderLexicon(adjective_pairs=[["good", "bueno", "bueno"]])

    def test_empty_words_rejected(self):
        with pytest.raises(LexiconError,
                           match=exactly("inanimate_nouns: invalid word ''")):
            GenderLexicon(inanimate_nouns=["", "pared"])
        with pytest.raises(LexiconError,
                           match=exactly("grammatical_masculine: invalid word '   '")):
            GenderLexicon(grammatical_masculine=["   "])

    @pytest.mark.parametrize("name, entries, message", [
        ("definitional_pairs", [["a", "b"], 1], "entry 1 is not an array of words: 1"),
        ("definitional_pairs", ["ab"], "entry 0 is not an array of words: 'ab'"),
        ("occupation_pairs", [5], "entry 0 is not an array of words: 5"),
        ("occupation_pairs", [{"m": "x"}], "entry 0 is not an array of words: {'m': 'x'}"),
        ("adjective_pairs", ["abc"], "entry 0 is not an array of words: 'abc'"),
        ("definitional_pairs", [["a", 1]], "invalid word 1"),
    ])
    def test_entries_must_be_arrays_of_words(self, name, entries, message):
        with pytest.raises(LexiconError, match=exactly(f"{name}: {message}")):
            GenderLexicon(**{name: entries})

    @pytest.mark.parametrize("name, value", [
        ("inanimate_nouns", "pared"), ("definitional_pairs", 5),
        ("definitional_pairs", {("a", "b"): 1}),
    ])
    def test_fields_must_be_lists(self, name, value):
        with pytest.raises(LexiconError, match=exactly(f"field {name!r} must be a list")):
            GenderLexicon(**{name: value})

    @pytest.mark.parametrize("args, bad", [
        (("", "x"), "''"), (("x", "y", 7), "7"), (("x", "y", " "), "' '"),
        ((None, "y"), "None"),
    ])
    def test_occupation_pair_objects_validated(self, args, bad):
        with pytest.raises(LexiconError, match=exactly(
                f"occupation_pairs: invalid word {bad}")):
            GenderLexicon(occupation_pairs=[OccupationPair(*args)])

    def test_empty_lexicon_is_valid(self):
        # attribute emptiness is checked where scores are computed, not here
        lex = GenderLexicon()
        assert lex.counts()["definitional_pairs"] == 0


class TestCoverage:
    def make_space(self, words):
        import numpy as np
        return EmbeddingSpace(list(words), np.eye(len(words)))

    def test_pairs_dropped_whole(self):
        lex = GenderLexicon(
            definitional_pairs=[["a", "b"], ["c", "d"]],
            occupation_pairs=[["e", "f", "en_ef"], ["g", "h"]],
        )
        space = self.make_space(["a", "b", "c", "e", "f"])  # d and g,h missing
        filtered, report = coverage_filter(lex, space)
        assert filtered.definitional_pairs == (("a", "b"),)
        assert filtered.occupation_pairs == (OccupationPair("e", "f", "en_ef"),)
        assert report.dropped["definitional_pairs"] == (("c", "d"),)
        assert report.dropped["occupation_pairs"] == (("g", "h"),)
        assert report.total_dropped == 2
        assert bool(report)

    def test_word_lists_filtered(self):
        lex = GenderLexicon(inanimate_nouns=["x", "y", "z"],
                            attributes_male=["m1", "m2"],
                            attributes_female=["f1"])
        space = self.make_space(["x", "z", "m1", "f1"])
        filtered, report = coverage_filter(lex, space)
        assert filtered.inanimate_nouns == ("x", "z")
        assert filtered.attributes_male == ("m1",)
        assert report.dropped["inanimate_nouns"] == ("y",)

    def test_idempotent(self):
        lex = GenderLexicon(definitional_pairs=[["a", "b"], ["c", "d"]],
                            inanimate_nouns=["x", "y"])
        space = self.make_space(["a", "b", "x"])
        once, _ = coverage_filter(lex, space)
        twice, report = coverage_filter(once, space)
        assert twice == once
        assert not report

    def test_full_coverage_reports_nothing(self):
        lex = GenderLexicon(inanimate_nouns=["x"])
        filtered, report = coverage_filter(lex, self.make_space(["x"]))
        assert filtered == lex
        assert not report
        assert report == CoverageReport()

    def test_adjective_triples_keep_english_annotation(self):
        lex = GenderLexicon(adjective_pairs=[["good", "bueno", "buena"],
                                             ["bad", "malo", "mala"]])
        space = self.make_space(["bueno", "buena", "malo"])
        filtered, report = coverage_filter(lex, space)
        assert filtered.adjective_pairs == (("good", "bueno", "buena"),)
        assert report.dropped["adjective_pairs"] == (("bad", "malo", "mala"),)


class TestBilingualDictionary:
    def test_multimap_accumulates(self):
        d = BilingualDictionary([("gato", "cat"), ("gato", "kitty"), ("sol", "sun")])
        assert len(d) == 2
        assert d.n_pairs == 3
        assert d.translations("gato") == ("cat", "kitty")
        assert "sol" in d and "luna" not in d

    def test_repeats_do_not_double_count(self):
        d = BilingualDictionary([("a", "x"), ("a", "x")])
        assert d.n_pairs == 1

    def test_pairs_iterates_in_insertion_order(self):
        d = BilingualDictionary([("b", "y"), ("a", "x"), ("b", "z")])
        assert list(d.pairs()) == [("b", "y"), ("b", "z"), ("a", "x")]

    def test_load_tab_separated(self, tmp_path):
        path = tmp_path / "dict.txt"
        path.write_text("gato\tcat\nperro\tdog\n\ngato\tkitty\n", encoding="utf-8")
        d = load_bilingual_dictionary(path)
        assert d.n_pairs == 3
        assert d.translations("gato") == ("cat", "kitty")

    def test_load_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "dict.txt"
        path.write_text("gato\tcat\nmalformed line\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":2"):
            load_bilingual_dictionary(path)

    def test_load_empty_is_an_error(self, tmp_path):
        path = tmp_path / "dict.txt"
        path.write_text("\n\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_bilingual_dictionary(path)

    def test_bundled_sample_dictionary(self):
        d = load_bilingual_dictionary(DATA_DIR / "dict_es_en_sample.txt")
        assert d.n_pairs == 50

    def test_identity_dictionary(self):
        src = small_space(5, 3, seed=0, prefix="shared")
        tgt = small_space(3, 3, seed=1, prefix="shared")
        d = identity_dictionary(src, tgt)
        assert len(d) == 3
        assert all(s == t for s, t in d.pairs())


class TestSimilarityDataset:
    def test_load(self, tmp_path):
        path = tmp_path / "sim.tsv"
        path.write_text("a\tb\t7.5\nc\td\t1\n", encoding="utf-8")
        rows = load_similarity_dataset(path)
        assert rows == [("a", "b", 7.5), ("c", "d", 1.0)]

    def test_bad_score(self, tmp_path):
        path = tmp_path / "sim.tsv"
        path.write_text("a\tb\tseven\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":1"):
            load_similarity_dataset(path)

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "sim.tsv"
        path.write_text("a\tb\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_similarity_dataset(path)

    def test_bundled_sample(self):
        rows = load_similarity_dataset(DATA_DIR / "similarity_es_sample.tsv")
        assert len(rows) == 15


class TestAnalogyQueries:
    def test_cross_product_counts(self):
        occs = [OccupationPair("doctor", "doctora", "doctor_en"),
                OccupationPair("actor", "actriz", "actor_en")]
        adjs = [("good", "bueno", "buena"), ("bad", "malo", "mala"),
                ("tall", "alto", "alta")]
        queries = build_analogy_queries(occs, adjs)
        assert len(queries) == 2 * len(adjs) * len(occs)
        masc = [q for q in queries if q.gold_gender == "masculine"]
        fem = [q for q in queries if q.gold_gender == "feminine"]
        assert len(masc) == len(fem) == len(adjs) * len(occs)
        q = masc[0]
        assert q.english_context == "good"
        assert q.english_target == "doctor_en"
        assert q.source_context == "bueno"
        assert q.gold == "doctor"

    def test_feminine_queries_use_feminine_forms(self):
        queries = build_analogy_queries(
            [OccupationPair("doctor", "doctora", "doctor_en")],
            [("good", "bueno", "buena")])
        fem = next(q for q in queries if q.gold_gender == "feminine")
        assert fem.source_context == "buena"
        assert fem.gold == "doctora"

    def test_english_annotation_required(self):
        with pytest.raises(ValueError, match="actor"):
            build_analogy_queries([OccupationPair("actor", "actriz")],
                                  [("good", "bueno", "buena")])

    def test_gold_gender_validated(self):
        from gendebias import AnalogyQuery
        with pytest.raises(ValueError):
            AnalogyQuery("good", "doctor_en", "bueno", "doctor", "neuter")
