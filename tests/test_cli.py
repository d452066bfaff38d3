import argparse
import collections
import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import logging
import os
import re
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gendebias.cli
import gendebias.evaluation
from gendebias import (EmbeddingSpace, EnglishDebiasConfig, GenderLexicon,
                       lexicon_to_json_dict, load_text_embeddings,
                       save_text_embeddings, unit_normalize)
from gendebias.cli import main
from gendebias.lexicon import FIELDS

# The flags each subcommand reads, and so the only ones it accepts.
SUBCOMMAND_FLAGS = {
    "directions": {"--embeddings", "--embeddings-en", "--lexicon",
                   "--lexicon-en", "--seed", "--max-words", "--ridge", "--out"},
    "audit": {"--embeddings", "--lexicon", "--n-perm", "--seed", "--max-words",
              "--signed", "--out"},
    "mitigate": {"--embeddings", "--embeddings-en", "--lexicon", "--lexicon-en",
                 "--seed-dict", "--method", "--seed", "--max-words", "--ridge",
                 "--out"},
    "eval-similarity": {"--embeddings", "--dataset", "--max-words", "--out"},
    "eval-translation": {"--embeddings", "--embeddings-en", "--dict",
                         "--max-words", "--csls", "--out"},
    "eval-pairs": {"--embeddings", "--embeddings-en", "--lexicon",
                   "--max-words", "--out"},
    "export-projections": {"--embeddings", "--embeddings-en", "--lexicon",
                           "--lexicon-en", "--seed", "--max-words", "--ridge",
                           "--out"},
    "correlate": {"--embeddings", "--embeddings-en", "--lexicon", "--lexicon-en",
                  "--max-words", "--signed", "--out"},
}


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory, fixture_aligned):
    root = tmp_path_factory.mktemp("cli")
    fx = fixture_aligned
    paths = {
        "src": root / "src.vec",
        "en": root / "en.vec",
        "lex": root / "lex.json",
        "lex_en": root / "lex_en.json",
        "seed": root / "seed.tsv",
        "sim": root / "sim.tsv",
        "root": root,
    }
    save_text_embeddings(fx.source, paths["src"])
    save_text_embeddings(fx.english, paths["en"])
    paths["lex"].write_text(json.dumps(lexicon_to_json_dict(fx.lexicon)),
                            encoding="utf-8")
    paths["lex_en"].write_text(json.dumps(lexicon_to_json_dict(fx.english_lexicon)),
                               encoding="utf-8")
    paths["seed"].write_text(
        "\n".join(f"{s}\t{t}" for s, t in fx.seed_dictionary.pairs()) + "\n",
        encoding="utf-8")
    words = fx.source.words
    sim_lines = []
    for i in range(0, 20, 2):
        c = float(fx.source.vector(words[i]) @ fx.source.vector(words[i + 1]))
        sim_lines.append(f"{words[i]}\t{words[i + 1]}\t{5.0 * c + 5.0:.6f}")
    paths["sim"].write_text("\n".join(sim_lines) + "\n", encoding="utf-8")
    return paths


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "COMMAND" in capsys.readouterr().out

    def test_version_exits_zero(self, capsys):
        assert main(["--version"]) == 0

    def test_no_arguments(self, capsys):
        assert main([]) == 1

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self, cli_files, capsys):
        code = main(["audit", "--embeddings", str(cli_files["src"]),
                     "--lexicon", str(cli_files["lex"])])
        assert code == 1
        assert "--out" in capsys.readouterr().err

    def test_missing_input_file_is_io_error(self, cli_files, tmp_path, capsys):
        code = main(["audit", "--embeddings", str(tmp_path / "nope.vec"),
                     "--lexicon", str(cli_files["lex"]),
                     "--out", str(tmp_path / "out.json")])
        assert code == 2

    def test_malformed_lexicon_is_validation_error(self, cli_files, tmp_path,
                                                   capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{не json", encoding="utf-8")
        code = main(["audit", "--embeddings", str(cli_files["src"]),
                     "--lexicon", str(bad),
                     "--out", str(tmp_path / "out.json")])
        assert code == 1

    def test_unknown_mitigation_method(self, cli_files, tmp_path, capsys):
        code = main(["mitigate", "--embeddings", str(cli_files["src"]),
                     "--lexicon", str(cli_files["lex"]),
                     "--method", "bogus", "--out", str(tmp_path / "m")])
        assert code == 1


    def test_unread_flags_are_usage_errors(self, cli_files, tmp_path, capsys):
        code = main(["audit", "--csls", "--embeddings", str(cli_files["src"]),
                     "--lexicon", str(cli_files["lex"]),
                     "--out", str(tmp_path / "a.json")])
        assert code == 1
        assert "unrecognized arguments: --csls" in capsys.readouterr().err
        code = main(["eval-pairs", "--n-perm", "5",
                     "--embeddings", str(cli_files["src"]),
                     "--embeddings-en", str(cli_files["en"]),
                     "--lexicon", str(cli_files["lex"]),
                     "--out", str(tmp_path / "p.json")])
        assert code == 1
        assert "unrecognized arguments: --n-perm 5" in capsys.readouterr().err
        assert not (tmp_path / "a.json").exists()
        assert not (tmp_path / "p.json").exists()

    @pytest.mark.parametrize("command", ["directions", "audit"])
    def test_negative_seed_is_a_usage_error(self, cli_files, tmp_path, capsys,
                                            command):
        # directions once dropped lda_cv_accuracy and exited 0; audit failed
        # with numpy's message, which names no flag
        out = tmp_path / "out.json"
        code = main([command, "--embeddings", str(cli_files["src"]),
                     "--lexicon", str(cli_files["lex"]), "--seed", "-3",
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: argument --seed: expected an integer >= 0, got '-3'")
        assert not out.exists()

    @pytest.mark.parametrize("command", sorted(SUBCOMMAND_FLAGS))
    def test_help_lists_only_own_flags(self, command, capsys):
        assert main([command, "--help"]) == 0
        listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        assert listed - {"--help"} == SUBCOMMAND_FLAGS[command]

    def test_out_of_memory_exits_one(self, cli_files, tmp_path, capsys,
                                     monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 18.7 GiB")

        monkeypatch.setattr(gendebias.cli, "word_translation_eval", exhausted)
        code = main(["eval-translation", "--embeddings", str(cli_files["src"]),
                     "--embeddings-en", str(cli_files["en"]),
                     "--dict", str(cli_files["seed"]),
                     "--out", str(tmp_path / "t.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert "error: out of memory: Unable to allocate 18.7 GiB" in err
        assert "Traceback" not in err

    def test_out_of_memory_in_a_chunk_thread_exits_one(self, cli_files, tmp_path,
                                                       capsys, monkeypatch):
        monkeypatch.setattr(gendebias.evaluation, "_SCORE_CHUNK", 3)
        monkeypatch.setattr(gendebias.evaluation, "_chunk_threads", lambda: 2)
        cosine_scores = gendebias.evaluation._cosine_scores
        calls = itertools.count(1)
        lock = threading.Lock()

        def exhausted_once(space, queries, cols):
            with lock:
                call = next(calls)
            if call == 2:
                raise MemoryError("Unable to allocate 18.7 GiB")
            return cosine_scores(space, queries, cols)

        monkeypatch.setattr(gendebias.evaluation, "_cosine_scores", exhausted_once)
        code = main(["eval-translation", "--embeddings", str(cli_files["src"]),
                     "--embeddings-en", str(cli_files["en"]),
                     "--dict", str(cli_files["seed"]),
                     "--out", str(tmp_path / "t.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert "error: out of memory: Unable to allocate 18.7 GiB" in err
        assert "Traceback" not in err
        assert not (tmp_path / "t.json").exists()


class TestZeroVectors:
    @pytest.mark.parametrize("csls", [False, True])
    def test_translation_reads_zero_rows(self, tmp_path, capsys, csls):
        (tmp_path / "src.vec").write_text("3 2\na 1 0\nb 0 1\nz 0 0\n",
                                          encoding="utf-8")
        (tmp_path / "en.vec").write_text("4 2\nx 1 0\nzz 0 0\ny 0 1\nw 1 1\n",
                                         encoding="utf-8")
        (tmp_path / "dict.tsv").write_text("a\tx\nb\ty\n", encoding="utf-8")
        out = tmp_path / "t.json"
        code = main(["eval-translation", *(["--csls"] if csls else []),
                     "--embeddings", str(tmp_path / "src.vec"),
                     "--embeddings-en", str(tmp_path / "en.vec"),
                     "--dict", str(tmp_path / "dict.tsv"), "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        report = json.loads(out.read_text(encoding="utf-8"))["report"]
        assert report["metrics"]["p_at_1"] == 100.0
        rows = (tmp_path / "t.json.details.csv").read_text(
            encoding="utf-8").splitlines()[2:]
        assert [row.split(",")[2].split("|")[-1] for row in rows] == ["zz", "zz"]

    def test_audit_names_a_zero_attribute_word(self, cli_files, fixture_aligned,
                                               tmp_path, capsys):
        space = fixture_aligned.source
        word = fixture_aligned.lexicon.attributes_male[0]
        matrix = np.array(space.matrix)
        matrix[space.index(word)] = 0.0
        path = tmp_path / "zero.vec"
        save_text_embeddings(space.with_matrix(matrix), path)
        code = main(["audit", "--embeddings", str(path),
                     "--lexicon", str(cli_files["lex"]), "--n-perm", "100",
                     "--out", str(tmp_path / "a.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: zero vector for {word!r}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "a.json").exists()


    def test_audit_reads_a_row_of_tiny_components(self, cli_files, fixture_aligned,
                                                  tmp_path):
        # the squares of (3e-160, ...) are subnormal: the row's norm was
        # once 5.6e-6 off, and its unit row refused as unit
        space = fixture_aligned.source
        path = tmp_path / "tiny.vec"
        save_text_embeddings(EmbeddingSpace(
            [*space.words, "tiny"],
            np.vstack([space.matrix, np.full(space.dim, 3e-160)])), path)
        code = main(["audit", "--embeddings", str(path),
                     "--lexicon", str(cli_files["lex"]), "--n-perm", "100",
                     "--out", str(tmp_path / "a.json")])
        assert code == 0

    def test_mitigate_names_a_zero_english_row(self, cli_files, fixture_aligned,
                                               tmp_path, capsys):
        cfg = EnglishDebiasConfig.from_lexicon(fixture_aligned.english_lexicon)
        space = fixture_aligned.english
        word = next(w for w in space.words if w not in cfg.gender_specific)
        matrix = np.array(space.matrix)
        matrix[space.index(word)] = 0.0
        path = tmp_path / "en_zero.vec"
        save_text_embeddings(space.with_matrix(matrix), path)
        code = main(["mitigate", "--method", "hybrid_ori",
                     "--embeddings", str(cli_files["src"]),
                     "--embeddings-en", str(path),
                     "--lexicon", str(cli_files["lex"]),
                     "--lexicon-en", str(cli_files["lex_en"]),
                     "--seed-dict", str(cli_files["seed"]),
                     "--out", str(tmp_path / "m")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: zero vector for {word!r}" in err
        assert "Traceback" not in err


class TestDirections:
    def test_monolingual(self, cli_files, tmp_path, capsys):
        out = tmp_path / "dirs.json"
        code = main(["directions", "--embeddings", str(cli_files["src"]),
                     "--lexicon", str(cli_files["lex"]), "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert set(payload) == {"config", "directions"}
        dirs = payload["directions"]
        assert -1.0 <= dirs["overlap"] <= 1.0
        d_g = dirs["d_g"]
        d_s = dirs["d_s"]
        assert abs(sum(a * b for a, b in zip(d_g, d_s))) < 1e-9
        assert payload["config"]["subcommand"] == "directions"
        assert "wrote" in capsys.readouterr().out

    @pytest.mark.parametrize("name, entry", [
        ("definitional_pairs", 1), ("definitional_pairs", "ab"),
        ("occupation_pairs", 5), ("occupation_pairs", {"m": "x"}),
    ])
    def test_entry_that_is_not_an_array_exits_one(self, cli_files, tmp_path,
                                                  capsys, name, entry):
        payload = json.loads(cli_files["lex"].read_text(encoding="utf-8"))
        payload[name] = [entry]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        code = main(["directions", "--embeddings", str(cli_files["src"]),
                     "--lexicon", str(bad), "--out", str(tmp_path / "d.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.splitlines()[-1] == (f"error: {bad}: {name}: entry 0 is not an "
                                        f"array of words: {entry!r}")
        assert "Traceback" not in err

    def test_bilingual_requires_english_lexicon(self, cli_files, tmp_path,
                                                capsys):
        code = main(["directions", "--embeddings", str(cli_files["src"]),
                     "--embeddings-en", str(cli_files["en"]),
                     "--lexicon", str(cli_files["lex"]),
                     "--out", str(tmp_path / "d.json")])
        assert code == 1
        assert "--lexicon-en" in capsys.readouterr().err

    @pytest.mark.parametrize("ridge", ["nan", "inf"])
    def test_non_finite_ridge_exits_one(self, cli_files, tmp_path, capsys, ridge):
        # once wrote NaN directions, then failed on the JSON write
        out = tmp_path / "d.json"
        code = main(["directions", "--embeddings", str(cli_files["src"]),
                     "--lexicon", str(cli_files["lex"]), "--ridge", ridge,
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"error: ridge must be finite, got {ridge}")
        assert not out.exists()


class TestAudit:
    def test_statistic_and_determinism(self, cli_files, tmp_path, capsys):
        out1 = tmp_path / "a1.json"
        out2 = tmp_path / "a2.json"
        argv = ["audit", "--embeddings", str(cli_files["src"]),
                "--lexicon", str(cli_files["lex"]), "--n-perm", "500"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        payload = json.loads(out1.read_text(encoding="utf-8"))
        report = payload["report"]
        assert report["statistic"] == pytest.approx(4.4397, abs=1e-3)
        assert 0.0 < report["p_value"] <= 1.0
        assert report["n_permutations"] == 500
        assert len(payload["scores"]) == 30

    def test_signed_flag_changes_scores(self, cli_files, tmp_path):
        base = ["audit", "--embeddings", str(cli_files["src"]),
                "--lexicon", str(cli_files["lex"]), "--n-perm", "100"]
        out_u = tmp_path / "u.json"
        out_s = tmp_path / "s.json"
        assert main(base + ["--out", str(out_u)]) == 0
        assert main(base + ["--signed", "--out", str(out_s)]) == 0
        unsigned = json.loads(out_u.read_text(encoding="utf-8"))["scores"]
        signed = json.loads(out_s.read_text(encoding="utf-8"))["scores"]
        assert any(v < 0 for v in signed.values())
        for key, value in signed.items():
            assert unsigned[key] == pytest.approx(abs(value), abs=1e-12)


class TestMitigate:
    def test_shift_ori_outputs(self, cli_files, tmp_path, capsys):
        out = tmp_path / "m_ori"
        code = main(["mitigate", "--embeddings", str(cli_files["src"]),
                     "--lexicon", str(cli_files["lex"]),
                     "--method", "shift_ori", "--out", str(out)])
        assert code == 0
        assert (out / "source.vec").exists()
        assert (out / "outcome.json").exists()
        assert (out / "directions.json").exists()
        assert not (out / "english.vec").exists()
        payload = json.loads((out / "outcome.json").read_text(encoding="utf-8"))
        assert payload["outcome"]["method"] == "shift_ori"
        assert payload["outcome"]["words_touched"] == 120
        assert payload["outcome"]["max_residual"] <= 1e-9

    def test_bilingual_method_needs_english_inputs(self, cli_files, tmp_path,
                                                   capsys):
        code = main(["mitigate", "--embeddings", str(cli_files["src"]),
                     "--lexicon", str(cli_files["lex"]),
                     "--method", "shift_en", "--out", str(tmp_path / "m")])
        assert code == 1
        assert "--embeddings-en" in capsys.readouterr().err

    def test_de_align_writes_both_spaces(self, cli_files, tmp_path):
        out = tmp_path / "m_align"
        code = main(["mitigate", "--embeddings", str(cli_files["src"]),
                     "--embeddings-en", str(cli_files["en"]),
                     "--lexicon", str(cli_files["lex"]),
                     "--lexicon-en", str(cli_files["lex_en"]),
                     "--seed-dict", str(cli_files["seed"]),
                     "--method", "de_align", "--out", str(out)])
        assert code == 0
        assert (out / "source.vec").exists()
        assert (out / "english.vec").exists()
        payload = json.loads((out / "outcome.json").read_text(encoding="utf-8"))
        assert payload["outcome"]["words_touched"] == 0
        assert payload["outcome"]["seed_pairs"] > 0

    def test_form_shared_by_two_pairs_exits_one(self, cli_files, fixture_aligned,
                                                tmp_path, capsys):
        lex = fixture_aligned.lexicon
        first, second = lex.occupation_pairs[:2]
        shared = GenderLexicon(
            definitional_pairs=lex.definitional_pairs,
            grammatical_masculine=lex.grammatical_masculine,
            grammatical_feminine=lex.grammatical_feminine,
            occupation_pairs=[first.words, (first.masculine, second.feminine)],
            attributes_male=lex.attributes_male,
            attributes_female=lex.attributes_female)
        path = tmp_path / "shared.json"
        path.write_text(json.dumps(lexicon_to_json_dict(shared)), encoding="utf-8")
        code = main(["mitigate", "--embeddings", str(cli_files["src"]),
                     "--lexicon", str(path), "--method", "shift_ori",
                     "--out", str(tmp_path / "m")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: form {first.masculine!r} is shared by occupation pairs" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("method", ["shift_en", "hybrid_en"])
    def test_conflicting_english_anchors_exit_one(self, cli_files, fixture_aligned,
                                                  tmp_path, capsys, method):
        lex = fixture_aligned.lexicon
        first, second = lex.occupation_pairs[:2]
        twice = dataclasses.replace(lex, occupation_pairs=(
            *lex.occupation_pairs, (first.masculine, first.feminine, second.english)))
        path = tmp_path / "twice.json"
        path.write_text(json.dumps(lexicon_to_json_dict(twice)), encoding="utf-8")
        code = main(["mitigate", "--embeddings", str(cli_files["src"]),
                     "--embeddings-en", str(cli_files["en"]),
                     "--lexicon", str(path),
                     "--lexicon-en", str(cli_files["lex_en"]),
                     "--seed-dict", str(cli_files["seed"]),
                     "--method", method, "--out", str(tmp_path / "m")])
        assert code == 1
        err = capsys.readouterr().err
        assert (f"error: occupation pair {first.words!r} is listed with English "
                f"anchors {first.english!r} and {second.english!r}") in err
        assert "Traceback" not in err
        assert not (tmp_path / "m" / "outcome.json").exists()

    def test_hybrid_rerun_is_byte_identical(self, cli_files, tmp_path):
        argv = ["mitigate", "--embeddings", str(cli_files["src"]),
                "--embeddings-en", str(cli_files["en"]),
                "--lexicon", str(cli_files["lex"]),
                "--lexicon-en", str(cli_files["lex_en"]),
                "--seed-dict", str(cli_files["seed"]),
                "--method", "hybrid_ori"]
        out1 = tmp_path / "h1"
        out2 = tmp_path / "h2"
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        for name in ("source.vec", "english.vec", "outcome.json",
                     "directions.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


class TestEvaluationCommands:
    def test_similarity(self, cli_files, tmp_path, capsys):
        out = tmp_path / "sim.json"
        code = main(["eval-similarity", "--embeddings", str(cli_files["src"]),
                     "--dataset", str(cli_files["sim"]), "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text(encoding="utf-8"))["report"]
        assert report["metrics"]["pearson_r"] == pytest.approx(1.0, abs=1e-6)
        assert report["config_digest"]

    @pytest.mark.parametrize("scores, message", [
        (["nan"] * 6, r"sim\.tsv:1: non-finite score 'nan'"),
        (["2.5"] * 6, "Pearson r is undefined: the human scores of all 6"),
    ])
    def test_similarity_undefined_is_an_error(self, cli_files, tmp_path, capsys,
                                              scores, message):
        words = load_text_embeddings(cli_files["src"]).words
        dataset = tmp_path / "sim.tsv"
        dataset.write_text("".join(f"{words[2 * i]}\t{words[2 * i + 1]}\t{s}\n"
                                   for i, s in enumerate(scores)), encoding="utf-8")
        out = tmp_path / "sim.json"
        code = main(["eval-similarity", "--embeddings", str(cli_files["src"]),
                     "--dataset", str(dataset), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        last = err.splitlines()[-1]
        assert last.startswith("error: ") and re.search(message, last), err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("row, message", [
        ("b 0.5 inf", "non-finite component for 'b'"),
        ("b 1e200 1e200", "the norm of 'b' overflows float64"),
    ])
    def test_unit_load_names_a_bad_row(self, tmp_path, capsys, row, message):
        # a row the unit-normalizing parse cannot divide is named by path and
        # line, with no numpy warning (the suite makes one an error)
        path = tmp_path / "s.vec"
        path.write_text(f"3 2\na 1 0\n{row}\nc 0 1\n", encoding="utf-8")
        dataset = tmp_path / "sim.tsv"
        dataset.write_text("a\tc\t1\n", encoding="utf-8")
        out = tmp_path / "sim.json"
        code = main(["eval-similarity", "--embeddings", str(path),
                     "--dataset", str(dataset), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {path}:3: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.vec", "sim.tsv"]

    def test_json_results_refuse_nan_and_leave_no_file(self, tmp_path):
        with pytest.raises(ValueError, match="JSON compliant"):
            gendebias.cli._write_json(tmp_path / "r.json", {"pearson_r": float("nan")})
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind", ["link", "fifo"])
    def test_result_to_a_link_or_fifo_is_written_as_given(self, cli_files, tmp_path,
                                                          kind):
        # what `--out /dev/stdout` passes: not replaced, written through
        argv = ["eval-similarity", "--embeddings", str(cli_files["src"]),
                "--dataset", str(cli_files["sim"])]
        assert main(argv + ["--out", str(tmp_path / "plain.json")]) == 0
        out = tmp_path / "out.json"
        received = []
        if kind == "link":
            (tmp_path / "real.json").write_text("old\n", encoding="utf-8")
            out.symlink_to(tmp_path / "real.json")
        else:
            os.mkfifo(out)
            reader = threading.Thread(target=lambda: received.append(out.read_bytes()),
                                      daemon=True)
            reader.start()
        assert main(argv + ["--out", str(out)]) == 0
        if kind == "link":
            assert out.is_symlink()
            received.append(out.read_bytes())
        else:
            reader.join(timeout=10)
            assert not reader.is_alive()
        assert received == [(tmp_path / "plain.json").read_bytes()]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["plain.json", "out.json"] + (["real.json"] if kind == "link" else []))

    def test_translation_writes_details(self, cli_files, tmp_path):
        out = tmp_path / "trans.json"
        code = main(["eval-translation", "--embeddings", str(cli_files["src"]),
                     "--embeddings-en", str(cli_files["en"]),
                     "--dict", str(cli_files["seed"]), "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text(encoding="utf-8"))["report"]
        assert 0.0 <= report["metrics"]["p_at_1"] <= 100.0
        details = (tmp_path / "trans.json.details.csv").read_text(encoding="utf-8")
        assert details.splitlines()[1] == "source,gold,retrieved,hit_rank"

    def test_pairs(self, cli_files, tmp_path, capsys):
        out = tmp_path / "pairs.json"
        code = main(["eval-pairs", "--embeddings", str(cli_files["src"]),
                     "--embeddings-en", str(cli_files["en"]),
                     "--lexicon", str(cli_files["lex"]), "--out", str(out)])
        assert code == 0
        metrics = json.loads(out.read_text(encoding="utf-8"))["report"]["metrics"]
        for key in ("f_mrr", "m_mrr", "mrr_diff", "asd"):
            assert key in metrics

    def test_export_projections_deterministic(self, cli_files, tmp_path):
        argv = ["export-projections", "--embeddings", str(cli_files["src"]),
                "--lexicon", str(cli_files["lex"])]
        out1 = tmp_path / "p1.csv"
        out2 = tmp_path / "p2.csv"
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("# config_digest=")
        assert lines[1] == "word,group,grammatical_proj,semantic_proj"
        assert len(lines) > 100

    def test_correlate(self, cli_files, tmp_path, capsys):
        out = tmp_path / "corr.json"
        code = main(["correlate", "--embeddings", str(cli_files["src"]),
                     "--lexicon", str(cli_files["lex"]),
                     "--embeddings-en", str(cli_files["en"]),
                     "--lexicon-en", str(cli_files["lex_en"]),
                     "--out", str(out)])
        assert code == 0
        corr = json.loads(out.read_text(encoding="utf-8"))["correlation"]
        assert -1.0 <= corr["spearman_rho"] <= 1.0
        assert corr["n"] == 30


class TestStepCost:
    """A CLI step holds only what it runs: no step imports scipy.stats,
    scipy.special is imported by the step that correlates per-word bias
    scores, and a loaded matrix is held once."""

    @staticmethod
    def fresh_run(script, args, cwd):
        """The JSON that ``script``, run with ``args`` in a fresh
        interpreter, prints last (this one has scipy from tests/oracles.py)."""
        package_root = str(Path(gendebias.cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
        cwd.mkdir()
        done = subprocess.run([sys.executable, "-c", script, *args], cwd=cwd,
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout.splitlines()[-1])

    def test_scipy_is_imported_only_to_correlate(self, cli_files, tmp_path):
        files = {k: str(v) for k, v in cli_files.items()}
        fresh, here = tmp_path / "fresh", tmp_path / "here"
        steps = [
            ["audit", "--embeddings", files["src"], "--lexicon", files["lex"],
             "--n-perm", "200", "--out", "a.json"],
            ["eval-translation", "--csls", "--embeddings", files["src"],
             "--embeddings-en", files["en"], "--dict", files["seed"],
             "--out", "t.json"],
            ["correlate", "--embeddings", files["src"], "--lexicon", files["lex"],
             "--embeddings-en", files["en"], "--lexicon-en", files["lex_en"],
             "--out", "c.json"],
            ["eval-similarity", "--embeddings", files["src"], "--dataset",
             files["sim"], "--out", "s.json"],
        ]
        script = (
            "import json, sys\n"
            "import gendebias, gendebias.cli\n"
            "def loaded():\n"
            "    return [m in sys.modules for m in ('scipy.stats', 'scipy.special')]\n"
            "seen = [loaded()]\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert gendebias.cli.main(argv) == 0, argv\n"
            "    seen.append(loaded())\n"
            "print(json.dumps(seen))\n")
        assert self.fresh_run(script, [json.dumps(steps)], fresh) == [
            [False, False], [False, False], [False, False],
            [False, True], [False, True]]
        # the correlating steps write the same bytes with scipy imported early
        here.mkdir()
        for argv in steps[2:]:
            out = argv[-1]
            assert main(argv[:-1] + [str(here / out)]) == 0
            assert (here / out).read_bytes() == (fresh / out).read_bytes(), out

    def test_eval_similarity_imports_no_scipy(self, cli_files, tmp_path):
        script = (
            "import json, sys\n"
            "import gendebias.cli\n"
            "assert gendebias.cli.main(sys.argv[1:]) == 0\n"
            "print(json.dumps(sorted(m for m in sys.modules\n"
            "                        if m.partition('.')[0] == 'scipy')))\n")
        assert self.fresh_run(script, [
            "eval-similarity", "--embeddings", str(cli_files["src"]),
            "--dataset", str(cli_files["sim"]), "--out", "s.json"],
            tmp_path / "fresh") == []

    def test_library_correlation_leaves_scipy_stats_unloaded(self, tmp_path):
        # perfbench's api_study calls bias_correlation directly, not the CLI
        script = (
            "import json, sys\n"
            "import gendebias\n"
            "keys = [f'w{i}' for i in range(8)]\n"
            "gendebias.bias_correlation(dict(zip(keys, range(8))),\n"
            "                           dict(zip(keys, [3, 1, 4, 1, 5, 9, 2, 6])))\n"
            "print(json.dumps([m in sys.modules for m in ('scipy.stats', 'scipy.special')]))\n")
        assert self.fresh_run(script, [], tmp_path / "fresh") == [False, True]

    @pytest.mark.parametrize("load", ["parse", "sidecar"])
    def test_a_load_holds_its_matrix_once(self, tmp_path, load):
        rng = np.random.default_rng(0)
        path = tmp_path / "s.vec"
        save_text_embeddings(EmbeddingSpace([f"w{i}" for i in range(2000)],
                                            rng.standard_normal((2000, 300))), path)
        args = argparse.Namespace(max_words=None, digests={})
        gendebias.cli._load_space(args, path)   # writes the sidecar, keeps the digest
        tracemalloc.start()
        try:
            space = (load_text_embeddings(path) if load == "parse"
                     else gendebias.cli._load_space(args, path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert space.matrix.shape == (2000, 300)
        assert peak < 1.5 * space.matrix.nbytes
        assert not space.matrix.flags.writeable

    def test_a_cold_load_holds_its_matrix_once(self, tmp_path):
        # a sidecar miss divides the parsed matrix in place and writes the
        # sidecar a block at a time
        rng = np.random.default_rng(0)
        path = tmp_path / "s.vec"
        save_text_embeddings(EmbeddingSpace([f"w{i}" for i in range(2000)],
                                            rng.standard_normal((2000, 300))), path)
        args = argparse.Namespace(max_words=None, digests={})
        tracemalloc.start()
        try:
            space = gendebias.cli._load_space(args, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.with_name(path.name + ".gdcache.npz").is_file()
        assert peak <= 1.25 * space.matrix.nbytes
        assert gendebias.cli._load_space(args, path).matrix.tobytes() == \
            space.matrix.tobytes()

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_a_pipe_holds_its_matrix_once(self, tmp_path):
        # a pipe has no size to preallocate from, so the parse grows its
        # array; it is then divided in place (1.25 times the matrix measured)
        rng = np.random.default_rng(0)
        path = tmp_path / "s.vec"
        save_text_embeddings(EmbeddingSpace([f"w{i}" for i in range(2000)],
                                            rng.standard_normal((2000, 300))), path)
        data = path.read_bytes()
        read_end, write_end = os.pipe()

        def feed():
            with open(write_end, "wb") as fh:
                fh.write(data)

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        args = argparse.Namespace(max_words=None, digests={})
        tracemalloc.start()
        try:
            space = gendebias.cli._load_space(args, f"/dev/fd/{read_end}")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            os.close(read_end)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert peak <= 1.3 * space.matrix.nbytes
        assert space.matrix.tobytes() == \
            gendebias.cli._load_space(args, path).matrix.tobytes()

    def test_sidecar_writer_writes_what_np_savez_writes(self, monkeypatch):
        # a zip member's header holds the time it was written
        monkeypatch.setattr(time, "time", lambda: 1.7e9)
        rng = np.random.default_rng(0)
        words = np.frombuffer(b"a\nbb\nccc", dtype=np.uint8)
        for rows in (1, 3, 700):
            arrays = dict(key=np.array("gendebias-vec/2 0123 None"), words=words,
                          matrix=rng.standard_normal((rows, 300)),
                          duplicates=np.array(2, dtype=np.int64))
            want, got = io.BytesIO(), io.BytesIO()
            np.savez(want, **arrays)
            gendebias.cli._savez(got, **arrays)
            assert got.getvalue() == want.getvalue()


class TestEndToEnd:
    def test_mitigation_lowers_the_audited_statistic(self, cli_files, tmp_path):
        pre = tmp_path / "pre.json"
        assert main(["audit", "--embeddings", str(cli_files["src"]),
                     "--lexicon", str(cli_files["lex"]), "--n-perm", "200",
                     "--out", str(pre)]) == 0
        mdir = tmp_path / "mit"
        assert main(["mitigate", "--embeddings", str(cli_files["src"]),
                     "--embeddings-en", str(cli_files["en"]),
                     "--lexicon", str(cli_files["lex"]),
                     "--lexicon-en", str(cli_files["lex_en"]),
                     "--seed-dict", str(cli_files["seed"]),
                     "--method", "hybrid_ori", "--out", str(mdir)]) == 0
        post = tmp_path / "post.json"
        assert main(["audit", "--embeddings", str(mdir / "source.vec"),
                     "--lexicon", str(cli_files["lex"]), "--n-perm", "200",
                     "--out", str(post)]) == 0
        s_pre = json.loads(pre.read_text(encoding="utf-8"))["report"]["statistic"]
        s_post = json.loads(post.read_text(encoding="utf-8"))["report"]["statistic"]
        assert s_post < s_pre


class TestDecodeErrors:
    """Invalid UTF-8 in an input names the file and where, exit 1."""

    def test_vec_cut_inside_a_character(self, cli_files, tmp_path, capsys):
        # the last row, renamed "caña", is cut after the first byte of "ñ"
        data = cli_files["src"].read_bytes()
        last = data.rindex(b"\n", 0, -1) + 1
        path = tmp_path / "cut.vec"
        path.write_bytes(data[:last] + "caña".encode("utf-8")[:3])
        line = data.count(b"\n", 0, last) + 1
        code = main(["audit", "--embeddings", str(path),
                     "--lexicon", str(cli_files["lex"]),
                     "--out", str(tmp_path / "a.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert (f"error: {path}:{line}: invalid UTF-8 at byte {last + 2} "
                "(unexpected end of data)") in err
        assert "Traceback" not in err
        assert not list(tmp_path.glob("*.gdcache.npz"))

    @pytest.mark.parametrize("flag", ["--dict", "--dataset", "--lexicon"])
    def test_bad_byte_in_a_word_list(self, cli_files, tmp_path, capsys, flag):
        src = cli_files["src"]
        if flag == "--dict":
            data = b"w0001\tx\nb\xff\ty\n"
            argv = ["eval-translation", "--embeddings", str(src),
                    "--embeddings-en", str(cli_files["en"])]
        elif flag == "--dataset":
            data = b"a\tb\t1.0\nb\xff\tc\t2.0\n"
            argv = ["eval-similarity", "--embeddings", str(src)]
        else:
            data = b'{\n"definitional_pairs": [["b\xff", "c"]]}\n'
            argv = ["audit", "--embeddings", str(src)]
        path = tmp_path / "bad.txt"
        path.write_bytes(data)
        code = main(argv + [flag, str(path), "--out", str(tmp_path / "o.json")])
        assert code == 1
        err = capsys.readouterr().err
        bad = data.index(b"\xff")
        assert f"error: {path}:2: invalid UTF-8 at byte {bad} (invalid start byte)" in err
        assert "Traceback" not in err


_UNPICKLED: list = []


def _trap(tag):
    """Records that a pickled object array was unpickled."""
    _UNPICKLED.append(tag)
    return tag


class _Trap:
    def __reduce__(self):
        return (_trap, ("unpickled",))


class TestSidecar:
    """The CLI keeps each parsed .vec in <input>.gdcache.npz: a hit reads
    the same space as a parse, anything else is a miss that rewrites it."""

    @pytest.fixture()
    def files(self, cli_files, tmp_path):
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        paths = {}
        for key in ("src", "en", "lex", "lex_en", "seed", "sim"):
            paths[key] = inputs / cli_files[key].name
            paths[key].write_bytes(cli_files[key].read_bytes())
        return paths

    @pytest.fixture()
    def parses(self, monkeypatch):
        """Paths the CLI parsed as text, in order."""
        seen = []
        parse = gendebias.cli._read_text_embeddings

        def counted(path, *args, **kwargs):
            seen.append(Path(path).name)
            return parse(path, *args, **kwargs)

        monkeypatch.setattr(gendebias.cli, "_read_text_embeddings", counted)
        return seen

    @pytest.fixture()
    def lookups(self, monkeypatch):
        """Sidecars the CLI looked up, in order."""
        seen = []
        lookup = gendebias.cli._read_sidecar

        def counted(sidecar, key):
            seen.append(Path(sidecar).name)
            return lookup(sidecar, key)

        monkeypatch.setattr(gendebias.cli, "_read_sidecar", counted)
        return seen

    @staticmethod
    def sidecar(path):
        return path.with_name(path.name + ".gdcache.npz")

    @staticmethod
    def steps(files, out):
        pair = ["--embeddings", str(files["src"]), "--embeddings-en", str(files["en"])]
        return [
            ["eval-translation", *pair, "--dict", str(files["seed"]),
             "--out", str(out / "t.json")],
            ["eval-translation", "--csls", *pair, "--dict", str(files["seed"]),
             "--out", str(out / "c.json")],
            ["eval-pairs", *pair, "--lexicon", str(files["lex"]),
             "--out", str(out / "p.json")],
            ["audit", "--embeddings", str(files["src"]), "--lexicon",
             str(files["lex"]), "--n-perm", "200", "--out", str(out / "a.json")],
            ["mitigate", "--method", "hybrid_ori", *pair,
             "--lexicon", str(files["lex"]), "--lexicon-en", str(files["lex_en"]),
             "--seed-dict", str(files["seed"]), "--out", str(out / "m")],
            ["audit", "--embeddings", str(out / "m" / "source.vec"), "--lexicon",
             str(files["lex"]), "--n-perm", "200", "--out", str(out / "a2.json")],
        ]

    @staticmethod
    def results(out):
        return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*"))
                if p.is_file() and not p.name.endswith(".gdcache.npz")}

    def run(self, argv, capsys):
        code = main(argv)
        assert code == 0, capsys.readouterr().err

    def test_hit_is_bit_identical_to_a_parse(self, tmp_path, parses):
        path = tmp_path / "odd.vec"
        rows = ["4 3", "ñandú\t -0.0 5e-324 1e150",
                "a b 0.1 -2.5E-3 7", "ñandú 9 9 9", "z 0 0 0", "q 1 2 3"]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        for max_words in (None, 2):
            want = unit_normalize(load_text_embeddings(path, max_words=max_words))
            for _ in range(2):
                args = argparse.Namespace(max_words=max_words, digests={})
                got = gendebias.cli._load_space(args, path)
                assert got.words == want.words
                assert got.matrix.tobytes() == want.matrix.tobytes()
        assert parses == ["odd.vec", "odd.vec"]   # one miss per --max-words

    def test_results_identical_with_and_without_sidecar(self, files, tmp_path,
                                                        capsys, parses):
        runs = []
        for name in ("cold", "warm"):
            out = tmp_path / name
            out.mkdir()
            for argv in self.steps(files, out):
                self.run(argv, capsys)
            runs.append(self.results(out))
            if name == "cold":
                assert self.sidecar(files["src"]).is_file()
                assert self.sidecar(files["en"]).is_file()
                cold_parses = len(parses)
        assert runs[0] == runs[1]
        # the warm run parsed nothing: mitigate left source.vec's sidecar
        assert parses[cold_parses:] == []
        config = json.loads(runs[1]["m/outcome.json"])["config"]
        assert config["input_digests"] == {
            flag: hashlib.sha256(files[key].read_bytes()).hexdigest()
            for flag, key in (("embeddings", "src"), ("embeddings-en", "en"),
                              ("lexicon", "lex"), ("lexicon-en", "lex_en"),
                              ("seed-dict", "seed"))}

    def test_mitigate_outputs_are_read_without_a_parse(self, files, tmp_path, capsys,
                                                       monkeypatch):
        pair = ["--embeddings", str(files["src"]), "--embeddings-en", str(files["en"])]
        out = tmp_path / "m"
        self.run(["mitigate", "--method", "hybrid_ori", *pair,
                  "--lexicon", str(files["lex"]), "--lexicon-en", str(files["lex_en"]),
                  "--seed-dict", str(files["seed"]), "--out", str(out)], capsys)
        vecs = [out / "source.vec", out / "english.vec"]

        def steps(results):
            results.mkdir()
            return [["audit", "--embeddings", str(vecs[0]), "--lexicon", str(files["lex"]),
                     "--n-perm", "200", "--out", str(results / "a.json")],
                    ["eval-translation", "--embeddings", str(vecs[0]),
                     "--embeddings-en", str(vecs[1]), "--dict", str(files["seed"]),
                     "--out", str(results / "t.json")]]

        def refuse(path, *args, **kwargs):
            raise AssertionError(f"parsed {path}")

        with monkeypatch.context() as patch:
            patch.setattr(gendebias.cli, "_read_text_embeddings", refuse)
            for argv in steps(tmp_path / "warm"):
                self.run(argv, capsys)
        left = {}
        for vec in vecs:
            with np.load(self.sidecar(vec), allow_pickle=False) as npz:
                left[vec] = {k: npz[k] for k in npz.files}
            self.sidecar(vec).unlink()
        for argv in steps(tmp_path / "cold"):
            self.run(argv, capsys)
        assert self.results(tmp_path / "warm") == self.results(tmp_path / "cold")
        # mitigate left the sidecar that a miss writes
        for vec in vecs:
            with np.load(self.sidecar(vec), allow_pickle=False) as npz:
                assert npz["key"].item() == left[vec]["key"].item() == \
                    f"gendebias-vec/2 {hashlib.sha256(vec.read_bytes()).hexdigest()} None"
                assert npz["words"].tobytes() == left[vec]["words"].tobytes()
                assert npz["matrix"].tobytes() == left[vec]["matrix"].tobytes()
                assert npz["duplicates"] == left[vec]["duplicates"] == 0

    @pytest.mark.parametrize("previous", [None, b"1 1\nold 1\n"])
    def test_failed_write_leaves_no_partial_file(self, files, tmp_path, capsys,
                                                 monkeypatch, previous):
        format_rows = gendebias.embeddings._format_rows
        blocks = itertools.count(1)

        def exhausted_on_second_block(block, readback=None):
            if next(blocks) == 2:
                raise MemoryError("Unable to allocate 1.25 MiB")
            return format_rows(block, readback)

        monkeypatch.setattr(gendebias.embeddings, "_FORMAT_BLOCK", 1000)
        monkeypatch.setattr(gendebias.embeddings, "_format_rows",
                            exhausted_on_second_block)
        out = tmp_path / "m"
        if previous is not None:
            out.mkdir()
            (out / "source.vec").write_bytes(previous)
        code = main(["mitigate", "--method", "shift_ori",
                     "--embeddings", str(files["src"]), "--lexicon", str(files["lex"]),
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.splitlines()[-1] == "error: out of memory: Unable to allocate 1.25 MiB"
        assert "Traceback" not in err
        if previous is None:
            assert list(out.iterdir()) == []
        else:
            assert [p.name for p in out.iterdir()] == ["source.vec"]
            assert (out / "source.vec").read_bytes() == previous

    @pytest.mark.parametrize("damage", [
        "edited input", "other max-words", "truncated", "garbage", "foreign",
        "object array", "plain npy", "float32 matrix", "row count",
        "non-finite row", "negative duplicates", "rows not unit length",
        "version 1 raw matrix", "link", "dangling link"])
    def test_damaged_or_stale_sidecar_is_a_miss(self, files, tmp_path, capsys,
                                                parses, damage):
        src, sidecar = files["src"], self.sidecar(files["src"])
        argv = ["eval-similarity", "--embeddings", str(src),
                "--dataset", str(files["sim"])]
        self.run(argv + ["--out", str(tmp_path / "first.json")], capsys)
        with np.load(sidecar) as npz:
            good = {k: npz[k] for k in npz.files}
        damaged = None   # the members of a sidecar with the right key
        if damage == "edited input":
            lines = src.read_text(encoding="utf-8").split("\n")
            word, *values = lines[1].split(" ")
            lines[1] = " ".join([word, "0.5", *values[1:]])
            src.write_text("\n".join(lines), encoding="utf-8")
        elif damage == "other max-words":
            argv += ["--max-words", "400"]
        elif damage == "truncated":
            sidecar.write_bytes(sidecar.read_bytes()[:1000])
        elif damage == "garbage":
            sidecar.write_bytes(b"not a sidecar\n")
        elif damage == "foreign":
            np.savez(sidecar, something=np.arange(3))
        elif damage in ("link", "dangling link"):
            # a sidecar is the tool's own cache: a link there is replaced
            (tmp_path / "elsewhere").write_bytes(b"not a sidecar\n")
            sidecar.unlink()
            sidecar.symlink_to(tmp_path / ("elsewhere" if damage == "link" else "nowhere"))
        elif damage == "object array":
            damaged = {**good, "words": np.array([_Trap()], dtype=object)}
        elif damage == "plain npy":
            with sidecar.open("wb") as fh:
                np.save(fh, good["matrix"])
        elif damage == "float32 matrix":
            damaged = {**good, "matrix": good["matrix"].astype(np.float32)}
        elif damage == "row count":
            damaged = {**good, "matrix": good["matrix"][:-1]}
        elif damage == "non-finite row":
            damaged = {**good, "matrix": good["matrix"].copy()}
            damaged["matrix"][3, 0] = np.nan
        elif damage == "rows not unit length":
            damaged = {**good, "matrix": good["matrix"] * 2.0}
        elif damage == "version 1 raw matrix":
            # what the first sidecar format held: the parse, not normalized
            key = good["key"].item().replace("gendebias-vec/2 ", "gendebias-vec/1 ")
            damaged = {**good, "key": np.array(key),
                       "matrix": load_text_embeddings(src).matrix}
        else:
            damaged = {**good, "duplicates": np.array(-1, dtype=np.int64)}
        if damaged is not None:
            with sidecar.open("wb") as fh:
                np.savez(fh, **damaged)
        del parses[:]
        _UNPICKLED.clear()
        out = tmp_path / "again.json"
        self.run(argv + ["--out", str(out)], capsys)
        assert parses == [src.name]
        assert _UNPICKLED == []
        # rewritten, and what a hit now reads is the parse
        max_words = 400 if damage == "other max-words" else None
        want = unit_normalize(load_text_embeddings(src, max_words=max_words))
        assert not sidecar.is_symlink()
        if damage in ("link", "dangling link"):
            assert (tmp_path / "elsewhere").read_bytes() == b"not a sidecar\n"
        with np.load(sidecar, allow_pickle=False) as npz:
            assert npz["matrix"].tobytes() == want.matrix.tobytes()
            if damage not in ("edited input", "other max-words"):
                assert npz["key"] == good["key"]
        got = gendebias.cli._load_space(
            argparse.Namespace(max_words=max_words, digests={}), src)
        assert parses == [src.name]
        assert got.matrix.tobytes() == want.matrix.tobytes()
        if damage not in ("edited input", "other max-words"):
            assert out.read_bytes() == (tmp_path / "first.json").read_bytes()

    @pytest.mark.parametrize("failing", ["create", "fill"])
    def test_unwritable_directory_writes_no_sidecar(self, files, tmp_path, capsys,
                                                    caplog, monkeypatch, failing):
        def refuse(*args, **kwargs):
            raise PermissionError(13, "Permission denied", str(files["src"].parent))

        def refuse_create(file, mode="r", *args, **kwargs):
            if "x" in mode:
                refuse()
            return open(file, mode, *args, **kwargs)

        # root writes into a read-only directory anyway, so the refusal is
        # also injected where the sidecar is created or filled
        files["src"].parent.chmod(0o555)
        if failing == "create":
            monkeypatch.setattr(gendebias.cli, "open", refuse_create, raising=False)
        else:
            monkeypatch.setattr(gendebias.cli, "_savez", refuse)
        try:
            with caplog.at_level(logging.DEBUG, logger="gendebias.cli"):
                self.run(["eval-similarity", "--embeddings", str(files["src"]),
                          "--dataset", str(files["sim"]),
                          "--out", str(tmp_path / "s.json")], capsys)
        finally:
            files["src"].parent.chmod(0o755)
        assert sorted(p.name for p in files["src"].parent.iterdir()) == sorted(
            p.name for p in files.values())
        assert any(r.levelno == logging.DEBUG and "sidecar not written" in r.message
                   for r in caplog.records)
        assert "sidecar" not in capsys.readouterr().err

    def test_input_changed_during_parse_writes_no_sidecar(self, files, tmp_path,
                                                          capsys, monkeypatch):
        parse = gendebias.cli._read_text_embeddings

        def parse_then_touch(path, *args, **kwargs):
            result = parse(path, *args, **kwargs)
            st = os.stat(path)
            os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
            return result

        monkeypatch.setattr(gendebias.cli, "_read_text_embeddings", parse_then_touch)
        self.run(["eval-similarity", "--embeddings", str(files["src"]),
                  "--dataset", str(files["sim"]),
                  "--out", str(tmp_path / "s.json")], capsys)
        assert not self.sidecar(files["src"]).exists()

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_is_parsed_as_given(self, files, tmp_path, capsys, lookups):
        # what `--embeddings <(zcat es.vec.gz)` passes: a pipe that can be
        # read only once, so it is parsed without hashing it first
        read_end, write_end = os.pipe()
        data = files["src"].read_bytes()

        def feed():
            with open(write_end, "wb") as fh:
                fh.write(data)

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        try:
            self.run(["eval-similarity", "--embeddings", f"/dev/fd/{read_end}",
                      "--dataset", str(files["sim"]),
                      "--out", str(tmp_path / "pipe.json")], capsys)
        finally:
            os.close(read_end)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert lookups == []
        self.run(["eval-similarity", "--embeddings", str(files["src"]),
                  "--dataset", str(files["sim"]),
                  "--out", str(tmp_path / "file.json")], capsys)
        out = {name: json.loads((tmp_path / name).read_text(encoding="utf-8"))
               for name in ("pipe.json", "file.json")}
        assert out["pipe.json"]["report"]["metrics"] == out["file.json"]["report"]["metrics"]
        # the loader drained the pipe, so there are no bytes left to digest
        assert out["pipe.json"]["config"]["input_digests"]["embeddings"] is None
        assert out["file.json"]["config"]["input_digests"]["embeddings"] == \
            hashlib.sha256(data).hexdigest()

    def test_duplicate_warning_repeated_on_a_hit(self, files, tmp_path, capsys,
                                                 caplog, parses):
        lines = files["src"].read_text(encoding="utf-8").split("\n")
        lines.insert(3, lines[1])
        files["src"].write_text("\n".join(lines), encoding="utf-8")
        logged = []
        for name in ("cold", "warm"):
            caplog.clear()
            self.run(["eval-similarity", "--embeddings", str(files["src"]),
                      "--dataset", str(files["sim"]),
                      "--out", str(tmp_path / f"{name}.json")], capsys)
            logged.append([(r.name, r.levelno, r.getMessage()) for r in caplog.records
                           if r.levelno >= logging.WARNING])
        assert parses == [files["src"].name]
        assert logged[0] == logged[1] == [
            ("gendebias.embeddings", logging.WARNING,
             f"{files['src']}: skipped 1 duplicate words (kept first occurrence)")]

    def test_each_input_hashed_once(self, files, tmp_path, capsys, monkeypatch):
        hashed = collections.Counter()
        sha256 = gendebias.cli._sha256

        def counted(path):
            hashed[Path(path)] += 1
            return sha256(path)

        monkeypatch.setattr(gendebias.cli, "_sha256", counted)
        (tmp_path / "out").mkdir()
        for argv in self.steps(files, tmp_path / "out"):
            hashed.clear()
            self.run(argv, capsys)
            flags = dict(zip(argv, argv[1:]))
            inputs = {Path(flags[f]) for f in ("--embeddings", "--embeddings-en",
                                               "--lexicon", "--lexicon-en",
                                               "--dict", "--seed-dict") if f in flags}
            if argv[0] == "mitigate":   # and each .vec it writes, for its sidecar
                inputs |= {Path(flags["--out"]) / f for f in ("source.vec", "english.vec")}
            assert hashed == {path: 1 for path in inputs}, argv[0]
        hashed.clear()
        word = files["src"].read_text(encoding="utf-8").split("\n")[1].split(" ")[0]
        identity = tmp_path / "identity.tsv"
        identity.write_text(f"{word}\t{word}\n", encoding="utf-8")
        same = str(files["src"])
        self.run(["eval-translation", "--embeddings", same, "--embeddings-en", same,
                  "--dict", str(identity), "--out", str(tmp_path / "t.json")], capsys)
        assert hashed == {files["src"]: 1, identity: 1}


# One edit of a file's bytes: (kind, where as a fraction of the span edited,
# bytes removed, bytes put in).
_BYTE_EDITS = st.tuples(
    st.sampled_from(["replace", "delete", "insert", "truncate"]),
    st.floats(0.0, 1.0, exclude_max=True),
    st.integers(1, 8),
    st.one_of(st.binary(min_size=1, max_size=6),
              st.sampled_from([b"\xff", b"\xc3", b"\n", b" ", b"  ", b"0", b"-",
                               b"9", b"e999", b"nan", b"\x00", b"PK\x03\x04"])))


def _edit(blob: bytes, lo: int, hi: int, edit) -> bytes:
    """``blob`` with one edit placed in ``blob[lo:hi]``."""
    kind, where, size, data = edit
    at = lo + int(where * (hi - lo))
    if kind == "replace":
        return blob[:at] + data + blob[at + len(data):]
    if kind == "delete":
        return blob[:at] + blob[at + size:]
    if kind == "insert":
        return blob[:at] + data + blob[at:]
    return blob[:at]


class TestMutatedVec:
    """Damaged .vec and sidecar bytes end in a documented exit code and an
    ``error:`` line, never a traceback; a damaged sidecar never changes a
    result."""

    @pytest.fixture(scope="class")
    def clean(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("mutated")
        rng = np.random.default_rng(3)
        words = ["ñandú", "casa", "árbol", "perro", "gato", "sol", "luna", "mar",
                 "río", "pan", "té", "flor"]
        vec = root / "s.vec"
        save_text_embeddings(EmbeddingSpace(words, rng.standard_normal((12, 4))), vec)
        dataset = root / "sim.tsv"
        dataset.write_text("".join(f"{a}\t{b}\t{i + 1}.5\n" for i, (a, b) in
                                   enumerate(zip(words[::2], words[1::2]))),
                           encoding="utf-8")
        out = root / "clean.json"
        assert main(self.argv(vec, dataset, out)) == 0
        sidecar = vec.with_name(vec.name + ".gdcache.npz")
        return {"vec": vec.read_bytes(), "sidecar": sidecar.read_bytes(),
                "dataset": dataset, "out": out.read_bytes()}

    @staticmethod
    def argv(vec, dataset, out):
        return ["eval-similarity", "--embeddings", str(vec), "--dataset", str(dataset),
                "--out", str(out)]

    @settings(max_examples=200, deadline=None)
    @given(target=st.sampled_from(["header", "body", "sidecar"]), edit=_BYTE_EDITS)
    def test_mutation_exits_with_an_error_line(self, clean, target, edit):
        vec_bytes, sidecar_bytes = clean["vec"], clean["sidecar"]
        header = vec_bytes.index(b"\n") + 1
        if target == "header":
            vec_bytes = _edit(vec_bytes, 0, header, edit)
        elif target == "body":
            vec_bytes = _edit(vec_bytes, header, len(vec_bytes), edit)
        else:
            sidecar_bytes = _edit(sidecar_bytes, 0, len(sidecar_bytes), edit)
        with tempfile.TemporaryDirectory() as tmp:
            vec, out = Path(tmp) / "s.vec", Path(tmp) / "out.json"
            vec.write_bytes(vec_bytes)
            # stale after a .vec edit, damaged after a sidecar edit
            vec.with_name(vec.name + ".gdcache.npz").write_bytes(sidecar_bytes)
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = main(self.argv(vec, clean["dataset"], out))
            err = stderr.getvalue()
            assert code in (0, 1, 2)
            assert "Traceback" not in err
            if code:
                assert err.splitlines()[-1].startswith("error:"), err
            if target == "sidecar":
                assert code == 0, err
                assert out.read_bytes() == clean["out"]


# A small JSON value of any type.
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=2)),
    max_leaves=4)

# (field, kind, entry index, value): see _edit_lexicon.
_LEXICON_EDITS = st.tuples(
    st.sampled_from(sorted(FIELDS) + ["unknown_field"]),
    st.sampled_from(["drop", "replace", "entry", "append", "grow", "shrink"]),
    st.integers(0, 1000), _JSON_VALUES)

# (kind, line index, field index, bytes): see _edit_lines.
_LINE_EDITS = st.tuples(
    st.sampled_from(["replace", "insert", "delete", "field"]),
    st.integers(0, 1000), st.integers(0, 3),
    st.one_of(st.text(max_size=6).map(str.encode),
              st.sampled_from([b"", b"nan", b"inf", b"-1e999", b"1_0", b"\t", b" ",
                               b"\r", b"\xff", b"\xef\xbb\xbf"])))


def _edit_lexicon(lexicon: dict, edit) -> dict:
    """A copy of the JSON object ``lexicon`` with one field dropped or
    replaced by ``value``, or one of its entries replaced, appended, given
    one more word or one fewer."""
    field, kind, i, value = edit
    lexicon = json.loads(json.dumps(lexicon))
    entries = lexicon.get(field)
    if kind == "drop":
        lexicon.pop(field, None)
    elif kind == "replace" or not entries:
        lexicon[field] = value
    elif kind == "append":
        entries.append(value)
    else:
        i %= len(entries)
        entry = entries[i]
        if kind == "entry":
            entries[i] = value
        elif kind == "grow":    # a pair becomes a triple, a word a list
            entries[i] = entry + entry[-1:] if isinstance(entry, list) else [entry] * 2
        else:                   # one word fewer, or a word one letter shorter
            entries[i] = entry[:-1]
    return lexicon


def _edit_lines(blob: bytes, edit) -> bytes:
    """``blob`` with one line replaced by ``data``, ``data`` inserted as a
    line, one line deleted, or one TAB-separated field of a line replaced
    by ``data`` (or ``data`` appended as a field)."""
    kind, i, j, data = edit
    lines = blob.split(b"\n")
    i %= len(lines)
    if kind == "replace":
        lines[i] = data
    elif kind == "insert":
        lines.insert(i, data)
    elif kind == "delete":
        del lines[i]
    else:
        fields = lines[i].split(b"\t")
        j %= len(fields) + 1
        fields[j:j + 1] = [data]
        lines[i] = b"\t".join(fields)
    return b"\n".join(lines)


class TestMutatedTextInputs:
    """Damaged lexicon, dictionary and similarity inputs end in a documented
    exit code and an ``error:`` line, never a traceback, and leave no result
    file behind."""

    @staticmethod
    def argv(step, files, mutated, out):
        vec = ["--embeddings", str(files["src"])]
        pair = vec + ["--embeddings-en", str(files["en"])]
        return {
            "audit": ["audit", *vec, "--lexicon", str(mutated), "--n-perm", "100"],
            "directions": ["directions", *vec, "--lexicon", str(mutated)],
            "eval-pairs": ["eval-pairs", *pair, "--lexicon", str(mutated)],
            "eval-translation": ["eval-translation", *pair, "--dict", str(mutated)],
            "eval-similarity": ["eval-similarity", *vec, "--dataset", str(mutated)],
        }[step] + ["--out", str(out / "result.json")]

    def check(self, files, step, data: bytes):
        with tempfile.TemporaryDirectory() as tmp:
            mutated, out = Path(tmp) / "input", Path(tmp) / "out"
            mutated.write_bytes(data)
            out.mkdir()
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = main(self.argv(step, files, mutated, out))
            err = stderr.getvalue()
            assert code in (0, 1, 2), err
            assert "Traceback" not in err
            left = sorted(p.name for p in out.iterdir())
            if code:
                assert err.splitlines()[-1].startswith("error:"), err
                assert left == []
            else:
                assert "result.json" in left

    @settings(max_examples=150, deadline=None)
    @given(step=st.sampled_from(["audit", "directions", "eval-pairs"]),
           edit=_LEXICON_EDITS)
    def test_lexicon_mutation_exits_with_an_error_line(self, cli_files, step, edit):
        lexicon = json.loads(cli_files["lex"].read_text(encoding="utf-8"))
        self.check(cli_files, step, json.dumps(_edit_lexicon(lexicon, edit)).encode())

    @settings(max_examples=150, deadline=None)
    @given(step=st.sampled_from(["eval-translation", "eval-similarity"]),
           edit=_LINE_EDITS)
    def test_line_mutation_exits_with_an_error_line(self, cli_files, step, edit):
        clean = cli_files["seed" if step == "eval-translation" else "sim"]
        self.check(cli_files, step, _edit_lines(clean.read_bytes(), edit))
