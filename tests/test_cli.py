import json
import re

import numpy as np
import pytest

import gendebias.cli
from gendebias import (EnglishDebiasConfig, GenderLexicon, lexicon_to_json_dict,
                       save_text_embeddings)
from gendebias.cli import main

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

    def test_bilingual_requires_english_lexicon(self, cli_files, tmp_path,
                                                capsys):
        code = main(["directions", "--embeddings", str(cli_files["src"]),
                     "--embeddings-en", str(cli_files["en"]),
                     "--lexicon", str(cli_files["lex"]),
                     "--out", str(tmp_path / "d.json")])
        assert code == 1
        assert "--lexicon-en" in capsys.readouterr().err


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
