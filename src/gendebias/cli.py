"""Command-line interface.

Subcommands: directions, audit, mitigate, eval-similarity, eval-translation,
eval-pairs, export-projections, correlate.  Every output file embeds a
config block (seed, n_perm, max_words, tool version, input digests) and
reruns with an identical config are byte-identical.  Each subcommand
accepts only the flags it reads; any other flag is a usage error.

Exit codes: 0 success, 1 validation or usage error (and out of memory,
reported as ``error: out of memory: ...``), 2 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import logging
import sys
from pathlib import Path

from . import __version__
from .directions import (DEFAULT_RIDGE, bilingual_directions, build_directions)
from .embeddings import BilingualSpace, load_text_embeddings, save_text_embeddings, unit_normalize
from .evaluation import (export_projections, pair_translation_eval,
                         word_similarity_eval, word_translation_eval,
                         write_projections_csv, write_translation_csv)
from .lexicon import (build_analogy_queries, coverage_filter,
                      load_bilingual_dictionary, load_lexicon,
                      load_similarity_dataset)
from .metrics import audit_bias, bias_correlation, mweat_pair, weat_assoc
from .mitigation import (METHODS, EnglishDebiasConfig, MitigationOutcome,
                         mitigate_de_align, mitigate_hybrid, mitigate_shift_en,
                         mitigate_shift_ori)

logger = logging.getLogger(__name__)

_BILINGUAL_METHODS = ("shift_en", "de_align", "hybrid_ori", "hybrid_en")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this tool reserves 2 for I/O."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _config_block(args) -> dict:
    inputs = {}
    for name in ("embeddings", "embeddings_en", "lexicon", "lexicon_en",
                 "dict", "seed_dict", "dataset"):
        path = getattr(args, name, None)
        if path is not None:
            inputs[name.replace("_", "-")] = _sha256(path)
    block = {
        "subcommand": args.command,
        "tool_version": __version__,
        "seed": getattr(args, "seed", None),
        "n_perm": getattr(args, "n_perm", None),
        "max_words": getattr(args, "max_words", None),
        "input_digests": inputs,
    }
    for extra in ("method", "csls", "signed", "ridge"):
        if hasattr(args, extra):
            block[extra] = getattr(args, extra)
    return block


def _digest_of(config: dict) -> str:
    raw = json.dumps(config, sort_keys=True).encode("utf-8")
    return hashlib.sha256(raw).hexdigest()[:16]


def _write_json(path, payload: dict) -> None:
    Path(path).write_text(
        json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n",
        encoding="utf-8")


def _load_space(path, max_words):
    return unit_normalize(load_text_embeddings(path, max_words=max_words))


def _load_lexicon_for(space, path):
    lex = load_lexicon(path)
    filtered, report = coverage_filter(lex, space)
    if report:
        logger.info("%s: %d entries not covered by the space", path,
                    report.total_dropped)
    return filtered


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            flag = "--" + name.replace("_", "-")
            raise ValueError(f"{flag} is required for this invocation")


def _directions_for(args, space, lex):
    """The direction bundle for `directions` and `export-projections`:
    pooled over both languages when --embeddings-en is given."""
    if args.embeddings_en is None:
        return build_directions(space, lex, ridge=args.ridge, seed=args.seed)
    _require(args, "lexicon_en")
    en_space = _load_space(args.embeddings_en, args.max_words)
    en_lex = load_lexicon(args.lexicon_en)
    return bilingual_directions(BilingualSpace(space, en_space), lex,
                                en_lex.definitional_pairs,
                                ridge=args.ridge, seed=args.seed)


# -- subcommand handlers -----------------------------------------------------


def cmd_directions(args):
    space = _load_space(args.embeddings, args.max_words)
    lex = _load_lexicon_for(space, args.lexicon)
    dirs = _directions_for(args, space, lex)
    config = _config_block(args)
    _write_json(args.out, {"config": config, "directions": dirs.to_json_dict()})
    print(f"wrote {args.out}: overlap={dirs.overlap:+.4f} "
          f"explained={dirs.pca_explained_ratio:.4f} "
          f"lda_cv={dirs.lda_cv_accuracy if dirs.lda_cv_accuracy is not None else 'n/a'}")


def cmd_audit(args):
    space = _load_space(args.embeddings, args.max_words)
    lex = _load_lexicon_for(space, args.lexicon)
    report = audit_bias(lex, space, n_perm=args.n_perm, seed=args.seed)
    scores = {f"{p.word_m}/{p.word_f}": (p.b_signed if args.signed else p.b_unsigned)
              for p in report.pairs}
    config = _config_block(args)
    _write_json(args.out, {"config": config, "report": report.to_json_dict(),
                           "scores": scores})
    print(f"wrote {args.out}: statistic={report.statistic:.4f} "
          f"p={report.p_value:.4f} (n_perm={report.n_permutations})")


def cmd_mitigate(args):
    space = _load_space(args.embeddings, args.max_words)
    lex = _load_lexicon_for(space, args.lexicon)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = _config_block(args)
    extra: dict = {}

    if args.method == "shift_ori":
        dirs = build_directions(space, lex, ridge=args.ridge, seed=args.seed)
        outcome = mitigate_shift_ori(space, lex, dirs)
    else:
        _require(args, "embeddings_en", "lexicon_en")
        en_space = _load_space(args.embeddings_en, args.max_words)
        en_lex = load_lexicon(args.lexicon_en)
        en_lex_cov, _ = coverage_filter(en_lex, en_space)
        en_config = EnglishDebiasConfig.from_lexicon(en_lex_cov)
        seed_dict = (load_bilingual_dictionary(args.seed_dict)
                     if args.seed_dict is not None else None)
        if args.method == "shift_en":
            bi = BilingualSpace(space, en_space)
            dirs = bilingual_directions(bi, lex, en_lex_cov.definitional_pairs,
                                        ridge=args.ridge, seed=args.seed)
            outcome = mitigate_shift_en(bi, lex, dirs)
        elif args.method == "de_align":
            outcome = MitigationOutcome(
                method=args.method,
                space=mitigate_de_align(space, en_space, seed_dict, en_config),
                residual={}, words_touched=0, anchors_used={})
            extra["seed_pairs"] = (seed_dict.n_pairs if seed_dict is not None
                                   else "identity")
        else:
            variant = args.method.split("_", 1)[1]
            outcome = mitigate_hybrid(space, en_space, lex, variant, seed_dict,
                                      en_config, ridge=args.ridge, seed=args.seed)

    save_text_embeddings(outcome.source_space, out_dir / "source.vec")
    if isinstance(outcome.space, BilingualSpace):
        save_text_embeddings(outcome.space.target, out_dir / "english.vec")
    payload = {**outcome.to_json_dict(), **extra}
    _write_json(out_dir / "outcome.json", {"config": config, "outcome": payload})
    dirs = outcome.directions
    if dirs is not None:
        _write_json(out_dir / "directions.json",
                    {"config": config, "directions": dirs.to_json_dict()})
    print(f"wrote {out_dir}/: method={args.method} "
          f"words_touched={payload['words_touched']} "
          f"max_residual={payload['max_residual']:.3e}")


def cmd_eval_similarity(args):
    space = _load_space(args.embeddings, args.max_words)
    dataset = load_similarity_dataset(args.dataset)
    report = word_similarity_eval(space, dataset)
    config = _config_block(args)
    report = dataclasses.replace(report, config_digest=_digest_of(config))
    _write_json(args.out, {"config": config, "report": report.to_json_dict()})
    print(f"wrote {args.out}: pearson_r={report.metrics['pearson_r']:.4f} "
          f"coverage={report.coverage:.3f}")


def cmd_eval_translation(args):
    space = _load_space(args.embeddings, args.max_words)
    en_space = _load_space(args.embeddings_en, args.max_words)
    dictionary = load_bilingual_dictionary(args.dict)
    report = word_translation_eval(BilingualSpace(space, en_space), dictionary,
                                   ks=(1, 5), csls=args.csls)
    config = _config_block(args)
    report = dataclasses.replace(report, config_digest=_digest_of(config))
    _write_json(args.out, {"config": config, "report": report.to_json_dict()})
    details_path = str(args.out) + ".details.csv"
    write_translation_csv(report.details, details_path,
                          meta=f"config_digest={report.config_digest}")
    print(f"wrote {args.out}: p_at_1={report.metrics['p_at_1']:.1f} "
          f"p_at_5={report.metrics['p_at_5']:.1f} coverage={report.coverage:.3f}")


def cmd_eval_pairs(args):
    space = _load_space(args.embeddings, args.max_words)
    en_space = _load_space(args.embeddings_en, args.max_words)
    lex = _load_lexicon_for(space, args.lexicon)
    annotated = [p for p in lex.occupation_pairs if p.english is not None]
    if not annotated:
        raise ValueError("no English-annotated occupation pairs in the lexicon")
    if not lex.adjective_pairs:
        raise ValueError("lexicon has no adjective_pairs to build analogy queries")
    queries = build_analogy_queries(annotated, lex.adjective_pairs)
    report = pair_translation_eval(BilingualSpace(space, en_space), queries,
                                   occupation_pairs=annotated)
    config = _config_block(args)
    report = dataclasses.replace(report, config_digest=_digest_of(config))
    _write_json(args.out, {"config": config, "report": report.to_json_dict()})
    parts = [f"{k}={v:.4f}" for k, v in sorted(report.metrics.items())
             if k != "n_queries"]
    print(f"wrote {args.out}: " + " ".join(parts))


def cmd_export_projections(args):
    space = _load_space(args.embeddings, args.max_words)
    lex = _load_lexicon_for(space, args.lexicon)
    dirs = _directions_for(args, space, lex)
    annotated = []
    for m, f in lex.definitional_pairs:
        annotated.append((m, "definitional_masculine"))
        annotated.append((f, "definitional_feminine"))
    for p in lex.occupation_pairs:
        annotated.append((p.masculine, "occupation_masculine"))
        annotated.append((p.feminine, "occupation_feminine"))
    for w in lex.inanimate_nouns:
        annotated.append((w, "inanimate"))
    for w in lex.attributes_male:
        annotated.append((w, "attribute_masculine"))
    for w in lex.attributes_female:
        annotated.append((w, "attribute_feminine"))
    rows, skipped = export_projections(space, annotated, dirs)
    config = _config_block(args)
    write_projections_csv(rows, args.out, meta=f"config_digest={_digest_of(config)}")
    print(f"wrote {args.out}: {len(rows)} rows ({len(skipped)} skipped)")


def cmd_correlate(args):
    space = _load_space(args.embeddings, args.max_words)
    lex = _load_lexicon_for(space, args.lexicon)
    en_space = _load_space(args.embeddings_en, args.max_words)
    en_lex_raw = load_lexicon(args.lexicon_en)
    en_lex, _ = coverage_filter(en_lex_raw, en_space)
    if not en_lex.attributes_male or not en_lex.attributes_female:
        raise ValueError("English lexicon needs both attribute sets for "
                         "correlation")
    src_scores: dict[str, float] = {}
    en_scores: dict[str, float] = {}
    for pair in lex.occupation_pairs:
        if pair.english is None or pair.english not in en_space:
            continue
        key = f"{pair.masculine}/{pair.feminine}"
        src_scores[key] = mweat_pair(pair.masculine, pair.feminine,
                                     lex.attributes_male, lex.attributes_female,
                                     space, signed=args.signed)
        s_en = weat_assoc(pair.english, en_lex.attributes_male,
                          en_lex.attributes_female, en_space)
        en_scores[key] = s_en if args.signed else abs(s_en)
    rho, p = bias_correlation(src_scores, en_scores)
    config = _config_block(args)
    _write_json(args.out, {"config": config,
                           "correlation": {"spearman_rho": rho, "p_value": p,
                                           "n": len(src_scores)},
                           "scores_source": src_scores,
                           "scores_english": en_scores})
    print(f"wrote {args.out}: spearman_rho={rho:+.4f} p={p:.4g} n={len(src_scores)}")


# -- parser wiring -----------------------------------------------------------


# Every flag the CLI knows; each subcommand declares the subset it reads.
_FLAGS = {
    "embeddings": dict(help="gendered-language embeddings (text format)"),
    "embeddings-en": dict(help="English embeddings (text format)"),
    "lexicon": dict(help="gendered-language lexicon JSON"),
    "lexicon-en": dict(help="English lexicon JSON (definitional pairs/attributes)"),
    "dict": dict(help="evaluation dictionary (source TAB target)"),
    "seed-dict": dict(help="alignment seed dictionary (source TAB target)"),
    "dataset": dict(help="similarity dataset (word1 TAB word2 TAB score)"),
    "method": dict(choices=METHODS, help="mitigation pipeline"),
    "n-perm": dict(type=int, default=10_000,
                   help="permutation count (default 10000)"),
    "seed": dict(type=int, default=0, help="RNG seed (default 0)"),
    "max-words": dict(type=int, default=None,
                      help="load only the first N words of each space"),
    "csls": dict(action="store_true",
                 help="neighborhood-adjusted retrieval scores"),
    "signed": dict(action="store_true", help="use signed per-pair scores"),
    "ridge": dict(type=float, default=DEFAULT_RIDGE,
                  help=f"LDA ridge coefficient (default {DEFAULT_RIDGE})"),
    "out": dict(help="output path (directory for mitigate)"),
}

# subcommand -> (handler, help, required flags, optional flags)
_SUBCOMMANDS = {
    "directions": (cmd_directions,
                   "compute grammatical/semantic gender directions",
                   ("embeddings", "lexicon", "out"),
                   ("embeddings-en", "lexicon-en", "seed", "max-words", "ridge")),
    "audit": (cmd_audit, "score occupation pairs and test significance",
              ("embeddings", "lexicon", "out"),
              ("n-perm", "seed", "max-words", "signed")),
    "mitigate": (cmd_mitigate, "run a mitigation pipeline",
                 ("embeddings", "lexicon", "method", "out"),
                 ("embeddings-en", "lexicon-en", "seed-dict", "seed",
                  "max-words", "ridge")),
    "eval-similarity": (cmd_eval_similarity,
                        "word similarity benchmark (Pearson r)",
                        ("embeddings", "dataset", "out"), ("max-words",)),
    "eval-translation": (cmd_eval_translation, "word translation precision@k",
                         ("embeddings", "embeddings-en", "dict", "out"),
                         ("max-words", "csls")),
    "eval-pairs": (cmd_eval_pairs,
                   "gendered translation-by-analogy (MRR per gender)",
                   ("embeddings", "embeddings-en", "lexicon", "out"),
                   ("max-words",)),
    "export-projections": (cmd_export_projections,
                           "CSV of per-word projections onto both directions",
                           ("embeddings", "lexicon", "out"),
                           ("embeddings-en", "lexicon-en", "seed", "max-words",
                            "ridge")),
    "correlate": (cmd_correlate,
                  "cross-language correlation of per-occupation bias scores",
                  ("embeddings", "embeddings-en", "lexicon", "lexicon-en", "out"),
                  ("max-words", "signed")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gendebias",
                     description="Audit and mitigate gender bias in word "
                                 "embeddings of gendered languages.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (func, help_text, required, optional) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        for flag in required:
            p.add_argument("--" + flag, required=True, **_FLAGS[flag])
        for flag in optional:
            p.add_argument("--" + flag, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code is not None else 0
    if not logging.getLogger().handlers:
        logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                            format="%(levelname)s %(name)s: %(message)s")
    try:
        args.func(args)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as e:
        message = e.args[0] if e.args else e
        print(f"error: {message}", file=sys.stderr)
        return 1
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
