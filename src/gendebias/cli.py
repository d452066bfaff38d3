"""Command-line interface.

Subcommands: directions, audit, mitigate, eval-similarity, eval-translation,
eval-pairs, export-projections, correlate.  Every output file embeds a
config block (seed, n_perm, max_words, tool version, input digests) and
reruns with an identical config are byte-identical.  Each subcommand
accepts only the flags it reads; any other flag is a usage error.

Exit codes: 0 success, 1 validation or usage error (and out of memory,
reported as ``error: out of memory: ...``), 2 I/O error.

Each ``.vec`` input is parsed once per content: after a parse the CLI
writes a sidecar ``<input>.gdcache.npz`` beside it, holding the words, the
unit-normalized float64 matrix the CLI works on and the duplicate count,
keyed by a cache-format version, the input's sha256 and ``--max-words``.  A
later run whose key matches reads the sidecar instead of the text and
checks its rows' unit norms, the check a normalized space makes anyway; any
other sidecar (stale, foreign, unreadable, not unit-norm, or a version-1
sidecar, which held the raw matrix) is ignored and rewritten once.
Sidecars are never required, never change an output, exit code or message,
and are safe to delete.  An input that is not a regular file (a pipe) is
parsed as given.  ``mitigate`` writes a sidecar beside each ``.vec`` it
writes, the one a later miss without ``--max-words`` would build, so the
next step reads that file without a parse.

Result files go to a temporary file beside their target and are then
renamed into place, so a failed step leaves no partial file.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import logging
import os
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

from . import __version__
from .directions import (DEFAULT_RIDGE, bilingual_directions, build_directions)
from .embeddings import (BilingualSpace, EmbeddingSpace, _log_duplicates, _norms,
                         _read_text_embeddings, _unit_rows, _write_text,
                         load_text_embeddings, unit_normalize)
from .evaluation import (export_projections, pair_translation_eval,
                         word_similarity_eval, word_translation_eval,
                         write_projections_csv, write_translation_csv)
from .lexicon import (OccupationPair, build_analogy_queries, coverage_filter,
                      load_bilingual_dictionary, load_lexicon,
                      load_similarity_dataset)
from .metrics import audit_bias, bias_correlation, mweat_pair, weat_assoc
from .mitigation import (METHODS, EnglishDebiasConfig, MitigationOutcome,
                         mitigate_de_align, mitigate_hybrid, mitigate_shift_en,
                         mitigate_shift_ori)

logger = logging.getLogger(__name__)

_BILINGUAL_METHODS = ("shift_en", "de_align", "hybrid_ori", "hybrid_en")

# A parsed .vec is kept, unit-normalized, in <input>.gdcache.npz.  Bump
# _CACHE_VERSION whenever the space _load_space returns for some file would
# change, so that sidecars written before stop matching.  Version 1 held the
# raw parsed matrix.
_CACHE_SUFFIX = ".gdcache.npz"
_CACHE_VERSION = 2


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


def _digest(args, path) -> str | None:
    """sha256 of an input file, read once per invocation; None for an input
    that is not a regular file (a pipe), whose bytes the loader has used up."""
    key = Path(path)
    if key not in args.digests:
        args.digests[key] = _sha256(path) if key.is_file() else None
    return args.digests[key]


def _config_block(args) -> dict:
    inputs = {}
    for name in ("embeddings", "embeddings_en", "lexicon", "lexicon_en",
                 "dict", "seed_dict", "dataset"):
        path = getattr(args, name, None)
        if path is not None:
            inputs[name.replace("_", "-")] = _digest(args, path)
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


@contextmanager
def _temp_beside(target: Path, suffix: str = ""):
    """A temporary path beside ``target`` (whose name ends in ``suffix``) for
    the block to write, moved onto ``target`` when the block succeeds and
    removed otherwise, so a reader sees the old file or the whole new one."""
    stem = target.name.removesuffix(suffix)
    tmp = target.with_name(f"{stem}.tmp-{os.urandom(4).hex()}{suffix}")
    try:
        yield tmp
        os.replace(tmp, target)
    finally:
        tmp.unlink(missing_ok=True)


def _replacing(target: Path):
    """_temp_beside for a result file; a target that is a link or a
    non-regular file (/dev/stdout, a pipe) is written as given."""
    if target.is_symlink() or target.exists() and not target.is_file():
        return nullcontext(target)
    return _temp_beside(target)


def _write_json(path, payload: dict) -> None:
    # NaN and infinities are not JSON: refuse them rather than write them
    text = json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False,
                      allow_nan=False) + "\n"
    with _replacing(Path(path)) as tmp:
        tmp.write_text(text, encoding="utf-8")


def _cache_key(digest: str | None, max_words: int | None) -> str:
    return f"gendebias-vec/{_CACHE_VERSION} {digest} {max_words}"


def _load_space(args, path):
    """The unit-normalized space in ``path``: read from the sidecar that
    matches the file's bytes and ``--max-words``, else parsed."""
    path = Path(path)
    if not path.is_file():  # missing, or a pipe that cannot be read twice
        return unit_normalize(load_text_embeddings(path, max_words=args.max_words))
    before = path.stat()
    key = _cache_key(_digest(args, path), args.max_words)
    sidecar = path.with_name(path.name + _CACHE_SUFFIX)
    cached = _read_sidecar(sidecar, key)
    if cached is None:
        space, duplicates = _read_text_embeddings(path, args.max_words)
        space = unit_normalize(space)
        _write_sidecar(path, before, sidecar, key, space, duplicates)
    else:
        space, duplicates = cached
    _log_duplicates(path, duplicates)
    return space


def _read_sidecar(sidecar: Path, key: str):
    """(unit-normalized space, duplicate count) from a sidecar whose key is
    ``key``, else None.  Whatever is wrong with a sidecar (missing,
    unreadable, foreign, stale, invalid, rows not of unit norm) makes it a
    miss, since the parse is always right."""
    try:
        with np.load(sidecar, allow_pickle=False) as npz:
            if npz["key"].item() != key:
                return None
            words, matrix, duplicates = npz["words"], npz["matrix"], npz["duplicates"]
            if (words.dtype != np.uint8 or matrix.dtype != np.float64
                    or duplicates.dtype != np.int64 or duplicates.shape != ()
                    or duplicates < 0):
                return None
            words = bytes(words).decode("utf-8").split("\n")
            return EmbeddingSpace(words, matrix, normalized=True), int(duplicates)
    except Exception as e:
        logger.debug("%s: sidecar not used: %r", sidecar, e)
        return None


def _write_sidecar(path: Path, before, sidecar: Path, key: str, space,
                   duplicates: int) -> None:
    """Write ``sidecar`` unless ``path``'s size or mtime moved since
    ``before``.  It goes to a temporary file beside it and is then moved
    into place, so a reader sees the old sidecar or the whole new one.  An
    OSError skips the sidecar."""
    try:
        after = path.stat()
        if (after.st_size, after.st_mtime_ns) != (before.st_size, before.st_mtime_ns):
            return
        with _temp_beside(sidecar, _CACHE_SUFFIX) as tmp, open(tmp, "xb") as fh:
            words = "\n".join(space.words).encode("utf-8")
            np.savez(fh, key=np.array(key),
                     words=np.frombuffer(words, dtype=np.uint8),
                     matrix=space.matrix,
                     duplicates=np.array(duplicates, dtype=np.int64))
    except OSError as e:
        logger.debug("%s: sidecar not written: %s", sidecar, e)


def _save_space(space: EmbeddingSpace, path: Path) -> None:
    """Write ``space`` to ``path`` whole or not at all, then beside it the
    sidecar a later full read of ``path`` would write: the writer's read-back
    of the bytes it wrote, unit-normalized, keyed by the file's sha256, so
    that read is a hit."""
    readback = np.empty(space.matrix.shape)
    with _replacing(path) as tmp:
        _write_text(space, tmp, readback)
    before = path.stat()
    key = _cache_key(_sha256(path), None)
    unit = _unit_rows(space, readback, _norms(readback), out=readback)
    _write_sidecar(path, before, path.with_name(path.name + _CACHE_SUFFIX), key, unit, 0)


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            flag = "--" + name.replace("_", "-")
            raise ValueError(f"{flag} is required for this invocation")


def _english(args):
    """The English space and its covered lexicon."""
    _require(args, "embeddings_en", "lexicon_en")
    en_space = _load_space(args, args.embeddings_en)
    en_lex, _ = coverage_filter(load_lexicon(args.lexicon_en), en_space)
    return en_space, en_lex


def _directions_for(args, space, lex):
    """The direction bundle for `directions` and `export-projections`:
    pooled over both languages when --embeddings-en is given."""
    if args.embeddings_en is None:
        return build_directions(space, lex, ridge=args.ridge, seed=args.seed)
    en_space, en_lex = _english(args)
    return bilingual_directions(BilingualSpace(space, en_space), lex,
                                en_lex.definitional_pairs,
                                ridge=args.ridge, seed=args.seed)


# -- subcommand handlers -----------------------------------------------------


def cmd_directions(args):
    space = _load_space(args, args.embeddings)
    lex, _ = coverage_filter(load_lexicon(args.lexicon), space)
    dirs = _directions_for(args, space, lex)
    config = _config_block(args)
    _write_json(args.out, {"config": config, "directions": dirs.to_json_dict()})
    print(f"wrote {args.out}: overlap={dirs.overlap:+.4f} "
          f"explained={dirs.pca_explained_ratio:.4f} "
          f"lda_cv={dirs.lda_cv_accuracy if dirs.lda_cv_accuracy is not None else 'n/a'}")


def cmd_audit(args):
    space = _load_space(args, args.embeddings)
    lex, _ = coverage_filter(load_lexicon(args.lexicon), space)
    report = audit_bias(lex, space, n_perm=args.n_perm, seed=args.seed)
    scores = {f"{p.word_m}/{p.word_f}": (p.b_signed if args.signed else p.b_unsigned)
              for p in report.pairs}
    config = _config_block(args)
    _write_json(args.out, {"config": config, "report": report.to_json_dict(),
                           "scores": scores})
    print(f"wrote {args.out}: statistic={report.statistic:.4f} "
          f"p={report.p_value:.4f} (n_perm={report.n_permutations})")


def cmd_mitigate(args):
    space = _load_space(args, args.embeddings)
    lex, _ = coverage_filter(load_lexicon(args.lexicon), space)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = _config_block(args)
    extra: dict = {}

    if args.method == "shift_ori":
        dirs = build_directions(space, lex, ridge=args.ridge, seed=args.seed)
        outcome = mitigate_shift_ori(space, lex, dirs)
    else:
        en_space, en_lex = _english(args)
        en_config = EnglishDebiasConfig.from_lexicon(en_lex)
        seed_dict = (load_bilingual_dictionary(args.seed_dict)
                     if args.seed_dict is not None else None)
        if args.method == "shift_en":
            bi = BilingualSpace(space, en_space)
            dirs = bilingual_directions(bi, lex, en_lex.definitional_pairs,
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

    _save_space(outcome.source_space, out_dir / "source.vec")
    if isinstance(outcome.space, BilingualSpace):
        _save_space(outcome.space.target, out_dir / "english.vec")
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
    space = _load_space(args, args.embeddings)
    dataset = load_similarity_dataset(args.dataset)
    report = word_similarity_eval(space, dataset)
    config = _config_block(args)
    report = dataclasses.replace(report, config_digest=_digest_of(config))
    _write_json(args.out, {"config": config, "report": report.to_json_dict()})
    print(f"wrote {args.out}: pearson_r={report.metrics['pearson_r']:.4f} "
          f"coverage={report.coverage:.3f}")


def cmd_eval_translation(args):
    space = _load_space(args, args.embeddings)
    en_space = _load_space(args, args.embeddings_en)
    dictionary = load_bilingual_dictionary(args.dict)
    report = word_translation_eval(BilingualSpace(space, en_space), dictionary,
                                   ks=(1, 5), csls=args.csls)
    config = _config_block(args)
    report = dataclasses.replace(report, config_digest=_digest_of(config))
    _write_json(args.out, {"config": config, "report": report.to_json_dict()})
    with _replacing(Path(str(args.out) + ".details.csv")) as tmp:
        write_translation_csv(report.details, tmp,
                              meta=f"config_digest={report.config_digest}")
    print(f"wrote {args.out}: p_at_1={report.metrics['p_at_1']:.1f} "
          f"p_at_5={report.metrics['p_at_5']:.1f} coverage={report.coverage:.3f}")


def cmd_eval_pairs(args):
    space = _load_space(args, args.embeddings)
    en_space = _load_space(args, args.embeddings_en)
    lex, _ = coverage_filter(load_lexicon(args.lexicon), space)
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


# Lexicon field -> the projection group of its words, or of each pair's
# (masculine, feminine) forms.  Row order follows this table.
_PROJECTION_GROUPS = {
    "definitional_pairs": ("definitional_masculine", "definitional_feminine"),
    "occupation_pairs": ("occupation_masculine", "occupation_feminine"),
    "inanimate_nouns": "inanimate",
    "attributes_male": "attribute_masculine",
    "attributes_female": "attribute_feminine",
}


def cmd_export_projections(args):
    space = _load_space(args, args.embeddings)
    lex, _ = coverage_filter(load_lexicon(args.lexicon), space)
    dirs = _directions_for(args, space, lex)
    annotated = []
    for name, group in _PROJECTION_GROUPS.items():
        for entry in getattr(lex, name):
            if isinstance(group, str):
                annotated.append((entry, group))
            else:
                forms = entry.words if isinstance(entry, OccupationPair) else entry
                annotated.extend(zip(forms, group))
    rows, skipped = export_projections(space, annotated, dirs)
    config = _config_block(args)
    with _replacing(Path(args.out)) as tmp:
        write_projections_csv(rows, tmp, meta=f"config_digest={_digest_of(config)}")
    print(f"wrote {args.out}: {len(rows)} rows ({len(skipped)} skipped)")


def cmd_correlate(args):
    space = _load_space(args, args.embeddings)
    lex, _ = coverage_filter(load_lexicon(args.lexicon), space)
    en_space, en_lex = _english(args)
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
    args.digests = {}  # input path -> sha256, filled as inputs are read
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
