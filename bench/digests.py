"""Digests of every file the benchmark fixture's CLI pipeline reads and writes.

    python3 bench/digests.py [--checkout DIR] [--size full|tiny] [--seeds 3 5]

For each seed this builds perfbench's planted fixtures, writes them as the
CLI's input files and runs, in a temporary directory, the CLI steps of both
CLI workloads, then ``mitigate`` with the other four methods, ``correlate``,
``export-projections`` and bilingual ``directions`` on the mitigation
inputs.  It prints one ``sha256  relative-path`` line per file left there,
sorted by path: inputs, results and ``.vec`` sidecars.  Two commits that
print the same lines wrote byte-identical files.

The package and the harness are imported from the ``src/`` and
``perfbench/`` of --checkout (default: the checkout holding this script),
so one copy can digest another, such as a ``git worktree`` of a parent
commit.  BLAS runs on one thread, as in the benchmark, unless
OPENBLAS_NUM_THREADS is set.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import os
import sys
import tempfile
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # read when numpy loads

CLI_WORKLOADS = ("mitigate_roundtrip", "translate_eval")
# mitigate_roundtrip runs hybrid_ori
OTHER_METHODS = ("shift_ori", "shift_en", "de_align", "hybrid_en")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="checkout whose src/ and perfbench/ run "
                             "(default: this script's)")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--seeds", type=int, nargs="+", default=[3, 5])
    return parser.parse_args(argv)


def other_steps(inputs: dict[str, str], out: Path) -> list[tuple[str, list[str]]]:
    """(name, argv) of the steps the CLI workloads leave out."""
    src, lex = ["--embeddings", inputs["source"]], ["--lexicon", inputs["lexicon"]]
    english = ["--embeddings-en", inputs["english"], "--lexicon-en", inputs["lexicon_en"]]
    seed_dict = ["--seed-dict", inputs["seed_dict"]]
    flags = {"shift_ori": [], "shift_en": english, "de_align": english + seed_dict,
             "hybrid_en": english + seed_dict}
    steps = [(f"mitigate {method}", ["mitigate", "--method", method, *src, *lex,
                                     *flags[method], "--out", str(out / method)])
             for method in OTHER_METHODS]
    for command, result in (("correlate", "correlate.json"),
                            ("export-projections", "projections.csv"),
                            ("directions", "directions.json")):
        steps.append((command, [command, *src, *lex, *english,
                                "--out", str(out / result)]))
    return steps


def run_all(root: Path, size: str, seeds: list[int]) -> None:
    import gendebias.cli as cli
    import workloads

    for seed in seeds:
        for workload in CLI_WORKLOADS:
            work = root / f"seed{seed}" / workload
            work.mkdir(parents=True)
            fixture = workloads.make_fixture(workload, size, seed)
            inputs = workloads.write_inputs(fixture, size, seed, work)
            out = work / "out"
            out.mkdir()
            steps = [(name, argv) for name, argv, _ in
                     workloads.cli_steps(workload, inputs, out, seed)]
            if workload == "mitigate_roundtrip":
                steps += other_steps(inputs, out)
            for name, argv in steps:
                with contextlib.redirect_stdout(sys.stderr):  # "wrote ..." lines
                    code = cli.main(argv)
                if code != 0:
                    raise SystemExit(f"digests: {workload} seed {seed}: "
                                     f"{name} exited {code}")


def main(argv=None) -> int:
    args = parse_args(argv)
    checkout = args.checkout.resolve()
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    # the CLI installs an INFO handler only when logging is unconfigured
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr)
    import gendebias
    import workloads

    for module in (gendebias, workloads):
        if not Path(module.__file__).resolve().is_relative_to(checkout):
            raise SystemExit(f"digests: {module.__name__} imported from "
                             f"{module.__file__}, not from {checkout}")
    with tempfile.TemporaryDirectory(prefix="gendebias-digests-") as tmp:
        root = Path(tmp)
        run_all(root, args.size, args.seeds)
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            print(f"{workloads.file_digest(path)}  {path.relative_to(root).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
