"""Benchmark of gendebias's audit -> mitigate -> evaluate pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  NAME is one of mitigate_roundtrip,
translate_eval, api_study, or ``all`` to run the three in turn.  A run sets
the workload up three times from the seeded planted fixture (``setup_s`` is
the median), then starts one fresh worker process that repeats the
workload's pass for S seconds and checks every output.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` the per-layer metrics.  The
last line of standard output is one JSON object; the lines before it list
every metric by name with its unit, the environment and the input sizes,
which are also kept in .perfbench/results/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("mitigate_roundtrip", "translate_eval", "api_study")
SETUP_REPS = 3
# A run, worker included, must end within 180 s.
RUN_LIMIT_S = 170.0

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))


class BenchmarkError(Exception):
    """The benchmark itself could not run; no result is printed."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="how long the worker repeats the workload's pass")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="input size; tiny is for the smoke test")
    return p.parse_args(argv)


def pin_blas_threads() -> int:
    """Pin BLAS to one thread; must run before numpy is imported here or in
    the worker.  On a shared 2-CPU machine two threads spread translate_eval's
    wall_s over five seeds by 13% (quartiles over median), one thread by 2%,
    at 6% more time."""
    n = 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    return n


def run_worker(spec: dict, work: Path, deadline: float) -> dict:
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), str(spec_path)],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchmarkError("worker did not finish within the run limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if err:
        sys.stderr.write(err)
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited with code {proc.returncode}")
    return json.loads((work / "result.json").read_text(encoding="utf-8"))


def run_workload(name: str, args, workloads, tracing) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    work = ROOT / ".perfbench" / "work" / f"{name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    tracer = tracing.Tracer() if args.trace else None
    try:
        if tracer is not None:
            tracer.install()
            tracer.active = True
        setup_times = []
        for rep in range(SETUP_REPS):
            if tracer is not None:
                tracer.run_id = f"setup-{rep}"
            start = time.perf_counter()
            fixture = workloads.make_fixture(name, args.size, args.seed)
            inputs = (workloads.write_inputs(fixture, args.size, args.seed,
                                             work / "inputs")
                      if workloads.uses_files(name) else None)
            setup_times.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.active = False
            tracer.uninstall()
        sizes = workloads.sizes_record(fixture, args.size, inputs)
        spec = {"root": str(ROOT), "workdir": str(work), "workload": name,
                "size": args.size, "seed": args.seed, "seconds": args.seconds,
                "trace": bool(args.trace), "inputs": inputs}
        del fixture
        result = run_worker(spec, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = result["passes"]
    untraced = [p for p in passes if not p["traced"]]
    ops = [op for p in passes for op in p["ops"]]
    failed = sum(1 for op in ops if op["failed"])
    # per operation name: mean time of one call in a pass, median over passes
    op_medians = {}
    for op_name in dict.fromkeys(op["name"] for op in untraced[0]["ops"]):
        op_medians[op_name] = statistics.median(
            statistics.mean(op["seconds"] for op in p["ops"] if op["name"] == op_name)
            for p in untraced)
    steps = {metric: op_medians[step]
             for metric, step in workloads.STEP_METRICS[name].items()}
    wall = statistics.median(p["wall_s"] for p in untraced)
    values = {"setup_s": statistics.median(setup_times), "wall_s": wall,
              "peak_rss_mb": result["peak_rss_mb"]}
    units = dict(END_TO_END)
    if args.trace:
        values = tracing.median_metrics(result["layer"])
        values["synthetic.fixture_s"] = statistics.median(
            tracer.layer_metrics(f"setup-{rep}")["synthetic.fixture_s"]
            for rep in range(SETUP_REPS))
        traced_wall = statistics.median(p["wall_s"] for p in passes if p["traced"])
        values["trace.overhead_s"] = traced_wall - wall
        values["error_rate"] = failed / len(ops)
        units = dict(tracing.LAYER_METRICS)
        units.update({"trace.overhead_s": "s", "error_rate": "ratio"})
        # every workload's step timings, measured in the untraced passes
        for step_metrics in workloads.STEP_METRICS.values():
            for metric in step_metrics:
                values[metric] = steps.get(metric, 0.0)
                units[metric] = "s"

    report = {"workload": name, "seed": args.seed, "size": args.size,
              "trace": args.trace, "seconds": args.seconds,
              "passes": len(passes), "untraced_passes": len(untraced),
              "attempted": len(ops), "failed": failed,
              "env": {**result["env"], "blas_threads_pinned": args.blas_threads},
              "sizes": sizes, "setup_times_s": setup_times,
              "pass_walls_s": [p["wall_s"] for p in passes],
              "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
              "steps": steps, "op_medians_s": op_medians,
              "audit_reference": result["expected"],
              "error_rate": failed / len(ops),
              "failures": [op for op in ops if op["failed"]][:20]}
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(report, indent=1),
                                          encoding="utf-8")
    if tracer is not None:
        spans = tracer.span_records() + result["spans"]
        (results / f"{stem}.spans.json").write_text(json.dumps(spans),
                                                    encoding="utf-8")
    print_report(report)
    return report


def print_report(report: dict) -> None:
    print(f"# {report['workload']}: seed={report['seed']} size={report['size']} "
          f"trace={report['trace']} passes={report['passes']} "
          f"(untraced {report['untraced_passes']}) operations={report['attempted']} "
          f"failed={report['failed']}")
    print("# env " + json.dumps(report["env"], sort_keys=True))
    print("# sizes " + json.dumps(report["sizes"], sort_keys=True))
    if report["audit_reference"] is not None:
        ref = report["audit_reference"]
        print(f"# audit statistic the CLI must report: before "
              f"{ref['audit_pre.json']:.6g}, after hybrid_ori "
              f"{ref['audit_post.json']:.6g}")
    for name, m in report["metrics"].items():
        print(f"#   {name} = {m['value']:.6g} {m['unit']}")
    if not report["trace"]:
        print(f"#   error_rate = {report['error_rate']:.6g} ratio "
              f"({report['failed']}/{report['attempted']})")
        for name, value in report["steps"].items():
            print(f"#   {name} = {value:.6g} s")
    for op in report["failures"]:
        print(f"perfbench: failed {op['name']}: {op['error'] or op['problems']}",
              file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "gendebias" / "__init__.py").is_file():
        print(f"perfbench: no gendebias sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    args.blas_threads = pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    # imported only now: numpy must see the pinned thread count
    import gendebias
    import tracing
    import workloads
    if not Path(gendebias.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: gendebias imported from {gendebias.__file__}, "
              f"not from this checkout", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    try:
        reports = [run_workload(name, args, workloads, tracing) for name in names]
    except BenchmarkError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v
                   for r in reports for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in reports)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in reports),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
