"""Benchmark worker: runs one workload's timed passes in a fresh process.

run.py starts one worker per run, one at a time, with the path of a spec
file; the worker writes ``result.json`` beside it.  Its peak RSS is the
``peak_rss_mb`` of the run.  With tracing on, passes alternate untraced and
traced, so one run gives both the per-layer metrics and the tracing
overhead.
"""

from __future__ import annotations

import ctypes
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path


def blas_threads() -> int | None:
    """Thread count the OpenBLAS bundled with numpy actually uses, or None
    when numpy links another BLAS."""
    import numpy
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "blas": blas_name, "blas_threads": blas_threads(),
            "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
            "platform": platform.platform()}


def peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is in KiB on Linux and in bytes on macOS
    return peak / (1 << 20) if sys.platform == "darwin" else peak / 1024


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, str(Path(spec["root"]) / "src"))
    # the CLI installs an INFO handler only when logging is unconfigured
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    import tracing
    import workloads

    workload, seed = spec["workload"], spec["seed"]
    work = Path(spec["workdir"])
    api = not workloads.uses_files(workload)
    state = workloads.api_state(spec["size"], seed) if api else None
    expected = None if api else workloads.cli_reference(workload, spec["inputs"], seed)
    tracer = tracing.Tracer() if spec["trace"] else None
    if tracer is not None:
        tracer.install()

    passes, layer, reference = [], [], None
    min_passes = 2 if tracer is not None else 1
    start = time.perf_counter()

    def another_pass_fits() -> bool:
        # a pass starts only if a typical one ends within the run's seconds,
        # so a run's length does not grow with a slow machine
        if len(passes) < min_passes:
            return True
        typical = statistics.median(p["wall_s"] for p in passes)
        return time.perf_counter() - start + typical <= spec["seconds"]

    while another_pass_fits():
        index = len(passes)
        traced = tracer is not None and index % 2 == 1
        if tracer is not None:
            tracer.run_id, tracer.active = f"pass-{index}", traced
        rec = workloads.Recorder()
        out = work / f"pass-{index}"
        t0 = time.perf_counter()
        if api:
            workloads.run_api_pass(state, rec)
        else:
            steps = workloads.run_cli_pass(workload, spec["inputs"], out, seed, rec)
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        if api:
            prints = workloads.check_api_pass(state, rec.ops, reference)
        else:
            prints = workloads.check_cli_pass(steps, rec.ops, out, reference,
                                              expected)
            shutil.rmtree(out, ignore_errors=True)
        if reference is None:
            reference = prints
        if traced:
            layer.append(tracer.layer_metrics(tracer.run_id))
        passes.append({
            "traced": traced, "wall_s": wall,
            "ops": [{"name": op.name, "seconds": op.seconds, "failed": op.failed,
                     "error": op.error, "problems": op.problems}
                    for op in rec.ops]})

    result = {"env": environment(), "peak_rss_mb": peak_rss_mb(),
              "expected": expected,
              "passes": passes, "layer": layer,
              "spans": tracer.span_records() if tracer is not None else []}
    (work / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
