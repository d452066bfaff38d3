"""Smoke test of the benchmark at the tiny size (the package's default
500-word fixture), so the harness cannot rot.

    python -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
STEP_METRICS = {"mitigate_roundtrip": ("audit_s", "mitigate_s"),
                "translate_eval": ("eval_translation_s", "eval_translation_csls_s",
                                   "eval_pairs_s"),
                "api_study": ()}


def run_benchmark(cwd: Path, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "0",
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def sections(lines):
    """Report lines grouped by the workload whose header precedes them."""
    out, current = {}, None
    for line in lines:
        for workload in WORKLOADS:
            if line.startswith(f"# {workload}:"):
                current = workload
        out.setdefault(current, []).append(line)
    return out


def printed(section):
    """{metric: unit} from the '#   name = value unit' report lines."""
    out = {}
    for line in section:
        if line.startswith("#   "):
            name, rest = line[4:].split(" = ", 1)
            out[name] = rest.split()[1]
    return out


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(trace, kind):
    proc = run_benchmark(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    by_workload = sections(lines[:-1])
    for workload in WORKLOADS:
        prefix = workload + "."
        got = {k[len(prefix):]: v for k, v in result["metrics"].items()
               if k.startswith(prefix)}
        assert {k: v["unit"] for k, v in got.items()} == expected, workload
        shown = printed(by_workload[workload])
        assert {k: shown[k] for k in expected} == expected, workload
        if kind == "end_to_end":
            assert all(v["value"] > 0 for v in got.values()), workload
            assert shown["error_rate"] == "ratio"
            assert "#   error_rate = 0 ratio (0/" in "\n".join(by_workload[workload])
            for step in STEP_METRICS[workload]:
                assert shown[step] == "s", (workload, step)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark(tmp_path, 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
