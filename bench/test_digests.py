"""The digest script at the tiny size: two runs print the same lines.

    python -m pytest bench
"""

import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().with_name("digests.py")
LINE = re.compile(r"[0-9a-f]{64}  seed3/(mitigate_roundtrip|translate_eval)/\S+")


def digests(cwd: Path) -> list[str]:
    run = subprocess.run([sys.executable, str(SCRIPT), "--size", "tiny", "--seeds", "3"],
                         cwd=cwd, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()


def test_two_runs_print_the_same_digests(tmp_path):
    # the second run starts elsewhere: no path reaches a digested file
    first, second = digests(SCRIPT.parent.parent), digests(tmp_path)
    assert first == second
    assert all(LINE.fullmatch(line) for line in first), first
    paths = [line.split("  ", 1)[1] for line in first]
    assert paths == sorted(paths)
    for name in ("source.vec.gdcache.npz", "out/pairs.json", "out/audit_post.json",
                 "out/hybrid_en/source.vec", "out/directions.json"):
        assert any(path.endswith(name) for path in paths), name
