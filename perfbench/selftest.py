"""Test of the benchmark's own checker: a deliberately wrong reference must be
counted as a failed job.

    python3 perfbench/selftest.py

Copies references.json with one digest corrupted (the control job's
``cli adq --X 3 --Y 3`` output, which every workload and seed checks), runs
the thin_census workload against the copy, and exits 0 only if the run
reports ``correct: false`` with the control job failed in every pass and the
mismatch named in the report.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
KEY = "cli adq --X 3 --Y 3"


def main() -> int:
    refs = json.loads((HERE / "references.json").read_text(encoding="utf-8"))
    if KEY not in refs["digests"]:
        print(f"references.json has no digest for {KEY!r}", file=sys.stderr)
        return 1
    refs["digests"][KEY] = "0" * 64
    bad = HERE / "out" / "selftest-references.json"
    bad.parent.mkdir(exist_ok=True)
    bad.write_text(json.dumps(refs), encoding="utf-8")
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "thin_census", "--seed", "1",
         "--seconds", "0", "--trace", "0", "--references", str(bad)],
        capture_output=True, text=True, check=True, timeout=170,
    ).stdout
    result = json.loads(out.splitlines()[-1])
    passes = int(re.search(r" passes=(\d+) ", out).group(1))
    ok = (result["correct"] is False and result["failed"] == passes
          and out.count(f"FAILED probe:") == passes and f"{KEY}: digest" in out)
    print(f"checker self-test {'passed' if ok else 'FAILED'}: correct={result['correct']} "
          f"failed={result['failed']} of {result['attempted']} jobs")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
