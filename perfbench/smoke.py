"""Smoke run: every workload at a tiny size, checks on, untraced and traced.

    python3 perfbench/smoke.py

Finishes in seconds.  Exits 1 unless every run ends with exit code 0,
``correct`` true, no failed operation and exactly the metrics that
BENCHMARK.json names for its mode.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    bad = 0
    for w in bench["workloads"]:
        for mode in (0, 1):
            cmd = bench["command"][1:] + [
                "--workload", w["name"], "--seed", "0", "--seconds", "1",
                "--trace", str(mode), "--smoke",
            ]
            proc = subprocess.run(
                [sys.executable, *cmd], cwd=ROOT, capture_output=True, text=True, timeout=120
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            ok = (
                result is not None
                and result["correct"] is True
                and result["failed"] == 0
                and result["attempted"] >= 1
                and {k: v["unit"] for k, v in result["metrics"].items()} == expected[mode]
            )
            print(f"{'ok  ' if ok else 'FAIL'} {w['name']} trace={mode}")
            if not ok:
                bad += 1
                sys.stderr.write(proc.stderr[-2000:])
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
