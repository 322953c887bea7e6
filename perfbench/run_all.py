#!/usr/bin/env python3
"""Run every workload untraced and traced, print every metric with its
unit, and write all results and reports to one JSON file.

    python3 perfbench/run_all.py [--seed 0] [--seconds 30] [--out FILE]

Each run is its own process (run.py), one after another.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sense", "link", "theory")


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600,
        check=True)
    lines = proc.stdout.strip().splitlines()
    return {**json.loads(lines[-2]), "result": json.loads(lines[-1])}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--out", type=Path,
                    default=HERE / "results" / "latest.json")
    args = ap.parse_args()

    results = {}
    ok = True
    for wl in WORKLOADS:
        for trace in (0, 1):
            res = run_one(wl, args.seed, args.seconds, trace)
            results[f"{wl}/trace{trace}"] = res
            out = res["result"]
            ok = ok and out["correct"]
            for name, m in out["metrics"].items():
                print(f"{wl:>7} {name:<42} {m['value']:>14.6g} {m['unit']}")
            print(f"{wl:>7} {'fail_rate':<42} "
                  f"{out['failed'] / out['attempted']:>14.6g} ratio"
                  f"  ({out['failed']} of {out['attempted']})", flush=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(results, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
