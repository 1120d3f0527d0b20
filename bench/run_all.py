#!/usr/bin/env python3
"""Run every workload, untraced and traced, and print one table.

    python3 bench/run_all.py --seed 1 --seconds 20

Each run is a fresh `bench/run.py` process.  The table lists every
end-to-end metric per workload with its unit and sample count, then the
per-layer metrics that are nonzero.  The combined record, with each run's
environment record, goes to bench/results/all-seed<seed>.json.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args()
    combined, status = {"seed": args.seed, "seconds": args.seconds, "runs": {}}, 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", w["name"],
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            stem = f"{w['name']}-seed{args.seed}-trace{trace}"
            record = json.loads((BENCH / "results" / f"{stem}.json").read_text())
            combined["runs"][stem] = record
            status |= not record["correct"]
            print(f"{w['name']} trace={trace}: attempted={record['attempted']} "
                  f"failed={record['failed']} fail_frac={record['fail_frac']:.6g} "
                  f"correct={record['correct']}")
            for name, m in record["metrics"].items():
                if trace == 0 or m["value"]:
                    print(f"  {name:40s} {m['value']:<14.6g} {m['unit']:6s} "
                          f"{record['samples'].get(name, '')}")
    out = BENCH / "results" / f"all-seed{args.seed}.json"
    out.write_text(json.dumps(combined, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return status


if __name__ == "__main__":
    sys.exit(main())
