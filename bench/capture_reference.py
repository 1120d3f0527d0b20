#!/usr/bin/env python3
"""Capture the all-sweep reference from the current source tree.

    python3 bench/capture_reference.py

Writes bench/all_sweep_reference.json: the exit code, the verdict table
(claim_id, q, passed), the counterexamples and the sha256 of the csv and
json outputs of `qfun all`.  Re-capture only when a change to qfun's
output is intended and documented.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402  (needs src/ on the path)


def main() -> int:
    rc, csv_text, err = workloads.cli_run(workloads.CSV_ARGV)
    json_text = workloads.cli_run(workloads.JSON_ARGV)[1]
    ref = {
        "argv": list(workloads.CSV_ARGV),
        "exit_code": rc,
        "verdicts": workloads.verdicts(csv_text),
        "counterexamples": workloads.counterexamples(err),
        "csv_sha256": workloads.sha256(csv_text),
        "json_sha256": workloads.sha256(json_text),
    }
    workloads.ALL_SWEEP_REFERENCE.write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {workloads.ALL_SWEEP_REFERENCE}: exit {rc}, {len(ref['verdicts'])} claim runs, "
          f"counterexamples {ref['counterexamples']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
