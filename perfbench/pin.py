#!/usr/bin/env python3
"""Write perfbench/pinned.json: seed-42 output digests of every workload.

Run from the repository root at the commit whose outputs are the
reference:

    python3 perfbench/pin.py

For each workload, full size and smoke size, it makes the benchmark's
untimed verification pass and stores the sha256 of every file the CLI
wrote (trace CSVs, summary.md) and of the concatenated LP text.  It
refuses to pin outputs that fail a seed-independent check.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import run

SEED = 42


def main() -> int:
    ep = run._load_program()
    digests = {}
    os.makedirs(run.OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp_root:
        for name, workload in run.WORKLOADS.items():
            for smoke in (False, True):
                bench = run.Bench(ep, workload, SEED, smoke, tmp_root)
                result = bench.run_pass(check=True)
                if result.problems:
                    print(f"{name}: {result.problems}", file=sys.stderr)
                    return 1
                digests[name + ("/smoke" if smoke else "")] = result.digests
    with open(run.PINNED, "w", encoding="utf-8") as handle:
        json.dump({"seed": SEED, "digests": digests}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {run.PINNED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
