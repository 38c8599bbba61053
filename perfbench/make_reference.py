"""Regenerate ``reference.json``: digests of every op's output at the default seed.

    python3 perfbench/make_reference.py

Each digest covers an op's stdout bytes (search node counts left out, see
``checks.digest``).  An op whose output fails its check is not stored, and
the script exits non-zero.  Search passes hold the whole weight-set grid, so
its one stored pass covers the search ops of every seed.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import checks
import workloads
from worker import REFERENCE, ROOT, execute, import_cli, write_inputs

# Passes stored per workload: more than a default-length run completes on a
# 2-vCPU Xeon VM.
PASSES = {"analyze-highrate": 48, "analyze-lowrate": 200, "search": 1, "bounds": 30}


def main() -> int:
    os.chdir(ROOT)
    cli = import_cli()
    seed = workloads.DEFAULT_SEED
    digests: dict[str, dict[str, str]] = {}
    failures = 0
    for workload, passes in PASSES.items():
        table = digests[workload] = {}
        for index in range(passes):
            ops = workloads.make_pass(workload, seed, index)
            write_inputs(ops)
            for op in ops:
                _, outs, error = execute(cli, op)
                problems = [f"raised {error}"] if error else checks.check_op(op, outs)[0]
                if problems:
                    failures += 1
                    print(f"{op.key}: {problems}", file=sys.stderr)
                    continue
                table[op.key] = checks.digest(outs)
        shutil.rmtree(ROOT / workloads.work_dir(workload, seed), ignore_errors=True)
        print(f"{workload}: {len(table)} ops", file=sys.stderr)
    with open(REFERENCE, "w", encoding="ascii") as handle:
        json.dump({"seed": seed, "passes": PASSES, "digests": digests}, handle, indent=0, sort_keys=True)
        handle.write("\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
