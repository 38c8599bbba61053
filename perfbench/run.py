"""gf2codes benchmark: one workload per run, every op's output checked.

    python3 perfbench/run.py --workload W [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root (any directory works; paths are resolved from
this file).  Workloads are listed in ``workloads.py`` and ``BENCHMARK.json``.

With ``--trace 0`` the run spawns the workload process four times for set-up
only and once to measure, and reports the end-to-end metrics: ops per second
of timed wall time, median and 90th-percentile op latency, the median
set-up time of the five processes (interpreter start, ``import gf2codes``,
input generation, warm-up) and the measuring process's peak resident set.
Times are scaled to a reference machine speed measured by a probe timed
before every op (see ``worker.py``); the unscaled values and the scale
factor are in the header.
With ``--trace 1`` it measures untraced for half the time, then replays the
same passes in a second process with spans around every layer's entry
points, and reports per-layer metrics plus the trace overhead.

Standard output ends with a header line ``{"header": {...}}`` (git sha,
Python, nproc, seed, op counts, input mix) and then the result line
``{"correct", "attempted", "failed", "metrics"}``.  The error rate is
``failed / attempted``: an op fails if it raises, exits with an unexpected
code, fails its output check, or is a search stopped at its node cap.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_ONLY_PROCESSES = 4
# Every run must end within 180 s, the first in a fresh checkout included.
DEADLINE_S = 170


def spawn(args: list[str], deadline: float) -> dict:
    """Run one workload process and return its JSON summary."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--spawned-at", repr(perf_counter())]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - perf_counter()))
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def source_digest() -> str:
    """sha256 over the program's source files, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def input_mix(facts: dict) -> dict:
    """Measured share of each input property, with its base count."""
    names = {
        "highrate": "high_rate_codes",
        "feasible": "feasible_verdicts",
        "capped": "capped_searches",
        "verify_failed": "failing_verify_claims",
    }
    return {
        label: {"share": facts[key][0] / facts[key][1], "of": facts[key][1]} if key in facts else None
        for key, label in names.items()
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gf2codes benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=22)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "gf2codes" / "__init__.py").is_file():
        print(f"error: no gf2codes source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = perf_counter() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        if args.trace:
            runs = [spawn(common + ["--seconds", str(args.seconds / 2)], deadline)]
            runs.append(spawn(common + ["--passes", str(runs[0]["passes"]), "--trace"], deadline))
            base, traced = runs
            metrics = {name: metric(v, unit) for name, (v, unit) in traced["layers"].items()}
            metrics["trace.overhead_frac"] = metric(1 - traced["ops_per_s"] / base["ops_per_s"], "fraction")
        else:
            setups = [spawn(common + ["--setup-only"], deadline) for _ in range(SETUP_ONLY_PROCESSES)]
            main_run = spawn(common + ["--seconds", str(args.seconds)], deadline)
            runs = [main_run]
            problems = [p for s in setups for p in s["problems"]]
            if problems:
                main_run["incorrect"] += len(problems)
                main_run["problems"] = problems + main_run["problems"]
            setup_s = statistics.median([s["setup_s"] for s in setups] + [main_run["setup_s"]])
            metrics = {
                "ops_per_s": metric(main_run["ops_per_s"], "1/s"),
                "op_p50_ms": metric(main_run["op_p50_ms"], "ms"),
                "op_p90_ms": metric(main_run["op_p90_ms"], "ms"),
                "setup_s": metric(setup_s, "s"),
                "peak_rss_mb": metric(main_run["peak_rss_mb"], "MB"),
            }
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(ROOT / workloads.work_dir(args.workload, args.seed), ignore_errors=True)

    for run in runs:
        for problem in run["problems"]:
            print(f"check failed: {problem}", file=sys.stderr)
    header = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "passes": [r["passes"] for r in runs],
        "unscaled": [r["raw"] for r in runs],
        "speed": [r["speed"] for r in runs],
        "ops": [r["attempted"] for r in runs],
        "samples_beyond_p90": [r["beyond_p90"] for r in runs],
        "reference_checked": [r["reference_checked"] for r in runs],
        "input_mix": input_mix(runs[0]["facts"]),
    }
    print(json.dumps({"header": header}))
    print(json.dumps({
        "correct": all(r["incorrect"] == 0 for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
