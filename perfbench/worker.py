"""One workload process: set-up, warm-up, timed passes, output checks.

Run by ``run.py``; prints one JSON summary line.  Every op calls
``gf2codes.cli.run`` in this process with stdout captured, one client in a
closed loop: the next op starts when the previous one has returned.  Input
generation and output checks happen between ops and are not timed.

    python3 perfbench/worker.py --workload W --seed S --spawned-at T
        (--seconds X | --passes P | --setup-only) [--trace]
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import resource
import statistics
import sys
from collections import deque
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# A run keeps going past its time until it has this many ops, so that at
# least ten samples lie beyond the 90th percentile.
MIN_OPS = 100
TAIL_SAMPLES = 10

# A shared virtual machine can change speed for every process alike, by up
# to 2x for minutes at a time (seen on a 2-vCPU Xeon VM).  A fixed piece of
# interpreter work (the probe) is timed before every op, and each time is
# reported scaled to the reference speed at which the probe takes
# PROBE_REFERENCE_S (about its time on that VM when unloaded, Python 3.11),
# so that runs made at different speeds stay comparable.  Unscaled times go
# to the run header.
PROBE_ITERATIONS = 6000
PROBE_REFERENCE_S = 0.002
PROBE_WINDOW = 9


def tail_percentile(values, q: float, beyond: int = TAIL_SAMPLES) -> float:
    """Nearest-rank q-quantile, lowered if needed so that at least ``beyond``
    samples lie above it."""
    ordered = sorted(values)
    index = min(math.ceil(round(q * len(ordered), 9)) - 1, len(ordered) - 1 - beyond)
    if index < 0:
        raise ValueError(f"{len(ordered)} samples leave fewer than {beyond} beyond any percentile")
    return ordered[index]


def probe_seconds() -> float:
    start = perf_counter()
    x, acc, table = 0x9E3779B97F4A7C15, 0, {}
    for i in range(PROBE_ITERATIONS):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        acc += (x ^ (x >> 7)).bit_count()
        table[i & 255] = acc
    return perf_counter() - start


class Speed:
    """Machine speed relative to the reference, from the latest probes."""

    def __init__(self) -> None:
        self.recent: deque[float] = deque(maxlen=PROBE_WINDOW)

    def measure(self) -> float:
        """Run one probe; returns the factor that scales a time to reference speed."""
        self.recent.append(probe_seconds())
        return PROBE_REFERENCE_S / statistics.median(self.recent)


def import_cli():
    """The program's CLI module, imported from this checkout's ``src``."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import gf2codes
    from gf2codes import cli

    if Path(gf2codes.__file__).resolve().parent != (src / "gf2codes").resolve():
        raise SystemExit(f"gf2codes imported from {gf2codes.__file__}, not from {src}")
    return cli


def execute(cli, op: workloads.Op):
    """Run an op's command lines; returns (seconds, outputs, error).

    Outputs are (exit code, stdout, stderr) per command line completed.
    """
    outs = []
    error = None
    start = perf_counter()
    try:
        for argv in op.argvs:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                rc = cli.run(list(argv))
            outs.append((rc, out.getvalue(), err.getvalue()))
    except Exception as exc:  # any crash of the program counts as a failed op
        error = f"{type(exc).__name__}: {exc}"
    return perf_counter() - start, outs, error


def write_inputs(ops) -> None:
    for op in ops:
        if "path" in op.params:
            path = ROOT / op.params["path"]
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(op.params["text"], encoding="ascii")


class Tally:
    """Latencies, failures and input-mix facts of the timed ops."""

    def __init__(self, references: dict) -> None:
        self.references = references
        self.latencies: list[float] = []
        self.raw_latencies: list[float] = []
        self.failed = 0
        self.incorrect = 0
        self.reference_checked = 0
        self.problems: list[str] = []
        self.facts: dict[str, list[int]] = {}

    def record(self, op, seconds: float, scale: float, outs, error) -> None:
        self.raw_latencies.append(seconds)
        self.latencies.append(seconds * scale)
        problems, facts = check_outputs(op, outs, error)
        capped = facts.get("capped", False)
        if not problems and not capped and op.key in self.references:
            self.reference_checked += 1
            if checks.digest(outs) != self.references[op.key]:
                problems = ["output differs from the stored reference"]
        for name, value in facts.items():
            self.facts.setdefault(name, [0, 0])
            self.facts[name][0] += int(value)
            self.facts[name][1] += 1
        if problems or capped:
            self.failed += 1
        if problems:
            self.incorrect += 1
            if len(self.problems) < 20:
                self.problems += [f"{op.key}: {p}" for p in problems]


def check_outputs(op, outs, error):
    if error is not None:
        return [f"raised {error}"], {}
    return checks.check_op(op, outs)


def load_references(workload: str) -> dict:
    with open(REFERENCE, encoding="ascii") as handle:
        return json.load(handle)["digests"].get(workload, {})


def setup(workload: str, seed: int, cli) -> list[str]:
    """Warm-up inputs and ops; returns the problems found in their outputs."""
    warm = workloads.warmup_ops(workload, seed)
    write_inputs(warm)
    problems = []
    for op in warm:
        _, outs, error = execute(cli, op)
        problems += [f"warm-up {op.key}: {p}" for p in check_outputs(op, outs, error)[0]]
    return problems


def measure(workload: str, seed: int, cli, seconds: float | None, passes: int | None, tracer):
    """Timed passes: until ``seconds`` of wall time and MIN_OPS ops, or
    exactly ``passes`` passes."""
    tally = Tally(load_references(workload))
    speed = Speed()
    start = perf_counter()
    index = 0
    while (passes is not None and index < passes) or (
        passes is None and (perf_counter() - start < seconds or len(tally.latencies) < MIN_OPS)
    ):
        ops = workloads.make_pass(workload, seed, index)
        write_inputs(ops)
        for op in ops:
            scale = speed.measure()
            with tracer.op(len(tally.latencies)) if tracer else nullcontext():
                seconds_taken, outs, error = execute(cli, op)
            tally.record(op, seconds_taken, scale, outs, error)
        index += 1
    return tally, index


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="perf_counter() reading of the parent just before it spawned this process")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--seconds", type=float)
    mode.add_argument("--passes", type=int)
    mode.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    cli = import_cli()
    warm_problems = setup(args.workload, args.seed, cli)
    raw_setup_s = perf_counter() - args.spawned_at
    setup_s = raw_setup_s * PROBE_REFERENCE_S / statistics.median(
        probe_seconds() for _ in range(PROBE_WINDOW))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s, "problems": warm_problems}))
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    tally, passes = measure(args.workload, args.seed, cli, args.seconds, args.passes, tracer)
    p90 = tail_percentile(tally.latencies, 0.9)
    scale = sum(tally.latencies) / sum(tally.raw_latencies)
    summary = {
        "setup_s": setup_s,
        "raw": {
            "setup_s": raw_setup_s,
            "ops_per_s": len(tally.raw_latencies) / sum(tally.raw_latencies),
            "op_p50_ms": 1000 * statistics.median(tally.raw_latencies),
            "op_p90_ms": 1000 * tail_percentile(tally.raw_latencies, 0.9),
        },
        "speed": scale,
        "passes": passes,
        "attempted": len(tally.latencies),
        "failed": tally.failed,
        "incorrect": tally.incorrect + len(warm_problems),
        "problems": warm_problems + tally.problems,
        "reference_checked": tally.reference_checked,
        "facts": tally.facts,
        "ops_per_s": len(tally.latencies) / sum(tally.latencies),
        "op_p50_ms": 1000 * statistics.median(tally.latencies),
        "op_p90_ms": 1000 * p90,
        "beyond_p90": sum(1 for t in tally.latencies if t > p90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.uninstall()
        from spans import per_layer_metrics

        tracer.write(ROOT / ".perfbench" / f"trace-{args.workload}-s{args.seed}.jsonl")
        summary["layers"] = per_layer_metrics(tracer.spans, scale)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
