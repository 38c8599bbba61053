"""Seeded inputs for the benchmark workloads.

A workload is an endless sequence of passes.  Pass p is drawn from its own
random stream keyed by (workload, seed, p), so a run that stops after any
number of passes saw exactly the inputs a longer run with the same seed saw
first.  Within a pass no op repeats, and each pass is stratified by the input
property that sets an op's cost, so that every pass has the same cost mix:

* ``analyze-*``: one code per dimension k.  Op cost is about 2^k, so costs
  form one cluster per k; an odd number of equally likely k values puts the
  median and the 90th percentile inside clusters, not on the gap between two.
* ``search``: every weight set of size 1 to 3 at each length, in seeded order.
  Search cost spans three orders of magnitude between weight sets, so random
  draws would make every run's mean depend on a few draws.
* ``bounds``: feasibility cases stratified by number of weights and by length
  band, a few Lemma 2.6 replays, and the paper's fixed cases once per pass.
  Four-weight scans spread most in cost (a feasible verdict stops the scan
  early), so a pass draws fewer of them than three-weight scans; the paper's
  four-weight case at n = 128 runs in every pass.

An op is one or more ``gf2codes`` command lines, each run with ``--json``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations

from checks import format_row, rank

WORKLOADS = ("analyze-highrate", "analyze-lowrate", "search", "bounds")
DEFAULT_SEED = 0

# analyze-highrate: n - k < k, so the dual is the smaller side.
HIGHRATE_DIMENSIONS = (16, 17, 18, 19, 20)
HIGHRATE_REDUNDANCY = (4, 12)
# analyze-lowrate: k <= n - k.  Lengths on a grid of 8 keep the set of
# distinct lengths, each warmed once during set-up, small.
LOWRATE_DIMENSIONS = (15, 16, 17)
LOWRATE_LENGTHS = tuple(range(40, 129, 8))
# Warm-up codes are small, so set-up fills the per-length caches cheaply.
WARMUP_DIMENSION = 8

SEARCH_LENGTHS = (8, 9)
SEARCH_MAX_WEIGHTS = 3
# Far above the 8.1e5 nodes of the hardest n = 9 case, so no op is capped.
SEARCH_NODE_CAP = 10**7

FEASIBILITY_LENGTHS = (24, 128)
# Number of weights -> number of equal length bands, one draw in each.
FEASIBILITY_STRATA = {2: 4, 3: 8, 4: 2}
FEASIBILITY_DIMENSIONS = (4, 12)
LEMMA_2_6_REPLAYS = 4
LEMMA_2_6_DIMENSIONS = (6, 14)
LEMMA_2_6_MAX_LENGTHS = (64, 256)
PAPER_FEASIBILITY_CASES = ((32, 4, (24, 32)), (128, 10, (24, 32, 40, 56)))
PAPER_CLAIMS = ("theorem-a", "lemma-24-32-56")


@dataclass(frozen=True)
class Op:
    """One benchmark operation.

    ``key`` identifies the op's inputs (it keys the stored reference);
    ``argvs`` are the command lines run in order; ``params`` carry what the
    output checks need, and for analyze ops the generator file to write.
    """

    kind: str
    key: str
    argvs: tuple[tuple[str, ...], ...]
    params: dict = field(compare=False)


def work_dir(workload: str, seed: int) -> str:
    """Directory, relative to the repository root, for generated inputs."""
    return f".perfbench/{workload}-s{seed}"


def random_spanning_code(rng: random.Random, k: int, n: int) -> list[int]:
    """Uniform random k x n generator of full rank with no zero column."""
    full = (1 << n) - 1
    while True:
        rows = [rng.getrandbits(n) for _ in range(k)]
        union = 0
        for r in rows:
            union |= r
        if union == full and rank(rows) == k:
            return rows


def analyze_op(path: str, rows: list[int], n: int) -> Op:
    text = "".join(format_row(r, n) + "\n" for r in rows)
    argvs = (
        ("analyze", path, "--json"),
        ("dual", path, "--json"),
        ("project", path, "--word", "0", "--json"),
        ("shorten", path, "--coords", "0,1", "--json"),
    )
    return Op("analyze", path, argvs, {"path": path, "text": text, "rows": rows,
                                       "n": n, "k": len(rows)})


def search_op(n: int, weights: tuple[int, ...]) -> Op:
    argv = ("search", "--n", str(n), "--weights", ",".join(map(str, weights)),
            "--node-cap", str(SEARCH_NODE_CAP))
    return Op("search", " ".join(argv), (argv + ("--json",),), {"n": n, "weights": weights})


def feasibility_op(n: int, d: int, weights: tuple[int, ...]) -> Op:
    argv = ("feasibility", "--n", str(n), "--d", str(d), "--weights", ",".join(map(str, weights)))
    return Op("feasibility", " ".join(argv), (argv + ("--json",),),
              {"n": n, "d": d, "weights": weights})


def verify_op(claim: str, d: int | None = None, n_range: str | None = None) -> Op:
    argv: tuple[str, ...] = ("verify", claim)
    if d is not None:
        argv += ("--d", str(d), "--n-range", n_range)
    return Op("verify", " ".join(argv), (argv + ("--json",),), {"claim": claim, "d": d})


def length_bands(count: int) -> list[tuple[int, int]]:
    lo, hi = FEASIBILITY_LENGTHS
    edges = [lo + (hi - lo + 1) * i // count for i in range(count + 1)]
    return [(edges[i], edges[i + 1] - 1) for i in range(count)]


def search_grid() -> list[tuple[int, tuple[int, ...]]]:
    return [
        (n, weights)
        for n in SEARCH_LENGTHS
        for size in range(1, SEARCH_MAX_WEIGHTS + 1)
        for weights in combinations(range(1, n + 1), size)
    ]


def make_pass(workload: str, seed: int, index: int) -> list[Op]:
    """The ops of pass ``index``, in the order they run."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    base = work_dir(workload, seed)
    ops: list[Op] = []
    if workload == "analyze-highrate":
        for i, k in enumerate(HIGHRATE_DIMENSIONS):
            n = k + rng.randint(*HIGHRATE_REDUNDANCY)
            ops.append(analyze_op(f"{base}/p{index:04d}-{i}.gen", random_spanning_code(rng, k, n), n))
    elif workload == "analyze-lowrate":
        for i, k in enumerate(LOWRATE_DIMENSIONS):
            n = rng.choice(LOWRATE_LENGTHS)
            ops.append(analyze_op(f"{base}/p{index:04d}-{i}.gen", random_spanning_code(rng, k, n), n))
    elif workload == "search":
        ops = [search_op(n, w) for n, w in search_grid()]
    elif workload == "bounds":
        for m, count in FEASIBILITY_STRATA.items():
            for lo, hi in length_bands(count):
                n = rng.randint(lo, hi)
                d = rng.randint(*FEASIBILITY_DIMENSIONS)
                ops.append(feasibility_op(n, d, tuple(sorted(rng.sample(range(2, n + 1, 2), m)))))
        for _ in range(LEMMA_2_6_REPLAYS):
            d = rng.randint(*LEMMA_2_6_DIMENSIONS)
            ops.append(verify_op("lemma-2-6", d, f"1..{rng.randint(*LEMMA_2_6_MAX_LENGTHS)}"))
        ops += [feasibility_op(*case) for case in PAPER_FEASIBILITY_CASES]
        ops += [verify_op(claim) for claim in PAPER_CLAIMS]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


def warmup_ops(workload: str, seed: int) -> list[Op]:
    """Untimed ops run during set-up: at least one per distinct length n.

    Analyze warm-ups are small codes from their own random stream; search
    warm-ups use a weight set of size 4, which passes never draw.
    """
    rng = random.Random(f"{workload}/{seed}/warmup")
    base = work_dir(workload, seed)
    if workload.startswith("analyze-"):
        if workload == "analyze-highrate":
            lo = min(HIGHRATE_DIMENSIONS) + HIGHRATE_REDUNDANCY[0]
            lengths = range(lo, max(HIGHRATE_DIMENSIONS) + HIGHRATE_REDUNDANCY[1] + 1)
        else:
            lengths = LOWRATE_LENGTHS
        return [
            analyze_op(f"{base}/warm-{n}.gen", random_spanning_code(rng, WARMUP_DIMENSION, n), n)
            for n in lengths
        ]
    if workload == "search":
        return [search_op(n, (1, 3, 5, 7)) for n in SEARCH_LENGTHS]
    if workload == "bounds":
        return [feasibility_op(24, 4, (12, 16, 20)), verify_op("lemma-2-6", 10, "1..8")]
    raise ValueError(f"unknown workload {workload!r}")
