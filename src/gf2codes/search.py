"""Exhaustive search for the largest code with a prescribed weight set.

Every subspace of F_2^n has a unique reduced row-echelon generator, so a
depth-first search over such generators visits each candidate code exactly
once: rows are added with strictly increasing pivots (lowest set bits) and,
at each pivot, tried in increasing numeric order.  Complements
feasibility_check from the other side: search is exact but exponential,
feasibility is fast but only necessary.

The search is a branch-and-bound over admissible sets.  For the current
code C, A(C) holds the nonzero words v whose whole coset v + C has weights
in W; it is a 2^n-bit int with bit v set iff v is admissible.  A({0}) is
the words of weight in W, a new row r must lie in A(C), and
A(C + <r>) = A(C) & (A(C) translated by r).  Every word the finished code
adds to C is admissible and has its lowest bit on a free pivot still ahead,
so the rows still to come number at most the nonempty free buckets and at
most floor(log2(1 + admissible words in them)), both counted over the mask
of free pivots.  A branch that cannot beat the best code found so far is
cut, and counting stops once the branch must be explored.  Only the bucket
of the first free pivot f0 is explored.  A later free pivot f whose column
the current rows leave equal to f0's can be swapped with f0: that fixes the
current code and maps each extension whose first new pivot is f to one
whose first new pivot is f0.

Weight sets are invariant under coordinate permutations, so the search
runs in two phases.  The proof phase finds the maximum D.  A heaviest word
of a code, of weight w, meets every other nonzero word, or their sum would
be heavier, and a permutation makes it v_w = 2^w - 1.  The code is then
<v_w> plus its words with bit 0 clear, so the phase extends each root v_w,
pivot 0, keeping every word at a weight of at most w in W.  Free pivots
from w up have empty buckets, and those below w share v_w's column, so the
first-pivot rule holds.  The phase ends, complete, once a code reaches
Delsarte's LP bound (``lp_dimension_bound``), which no code with these
weights can exceed.  The witness phase then runs the canonical search,
where free columns are zero, cuts what cannot reach D and returns its
first code of dimension D: the first code the unpruned search finds at the
largest depth.

``nodes_explored`` counts the candidate rows tried in both phases, a root
v_w as one.  The sets take 2^n bits each, so lengths above
``MAX_SEARCH_LENGTH`` (20, where a set is 128 KiB) are refused.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable

from .codes import LinearCode
from .gf2core import Gf2Matrix
from .moments import _lp_max

__all__ = [
    "DEFAULT_NODE_CAP",
    "MAX_SEARCH_LENGTH",
    "SearchResult",
    "max_dimension_exhaustive",
]

DEFAULT_NODE_CAP = 10**8
MAX_SEARCH_LENGTH = 20


@dataclass(frozen=True)
class SearchResult:
    """Largest dimension found, with the first witness in search order.

    ``stop`` says how the search ended: "exhausted", "lp-bound" (the best
    code reached ``bound``, the LP bound on the dimension) or "node-cap".
    Neither takes part in equality.
    """

    n: int
    weights: tuple[int, ...]
    max_dimension: int
    witness: Gf2Matrix | None
    nodes_explored: int
    complete: bool
    stop: str = field(compare=False)
    bound: int = field(compare=False)


class _Stopped(Exception):
    """Ends the search early; the argument is the ``stop`` reason."""


@lru_cache(maxsize=None)  # one entry per length, at most MAX_SEARCH_LENGTH + 1
def _word_tables(n: int) -> tuple[dict[int, int], dict[int, int], tuple[int, ...]]:
    """Bit sets over the 2^n words of F_2^n, bit v standing for word v.

    Returns ``keep`` (keep[2^j]: the words with bit j clear), ``lowest``
    (lowest[2^q]: the words whose lowest set bit is q), keyed by the bit,
    which is also the shift that translates a set by it, and ``by_weight``
    (by_weight[w]: the words of weight w), each built by doubling.
    """
    size = 1 << n

    def tile(pattern: int, period: int) -> int:
        while period < size:
            pattern |= pattern << period
            period <<= 1
        return pattern

    keep = {1 << j: tile((1 << (1 << j)) - 1, 2 << j) for j in range(n)}
    lowest = {1 << q: tile(1 << (1 << q), 2 << q) for q in range(n)}
    by_weight = [1]
    for m in range(n):
        # Words below 2^m keep their weight; 2^m + u has weight |u| + 1.
        by_weight = [
            (by_weight[w] if w <= m else 0) | (by_weight[w - 1] << (1 << m) if w else 0)
            for w in range(m + 2)
        ]
    return keep, lowest, tuple(by_weight)


def max_dimension_exhaustive(
    n: int,
    weights: Iterable[int],
    node_cap: int = DEFAULT_NODE_CAP,
) -> SearchResult:
    """Exact maximum dimension of a code in F_2^n with weights inside the set.

    First proves the maximum D over codes that contain some v_w = 2^w - 1
    as a heaviest word, which every code does up to a permutation, stopping
    early at the LP bound; then finds the first canonical generator of
    dimension D.  ``node_cap`` bounds the candidate rows tried in the two
    phases together, and an exhausted budget is reported through
    ``complete=False``: the result is then the best code found, in
    canonical form, and its dimension only a lower bound.  Lengths above
    ``MAX_SEARCH_LENGTH`` and negative node caps raise ValueError.
    """
    if n < 0:
        raise ValueError(f"negative length {n}")
    if node_cap < 0:
        raise ValueError(f"negative node cap {node_cap}")
    if n > MAX_SEARCH_LENGTH:
        raise ValueError(f"search supports lengths up to {MAX_SEARCH_LENGTH}, got {n}")
    wset = frozenset(weights)
    lp_bound = _lp_max(n, wset)[0]  # also checks the weights

    keep, lowest, by_weight = _word_tables(n)
    full = (1 << n) - 1
    best_rows: list[int] = []
    rows: list[int] = []
    nodes = 0
    goal = lp_bound  # D in the witness phase

    # Explored iff min(nonempty, floor(log2(1 + total))) > slack over the free
    # buckets, i.e. nonempty > slack and total >= need; both grow, so stop there.
    def extend(last_pivot: int, union: int, admissible: int) -> None:
        free = ~union & full & -(1 << last_pivot + 1)
        slack = len(best_rows) - len(rows)
        need = (2 << slack) - 1
        nonempty = total = 0
        bits = free
        while bits:
            b = bits & -bits
            bits ^= b
            count = (admissible & lowest[b]).bit_count()
            if count:
                nonempty += 1
                total += count
                if nonempty > slack and total >= need:
                    break
        else:
            return  # every free bucket counted: the branch cannot beat the best
        first = free & -free
        bucket = admissible & lowest[first]
        while bucket:
            low = bucket & -bucket
            bucket ^= low
            row = low.bit_length() - 1
            take(row, first.bit_length() - 1, union | row, admissible)

    def take(row: int, pivot: int, union: int, admissible: int) -> None:
        nonlocal nodes, best_rows
        nodes += 1
        if nodes > node_cap:
            raise _Stopped("node-cap")
        rows.append(row)
        if len(rows) > len(best_rows):
            best_rows = list(rows)
            if len(best_rows) == goal:
                raise _Stopped("lp-bound")
        shifted = admissible
        bits = row
        while bits:
            b = bits & -bits
            bits ^= b
            shifted = ((shifted & keep[b]) << b) | ((shifted >> b) & keep[b])
        extend(pivot, union, admissible & shifted)
        rows.pop()

    # The by_weight sets are disjoint, so their sum is their union.
    stop = "exhausted"
    try:
        for w in sorted(wset, reverse=True):
            lighter = sum([by_weight[u] for u in wset if u <= w])
            take((1 << w) - 1, 0, 0, lighter)
    except _Stopped as stopped:
        stop = stopped.args[0]
    proof = best_rows
    if proof and stop != "node-cap":
        # With D - 1 rows to beat, the first code that beats them is the witness.
        rows.clear()
        best_rows, goal = proof[:-1], len(proof)
        try:
            extend(-1, 0, sum([by_weight[w] for w in wset]))
        except _Stopped as stopped:
            if stopped.args[0] == "node-cap":
                stop, best_rows = "node-cap", proof

    witness = Gf2Matrix.from_ints(best_rows, n) if best_rows else None
    if witness is not None and stop == "node-cap":
        witness = LinearCode.from_rows(witness).generator
    return SearchResult(
        n=n,
        weights=tuple(sorted(wset)),
        max_dimension=len(best_rows),
        witness=witness,
        nodes_explored=nodes,
        complete=stop != "node-cap",
        stop=stop,
        bound=lp_bound,
    )
