"""Code surgery: projections, shortenings, hyperplane subcodes, spanning forms.

These are the moves used to pass from a code to smaller ones while tracking
exactly how weights and dimension change.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .codes import LinearCode
from .gf2core import Gf2Matrix, Gf2Vector, transpose_ints

__all__ = [
    "projected_weight",
    "project",
    "shorten",
    "subcode_avoiding",
    "spanning_form",
]


def projected_weight(weight_v: int, weight_v_plus_w: int, weight_w: int) -> int:
    """Weight of v after deleting the support of w, from three weights only.

    Coordinates of v inside the support of w split it: |v| = inside + outside
    and |v + w| = |w| - inside + outside, so outside = (|v| + |v+w| - |w|) / 2;
    inside = (|v| - |v+w| + |w|) / 2 lies in [0, |w|] when ||v| - |v+w|| <= |w|.
    So some two supports have these weights exactly when ||v| - |w|| <= |v+w|
    <= |v| + |w| with the parity of |v| + |w|; the package tests that only here.
    """
    triple = (weight_v, weight_v_plus_w, weight_w)
    if min(triple) < 0:
        raise ValueError(
            f"unrealizable weight triple {triple}: weights must be nonnegative"
        )
    total = weight_v + weight_v_plus_w - weight_w
    if total < 0:
        raise ValueError(
            f"unrealizable weight triple {triple}: |v| + |v+w| - |w| = {total} < 0; "
            f"|v+w| must lie between {abs(weight_v - weight_w)} and {weight_v + weight_w}"
        )
    if total % 2:
        raise ValueError(
            f"unrealizable weight triple {triple}: |v| + |v+w| - |w| = {total} is odd; "
            "|v+w| must have the parity of |v| + |w|"
        )
    if abs(weight_v - weight_v_plus_w) > weight_w:
        raise ValueError(
            f"unrealizable weight triple {triple}: ||v| - |v+w|| > |w|; "
            f"|v+w| must lie between {abs(weight_v - weight_w)} and {weight_v + weight_w}"
        )
    return total // 2


def _restrict(rows: Sequence[int], n: int, dropped: int) -> LinearCode:
    """Code spanned by bit-packed rows with the coordinates set in dropped deleted."""
    kept = [c for j, c in enumerate(transpose_ints(rows, n)) if not (dropped >> j) & 1]
    return LinearCode.from_rows(Gf2Matrix.from_ints(transpose_ints(kept, len(rows)), len(kept)))


def project(code: LinearCode, w: Gf2Vector) -> LinearCode:
    """Image of the code after deleting the support of a nonzero codeword w.

    Surjective and linear, so the result is a code of length n - |w|; its
    dimension drops by the dimension of {v in the code : supp(v) within
    supp(w)}, which is at least 1 because w itself maps to zero.
    """
    if w.bits == 0:
        raise ValueError("cannot project along the zero word")
    if not code.contains(w):
        raise ValueError("projection word is not a codeword")
    return _restrict(code.generator.rows, code.n, w.bits)


def shorten(code: LinearCode, coords: Iterable[int]) -> LinearCode:
    """Subcode vanishing on the given coordinates, with those deleted.

    The result's dimension is at least dimension - |coords|; length drops by
    |coords| exactly.
    """
    coord_set = sorted(set(coords))
    for c in coord_set:
        if not 0 <= c < code.n:
            raise ValueError(f"coordinate {c} outside [0, {code.n})")
    rows = code.generator.rows
    # Clear each coordinate by adding one row set there to the other rows set
    # there and dropping that row.  The rows stay independent and span the
    # subcode vanishing on every coordinate cleared so far.
    for c in coord_set:
        hit = next((r for r in rows if (r >> c) & 1), None)
        if hit is not None:
            rows = [r ^ hit if (r >> c) & 1 else r for r in rows if r != hit]
    return _restrict(rows, code.n, sum(1 << c for c in coord_set))


def subcode_avoiding(code: LinearCode, v: Gf2Vector) -> LinearCode:
    """A hyperplane subcode (dimension exactly one less) not containing v.

    Kernel of the coordinate functional x -> x_p where p is the first pivot
    of the canonical generator at which v is set; deterministic in the code
    and v.  Ambient length is unchanged.
    """
    if v.bits == 0:
        raise ValueError("cannot avoid the zero word: every subcode contains it")
    if not code.contains(v):
        raise ValueError("word to avoid is not a codeword")
    pivot_row = next(i for i, p in enumerate(code.pivots()) if (v.bits >> p) & 1)
    remaining = [r for i, r in enumerate(code.generator.rows) if i != pivot_row]
    # Deleting a row of a canonical generator leaves a canonical generator.
    return LinearCode(Gf2Matrix.from_ints(remaining, code.n))


def spanning_form(code: LinearCode) -> LinearCode:
    """Delete coordinates where every codeword vanishes.

    The result spans its ambient space (its length is the union of supports)
    and has the same dimension and nonzero weights.
    """
    union = 0
    for r in code.generator.rows:
        union |= r
    return _restrict(code.generator.rows, code.n, ~union)
