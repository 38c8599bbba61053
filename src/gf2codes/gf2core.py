"""Bit-packed vectors and matrices over GF(2).

Coordinate i of a vector or of a matrix row (a plain int) is bit i, so weight
is a popcount, addition is XOR, and an inner product is a popcount parity.
A vector is a length-checked word with no operations: callers use these on its
``bits``.  Both types are immutable.

Tuples in this package are built from lists, ``tuple([...])``, never from a
generator expression.  CPython starts a tuple from a generator at 10 slots
and resizes it to its final length, so it never comes from the free list for
that length, yet returns there when it dies.  Only a full garbage collection
empties those lists, and a loop of ``cli.run`` calls leaves no garbage that
would start one, so the lists would fill to thousands of tuples each.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
import struct
from typing import Sequence

__all__ = [
    "Gf2Vector",
    "Gf2Matrix",
    "RrefResult",
    "rref",
    "nullspace_basis",
]

# What a 0/1 row keeps under this is bad; int() takes '_', signs, spaces, other digits.
_DROP_BITS = str.maketrans("", "", "01")


@dataclass(frozen=True)
class Gf2Vector:
    """A vector in F_2^length; coordinate i is bit i of ``bits``."""

    length: int
    bits: int

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError(f"negative vector length {self.length}")
        if self.bits < 0 or self.bits >> self.length:
            raise ValueError(f"bits 0x{self.bits:x} do not fit in length {self.length}")

    @classmethod
    def from_string(cls, text: str) -> Gf2Vector:
        """Parse a '0'/'1' string; character i gives coordinate i."""
        bad = text.translate(_DROP_BITS)
        if bad:
            raise ValueError(f"character {text.index(bad[0])} is {bad[0]!r}, expected '0' or '1'")
        return cls(len(text), int("0" + text[::-1], 2))

    def __str__(self) -> str:
        # Coordinate 0 first; a leading 1 keeps length digits, then is cut.
        return format(self.bits | 1 << self.length, "b")[:0:-1]


@dataclass(frozen=True)
class Gf2Matrix:
    """A matrix over GF(2) with n_cols columns; column j of row i is bit j of rows[i]."""

    rows: tuple[int, ...]
    n_cols: int

    def __post_init__(self) -> None:
        if self.n_cols < 0:
            raise ValueError(f"negative column count {self.n_cols}")
        for i, row in enumerate(self.rows):
            if row < 0 or row >> self.n_cols:
                raise ValueError(f"row {i} is {row}, outside [0, 2^{self.n_cols})")

    @classmethod
    def from_ints(cls, rows: Sequence[int], n_cols: int) -> Gf2Matrix:
        return cls(tuple(rows), n_cols)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def row_strings(self) -> list[str]:
        """Each row as '0'/'1' text, column 0 first."""
        top = 1 << self.n_cols  # a leading 1 keeps n_cols digits, then is cut
        return [format(row | top, "b")[:0:-1] for row in self.rows]


@dataclass(frozen=True)
class RrefResult:
    """Outcome of row reduction: same-shape matrix, rank, pivot columns."""

    matrix: Gf2Matrix
    rank: int
    pivots: tuple[int, ...]


def rref_ints(rows: Sequence[int]) -> tuple[list[int], list[int]]:
    """Row-reduce bit-packed rows; returns (reduced rows, pivot columns).

    Fully reduced: each pivot column is zero in every other row.  Nonzero rows
    end up on top in increasing pivot order, zero rows at the bottom.  Each
    pivot is its row's lowest set bit.  Forward, a new row is cleared at its
    lowest bit while that bit is a pivot, and what is left, if anything, is
    filed under its lowest bit as a new pivot.  Back, in decreasing pivot
    order, each row is cleared at the higher pivots it has, whose rows are
    already zero at every other pivot.
    """
    by_pivot: dict[int, int] = {}  # pivot bit -> row
    for r in rows:
        while r:
            low = r & -r
            row = by_pivot.get(low)
            if row is None:
                by_pivot[low] = r
                break
            r ^= row
    order = sorted(by_pivot)
    above = 0  # the pivot bits already reduced
    for low in reversed(order):
        row = by_pivot[low]
        hit = row & above
        while hit:
            bit = hit & -hit
            row ^= by_pivot[bit]
            hit ^= bit
        by_pivot[low] = row
        above |= low
    reduced = [by_pivot[low] for low in order]
    return reduced + [0] * (len(rows) - len(reduced)), [low.bit_length() - 1 for low in order]


_FIELD = {1: "B", 2: "H", 4: "I", 8: "Q"}  # struct codes of unsigned fields, by byte size


def _by_columns(values: list[int], per_row: int) -> list[int]:
    """A list read as rows of per_row entries, returned column by column."""
    return values if per_row == len(values) else list(  # one row: no per_row 1-item slices
        chain.from_iterable([values[c::per_row] for c in range(per_row)]))


@lru_cache(maxsize=64)
def _swap_masks(block: int, bits: int) -> tuple[tuple[int, int], ...]:
    """(shift, mask) per delta swap of ``transpose_ints``, largest first: at
    level s, bit c of strip row r trades places with bit c - s of row r + s
    wherever r & s is 0 and c & s is not, and the mask marks those bits."""
    levels = []
    for s in [block >> i for i in range(1, block.bit_length())]:
        row = ((1 << s) - 1 << s) * ((1 << bits) - 1) // ((1 << 2 * s) - 1)
        levels.append((s * (bits - 1), sum([row << r * bits for r in range(block) if not r & s])))
    return tuple(levels)


def transpose_ints(rows: Sequence[int], width: int) -> list[int]:
    """Columns of bit-packed rows: bit i of column j is bit j of rows[i].

    Padded with zeros to B x B blocks, B a power of two >= 8 covering the
    shorter side, the matrix is held as one int, a strip of B rows whose row i
    is rows i, B + i, ... side by side.  log2 B delta swaps (Hacker's Delight,
    7-3) transpose all blocks at once: strip row i is then columns i, B + i, ...
    """
    if not rows or not width:
        return [0] * width
    block = max(8, 1 << (min(len(rows), width) - 1).bit_length())
    size = -(-width // block) * block // 8  # bytes per padded row
    order = _by_columns(list(rows) + [0] * (-len(rows) % block), block)  # strip row by strip row
    raw = (struct.pack(f"<{len(order)}{_FIELD[size]}", *order) if size in _FIELD
           else b"".join([r.to_bytes(size, "little") for r in order]))
    strip = int.from_bytes(raw, "little")
    masks = _swap_masks if len(raw) <= 512 else _swap_masks.__wrapped__  # <= 64 x 6 x 512 bytes
    for shift, mask in masks(block, 8 * len(raw) // block):
        t = (strip ^ strip >> shift) & mask
        strip ^= t ^ t << shift
    raw, span = strip.to_bytes(len(raw), "little"), len(order) // 8  # span: bytes per column
    fields = (list(struct.unpack(f"<{len(raw) // span}{_FIELD[span]}", raw)) if span in _FIELD
              else [int.from_bytes(raw[i : i + span], "little") for i in range(0, len(raw), span)])
    return _by_columns(fields, len(fields) // block)[:width]


def rref(matrix: Gf2Matrix) -> RrefResult:
    """Reduced row-echelon form over GF(2), preserving row count."""
    work, pivots = rref_ints(matrix.rows)
    return RrefResult(Gf2Matrix.from_ints(work, matrix.n_cols), len(pivots), tuple(pivots))


def nullspace_basis(matrix: Gf2Matrix) -> Gf2Matrix:
    """Basis of {x : M x^T = 0} in reduced row-echelon form.

    M is reduced with each pivot at its row's highest set bit.  For each
    non-pivot column f, the word with bit f and bit q for every pivot q whose
    row has bit f is orthogonal to every row.  Its lowest bit is f, since
    such pivots lie above f, and no other word has bit f, so the words in
    increasing f are the canonical generator of the null space.  The result
    has n_cols - rank rows; for an identity block it is empty.  With the rows
    in pivot order, bit i of column f of their transpose is bit f of row i, so
    if rows i..i+m have the consecutive pivots q..q+m, bits i..i+m of column f
    shifted up to q are exactly those of word f's pivots: one shift per run.
    """
    reduced: dict[int, int] = {}  # pivot bit -> its row
    for r in matrix.rows:
        for pivot, row in reduced.items():
            if r & pivot:
                r ^= row
        if r:
            top = 1 << r.bit_length() - 1
            for pivot, row in reduced.items():
                if row & top:
                    reduced[pivot] = row ^ r  # a new value, not a new key
            reduced[top] = r
    cols = transpose_ints(sorted(reduced.values()), matrix.n_cols)  # rows in pivot order
    rest = pivots = sum(reduced)
    free = [f for f in range(matrix.n_cols) if not (pivots >> f) & 1]
    words = [1 << f for f in free]
    while rest:
        run = rest & ~(rest + (low := rest & -rest))  # the lowest run of pivots
        first, mask = (pivots & (low - 1)).bit_count(), run // low
        words = [w | (cols[f] >> first & mask) * low for w, f in zip(words, free)]
        rest ^= run
    return Gf2Matrix.from_ints(words, matrix.n_cols)
