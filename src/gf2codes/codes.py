"""Binary linear codes: canonical generators, weight data, duals, predicates.

A ``LinearCode`` is identified with its unique reduced row-echelon generator
matrix (no zero rows), so two codes are equal exactly when they are the same
subspace.  Weight distributions are counted over the message space of the
smaller of the code and its dual, 2^min(k, n-k) words, bit-sliced: each
coordinate becomes one 2^t-bit set over a slice of 2^t messages, an XOR of
table sets picked by its column of one packed transpose.  The coordinates
are grouped by their column in the rows past the slice, which decides in
which cosets of the slice their sets are complemented, and each group is
added once into bit-planes of per-message weights by a carry-save adder
tree, about five big-int operations per coordinate, each covering up to 2^14
messages; each coset then adds the groups' planes, complemented where it
must.  The transient memory is at most about 200 sets of 2^14 bits at n = 128.
A counted dual is turned back by the MacWilliams transform, a table-free packed
Horner pass.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, Iterator

from .gf2core import (_DROP_BITS, _FIELD, Gf2Matrix, Gf2Vector, nullspace_basis, rref_ints,
                      transpose_ints)

__all__ = [
    "DEFAULT_ENUMERATION_CAP",
    "LinearCode",
    "WeightEnumerator",
    "PredicateProfile",
    "macwilliams_transform",
    "parse_generator_text",
    "format_generator_text",
]

# Enumeration above 2^28 codewords is almost certainly a mistake, not a plan.
DEFAULT_ENUMERATION_CAP = 28

# Messages per bit slice are 2^_SLICE_BITS.  Counting holds sets of that many
# bits: 2^5 + 2^5 + 2^4 table sets, the planes of each group's sum (about
# log2(n) with k <= _SLICE_BITS, 40 at n = 128, k = 17), per coset the
# complemented planes of its odd groups, and 2 log2(n) planes and held sets
# of the adder; no column's set outlives its addition.  Traced peaks at
# n = 128: 248 KiB at k = 14, 365 KiB at k = 17.  A wider slice saves little
# time and raises peak memory.
_SLICE_BITS = 14
# A slice column is the XOR of one set from each table of 2^_TABLE_BITS sets.
_TABLE_BITS = 5
_TABLE_MASK = (1 << _TABLE_BITS) - 1


@dataclass(frozen=True)
class WeightEnumerator:
    """Weight distribution of a length-n code: counts[i] words of weight i."""

    n: int
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.counts) != self.n + 1:
            raise ValueError(f"expected {self.n + 1} counts, got {len(self.counts)}")
        for i, a in enumerate(self.counts):
            if a < 0:
                raise ValueError(f"negative count {a} at weight {i}")

    def count(self, weight: int) -> int:
        return self.counts[weight]

    def nonzero(self) -> tuple[tuple[int, int], ...]:
        """(weight, count) pairs with nonzero count, ascending by weight."""
        return tuple([(i, a) for i, a in enumerate(self.counts) if a])

    def total(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True)
class PredicateProfile:
    """Structural predicates of a code, all decided exactly."""

    is_even: bool
    is_doubly_even: bool
    is_isotropic: bool
    is_self_dual: bool
    is_spanning: bool


@dataclass(frozen=True)
class LinearCode:
    """A binary linear code held in canonical (RREF, no zero rows) form."""

    generator: Gf2Matrix

    def __post_init__(self) -> None:
        rows = self.generator.rows
        # dup: the columns set in two or more rows, where no pivot may sit.
        seen = dup = 0
        for r in rows:
            dup |= seen & r
            seen |= r
        last_pivot = -1
        for i, r in enumerate(rows):
            if r == 0:
                raise ValueError(f"generator row {i} is zero; use from_rows to canonicalize")
            p = (r & -r).bit_length() - 1
            if p <= last_pivot:
                raise ValueError("generator rows are not in echelon order; use from_rows")
            if (dup >> p) & 1:
                raise ValueError("generator is not fully reduced; use from_rows")
            last_pivot = p

    @classmethod
    def from_rows(cls, matrix: Gf2Matrix) -> LinearCode:
        """Canonicalize a spanning set of rows into a code.

        Dependent and zero rows are absorbed; the result's dimension is the
        rank of the input.
        """
        work, pivots = rref_ints(matrix.rows)
        return cls(Gf2Matrix.from_ints(work[: len(pivots)], matrix.n_cols))

    @property
    def n(self) -> int:
        """Ambient length."""
        return self.generator.n_cols

    @property
    def dimension(self) -> int:
        return self.generator.n_rows

    def pivots(self) -> tuple[int, ...]:
        """Pivot column of each generator row (its lowest set coordinate)."""
        return tuple([(r & -r).bit_length() - 1 for r in self.generator.rows])

    def contains(self, v: Gf2Vector) -> bool:
        """Exact membership by reduction against the canonical generator."""
        if v.length != self.n:
            raise ValueError(f"vector length {v.length} does not match code length {self.n}")
        x = v.bits
        for row, p in zip(self.generator.rows, self.pivots()):
            if (x >> p) & 1:
                x ^= row
        return x == 0

    def weight_distribution(self, cap: int = DEFAULT_ENUMERATION_CAP) -> WeightEnumerator:
        """Exact weight distribution, counting 2^min(k, n-k) words.

        A code with 2k <= n counts its own 2^k words; otherwise
        ``_weight_distributions`` counts its dual's 2^(n-k) words and
        ``macwilliams_transform`` gives this code's distribution back.
        Raises if the dimension k exceeds ``cap``, whichever side is counted.
        """
        d = self.dimension
        if d > cap:
            raise ValueError(
                f"dimension {d} exceeds enumeration cap {cap}; raise the cap to proceed"
            )
        if 2 * d > self.n:
            return self._weight_distributions(cap)[0]
        return self._sliced_count()

    def _weight_distributions(self, cap: int) -> tuple[WeightEnumerator, WeightEnumerator]:
        """This code's distribution and its dual's, from one count of the
        smaller side and one MacWilliams transform."""
        d = self.dimension
        if 2 * d > self.n and d <= cap:  # over the cap, weight_distribution raises
            dual_we = self.dual().weight_distribution(cap)
            return macwilliams_transform(dual_we, self.n - d), dual_we
        we = self.weight_distribution(cap)
        return we, macwilliams_transform(we, d)

    def _sliced_count(self) -> WeightEnumerator:
        """Distribution of the span, counted over bit slices of messages.

        The low t = min(k, _SLICE_BITS) rows span 2^t messages; for each
        coordinate j, its set has bit u set iff message u's word has
        coordinate j set: iff u & v has odd weight, v being column j of the
        low rows' transpose.  So the set is the XOR of tables[c][a], the u
        with u & (a << 5c) odd, over the five-bit chunks a << 5c of v.  The
        high rows give 2^(k-t) cosets m of the slice, and in coset m the set
        of coordinate j is complemented exactly when <g, m> is odd, g being
        column j of the high rows' transpose.  So the coordinates are grouped
        by g, and each group's sets are added once into the bit-planes of its
        sum S_g by ``_carry_save``.  Coset m adds, per group, the planes of
        S_g, or for odd <g, m> the planes XOR full, which hold 2^D - 1 - S_g
        for a D-plane S_g: |G_g| - S_g plus a spare 2^D - 1 - |G_g| that the
        split takes off each weight it files.  Splitting the messages on the
        coset's planes from the top gives the number of words of each weight.
        """
        n = self.n
        rows = self.generator.rows
        t = min(len(rows), _SLICE_BITS)
        full = (1 << (1 << t)) - 1
        bits, clear = [0] * t, full
        for i in reversed(range(t)):
            clear = (clear ^ clear << (1 << i)) & full  # u with bit i clear
            bits[i] = clear ^ full
        tables = [[0] for _ in range(0, t, _TABLE_BITS)]
        for i, bit in enumerate(bits):
            tables[i // _TABLE_BITS] += [x ^ bit for x in tables[i // _TABLE_BITS]]
        columns = transpose_ints(rows, n)
        groups = {0: columns}  # k <= _SLICE_BITS: one group and one coset
        if len(rows) > t:
            groups, low = {}, (1 << t) - 1
            for v in columns:
                groups.setdefault(v >> t, []).append(v & low)
        sums = []  # (g, planes of S_g, spare)
        for g, members in groups.items():
            planes = _carry_save([(0, _slice_sets(members, tables))], len(members))
            sums.append((g, planes, (1 << len(planes)) - 1 - len(members)))
        total = n + sum(spare for _, _, spare in sums)  # sum of 2^D - 1 over groups
        counts = [0] * (n + 1)
        for m in range(1 << (len(rows) - t)):
            planes, offset = sums[0][1], 0
            if len(sums) > 1:
                levels: list[list[int]] = [[] for _ in range(total.bit_length())]
                for g, group, spare in sums:
                    if (g & m).bit_count() & 1:
                        offset += spare
                        group = [p ^ full for p in group]
                    for b, p in enumerate(group):
                        levels[b].append(p)
                planes = _carry_save(enumerate(levels), total)
            # Depth first, so at most two sets per plane are held at once.
            stack = [(0, full, len(planes))]
            while stack:
                w, s, level = stack.pop()
                if not s:
                    continue
                if level:
                    level -= 1
                    top = s & planes[level]
                    stack += ((w, s ^ top, level), (w | 1 << level, top, level))
                else:
                    counts[w - offset] += s.bit_count()
        return WeightEnumerator(n, tuple(counts))

    def dual(self) -> LinearCode:
        """The orthogonal complement under the standard inner product."""
        return LinearCode(nullspace_basis(self.generator))

    def predicate_profile(self) -> PredicateProfile:
        """Decide evenness, double evenness, isotropy, self-duality, spanning.

        Isotropy (code contained in its dual) is G * G^T = 0: every row has
        even weight and every row pair meets in an even number of coordinates.
        Double evenness additionally needs each basis weight divisible by 4;
        with even pairwise meets this is closed under addition.
        """
        rows = self.generator.rows
        union = 0
        for r in rows:
            union |= r
        pair_meets_even = all(
            (rows[i] & rows[j]).bit_count() % 2 == 0
            for i in range(len(rows))
            for j in range(i + 1, len(rows))
        )
        is_even = all(r.bit_count() % 2 == 0 for r in rows)
        is_isotropic = is_even and pair_meets_even
        is_doubly_even = pair_meets_even and all(r.bit_count() % 4 == 0 for r in rows)
        return PredicateProfile(
            is_even=is_even,
            is_doubly_even=is_doubly_even,
            is_isotropic=is_isotropic,
            is_self_dual=is_isotropic and 2 * self.dimension == self.n,
            is_spanning=union == (1 << self.n) - 1,
        )


def _slice_sets(columns: list[int], tables: list[list[int]]) -> Iterator[int]:
    """Each column's slice set: the XOR of one table set per five bits of it."""
    for v in columns:
        x = 0
        for table in tables:
            x ^= table[v & _TABLE_MASK]
            v >>= _TABLE_BITS
        yield x


def _carry_save(terms: Iterable[tuple[int, Iterable[int]]], total: int) -> list[int]:
    """Bit-planes, low first, of the per-message sum of weighted sets.

    terms yields (level, sets), each set adding 2^level to the messages in
    it; total is the sum of those 2^level, the most any message can reach.
    Level b keeps planes[b] and may hold one more set of weight 2^b, held[b],
    exactly when bit b of the weight j added so far is set.  A set arriving at
    a full level goes through a full adder with the two there, which leaves
    their sum in planes[b] and sends the carry up a level, so a set costs one
    full adder per one bit of j from its level up to the first zero, about
    five big-int operations on average.  One pass of adders at the end folds
    the held sets into the planes.
    """
    depth = total.bit_length()
    planes = [0] * depth
    held = [0] * depth
    j = 0
    for level, sets in terms:
        step = 1 << level
        for x in sets:
            b = level
            while (j >> b) & 1:
                a = planes[b]
                y = held[b]
                s = a ^ y
                planes[b] = s ^ x
                x = a & y | s & x
                b += 1
            held[b] = x
            j += step
    carry = 0
    for b in range(depth):
        a = planes[b]
        y = held[b] if (j >> b) & 1 else 0
        s = a ^ y
        planes[b] = s ^ carry
        carry = a & y | s & carry
    return planes


def _krawtchouk_lanes(coeffs: tuple[int, ...] | list[int], size: int, group: int) -> list[int]:
    """Lanes of sum_k coeffs[k] (1+Y)^(n-k) (1-Y)^k, n = len(coeffs) - 1, low first.

    Y = X^group, X = 2^(8 size): the Y^j coefficient, sum_k coeffs[k] K_j(k),
    comes from one Horner pass of O(n) big-int operations and is read back as
    ``group`` lanes of size bytes, each of which must lie within X/2 of zero.
    Adding X/2 to every lane keeps each in [0, X), so none borrows from the
    next; flipping each lane's top bit back leaves it in two's complement,
    read by one ``struct.unpack`` where a lane is 1, 2, 4 or 8 bytes wide.
    """
    shift = 8 * size * group
    acc, power = 0, 1
    for a in coeffs:
        acc += acc << shift
        if a:
            acc += a * power
        power -= power << shift
    count = len(coeffs) * group
    bias = int.from_bytes((bytes(size - 1) + b"\x80") * count, "little")  # X/2 per lane
    raw = ((acc + bias) ^ bias).to_bytes(count * size, "little")
    if size in _FIELD:
        return list(struct.unpack(f"<{count}{_FIELD[size].lower()}", raw))  # signed codes
    read = int.from_bytes  # looked up once, not once per lane
    return [read(raw[i : i + size], "little", signed=True) for i in range(0, count * size, size)]


def macwilliams_transform(we: WeightEnumerator, d: int) -> WeightEnumerator:
    """Dual weight distribution from a dimension-d distribution, exactly.

    The y^j coefficient of sum_i a_i (1+y)^(n-i) (1-y)^i is sum_i a_i K_j(i);
    one that is negative or not divisible by 2^d means the input was not the
    distribution of a dimension-d code.  The sum is one int at y = 2^B, B =
    n + d + 2 bits rounded up to bytes, whose lanes are exact for every input
    accepted here: the counts are nonnegative and sum to 2^d, and |K_j(i)| <=
    C(n, j) <= 2^n, so every coefficient lies within 2^(n+d) < 2^(B-1) of 0.
    """
    if d < 0:
        raise ValueError(f"negative dimension {d}")
    if we.total() != 1 << d:
        raise ValueError(
            f"distribution sums to {we.total()}, expected 2^{d} = {1 << d}"
        )
    n = we.n
    size = (n + d + 9) // 8  # bytes per lane
    out = []
    for j, c in enumerate(_krawtchouk_lanes(we.counts, size, 1)):
        if c < 0 or c % (1 << d):
            raise ValueError(
                f"not a valid code distribution: transform coefficient at weight {j} "
                f"is {c}, not a nonnegative multiple of 2^{d}"
            )
        out.append(c >> d)
    return WeightEnumerator(n, tuple(out))


def parse_generator_text(text: str) -> Gf2Matrix:
    """Parse the matrix text format: one '0'/'1' row per line.

    Blank lines and lines starting with '#' are ignored.  All rows must have
    equal length; errors carry the offending 1-based line number.
    """
    rows: list[int] = []
    width: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        bad = line.translate(_DROP_BITS)
        if bad:
            raise ValueError(f"line {lineno}: unexpected character {bad[0]!r}")
        if width is None:
            width = len(line)
        elif len(line) != width:
            raise ValueError(
                f"line {lineno}: row length {len(line)} differs from first row length {width}"
            )
        rows.append(int(line[::-1], 2))
    if width is None:
        raise ValueError("no generator rows found")
    return Gf2Matrix.from_ints(rows, width)


def format_generator_text(matrix: Gf2Matrix) -> str:
    """Render a matrix in the text format accepted by parse_generator_text,
    which has none for a matrix without rows or columns: that raises ValueError."""
    if not matrix.rows or not matrix.n_cols:
        raise ValueError("a matrix with no rows or no columns has no generator text")
    return "\n".join(matrix.row_strings()) + "\n"
