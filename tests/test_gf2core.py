import random
import re

import pytest

from conftest import (
    FIXTURES,
    column_scan_rref,
    load_code,
    per_bit_nullspace,
    per_bit_transpose,
    random_code,
)
from gf2codes import Gf2Matrix, Gf2Vector, LinearCode, nullspace_basis, parse_generator_text, rref
from gf2codes.gf2core import _swap_masks, rref_ints, transpose_ints


def test_str_lists_coordinates_in_order():
    rng = random.Random(41)
    for length in range(131):
        for _ in range(3):
            v = Gf2Vector(length, rng.getrandbits(length))
            want = "".join("1" if (v.bits >> i) & 1 else "0" for i in range(length))
            assert str(v) == want
    assert str(Gf2Vector(0, 0)) == ""
    assert str(Gf2Vector(3, 0b001)) == "100"


def test_from_string_inverts_str_and_rejects_what_int_would_take():
    rng = random.Random(43)
    for length in range(131):
        text = "".join(rng.choice("01") for _ in range(length))
        v = Gf2Vector.from_string(text)
        assert (v.length, str(v)) == (length, text)
    # int(..., 2) would take all but "01x" as they are.
    for text, at in [("1_1", 1), (" 1", 0), ("1\n", 1), ("+1", 0), ("0\uff11", 1), ("01x", 2)]:
        want = f"character {at} is {text[at]!r}, expected '0' or '1'"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            Gf2Vector.from_string(text)


def test_vector_validation():
    with pytest.raises(ValueError):
        Gf2Vector(3, 0b1000)
    with pytest.raises(ValueError):
        Gf2Vector(-1, 0)
    with pytest.raises(ValueError):
        Gf2Vector.from_string("01x")


def test_matrix_rows_are_ints_checked_against_the_width():
    m = Gf2Matrix.from_ints([0b101, 0, 0b111], 3)
    assert m.rows == (0b101, 0, 0b111) and all(type(r) is int for r in m.rows)
    assert parse_generator_text("101\n011\n").rows == (0b101, 0b110)  # column j is bit j
    with pytest.raises(ValueError, match=r"^row 1 is -1, outside \[0, 2\^3\)$"):
        Gf2Matrix.from_ints([0b101, -1], 3)
    with pytest.raises(ValueError, match=r"^row 2 is 8, outside \[0, 2\^3\)$"):
        Gf2Matrix.from_ints([1, 2, 8], 3)
    with pytest.raises(ValueError, match="row 0"):
        Gf2Matrix.from_ints([1], 0)
    with pytest.raises(ValueError, match="negative column count -1"):
        Gf2Matrix.from_ints([], -1)


def test_row_strings_list_columns_in_order():
    rng = random.Random(43)
    for n in range(70):
        rows = [rng.getrandbits(n) for _ in range(3)]
        m = Gf2Matrix.from_ints(rows, n)
        assert m.row_strings() == [str(Gf2Vector(n, r)) for r in rows]
    assert Gf2Matrix.from_ints([0, 0], 0).row_strings() == ["", ""]
    assert Gf2Matrix.from_ints([], 5).row_strings() == []


def test_rref_hand_example():
    res = rref(Gf2Matrix.from_ints([0b101, 0b110, 0b011], 3))
    assert res.rank == 2
    assert res.pivots == (0, 1)
    assert res.matrix.row_strings() == ["101", "011", "000"]


def test_rref_zero_matrix_is_fixed():
    res = rref(Gf2Matrix.from_ints([0, 0], 4))
    assert res.rank == 0
    assert res.pivots == ()
    assert res.matrix.rows == (0, 0)


def test_rref_identity_is_fixed():
    m = Gf2Matrix.from_ints([1, 2, 4], 3)
    assert rref(m).matrix == m


def test_rref_idempotent_and_span_preserving():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randrange(1, 12)
        k = rng.randrange(1, 8)
        m = Gf2Matrix.from_ints([rng.getrandbits(n) for _ in range(k)], n)
        res = rref(m)
        assert rref(res.matrix) == res
        # every original row reduces to zero against the reduced rows
        rows = res.matrix.rows[: res.rank]
        for orig in m.rows:
            x = orig
            for row, p in zip(rows, res.pivots):
                if (x >> p) & 1:
                    x ^= row
            assert x == 0


def test_rref_ints_matches_column_scan():
    """n <= 140, k <= 40: no rows, n = 0, zero, repeated and dependent rows,
    and full rank; and the analyze shapes, k 15-20 at n up to 128, as random
    rows, as rows already reduced and with a dependent row added."""
    rng = random.Random(13)
    cases = [([], 0), ([0], 0), ([0, 0], 0)]
    for n in (1, 2, 63, 64, 65, 140):
        cases += [([], n), ([0, 0], n), ([1 << i for i in rng.sample(range(n), min(n, 40))], n)]
    for k in range(15, 21):
        for n in sorted({k, 26, 40, 64, 128} - set(range(k))):
            rows = [rng.getrandbits(n) for _ in range(k)]
            reduced = column_scan_rref(rows, n)[0]
            cases += [(rows, n), (reduced, n), (reduced + [reduced[0] ^ reduced[-1]], n)]
    for _ in range(300):
        n = rng.randrange(0, 141)
        rows = [rng.getrandbits(n) for _ in range(rng.randrange(0, 41))]
        if rows and rng.random() < 0.5:
            rows[-3:] = [0, rows[0] ^ rows[-1], rows[rng.randrange(len(rows))]]
        rng.shuffle(rows)
        cases.append((rows, n))
    full_rank = 0
    for rows, n in cases:
        work, pivots = rref_ints(rows)
        assert (work, pivots) == column_scan_rref(rows, n), (rows, n)
        full_rank += 0 < len(pivots) == len(rows)
    assert full_rank >= 10


def test_nullspace_examples():
    ns = nullspace_basis(Gf2Matrix.from_ints([0b111], 3))
    assert ns.n_rows == 2
    even = Gf2Matrix.from_ints([0b0011, 0b0110, 0b1100], 4)
    assert nullspace_basis(even).rows == (0b1111,)
    identity = Gf2Matrix.from_ints([1, 2, 4, 8], 4)
    assert nullspace_basis(identity).n_rows == 0


def test_nullspace_orthogonal_independent_and_sized():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randrange(1, 12)
        k = rng.randrange(0, 8)
        m = Gf2Matrix.from_ints([rng.getrandbits(n) for _ in range(k)], n)
        ns = nullspace_basis(m)
        assert ns.n_rows == n - rref(m).rank
        for b in ns.rows:
            assert all((b & row).bit_count() % 2 == 0 for row in m.rows)
        assert rref(ns).rank == ns.n_rows


def _nullspace_cases():
    """Random matrices up to n = 130 with zero, repeated and dependent rows."""
    rng = random.Random(41)
    cases = [Gf2Matrix.from_ints([], 0), Gf2Matrix.from_ints([0], 0)]
    for n in (1, 2, 7, 64, 65, 128, 130):
        cases.append(Gf2Matrix.from_ints([], n))
        cases.append(Gf2Matrix.from_ints([0, 0], n))
        # Full rank: the identity rows, shuffled and mixed, then one more row.
        rows = [1 << i for i in range(n)]
        rng.shuffle(rows)
        for i in range(1, n):
            rows[i] ^= rows[i - 1] if rng.random() < 0.5 else 0
        cases.append(Gf2Matrix.from_ints(rows + [rng.getrandbits(n)], n))
    for _ in range(120):
        n = rng.randrange(1, 131)
        rows = [rng.getrandbits(n) for _ in range(rng.randrange(0, min(n, 24) + 1))]
        if rows and rng.random() < 0.5:
            rows.append(0)
            rows.append(rows[0] ^ rows[-2])
            rows.append(rows[rng.randrange(len(rows))])
        rng.shuffle(rows)
        cases.append(Gf2Matrix.from_ints(rows, n))
    return cases


def test_nullspace_is_reduced_echelon():
    for m in _nullspace_cases():
        ns = nullspace_basis(m)
        assert LinearCode(ns) == LinearCode.from_rows(ns)
        assert ns.n_rows == m.n_cols - rref(m).rank
        for b in ns.rows:
            assert all((b & row).bit_count() % 2 == 0 for row in m.rows)


def _transpose_shapes():
    """(rows, width): empty and 1 x 1, each side at 7/8/9 up to 127/128/129
    (the block sizes' edges) against short, equal and long other sides,
    1000 x 3, 3 x 1000, and random shapes."""
    edges = [b + d for b in (8, 16, 32, 64, 128) for d in (-1, 0, 1)]
    shapes = [(0, 0), (0, 5), (5, 0), (1, 1), (1000, 3), (3, 1000)]
    for e in edges:
        for other in (1, 3, e, 2 * e + 1, 300):
            shapes += [(e, other), (other, e)]
    rng = random.Random(53)
    shapes += [(rng.randrange(0, 200), rng.randrange(0, 200)) for _ in range(150)]
    return shapes


def test_transpose_ints_matches_per_bit_transpose():
    rng = random.Random(59)
    for k, n in _transpose_shapes():
        rows = [rng.getrandbits(n) for _ in range(k)]
        if rows and rng.random() < 0.3:
            rows[0] = (1 << n) - 1
        cols = transpose_ints(rows, n)
        assert cols == per_bit_transpose(rows, n), (k, n)
        assert transpose_ints(cols, k) == rows, (k, n)


def test_transpose_caches_masks_of_small_strips_only():
    """A strip of at most 512 bytes has B <= 64, so the 64 cached keys hold at
    most 64 x 6 masks of 512 bytes; larger strips build their masks per call."""
    _swap_masks.cache_clear()
    assert transpose_ints([1] * 1000, 6) == [(1 << 1000) - 1] + [0] * 5  # 1000-byte strip
    assert transpose_ints([1] * 17, 129)[0] == (1 << 17) - 1  # 32 rows of 20 bytes
    assert _swap_masks.cache_info().currsize == 0
    assert transpose_ints([1] * 17, 128)[0] == (1 << 17) - 1  # 32 rows of 16 bytes
    assert _swap_masks.cache_info().currsize == 1


def _pivot_runs_matrix(rng: random.Random, n: int, runs: int) -> Gf2Matrix:
    """Rows whose highest bits fill `runs` separate runs of consecutive columns."""
    tops: list[int] = []
    start = rng.randrange(0, 3)
    for _ in range(runs):
        length = rng.randrange(1, 6)
        tops += range(start, min(start + length, n))
        start += length + rng.randrange(1, 4)
    rows = [1 << q | rng.getrandbits(q) if q else 1 for q in tops]
    rng.shuffle(rows)
    return Gf2Matrix.from_ints(rows, n)


def test_nullspace_matches_per_bit_oracle():
    """Random shapes, every fixture, a [1000, 6] code and pivots in 1-6 runs."""
    rng = random.Random(61)
    cases = _nullspace_cases()
    cases += [load_code(p.name).generator for p in sorted(FIXTURES.glob("*.txt"))]
    cases.append(random_code(random.Random(1000), 1000, 6).generator)
    for runs in range(1, 7):
        for n in (runs * 9, 40, 130):
            cases.append(_pivot_runs_matrix(rng, n, runs))
    for _ in range(100):
        n = rng.randrange(1, 200)
        rows = [rng.getrandbits(n) for _ in range(rng.randrange(0, min(n, 40) + 1))]
        cases.append(Gf2Matrix.from_ints(rows, n))
    for m in cases:
        assert nullspace_basis(m) == per_bit_nullspace(m), m.n_cols
