import random
import re
import tracemalloc
from math import comb

import pytest

from conftest import (
    all_codewords,
    brute_distribution,
    free_column_nullspace,
    krawtchouk,
    load_code,
    random_code,
)
from gf2codes import (
    Gf2Matrix,
    Gf2Vector,
    LinearCode,
    WeightEnumerator,
    format_generator_text,
    macwilliams_transform,
    parse_generator_text,
)
from gf2codes import codes
from gf2codes.codes import _SLICE_BITS, _krawtchouk_lanes
from gf2codes.gf2core import transpose_ints


def brute_dual_words(code: LinearCode) -> set[int]:
    rows = code.generator.rows
    return {
        v
        for v in range(1 << code.n)
        if all((v & r).bit_count() % 2 == 0 for r in rows)
    }


def test_from_rows_examples():
    c = LinearCode.from_rows(Gf2Matrix.from_ints([0b101, 0b110], 3))
    assert (c.n, c.dimension) == (3, 2)
    dup = LinearCode.from_rows(Gf2Matrix.from_ints([0b11, 0b11], 2))
    assert dup.dimension == 1
    dep = LinearCode.from_rows(Gf2Matrix.from_ints([0b101, 0b110, 0b011], 3))
    assert dep.dimension == 2


def test_direct_construction_requires_canonical_rows():
    with pytest.raises(ValueError, match="from_rows"):
        LinearCode(Gf2Matrix.from_ints([0b011, 0b110], 3))
    with pytest.raises(ValueError, match="from_rows"):
        LinearCode(Gf2Matrix.from_ints([0], 3))
    # The second bit in row 0's pivot column sits in a later row.
    with pytest.raises(ValueError, match="not fully reduced"):
        LinearCode(Gf2Matrix.from_ints([0b001, 0b011], 3))
    # Row 1's pivot, coordinate 0, comes before row 0's, coordinate 1.
    with pytest.raises(ValueError, match="not in echelon order"):
        LinearCode(Gf2Matrix.from_ints([0b10, 0b01], 2))


def test_weight_enumerator_rejects_bad_counts():
    with pytest.raises(ValueError, match="^expected 3 counts, got 2$"):
        WeightEnumerator(2, (1, 1))
    with pytest.raises(ValueError, match="^negative count -1 at weight 1$"):
        WeightEnumerator(2, (1, -1, 0))


def test_golay_fixture_shape(golay):
    assert (golay.n, golay.dimension) == (24, 12)
    assert golay.pivots() == tuple(range(12))


def test_weight_distribution_examples(repetition_5, hamming_7_4, golay):
    assert repetition_5.weight_distribution().counts == (1, 0, 0, 0, 0, 1)
    assert hamming_7_4.weight_distribution().counts == (1, 0, 0, 7, 7, 0, 0, 1)
    assert golay.weight_distribution().nonzero() == (
        (0, 1), (8, 759), (12, 2576), (16, 759), (24, 1),
    )


def test_weight_distribution_matches_span_enumeration():
    rng = random.Random(23)
    for _ in range(40):
        code = random_code(rng, rng.randrange(1, 13), rng.randrange(1, 7))
        we = code.weight_distribution()
        assert we.counts == brute_distribution(code)
        assert we.count(0) == 1
        assert we.total() == 1 << code.dimension


def test_high_rate_distribution_matches_span_enumeration():
    """Codes with 2k > n take the dual walk and the transform back."""
    rng = random.Random(29)
    checked = 0
    while checked < 40:
        n = rng.randrange(2, 15)
        code = random_code(rng, n, rng.randrange(n // 2 + 1, n + 1))
        if 2 * code.dimension <= n:
            continue
        assert code.weight_distribution().counts == brute_distribution(code)
        checked += 1


# (n, k): k = 0, k = _SLICE_BITS exactly, k above it (one slice per coset
# offset), n up to 130, and high-rate codes whose counted dual is above it.
SLICE_CASES = [
    (0, 0), (9, 0), (2 * _SLICE_BITS, _SLICE_BITS), (40, _SLICE_BITS),
    (36, _SLICE_BITS + 1), (40, _SLICE_BITS + 3), (130, 5), (130, _SLICE_BITS + 1),
    (2 * _SLICE_BITS + 3, _SLICE_BITS + 2), (2 * _SLICE_BITS + 5, _SLICE_BITS + 3),
]


@pytest.mark.parametrize("n,k", SLICE_CASES, ids=str)
def test_sliced_count_matches_span_enumeration(n, k):
    code = random_code(random.Random(n * 1000 + k), n, k)
    assert code.dimension == k
    assert code.weight_distribution().counts == brute_distribution(code)


def _code_of_dimension(rng: random.Random, n: int, k: int) -> LinearCode:
    while True:
        code = random_code(rng, n, k)
        if code.dimension == k:
            return code


# Lengths at each side of a plane boundary, where the adder tree gains a
# level, with one slice (k <= _SLICE_BITS) and several cosets (k above it).
PLANE_CASES = [(1, 1)] + [
    (n, k)
    for m in range(2, 8)
    for n in (2**m - 1, 2**m, 2**m + 1)
    for k in sorted({1, 13, _SLICE_BITS, _SLICE_BITS + 1, 17})
    if k <= n
]


@pytest.mark.parametrize("n,k", PLANE_CASES, ids=str)
def test_sliced_count_at_plane_boundaries(n, k):
    code = _code_of_dimension(random.Random(n * 100 + k), n, k)
    assert code._sliced_count().counts == brute_distribution(code)


def _code_from_columns(columns: list[int], k: int) -> LinearCode:
    """The code whose generator has column j = columns[j], bit i in row i."""
    rows = [sum(((v >> i) & 1) << j for j, v in enumerate(columns)) for i in range(k)]
    return LinearCode.from_rows(Gf2Matrix.from_ints(rows, len(columns)))


def _group_sizes(code: LinearCode) -> dict[int, int]:
    """Coordinates per high column g, the bits of the rows past the slice."""
    sizes: dict[int, int] = {}
    for v in transpose_ints(code.generator.rows, code.n):
        sizes[v >> _SLICE_BITS] = sizes.get(v >> _SLICE_BITS, 0) + 1
    return sizes


# Each high row's coordinates other than its pivot also lie in low rows, so
# its group holds its pivot, an empty slice set, and the given number more.
@pytest.mark.parametrize("extra", [0, 1, 5], ids=str)
def test_sliced_count_high_row_off_the_low_rows_only_at_its_pivot(extra):
    rng = random.Random(41 + extra)
    t, high = _SLICE_BITS, 2
    columns = [1 << i for i in range(t + high)]
    for i in range(high):
        columns += [rng.randrange(1, 1 << t) | 1 << (t + i) for _ in range(extra)]
    columns += [rng.randrange(1, 1 << t) for _ in range(6)]
    code = _code_from_columns(columns, t + high)
    assert code.dimension == t + high
    low_support = 0
    for r in code.generator.rows[:t]:
        low_support |= r
    for i in range(high):
        assert code.generator.rows[t + i] & ~low_support == 1 << (t + i)
        assert _group_sizes(code)[1 << i] == 1 + extra
    assert code._sliced_count().counts == brute_distribution(code)


def test_sliced_count_with_every_group_nonempty():
    """Three high rows, so eight groups: all present, one of a single
    coordinate, one of exactly 2^D - 1 (no spare) and one of 2^D."""
    rng = random.Random(43)
    t, high = _SLICE_BITS, 3
    sizes = {0: 2, 1: 3, 2: 4, 3: 1, 4: 7, 5: 3, 6: 1, 7: 2}
    columns = [1 << i for i in range(t + high)]
    for g, size in sizes.items():
        columns += [rng.randrange(1, 1 << t) | g << t for _ in range(size)]
    code = _code_from_columns(columns, t + high)
    assert code.dimension == t + high and code.n <= 40
    found = _group_sizes(code)
    assert set(found) == set(range(1 << high))
    assert 1 in found.values() and 3 in found.values() and 8 in found.values()
    assert code._sliced_count().counts == brute_distribution(code)


@pytest.mark.parametrize(
    "n,k", [(n, k) for k in range(15, 19) for n in (k, 21, 26) if n >= k], ids=str
)
def test_sliced_count_over_several_cosets_at_short_lengths(n, k):
    code = _code_of_dimension(random.Random(n * 31 + k), n, k)
    assert code._sliced_count().counts == brute_distribution(code)


def test_reed_muller_2_5_fixture():
    """RM(2,5), [32, 16, 8]: k = 16 counts the primal over four cosets."""
    code = load_code("reed_muller_2_5.txt")
    assert (code.n, code.dimension) == (32, 16)
    assert code.weight_distribution().nonzero() == (
        (0, 1), (8, 620), (12, 13888), (16, 36518), (20, 13888), (24, 620), (32, 1),
    )
    profile = code.predicate_profile()
    assert profile.is_self_dual and profile.is_doubly_even


def test_sliced_count_memory_is_bounded():
    code = random_code(random.Random(17), 128, 17)
    assert code.dimension == 17
    tracemalloc.start()
    try:
        code.weight_distribution()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_even_weight_28_closed_form():
    rows = [1 | (1 << i) for i in range(1, 28)]
    code = LinearCode.from_rows(Gf2Matrix.from_ints(rows, 28))
    assert (code.n, code.dimension) == (28, 27)
    assert code.weight_distribution().counts == tuple(
        comb(28, w) if w % 2 == 0 else 0 for w in range(29)
    )


def krawtchouk_table(n: int) -> list[list[int]]:
    """table[i][j] = K_j(i), from the definition."""
    return [[krawtchouk(n, j, i) for j in range(n + 1)] for i in range(n + 1)]


def transform_reference(table: list[list[int]], counts, d: int) -> tuple[int, ...] | str:
    """sum_i a_i K_j(i) / 2^d for each j, or the error message for the
    first coefficient that is negative or not a multiple of 2^d."""
    out = []
    for j in range(len(counts)):
        c = sum(a * row[j] for a, row in zip(counts, table))
        if c < 0 or c % (1 << d):
            return (f"not a valid code distribution: transform coefficient at weight {j} "
                    f"is {c}, not a nonnegative multiple of 2^{d}")
        out.append(c >> d)
    return tuple(out)


def transform_or_message(we: WeightEnumerator, d: int) -> tuple[int, ...] | str:
    try:
        return macwilliams_transform(we, d).counts
    except ValueError as exc:
        return str(exc)


def test_krawtchouk_rows_match_direct_sum():
    """A point mass at w reads back the row K_j(w), negative values included.
    Signed markers +-X^i at the i-th of several weights, read in groups of
    lanes, give all their rows at once, interleaved, as Delsarte's LP reads
    them."""
    rng = random.Random(49)
    for n in range(49):
        table = krawtchouk_table(n)
        size = (n + 9) // 8
        for w in range(n + 1):
            mass = [0] * (n + 1)
            mass[w] = 1
            assert _krawtchouk_lanes(mass, size, 1) == table[w], (n, w)
        for m in sorted({min(2, n + 1), min(4, n + 1), n + 1}):
            ws = rng.sample(range(n + 1), m)
            markers = [0] * (n + 1)
            for i, w in enumerate(ws):
                markers[w] = (-1) ** i << 8 * size * i
            expected = [(-1) ** i * table[w][j] for j in range(n + 1) for i, w in enumerate(ws)]
            assert _krawtchouk_lanes(markers, size, m) == expected, (n, ws)


def test_krawtchouk_lanes_read_back_as_per_lane_ints():
    # Lanes of 1, 2, 4 and 8 bytes are read by one struct.unpack, others one
    # int.from_bytes at a time.  Against a per-lane int.from_bytes of the
    # biased sum, every lane must come back exactly: at 0, at +-1 and at the
    # extremes +-(X/2 - 1), where a borrow between lanes would show.
    rng = random.Random(30)
    for size in (1, 2, 3, 4, 5, 8, 9):
        half = 1 << 8 * size - 1
        for extra in (0, 1, 7):
            lanes = [0, 1, -1, half - 1, 1 - half, half - 1, 0, 1 - half, -1, 1, 0]
            lanes += [rng.randrange(1 - half, half) for _ in range(extra)]
            packed = sum(v << 8 * size * i for i, v in enumerate(lanes))
            raw = (packed + sum(half << 8 * size * i for i in range(len(lanes)))).to_bytes(
                len(lanes) * size, "little")
            reference = [int.from_bytes(raw[i : i + size], "little") - half
                         for i in range(0, len(raw), size)]
            assert reference == lanes
            # At n = 0 the sum is the constant coeffs[0], read as one group.
            assert _krawtchouk_lanes([packed], size, len(lanes)) == reference, (size, extra)


def test_macwilliams_matches_krawtchouk_sums():
    """Random codes' distributions, and every point mass a_i = 2^d, whose
    coefficients 2^d K_j(i) reach 2^d C(n, j) and go negative for i > 0."""
    rng = random.Random(48)
    for n in range(49):
        table = krawtchouk_table(n)
        for _ in range(3):
            code = random_code(rng, n, rng.randrange(0, min(n, 12) + 1))
            we = code.weight_distribution()
            expected = transform_reference(table, we.counts, code.dimension)
            assert macwilliams_transform(we, code.dimension).counts == expected, (n, code)
        for d in sorted({0, 1, n}):
            for i in range(n + 1):
                counts = [0] * (n + 1)
                counts[i] = 1 << d
                we = WeightEnumerator(n, tuple(counts))
                assert transform_or_message(we, d) == transform_reference(table, counts, d), (
                    n, d, i)


def test_macwilliams_round_trip_at_length_1000():
    rng = random.Random(1000)
    code = random_code(rng, 1000, 6)
    assert code.dimension == 6
    we = code.weight_distribution()
    dual = macwilliams_transform(we, 6)
    assert dual.total() == 1 << 994 and dual.counts[0] == 1
    assert macwilliams_transform(dual, 994) == we


def test_macwilliams_full_space_gives_zero_code():
    for n in range(60, 100):
        full = WeightEnumerator(n, tuple([comb(n, i) for i in range(n + 1)]))
        zero = WeightEnumerator(n, tuple([1] + [0] * n))
        assert macwilliams_transform(full, n) == zero
        assert macwilliams_transform(zero, 0) == full


def test_weight_distribution_cap(even_weight_4):
    with pytest.raises(ValueError, match="cap 2"):
        even_weight_4.weight_distribution(cap=2)


def test_weight_distributions_count_once_and_transform_once(monkeypatch):
    # Both sides of a code, for either rate: one count of the smaller side
    # and one MacWilliams transform, equal to brute force on each side.
    calls = []
    transform = macwilliams_transform
    count = LinearCode._sliced_count
    monkeypatch.setattr(codes, "macwilliams_transform",
                        lambda we, d: calls.append("transform") or transform(we, d))
    monkeypatch.setattr(LinearCode, "_sliced_count",
                        lambda code: calls.append(code.dimension) or count(code))
    rng = random.Random(11)
    for n in range(1, 15):
        for rows in range(n + 1):
            code = random_code(rng, n, rows)
            calls.clear()
            we, dual_we = code._weight_distributions(cap=n)
            k = code.dimension
            assert calls == [min(k, n - k), "transform"], (n, k)
            assert we.counts == brute_distribution(code)
            assert dual_we.counts == brute_distribution(code.dual())
    high_rate = LinearCode.from_rows(Gf2Matrix.from_ints([1 << i for i in range(12)], 13))
    with pytest.raises(ValueError, match="^dimension 12 exceeds enumeration cap 11;"):
        high_rate._weight_distributions(cap=11)


def test_zero_dimensional_code():
    zero = LinearCode.from_rows(Gf2Matrix.from_ints([0, 0], 5))
    assert zero.dimension == 0
    assert zero.weight_distribution().counts == (1, 0, 0, 0, 0, 0)
    assert zero.dual().dimension == 5


def test_dual_examples(hamming_7_4, golay, repetition_5):
    simplex = hamming_7_4.dual()
    assert (simplex.n, simplex.dimension) == (7, 3)
    assert simplex.weight_distribution().counts == (1, 0, 0, 0, 7, 0, 0, 0)
    assert golay.dual() == golay
    even5 = repetition_5.dual()
    assert even5.weight_distribution().counts == tuple(
        comb(5, i) if i % 2 == 0 else 0 for i in range(6)
    )


def test_dual_matches_brute_force_and_involutes():
    rng = random.Random(31)
    for _ in range(30):
        code = random_code(rng, rng.randrange(1, 11), rng.randrange(1, 7))
        dual = code.dual()
        assert set(all_codewords(dual)) == brute_dual_words(code)
        assert dual.dual() == code


def test_dual_matches_free_column_basis():
    rng = random.Random(37)
    for _ in range(60):
        n = rng.randrange(1, 131)
        code = random_code(rng, n, rng.randrange(0, min(n, 20) + 1))
        assert code.dual() == LinearCode.from_rows(free_column_nullspace(code.generator))


def test_macwilliams_examples(golay):
    rep4 = LinearCode.from_rows(Gf2Matrix.from_ints([0b1111], 4))
    assert macwilliams_transform(rep4.weight_distribution(), 1).counts == (1, 0, 6, 0, 1)
    we = golay.weight_distribution()
    assert macwilliams_transform(we, 12) == we


def test_macwilliams_agrees_with_dual_enumeration():
    rng = random.Random(37)
    for _ in range(30):
        code = random_code(rng, rng.randrange(1, 12), rng.randrange(1, 7))
        we = code.weight_distribution()
        transformed = macwilliams_transform(we, code.dimension)
        assert transformed.counts == brute_distribution(code.dual())
        back = macwilliams_transform(transformed, code.n - code.dimension)
        assert back == we


def test_macwilliams_rejects_bad_input():
    cases = [
        (WeightEnumerator(2, (1, 1, 1)), 1, "distribution sums to 3, expected 2^1 = 2"),
        (WeightEnumerator(3, (1, 3, 0, 0)), 2,
         "not a valid code distribution: transform coefficient at weight 1 is 6, "
         "not a nonnegative multiple of 2^2"),
        (WeightEnumerator(4, (0, 0, 0, 0, 4)), 2,
         "not a valid code distribution: transform coefficient at weight 1 is -16, "
         "not a nonnegative multiple of 2^2"),
        (WeightEnumerator(1, (1, 0)), -1, "negative dimension -1"),
    ]
    for we, d, message in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            macwilliams_transform(we, d)


def test_predicate_profile_fixtures(golay, hamming_7_4, hamming_8_4, even_weight_4):
    g = golay.predicate_profile()
    assert (g.is_even, g.is_doubly_even, g.is_isotropic, g.is_self_dual, g.is_spanning) == (
        True, True, True, True, True,
    )
    h7 = hamming_7_4.predicate_profile()
    assert not h7.is_even and h7.is_spanning and not h7.is_isotropic
    h8 = hamming_8_4.predicate_profile()
    assert h8.is_doubly_even and h8.is_self_dual
    e4 = even_weight_4.predicate_profile()
    assert e4.is_even and not e4.is_doubly_even and not e4.is_isotropic
    assert not e4.is_self_dual and e4.is_spanning


def test_predicate_profile_matches_enumeration():
    rng = random.Random(41)
    for _ in range(40):
        code = random_code(rng, rng.randrange(1, 11), rng.randrange(1, 6))
        words = all_codewords(code)
        profile = code.predicate_profile()
        assert profile.is_even == all(w.bit_count() % 2 == 0 for w in words)
        assert profile.is_doubly_even == all(w.bit_count() % 4 == 0 for w in words)
        dual_words = brute_dual_words(code)
        assert profile.is_isotropic == all(w in dual_words for w in words)
        assert profile.is_self_dual == (
            profile.is_isotropic and 2 * code.dimension == code.n
        )
        union = 0
        for w in words:
            union |= w
        assert profile.is_spanning == (union == (1 << code.n) - 1)


def test_spanning_iff_dual_has_no_weight_1():
    rng = random.Random(43)
    for _ in range(40):
        code = random_code(rng, rng.randrange(2, 12), rng.randrange(1, 6))
        dual_we = code.dual().weight_distribution()
        assert code.predicate_profile().is_spanning == (dual_we.count(1) == 0)


def test_doubly_even_implies_isotropic(golay, hamming_8_4):
    rng = random.Random(47)
    for base in (golay, hamming_8_4):
        rows = base.generator.rows
        for _ in range(20):
            picked = [r for r in rows if rng.random() < 0.5]
            sub = LinearCode.from_rows(Gf2Matrix.from_ints(picked, base.n))
            profile = sub.predicate_profile()
            assert profile.is_doubly_even
            assert profile.is_isotropic


def test_contains(golay, repetition_5):
    assert golay.contains(Gf2Vector(24, (1 << 24) - 1))
    assert golay.contains(Gf2Vector(24, 0))
    assert not repetition_5.contains(Gf2Vector.from_string("10000"))
    with pytest.raises(ValueError, match="length"):
        golay.contains(Gf2Vector(23, 0))
    rng = random.Random(53)
    for _ in range(20):
        code = random_code(rng, 9, 4)
        words = set(all_codewords(code))
        for _ in range(30):
            v = rng.getrandbits(9)
            assert code.contains(Gf2Vector(9, v)) == (v in words)


def test_text_format_roundtrip(golay):
    text = format_generator_text(golay.generator)
    assert LinearCode.from_rows(parse_generator_text(text)) == golay


def test_text_format_refuses_a_matrix_it_cannot_write():
    # The dual of the full space has no rows, and parse_generator_text
    # rejects a text without rows.
    full = LinearCode.from_rows(Gf2Matrix.from_ints([1, 2, 4, 8], 4))
    for matrix in (full.dual().generator, Gf2Matrix.from_ints([0], 0)):
        with pytest.raises(ValueError, match="no rows or no columns"):
            format_generator_text(matrix)
    with pytest.raises(ValueError, match="no generator rows"):
        parse_generator_text("\n")


def test_text_format_ignores_comments_and_blanks():
    m = parse_generator_text("# header\n\n101\n # not a comment? no: stripped\n011\n")
    assert m.n_rows == 2


def test_text_format_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 3"):
        parse_generator_text("101\n011\n01\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_generator_text("101\n0a1\n")
    with pytest.raises(ValueError, match="no generator rows"):
        parse_generator_text("# nothing\n")


# int() accepts each of these in a base-2 literal; the parser must not.
@pytest.mark.parametrize("ch", ["_", "+", " ", "\u0661"], ids=ascii)
def test_text_format_rejects_what_int_accepts(ch):
    message = re.escape(f"line 3: unexpected character {ch!r}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        parse_generator_text(f"1011\n# c\n1{ch}01\n")
    # A bad character is reported ahead of a length mismatch.
    with pytest.raises(ValueError, match=f"^{message}$"):
        parse_generator_text(f"1011\n\n1{ch}1\n")
