import random
from collections import Counter

import pytest

from conftest import all_codewords, load_code, per_bit_restrict, random_code
from gf2codes import (
    Gf2Matrix,
    Gf2Vector,
    LinearCode,
    project,
    projected_weight,
    shorten,
    spanning_form,
    subcode_avoiding,
)


def test_projected_weight_examples():
    assert projected_weight(40, 40, 40) == 20
    assert projected_weight(24, 24, 40) == 4
    assert projected_weight(40, 0, 40) == 0
    assert projected_weight(0, 5, 5) == 0
    assert projected_weight(3, 7, 4) == 3  # disjoint supports: (a, a+b, b) -> a
    assert projected_weight(56, 32, 24) == 32


def test_projected_weight_rejects_impossible_triples():
    with pytest.raises(ValueError, match="unrealizable weight triple.*odd"):
        projected_weight(3, 2, 4)
    with pytest.raises(ValueError, match=r"unrealizable weight triple.*< 0"):
        projected_weight(2, 2, 40)
    with pytest.raises(ValueError, match="unrealizable weight triple.*nonnegative"):
        projected_weight(-1, 2, 3)
    # |v| = 10 and |w| = 4 force |v + w| >= 6, in either order.
    with pytest.raises(ValueError, match=r"unrealizable weight triple \(10, 2, 4\).*> \|w\|"):
        projected_weight(10, 2, 4)
    with pytest.raises(ValueError, match=r"unrealizable weight triple \(2, 10, 4\).*> \|w\|"):
        projected_weight(2, 10, 4)


def test_projected_weight_raises_exactly_without_a_pair_of_supports():
    # w is the first |w| coordinates; v ranges over every support in the
    # |v| + |w| coordinates that any pair with these weights needs at most.
    for wv in range(6):
        for wvw in range(6):
            for ww in range(6):
                w = (1 << ww) - 1
                outside = {(v & ~w).bit_count() for v in range(1 << (wv + ww))
                           if v.bit_count() == wv and (v ^ w).bit_count() == wvw}
                try:
                    got = projected_weight(wv, wvw, ww)
                except ValueError:
                    assert not outside, (wv, wvw, ww)
                    continue
                assert outside == {got}, (wv, wvw, ww)


def test_projected_weight_matches_coordinate_count():
    rng = random.Random(67)
    for _ in range(30):
        code = random_code(rng, rng.randrange(2, 12), rng.randrange(1, 6))
        words = all_codewords(code)
        nonzero = [w for w in words if w]
        if not nonzero:
            continue
        w = rng.choice(nonzero)
        for v in words:
            expected = (v & ~w).bit_count()
            got = projected_weight(
                v.bit_count(), (v ^ w).bit_count(), w.bit_count()
            )
            assert got == expected


def test_project_golay_along_weight_8_word(golay):
    w8 = next(
        w for w in all_codewords(golay) if w.bit_count() == 8
    )
    image = project(golay, Gf2Vector(24, w8))
    assert (image.n, image.dimension) == (16, 11)
    profile = image.predicate_profile()
    assert profile.is_even and not profile.is_doubly_even
    assert image.weight_distribution().nonzero() == (
        (0, 1), (4, 140), (6, 448), (8, 870), (10, 448), (12, 140), (16, 1),
    )


def test_project_along_full_support_word():
    rep4 = LinearCode.from_rows(Gf2Matrix.from_ints([0b1111], 4))
    image = project(rep4, Gf2Vector(4, 0b1111))
    assert (image.n, image.dimension) == (0, 0)


def test_project_along_disjoint_sum_kills_dimension():
    v1 = Gf2Vector(6, 0b0011)
    v2 = Gf2Vector(6, 0b1100)
    code = LinearCode.from_rows(Gf2Matrix.from_ints([v1.bits, v2.bits], 6))
    image = project(code, Gf2Vector(6, 0b1111))
    assert (image.n, image.dimension) == (2, 0)


def test_project_errors(golay):
    with pytest.raises(ValueError, match="zero word"):
        project(golay, Gf2Vector(24, 0))
    with pytest.raises(ValueError, match="not a codeword"):
        project(golay, Gf2Vector(24, 0b1))


def test_project_dimension_and_weights_match_enumeration():
    rng = random.Random(71)
    for _ in range(25):
        code = random_code(rng, rng.randrange(2, 11), rng.randrange(1, 6))
        words = all_codewords(code)
        nonzero = [w for w in words if w]
        if not nonzero:
            continue
        w = rng.choice(nonzero)
        image = project(code, Gf2Vector(code.n, w))
        kernel = [v for v in words if v & ~w == 0]
        assert len(kernel) == 1 << (code.dimension - image.dimension)
        masked = {v & ~w for v in words}
        hist = Counter(m.bit_count() for m in masked)
        assert image.weight_distribution().counts == tuple(
            hist.get(i, 0) for i in range(image.n + 1)
        )


def test_shorten_even_weight_code(even_weight_4):
    s1 = shorten(even_weight_4, [0])
    assert (s1.n, s1.dimension) == (3, 2)
    assert s1.weight_distribution().counts == (1, 0, 3, 0)
    s2 = shorten(even_weight_4, [0, 1])
    assert (s2.n, s2.dimension) == (2, 1)
    assert s2.weight_distribution().counts == (1, 0, 1)


def test_shorten_golay(golay):
    s = shorten(golay, [0, 1])
    assert (s.n, s.dimension) == (22, 10)
    assert all(w == 0 or w >= 8 for w, c in enumerate(s.weight_distribution().counts) if c)


def test_shorten_repetition_to_zero_code():
    rep3 = LinearCode.from_rows(Gf2Matrix.from_ints([0b111], 3))
    s = shorten(rep3, [0])
    assert (s.n, s.dimension) == (2, 0)


def test_shorten_rejects_bad_coordinates(even_weight_4):
    with pytest.raises(ValueError, match=r"outside \[0, 4\)"):
        shorten(even_weight_4, [5])
    with pytest.raises(ValueError, match="outside"):
        shorten(even_weight_4, [-1])


def test_shorten_matches_enumeration():
    rng = random.Random(73)
    for _ in range(25):
        code = random_code(rng, rng.randrange(2, 10), rng.randrange(1, 6))
        k = rng.randrange(1, code.n)
        coords = sorted(rng.sample(range(code.n), k))
        short = shorten(code, coords)
        assert short.n == code.n - k
        assert short.dimension >= code.dimension - k
        keep = [i for i in range(code.n) if i not in coords]
        expected = set()
        for v in all_codewords(code):
            if all(not (v >> c) & 1 for c in coords):
                expected.add(
                    sum(((v >> old) & 1) << new for new, old in enumerate(keep))
                )
        assert set(all_codewords(short)) == expected


def test_shorten_on_duplicated_column_pair_costs_one_dimension(hamming_7_4):
    # Duplicating a coordinate puts a weight-2 word in the dual; shortening
    # on both of its coordinates then removes a single constraint.
    rows = hamming_7_4.generator.rows
    doubled = LinearCode.from_rows(
        Gf2Matrix.from_ints([(r << 1) | (r & 1) for r in rows], 8)
    )
    assert doubled.dual().weight_distribution().count(2) >= 1
    s = shorten(doubled, [0, 1])
    assert s.dimension == doubled.dimension - 1


def test_subcode_avoiding(golay):
    ones = Gf2Vector(24, (1 << 24) - 1)
    sub = subcode_avoiding(golay, ones)
    assert sub.dimension == 11
    assert not sub.contains(ones)
    for row in sub.generator.rows:
        assert golay.contains(Gf2Vector(24, row))
    w8 = next(r for r in all_codewords(golay) if r.bit_count() == 8)
    sub8 = subcode_avoiding(golay, Gf2Vector(24, w8))
    assert sub8.dimension == 11
    assert not sub8.contains(Gf2Vector(24, w8))


def test_subcode_avoiding_repetition_gives_zero_code():
    rep3 = LinearCode.from_rows(Gf2Matrix.from_ints([0b111], 3))
    sub = subcode_avoiding(rep3, Gf2Vector(3, 0b111))
    assert (sub.n, sub.dimension) == (3, 0)


def test_subcode_avoiding_errors(golay):
    with pytest.raises(ValueError, match="zero word"):
        subcode_avoiding(golay, Gf2Vector(24, 0))
    with pytest.raises(ValueError, match="not a codeword"):
        subcode_avoiding(golay, Gf2Vector(24, 0b11))


def test_subcode_avoiding_random():
    rng = random.Random(79)
    for _ in range(25):
        code = random_code(rng, rng.randrange(2, 11), rng.randrange(1, 6))
        nonzero = [w for w in all_codewords(code) if w]
        if not nonzero:
            continue
        v = Gf2Vector(code.n, rng.choice(nonzero))
        sub = subcode_avoiding(code, v)
        assert sub.dimension == code.dimension - 1
        assert not sub.contains(v)
        assert all(code.contains(Gf2Vector(code.n, r)) for r in sub.generator.rows)
        pivot_row = next(i for i, p in enumerate(code.pivots()) if (v.bits >> p) & 1)
        rows = [r for i, r in enumerate(code.generator.rows) if i != pivot_row]
        assert sub == LinearCode.from_rows(Gf2Matrix.from_ints(rows, code.n))


def test_spanning_form_strips_dead_coordinates(hamming_7_4):
    padded_rows = [r << 1 for r in hamming_7_4.generator.rows]
    padded = LinearCode.from_rows(Gf2Matrix.from_ints(padded_rows, 9))
    assert not padded.predicate_profile().is_spanning
    stripped = spanning_form(padded)
    assert stripped == hamming_7_4
    assert spanning_form(hamming_7_4) == hamming_7_4


def test_spanning_form_preserves_weights():
    rng = random.Random(83)
    for _ in range(25):
        code = random_code(rng, rng.randrange(1, 11), rng.randrange(1, 6))
        stripped = spanning_form(code)
        assert stripped.dimension == code.dimension
        assert stripped.predicate_profile().is_spanning or stripped.n == 0
        assert (
            stripped.weight_distribution().nonzero()
            == code.weight_distribution().nonzero()
        )


def test_surgery_matches_per_bit_deletion():
    """project, shorten and spanning_form against rows rebuilt bit by bit."""
    rng = random.Random(89)
    codes = [load_code(name) for name in ("golay_24_12.txt", "hamming_16_11.txt",
                                          "repetition_5.txt", "even_weight_4.txt")]
    for _ in range(80):
        n = rng.randrange(1, 200)
        code = random_code(rng, n, rng.randrange(0, min(n, 20) + 1))
        if rng.random() < 0.3:
            dead = rng.getrandbits(n)
            code = LinearCode.from_rows(
                Gf2Matrix.from_ints([r & ~dead for r in code.generator.rows], n))
        codes.append(code)
    codes.append(random_code(random.Random(1000), 1000, 6))
    for code in codes:
        rows = code.generator.rows
        union = 0
        for r in rows:
            union |= r
        assert spanning_form(code) == per_bit_restrict(rows, code.n, ~union)
        if rows:
            w = rng.choice(rows) ^ (rng.choice(rows) if rng.random() < 0.5 else 0)
            if w:
                assert project(code, Gf2Vector(code.n, w)) == per_bit_restrict(rows, code.n, w)
        coords = rng.sample(range(code.n), rng.randrange(0, min(code.n, 8) + 1))
        vanishing = list(rows)  # spans the subcode vanishing on coords
        for c in coords:
            hit = next((r for r in vanishing if (r >> c) & 1), 0)
            vanishing = [r ^ hit if (r >> c) & 1 else r for r in vanishing if r != hit]
        dropped = sum(1 << c for c in coords)
        assert shorten(code, coords) == per_bit_restrict(vanishing, code.n, dropped)
