"""End-to-end acceptance checks, one test per criterion.

Each test wraps its body in ``criterion(...)`` so the run emits a single
pass/fail line per criterion (see the terminal summary hook in conftest).
Timed criteria assert their own wall-clock budget.
"""

import random
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

import pytest

import conftest
from conftest import all_codewords, brute_distribution, cross_validate, load_code, random_code
from gf2codes import (
    Gf2Matrix,
    Gf2Vector,
    LinearCode,
    a56_sharpness_construction,
    macwilliams_transform,
    max_dimension_exhaustive,
    min_union_length,
    moment_identities_check,
    project,
    projected_weight,
    solve_weight_counts,
    spanning_form,
    verify_lemma_2_6,
    verify_remark_a56,
    verify_theorem_a,
)
from gf2codes.cli import run


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except BaseException:
        conftest.ACCEPTANCE_RESULTS.append((num, desc, "FAIL"))
        print(f"[acceptance] criterion {num} ({desc}): FAIL")
        raise
    conftest.ACCEPTANCE_RESULTS.append((num, desc, "PASS"))
    print(f"[acceptance] criterion {num} ({desc}): PASS")


def test_criterion_1_macwilliams_exactness():
    with criterion(1, "transform equals dual enumeration on 200 random codes"):
        start = time.perf_counter()
        rng = random.Random(2024)
        for _ in range(200):
            code = random_code(rng, rng.randrange(1, 19), rng.randrange(1, 11))
            we = code.weight_distribution()
            dual = code.dual()
            transformed = macwilliams_transform(we, code.dimension)
            assert transformed.counts == brute_distribution(dual)
            assert macwilliams_transform(transformed, dual.dimension) == we
        elapsed = time.perf_counter() - start
        assert elapsed < 30, f"took {elapsed:.1f}s"


def test_criterion_2_golay_fixture():
    with criterion(2, "Golay [24,12] distribution, predicates, all-ones"):
        code = load_code("golay_24_12.txt")
        histogram = Counter(w.bit_count() for w in all_codewords(code))
        assert sorted(histogram.items()) == [
            (0, 1), (8, 759), (12, 2576), (16, 759), (24, 1),
        ]
        assert code.weight_distribution().nonzero() == tuple(sorted(histogram.items()))
        profile = code.predicate_profile()
        assert profile.is_doubly_even and profile.is_isotropic
        assert profile.is_self_dual and profile.is_spanning
        assert code.contains(Gf2Vector(24, (1 << 24) - 1))


def test_criterion_3_moment_identities():
    with criterion(3, "four identities on 100 random spanning codes"):
        rng = random.Random(2025)
        checked = 0
        while checked < 100:
            code = spanning_form(
                random_code(rng, rng.randrange(2, 17), rng.randrange(1, 9))
            )
            if code.n < 1 or code.dimension < 1:
                continue
            assert moment_identities_check(code).all_hold
            checked += 1
        padded = LinearCode.from_rows(
            Gf2Matrix.from_ints([r << 1 for r in code.generator.rows], code.n + 1)
        )
        with pytest.raises(ValueError, match="spanning"):
            moment_identities_check(padded)


def test_criterion_4_closed_form_counts():
    with criterion(4, "count solver closed forms for {24,32} and (65|66, 13)"):
        for d in range(1, 17):
            scale = Fraction(2) ** (d - 4)
            for n in range(1, 129):
                sol = solve_weight_counts(n, d, (24, 32))
                assert sol.expressions[24].const == scale * (64 - n) - 4
                assert sol.expressions[32].const == scale * (n - 48) + 3
        f65 = solve_weight_counts(65, 13, (24, 32, 40, 56)).expressions[56]
        assert (f65.const, f65.a2_coeff, f65.a3_coeff) == (
            Fraction(-5, 2), Fraction(1, 2), Fraction(-1, 2),
        )
        f66 = solve_weight_counts(66, 13, (24, 32, 40, 56)).expressions[56]
        assert (f66.const, f66.a2_coeff, f66.a3_coeff) == (
            Fraction(-13, 2), Fraction(1), Fraction(-1, 2),
        )


def test_criterion_5_two_weight_divisibility_scan():
    with criterion(5, "2-adic contradiction for d in 10..16, none at d=9"):
        start = time.perf_counter()
        for d in range(10, 17):
            report = verify_lemma_2_6(d, (1, 128))
            assert report.overall, f"d={d}"
            scan = report.steps[1].data
            assert scan["valuations_seen"] == [8]
            assert scan["required_valuation"] == d - 1
            assert scan["admissible_without_contradiction"] == []
        tie = verify_lemma_2_6(9, (1, 128))
        assert not tie.overall
        assert tie.steps[1].data["lengths_without_contradiction"] == list(range(1, 129))
        elapsed = time.perf_counter() - start
        assert elapsed < 1, f"took {elapsed:.2f}s"


def test_criterion_6_union_bound_and_sharpness():
    with criterion(6, "union bound min_union_length(56,56,24)=68, sharp at 68"):
        assert min_union_length(56, 56, 24) == 68
        assert verify_remark_a56(67).status
        sharp = a56_sharpness_construction()
        assert sharp.n == 68
        assert sharp.weight_distribution().count(56) == 2
        assert sharp.weight_distribution().nonzero() == ((0, 1), (24, 1), (56, 2))


def test_criterion_7_dimension_bound_replay():
    with criterion(7, "13-dimensional counterexample refuted, CLI exit 0"):
        start = time.perf_counter()
        report = verify_theorem_a()
        assert report.overall
        by_id = {s.id: s for s in report.steps}
        assert by_id["n65-count-solve"].data["a56"] == "-5/2 + 1/2*a2_star - 1/2*a3_star"
        assert by_id["n66-count-solve"].data["a56"] == "-13/2 + a2_star - 1/2*a3_star"
        assert by_id["n64-unique-56"].data["min_union_length"] == 68
        assert by_id["length-window"].data["length_window"] == [64, 65, 66]
        elapsed = time.perf_counter() - start
        assert elapsed < 1, f"took {elapsed:.2f}s"
        assert run(["verify", "theorem-a"]) == 0


def test_criterion_8_projected_weight_formula():
    with criterion(8, "projected weights and dimension drop on 50 random codes"):
        rng = random.Random(2026)
        checked = 0
        while checked < 50:
            code = random_code(rng, rng.randrange(4, 15), rng.randrange(1, 9))
            if code.dimension < 1:
                continue
            words = all_codewords(code)
            word_set = set(words)
            for w in words:
                if w == 0:
                    continue
                for v in words:
                    assert projected_weight(
                        v.bit_count(), (v ^ w).bit_count(), w.bit_count()
                    ) == (v & ~w).bit_count()
                image = project(code, Gf2Vector(code.n, w))
                has_disjoint_split = any(
                    u != 0 and u != w and u & ~w == 0 and (u ^ w) in word_set
                    for u in words
                )
                assert (image.dimension == code.dimension - 1) == (
                    not has_disjoint_split
                )
            checked += 1


def test_criterion_9_search_vs_feasibility():
    with criterion(9, "search never beats the necessary condition, spot values"):
        start = time.perf_counter()
        assert max_dimension_exhaustive(3, {2}).max_dimension == 2
        assert max_dimension_exhaustive(8, {4, 8}).max_dimension == 4
        assert max_dimension_exhaustive(4, {3}).max_dimension == 1
        results = cross_validate(10, {2, 4, 6})
        assert len(results) == 10 * 8
        disagreements = [(n, ws) for n, ws, agree in results if not agree]
        assert disagreements == []
        elapsed = time.perf_counter() - start
        assert elapsed < 120, f"took {elapsed:.1f}s"
