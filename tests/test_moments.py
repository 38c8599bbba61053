import collections
import dataclasses
import hashlib
import itertools
import random
import sys
from fractions import Fraction
from math import comb, lcm, prod

import pytest

from conftest import (
    count_numerators_reference,
    full_scan_reference,
    gauss_jordan_counts,
    krawtchouk,
    load_code,
    lp_vertex_reference,
    random_code,
)
from gf2codes import (
    AffineForm,
    FEASIBLE,
    INFEASIBLE,
    Gf2Matrix,
    LinearCode,
    LpBound,
    feasibility_check,
    lp_dimension_bound,
    moment_identities_check,
    power_moment,
    solve_weight_counts,
    spanning_form,
)
from gf2codes import codes
from gf2codes.moments import _count_numerators, _integral_class, _lp_max


def rhs_oracle(n, d, a2_star, a3_star):
    """The four documented right-hand sides, restated independently."""
    half = Fraction(2) ** (d - 1)
    quarter = Fraction(2) ** (d - 2)
    return (
        Fraction(2**d - 1),
        half * n,
        half * (a2_star + Fraction(n * (n + 1), 2)),
        quarter * (3 * (a2_star * n - a3_star) + Fraction(n * n * (n + 3), 2)),
    )


def test_power_moment_examples(hamming_7_4, golay, repetition_5):
    h = hamming_7_4.weight_distribution()
    assert power_moment(h, 0) == 16  # total count, zero word included
    assert power_moment(h, 1) == 56
    assert power_moment(h, 2) == 224
    g = golay.weight_distribution()
    assert [power_moment(g, k) for k in range(4)] == [4096, 49152, 614400, 7962624]
    r = repetition_5.weight_distribution()
    assert [power_moment(r, k) for k in range(4)] == [2, 5, 25, 125]
    with pytest.raises(ValueError, match="negative"):
        power_moment(g, -1)


def test_moment_identities_golay(golay):
    report = moment_identities_check(golay)
    assert (report.n, report.d) == (24, 12)
    assert report.moments == (4096, 49152, 614400, 7962624)
    assert (report.a2_star, report.a3_star) == (0, 0)
    assert report.all_hold


def test_moment_identities_repetition(repetition_5):
    report = moment_identities_check(repetition_5)
    assert (report.a2_star, report.a3_star) == (10, 0)
    assert report.all_hold


def test_moment_identities_random_spanning_codes():
    rng = random.Random(89)
    checked = 0
    while checked < 30:
        code = spanning_form(random_code(rng, rng.randrange(2, 13), rng.randrange(1, 7)))
        if code.n < 1 or code.dimension < 1:
            continue
        report = moment_identities_check(code)
        assert report.all_hold
        oracle = rhs_oracle(code.n, code.dimension, report.a2_star, report.a3_star)
        nonzero_part = (report.moments[0] - 1,) + report.moments[1:]
        assert tuple(map(Fraction, nonzero_part)) == oracle
        checked += 1


def test_moment_identities_reject_non_spanning():
    dead_coord = LinearCode.from_rows(Gf2Matrix.from_ints([0b110, 0b010], 4))
    with pytest.raises(ValueError, match="spanning"):
        moment_identities_check(dead_coord)


def test_moment_identities_transform_once_on_a_high_rate_code():
    # [16, 11]: the 2^5 words of the dual are counted, and one MacWilliams
    # transform gives the code's distribution; the dual's a2*, a3* are read
    # off the count itself, not off a second transform.  Calls are counted by
    # code object, so a transform reached through any module's name counts.
    target = codes.macwilliams_transform.__code__
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is target:
            calls.append(frame.f_locals["d"])

    code = load_code("hamming_16_11.txt")
    sys.setprofile(profile)
    try:
        report = moment_identities_check(code)
    finally:
        sys.setprofile(None)
    assert report.all_hold
    assert (report.a2_star, report.a3_star) == (0, 0)
    assert calls == [5]


def test_solve_weight_counts_two_weight_closed_form():
    sol = solve_weight_counts(60, 8, (24, 32))
    assert sol.consistent
    a24, a32 = sol.expressions[24], sol.expressions[32]
    assert a24.is_constant() and a24.const == 60
    assert a32.is_constant() and a32.const == 195
    for n in range(40, 70):
        for d in range(5, 14):
            s = solve_weight_counts(n, d, (24, 32))
            assert s.expressions[24].const == 2 ** (d - 4) * (64 - n) - 4
            assert s.expressions[32].const == 2 ** (d - 4) * (n - 48) + 3


def test_solve_weight_counts_four_weight_forms():
    sol65 = solve_weight_counts(65, 13, (24, 32, 40, 56))
    f65 = sol65.expressions[56]
    assert (f65.const, f65.a2_coeff, f65.a3_coeff) == (
        Fraction(-5, 2), Fraction(1, 2), Fraction(-1, 2),
    )
    assert str(f65) == "-5/2 + 1/2*a2_star - 1/2*a3_star"
    sol66 = solve_weight_counts(66, 13, (24, 32, 40, 56))
    f66 = sol66.expressions[56]
    assert (f66.const, f66.a2_coeff, f66.a3_coeff) == (
        Fraction(-13, 2), Fraction(1), Fraction(-1, 2),
    )
    assert sol65.residuals == {} and sol66.residuals == {}


def test_solve_weight_counts_satisfies_used_equations():
    rng = random.Random(97)
    for _ in range(60):
        n = rng.randrange(3, 40)
        d = rng.randrange(1, 12)
        m = rng.randrange(1, 5)
        ws = tuple(sorted(rng.sample(range(1, n + 1), min(m, n))))
        sol = solve_weight_counts(n, d, ws)
        if len(ws) == 4:
            # The last column of the inverse Vandermonde matrix times the
            # a3_star coefficient -3*2^(d-2) of equation 4: never zero.
            for w in ws:
                expected = Fraction(-3 * 2**d, 4) / prod(w - v for v in ws if v != w)
                assert sol.expressions[w].a3_coeff == expected != 0
        # Checking at three affinely independent points plus a random one
        # proves the affine identity, not just a coincidence.
        points = [(0, 0), (1, 0), (0, 1), (rng.randrange(50), rng.randrange(50))]
        for a2, a3 in points:
            oracle = rhs_oracle(n, d, a2, a3)
            counts = {w: sol.expressions[w].evaluate(a2, a3) for w in ws}
            for k in range(len(ws)):
                assert sum(c * w**k for w, c in counts.items()) == oracle[k]
            for k, residual in sol.residuals.items():
                lhs = sum(c * w ** (k - 1) for w, c in counts.items())
                assert lhs - oracle[k - 1] == residual.evaluate(a2, a3)


def test_solve_weight_counts_matches_gauss_jordan():
    rng = random.Random(101)
    consistent = 0
    cases = [(7, 3, (2,)), (60, 8, (24, 32)), (66, 13, (24, 32, 40, 56))]
    for _ in range(400):
        n = rng.randrange(1, 140)
        ws = rng.sample(range(1, n + 1), min(rng.randrange(1, 5), n))
        cases.append((n, rng.randrange(0, 20), ws))
    for n, d, ws in cases:
        sol = solve_weight_counts(n, d, ws)
        ref = gauss_jordan_counts(n, d, ws)
        # Equality covers the forms, the residuals, ``consistent`` and ``note``.
        assert sol == ref, (n, d, ws)
        for forms, ref_forms in ((sol.expressions, ref.expressions), (sol.residuals, ref.residuals)):
            assert [str(f) for f in forms.values()] == [str(f) for f in ref_forms.values()]
        consistent += sol.consistent
        # The integer core behind the forms, which the feasibility scan reads:
        # a negative den would equal the same forms but break its sign tests.
        weights, counts, residuals, note = _count_numerators(n, d, ws)
        assert (weights, note) == (sol.weights, sol.note)
        for numerators, forms in ((counts, sol.expressions), (residuals, sol.residuals)):
            assert list(numerators) == list(forms), (n, d, ws)
            for key, (c, p, q, den) in numerators.items():
                f = forms[key]
                assert den > 0, (n, d, ws, key)
                assert [Fraction(x, den) for x in (c, p, q)] == [f.const, f.a2_coeff, f.a3_coeff]
    assert 0 < consistent < len(cases)


def count_numerator_cases():
    """The paper's fixed cases, then seeded (n, d, W): |W| = 1..4, n up to
    2,000, d up to 40, weights up to 2n (so some exceed the length)."""
    four = (24, 32, 40, 56)
    cases = [(128, 10, four), (32, 4, (24, 32)), (24, 4, (12, 16, 20)), (7, 3, (2,)),
             *((n, 13, four) for n in range(60, 67)),
             *((n, d, (24, 32)) for d in range(15) for n in (1, 48, 64, 128, 4096)),
             *((n, 10, (24, 32, 56)) for n in (56, 68, 88, 120))]
    rng = random.Random(34)
    for size in (1, 2, 3, 4) * 800:
        n = rng.randrange(1, 2001)
        cases.append((n, rng.randrange(0, 41), rng.sample(range(1, 2 * n + 1), min(size, 2 * n))))
    return cases


def test_count_numerators_match_reference():
    # Callers read the raw integers, not only their values: the feasibility
    # scan's ``% den``, Lemma 2.6's ``16*c == a*den`` and Theorem A's
    # ``-(c // p)``; so the tuples must be equal, not just the fractions.
    seen, notes = set(), 0
    for n, d, ws in count_numerator_cases():
        got = _count_numerators(n, d, ws)
        assert got == count_numerators_reference(n, d, ws), (n, d, ws)
        weights, counts, residuals, note = got
        assert all(type(w) is int for w in weights) and type(note) is str
        for numerators in (*counts.values(), *residuals.values()):
            assert [type(x) for x in numerators] == [int] * 4, (n, d, ws)
        seen.add((len(weights), weights[-1] > n))
        notes += bool(note)
    # Every size is drawn with and without a weight above n; some systems are
    # inconsistent (one weight: equation 2 is a constant).
    assert seen == {(m, above) for m in range(1, 5) for above in (False, True)}
    assert notes > 0


def test_solve_weight_counts_inconsistency_note():
    sol = solve_weight_counts(7, 3, (2,))
    assert not sol.consistent
    assert sol.note == "equation 2 reduces to -14 = 0"


def test_solve_weight_counts_validation():
    with pytest.raises(ValueError, match="between 1 and 4"):
        solve_weight_counts(10, 3, ())
    with pytest.raises(ValueError, match="between 1 and 4"):
        solve_weight_counts(10, 3, (1, 2, 3, 4, 5))
    with pytest.raises(ValueError, match="positive"):
        solve_weight_counts(10, 3, (0, 2))
    with pytest.raises(ValueError, match="n >= 1"):
        solve_weight_counts(0, 3, (2,))


def test_feasibility_negative_constant_count():
    verdict = feasibility_check(32, 4, (24, 32))
    assert verdict.status == INFEASIBLE
    assert verdict.reason == "negative count"
    assert verdict.certificate == "a_32 = -13 is negative"
    assert not verdict.feasible


def test_feasibility_witness_small():
    verdict = feasibility_check(3, 2, (2,))
    assert verdict.status == FEASIBLE
    assert verdict.reason == "none"
    assert verdict.witness == {"a2_star": 0, "a3_star": 1, "counts": {2: 3}}


def test_feasibility_inconsistent():
    verdict = feasibility_check(7, 3, (2,))
    assert verdict.status == INFEASIBLE
    assert verdict.reason == "inconsistent system"
    assert verdict.certificate == "equation 2 reduces to -14 = 0"


def test_feasibility_divisibility():
    verdict = feasibility_check(60, 10, (24, 32))
    assert verdict.status == INFEASIBLE
    assert verdict.reason == "divisibility contradiction"
    assert verdict.certificate == (
        "equation 3 forces a2_star = -9/2, not an integer (2-adic valuation -1 < 0)"
    )


def test_feasibility_forced_value_outside_box():
    verdict = feasibility_check(4, 4, (2, 4))
    assert verdict.status == INFEASIBLE
    assert verdict.reason == "inconsistent system"
    assert verdict.certificate == "equation 3 forces a2_star = -1, outside [0, 6]"
    verdict = feasibility_check(6, 6, (2, 4, 6))
    assert verdict.status == INFEASIBLE
    assert verdict.reason == "inconsistent system"
    assert verdict.certificate == (
        "at a2_star=0, equation 4 forces a3_star = -1, outside [0, 20]"
    )


def test_feasibility_rejects_weights_above_length():
    with pytest.raises(ValueError, match=r"weights must lie in \[1, 10\], got \[1, 6, 7, 12\]"):
        feasibility_check(10, 4, (1, 6, 7, 12))
    # The count solve itself takes such weights: Lemma 2.6 solves {24, 32}
    # at lengths below 32.
    assert solve_weight_counts(10, 4, (1, 6, 7, 12)).consistent
    assert solve_weight_counts(30, 8, (24, 32)).consistent


def test_feasibility_rejects_dimension_above_length():
    # No [8, 9] code exists, though the moment system has nonnegative integer
    # counts for it (511 = 2^9 - 1 words at length 8).
    with pytest.raises(ValueError, match=r"need n >= 1 and 1 <= d <= n, got n=8, d=9"):
        feasibility_check(8, 9, (2, 4, 6, 8))
    # d = n is still checked: F_2^3 itself has weights 1, 2, 3.
    assert feasibility_check(3, 3, (1, 2, 3)).feasible


def typed_witness(witness):
    """The witness with each number paired with its type, so int-ness is compared."""
    if witness is None:
        return None
    counts = {w: (c, type(c)) for w, c in witness["counts"].items()}
    return {key: (v, type(v)) for key, v in witness.items() if key != "counts"} | {"counts": counts}


# Four-weight cases where every a2_star of the real relaxation fails
# integrality, one where the integrality class leaves 91 to check, and the
# slowest scans of the benchmark's kind: hundreds of a2_star, each reading
# its a3_star off the lattice (two feasible, the last infeasible).
LATTICE_CASES = {
    (128, 11, (8, 86, 114, 122)): 0,
    (111, 5, (20, 22, 68, 92)): 0,
    (98, 7, (4, 38, 50, 84)): 0,
    (125, 12, (4, 18, 74, 112)): 91,
    (127, 12, (12, 46, 86, 104)): 271,
    (64, 4, (6, 26, 52, 54)): 225,
    (123, 4, (10, 38, 52, 106)): 119,
}


def four_weight_cases():
    """The lattice cases, then 16 seeded four-weight cases at the benchmark's
    lengths 24-128, dimensions 4-12 and even weights."""
    yield from LATTICE_CASES
    rng = random.Random(1515)
    for _ in range(16):
        n = rng.randrange(24, 129)
        yield n, rng.randrange(4, 13), tuple(sorted(rng.sample(range(2, n + 1, 2), 4)))


def differential_cases():
    """Every weight set of size <= 3 at n <= 12 and of size 4 at n <= 9,
    with d <= min(n, 6), then 150 seeded cases up to n = 128, then the
    four-weight cases."""
    for n in range(1, 13):
        for m in range(1, 5 if n <= 9 else 4):
            for weights in itertools.combinations(range(1, n + 1), m):
                for d in range(1, min(n, 6) + 1):
                    yield n, d, weights
    rng = random.Random(606)
    for _ in range(150):
        n = rng.randrange(12, 129)
        d = rng.randrange(1, min(n, 14) + 1)
        pool = range(2, n + 1, 2) if rng.random() < 0.6 else range(1, n + 1)
        yield n, d, tuple(sorted(rng.sample(pool, rng.randrange(1, 5))))
    yield from four_weight_cases()


def test_feasibility_matches_full_scan_reference():
    checked = 0
    for n, d, weights in differential_cases():
        verdict = feasibility_check(n, d, weights)
        reference = full_scan_reference(n, d, weights)
        assert (verdict.status, verdict.reason, verdict.certificate) == (
            reference.status, reference.reason, reference.certificate), (n, d, weights)
        assert typed_witness(verdict.witness) == typed_witness(reference.witness), (n, d, weights)
        checked += 1
    assert checked == 8061


def test_feasibility_builds_no_affine_form(monkeypatch):
    # The scan reads the count solve's integer numerators: with ``AffineForm``
    # unusable every verdict is unchanged, ``scanned`` included.
    def verdicts():
        for n, d, weights in differential_cases():
            v = feasibility_check(n, d, weights)
            yield v.status, v.reason, v.certificate, typed_witness(v.witness), v.scanned

    expected = list(verdicts())

    def no_form(*args, **kwargs):
        raise AssertionError("feasibility_check built an AffineForm")

    monkeypatch.setattr("gf2codes.moments.AffineForm", no_form)
    assert list(verdicts()) == expected


def test_feasibility_scans_only_kept_a2_values():
    # The paper's case: the real relaxation is empty, so no a2_star is
    # checked (the full box has 8,129), and the certificate is still the
    # failure at a2_star = 0.
    verdict = feasibility_check(128, 10, (24, 32, 40, 56))
    assert verdict.scanned == 0
    assert verdict.certificate == (
        "no a3_star in [0, 341376] keeps all counts nonnegative at a2_star=0")
    # Three weights: every kept a2_star is a witness, so the first is taken.
    verdict = feasibility_check(6, 1, (2, 4, 6))
    assert verdict.feasible and verdict.scanned == 1
    # The counter stays out of equality.
    assert verdict == dataclasses.replace(verdict, scanned=0)
    # Four weights: only the a2_star some integer a3_star makes every count
    # an integer at; up to the witness the real relaxation keeps 3,784,
    # 1,776, 3,104, 631, 271, 225 and 2,495.
    for case, scanned in LATTICE_CASES.items():
        assert feasibility_check(*case).scanned == scanned, case


def test_integral_class_matches_brute_force():
    # Integrality at (a2*, a3*) depends only on both modulo the lcm of the
    # coefficient denominators, so one period of each decides every lattice:
    # after each form, the a2* with an integer a3* are its class, and there
    # the integer a3* are exactly (base + slope*t) mod its a3* period.
    rng = random.Random(2026)
    systems = []
    while len(systems) < 12:
        n = rng.randrange(8, 40)
        weights = tuple(sorted(rng.sample(range(1, n + 1), 4)))
        sol = solve_weight_counts(n, rng.randrange(1, 9), weights)
        systems.append(list(sol.expressions.values()))
    # Synthetic systems (not moment solves), mostly integral at a seeded point.
    for _ in range(30):
        x0, y0 = rng.randrange(100), rng.randrange(100)
        forms = []
        for _ in range(4):
            den = rng.choice((1, 2, 3, 4, 6, 8, 9, 12))
            p, q = rng.randrange(-20, 21), rng.choice((-1, 1)) * rng.randrange(1, 20)
            c = rng.randrange(den) if rng.random() < 0.2 else 0
            forms.append(AffineForm(Fraction(c - p * x0 - q * y0, den), Fraction(p, den),
                                    Fraction(q, den)))
        systems.append(forms)
    # Three-weight solves: no count involves a3*, and equation 4 forces
    # a3* = -(const + a2_coeff*a2*)/a3_coeff, a form with a3 coefficient 0.
    while len(systems) < 62:
        n = rng.randrange(8, 40)
        weights = tuple(sorted(rng.sample(range(1, n + 1), 3)))
        sol = solve_weight_counts(n, rng.randrange(1, 9), weights)
        eq4 = sol.residuals[4]
        forced = AffineForm(-eq4.const / eq4.a3_coeff, -eq4.a2_coeff / eq4.a3_coeff)
        systems.append([*sol.expressions.values(), forced])
    # Lemma 2.6's scan (``prover._affine_scan``): one-variable forms
    # (c + s*t)/2^k, no a3* coefficient, s zero or negative as well, mostly
    # integral at a seeded t.
    scan_from = len(systems)
    while len(systems) < scan_from + 30:
        t0, forms = rng.randrange(100), []
        for _ in range(rng.randint(1, 4)):
            k, s = rng.randint(0, 6), rng.choice([0, rng.randint(-64, 64)])
            c = (rng.randint(-300, 300) << k) - s * t0
            c += rng.randrange(1 << k) if rng.random() < 0.2 else 0
            forms.append(AffineForm(Fraction(c, 1 << k), Fraction(s, 1 << k)))
        systems.append(forms)
    kinds = collections.Counter()
    for i, forms in enumerate(systems):
        period = lcm(*(c.denominator for f in forms
                       for c in (f.const, f.a2_coeff, f.a3_coeff)))
        if period > 240:
            continue
        scaled = [[int(c * period) for c in (f.const, f.a2_coeff, f.a3_coeff)] for f in forms]
        lattices = list(_integral_class([(c, p, q, period) for c, p, q in scaled]))
        assert None not in lattices[:-1]
        lattices += [None] * (len(forms) - len(lattices))
        for a2 in range(period):
            integral = set(range(period))
            for (c, p, q), lattice in zip(scaled, lattices):
                integral = {a3 for a3 in integral if (c + p * a2 + q * a3) % period == 0}
                in_class = lattice is not None and (a2 - lattice[0]) % lattice[1] == 0
                assert bool(integral) == in_class, (forms, a2)
                if in_class:
                    rem, mod, base, slope, step = lattice
                    first = (base + slope * ((a2 - rem) // mod)) % step
                    assert integral == set(range(first, period, step)), (forms, a2)
        last = lattices[-1]
        kind = "none" if last is None else "class" if last[1] > 1 else "every"
        kinds[("scan " if i >= scan_from else "") + kind] += 1
    assert kinds == {"none": 16, "class": 29, "every": 3,
                     "scan none": 3, "scan class": 18, "scan every": 9}


def lexicographic_oracle(n, d, weights):
    """Least (a2*, a3*) in the whole box where every residual of the count
    solve vanishes and every count is a nonnegative integer, as a witness."""
    sol = solve_weight_counts(n, d, weights)
    for a2 in range(comb(n, 2) + 1):
        for a3 in range(comb(n, 3) + 1):
            if any(r.evaluate(a2, a3) != 0 for r in sol.residuals.values()):
                continue
            counts = [sol.expressions[w].evaluate(a2, a3) for w in sol.weights]
            if all(c.denominator == 1 and c >= 0 for c in counts):
                return {"a2_star": a2, "a3_star": a3,
                        "counts": {w: int(c) for w, c in zip(sol.weights, counts)}}
    return None


def test_feasibility_matches_box_scan_oracle():
    checked = feasible = 0
    for n in range(1, 7):
        for m in range(1, 5):
            for weights in itertools.combinations(range(1, n + 1), m):
                for d in range(1, min(n, 5) + 1):
                    verdict = feasibility_check(n, d, weights)
                    witness = lexicographic_oracle(n, d, weights)
                    assert verdict.feasible == (witness is not None), (n, d, weights)
                    assert verdict.witness == witness, (n, d, weights)
                    checked += 1
                    feasible += witness is not None
    assert (checked, feasible) == (518, 203)


def test_feasibility_holds_for_actual_codes(golay, hamming_7_4, hamming_8_4):
    for code in (golay, hamming_7_4, hamming_8_4):
        weights = tuple(w for w, _ in code.weight_distribution().nonzero() if w > 0)
        verdict = feasibility_check(code.n, code.dimension, weights)
        assert verdict.feasible, (code.n, code.dimension, weights, verdict)


def test_feasibility_witness_satisfies_all_equations():
    rng = random.Random(101)
    seen_feasible = 0
    for _ in range(80):
        n = rng.randrange(3, 16)
        d = rng.randrange(1, 6)
        m = rng.randrange(1, 5)
        ws = tuple(sorted(rng.sample(range(1, n + 1), min(m, n))))
        if d > n:
            with pytest.raises(ValueError, match="1 <= d <= n"):
                feasibility_check(n, d, ws)
            continue
        verdict = feasibility_check(n, d, ws)
        if not verdict.feasible:
            assert verdict.reason in {
                "negative count",
                "non-integer count",
                "divisibility contradiction",
                "inconsistent system",
            }
            assert verdict.certificate
            continue
        seen_feasible += 1
        a2 = verdict.witness["a2_star"]
        a3 = verdict.witness["a3_star"]
        counts = verdict.witness["counts"]
        assert all(isinstance(c, int) and c >= 0 for c in counts.values())
        oracle = rhs_oracle(n, d, a2, a3)
        for k in range(4):
            assert sum(c * w**k for w, c in counts.items()) == oracle[k]
    assert seen_feasible >= 5


def test_affine_form_str_and_arithmetic():
    f = AffineForm(Fraction(3), Fraction(-1), Fraction(0))
    assert str(f) == "3 - a2_star"
    assert f.evaluate(2, 99) == 1
    assert str(AffineForm(Fraction(0))) == "0"


# Every weight set of size 1..3 at lengths 8 and 9 (the benchmark's search
# grid), and larger cases where the bound is tight.
LP_CASES = [
    (n, ws)
    for n in (8, 9)
    for size in (1, 2, 3)
    for ws in itertools.combinations(range(1, n + 1), size)
] + [(11, (4, 6, 8)), (12, (4, 8)), (14, (4, 8)), (16, (8,)), (10, (2, 4, 6)), (11, (3, 5, 6))]


def test_lp_certificate_holds_in_plain_fractions():
    assert len(LP_CASES) == 221 + 6
    for n, ws in LP_CASES:
        lp = lp_dimension_bound(n, ws)
        y = lp.multipliers
        assert len(y) == n and all(isinstance(v, Fraction) and v >= 0 for v in y), (n, ws)
        for w in ws:
            assert sum(v * -krawtchouk(n, j, w) for j, v in enumerate(y, 1)) >= 1, (n, ws, w)
        assert sum(v * comb(n, j) for j, v in enumerate(y, 1)) == lp.optimum, (n, ws)
        assert 2**lp.dimension <= 1 + lp.optimum < 2 ** (lp.dimension + 1), (n, ws)


# sha256 of one line "n ws repr(LpBound)" per case of LP_CASES and the two
# n = 66 cases below: dimension, optimum and every multiplier, pinned from
# the LP when it read a cached Krawtchouk table.
LP_DIGEST = "d2f4493ed2778d8032569f0091f077bf29f3faa06df5fd7dbbb07a65a0acc2a6"


def test_lp_results_are_pinned():
    cases = LP_CASES + [(66, (24, 32, 40, 56)), (66, (24, 32, 56))]
    text = "".join(f"{n} {ws} {lp_dimension_bound(n, ws)!r}\n" for n, ws in cases)
    assert hashlib.sha256(text.encode()).hexdigest() == LP_DIGEST


def test_lp_matches_vertex_enumeration():
    for n, ws in LP_CASES:
        assert lp_dimension_bound(n, ws).optimum == lp_vertex_reference(n, ws), (n, ws)


def test_lp_known_values():
    assert lp_dimension_bound(11, {4, 6, 8}).optimum == Fraction(253, 3)
    assert lp_dimension_bound(12, {4, 8}).optimum == Fraction(495, 17)
    assert lp_dimension_bound(16, {8}).dimension == 4
    # Not tight: the search finds dimension 6 and 3.
    assert lp_dimension_bound(10, {2, 4, 6}).dimension == 7
    assert lp_dimension_bound(9, {3, 4, 5}).dimension == 4
    # Far from the paper's bounds (Theorem A: 12, the {24,32,56} lemma: 10).
    assert lp_dimension_bound(66, {24, 32, 40, 56}).dimension == 15
    assert lp_dimension_bound(66, {24, 32, 56}).dimension == 14


def test_integer_lp_core_matches_lp_dimension_bound():
    # The search reads ``_lp_max``'s integers and never the ``LpBound``: its
    # dimension, and its optimum objective[m] / denom, must be the bound's.
    rng = random.Random(30)
    random_cases = []
    for _ in range(300):
        n = rng.randint(1, 20)
        random_cases.append((n, tuple(rng.sample(range(1, n + 1), rng.randint(1, min(5, n))))))
    wide = [(n, (24, 32, 40, 56)) for n in (62, 66, 128)]
    for n, ws in LP_CASES + random_cases + wide:
        dimension, objective, denom, nonbasic = _lp_max(n, ws)
        lp = lp_dimension_bound(n, ws)
        m = len(set(ws))
        assert len(objective) == m + 1 and len(nonbasic) == m and denom > 0, (n, ws)
        optimum = Fraction(objective[m], denom)
        assert (dimension, optimum) == (lp.dimension, lp.optimum), (n, ws)
        assert 2**dimension <= 1 + optimum < 2 ** (dimension + 1), (n, ws)


def test_lp_edge_cases():
    assert lp_dimension_bound(5, set()) == LpBound(0, Fraction(0), (Fraction(0),) * 5)
    assert lp_dimension_bound(0, ()) == LpBound(0, Fraction(0), ())
    with pytest.raises(ValueError, match=r"weights must lie in \[1, 3\], got \[2, 4\]"):
        lp_dimension_bound(3, {2, 4})
    with pytest.raises(ValueError, match=r"weights must lie in \[1, 3\], got \[0\]"):
        lp_dimension_bound(3, {0})
    with pytest.raises(ValueError, match="negative length -1"):
        lp_dimension_bound(-1, ())
