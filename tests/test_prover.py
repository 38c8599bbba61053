import hashlib
import json
import random
import re
from fractions import Fraction

import pytest

from conftest import lemma_2_6_reference
from gf2codes import prover
from gf2codes import (
    Gf2Matrix,
    LinearCode,
    a56_sharpness_construction,
    feasibility_check,
    lp_dimension_bound,
    min_union_length,
    verify_lemma_2_6,
    verify_lemma_24_32_56,
    verify_remark_a56,
    verify_theorem_a,
)

THEOREM_A_STEP_IDS = [
    "weight-40-exists",
    "projection-dimension-12",
    "projection-doubly-even",
    "length-window",
    "n64-projection-self-dual",
    "n64-projected-weights-small",
    "n64-unique-56",
    "n64-contradiction",
    "n65-count-solve",
    "n65-dual-pair-exists",
    "n65-projection-has-no-dual-pair",
    "n65-contradiction",
    "n66-count-solve",
    "n66-dual-pairs-at-least-7",
    "n66-projected-pair-span",
    "n66-weight24-from-56",
    "n66-contradiction",
    "conclusion",
]


def test_min_union_length_examples():
    assert min_union_length(56, 56, 24) == 68
    assert min_union_length(8, 8, 8) == 12
    assert min_union_length(5, 3, 2) == 5
    assert min_union_length(3, 3, 0) == 3
    assert min_union_length(0, 0, 0) == 0
    assert min_union_length(4, 0, 4) == 4


def test_min_union_length_rejects_unrealizable_triples():
    with pytest.raises(ValueError, match="parity"):
        min_union_length(3, 3, 1)
    with pytest.raises(ValueError, match="between 0 and 4"):
        min_union_length(2, 2, 6)
    with pytest.raises(ValueError, match="between 2 and 8"):
        min_union_length(5, 3, 0)
    with pytest.raises(ValueError, match="nonnegative"):
        min_union_length(-1, 2, 3)
    with pytest.raises(ValueError, match="between 4 and 6"):
        min_union_length(1, 5, 2)


def test_min_union_length_matches_vector_search():
    # Smallest ambient containing an actual pair of vectors with the given
    # weights, found by enumerating supports for the second vector.
    for wa in range(5):
        for wb in range(5):
            for s in range(10):
                found = None
                for n in range(11):
                    v = (1 << wa) - 1
                    if wa > n:
                        continue
                    if any(
                        w.bit_count() == wb and (v ^ w).bit_count() == s
                        for w in range(1 << n)
                    ):
                        found = n
                        break
                try:
                    claimed = min_union_length(wa, wb, s)
                except ValueError:
                    assert found is None
                    continue
                assert found == claimed


def test_min_union_length_two_sided_up_to_weight_10():
    rng = random.Random(107)
    # Lower bound: no actual pair in F^20 beats the claimed union size.
    for _ in range(300):
        w1, w2 = rng.randrange(11), rng.randrange(11)
        v = sum(1 << i for i in rng.sample(range(20), w1))
        w = sum(1 << i for i in rng.sample(range(20), w2))
        claimed = min_union_length(w1, w2, (v ^ w).bit_count())
        assert claimed <= (v | w).bit_count()
    # Sharpness: an explicit pair attains it for every realizable triple.
    for w1 in range(11):
        for w2 in range(11):
            for overlap in range(min(w1, w2) + 1):
                s = w1 + w2 - 2 * overlap
                m = min_union_length(w1, w2, s)
                a = (1 << w1) - 1
                b = ((1 << w2) - 1) << (w1 - overlap)
                assert (a ^ b).bit_count() == s
                assert (a | b).bit_count() == m <= 20


def test_remark_a56_window():
    for ambient in (66, 67):
        ok = verify_remark_a56(ambient)
        assert ok.status
        assert ok.id == f"a56-at-most-one-n{ambient}"
        assert ok.data["max_overlap"] == 44
        assert ok.data["min_union_length"] == 68
    too_big = verify_remark_a56(68)
    assert not too_big.status


def test_two_weight_56_words_clash_below_68():
    rng = random.Random(103)
    for _ in range(200):
        n = rng.randrange(56, 68)
        v = sum(1 << i for i in rng.sample(range(n), 56))
        w = sum(1 << i for i in rng.sample(range(n), 56))
        if v != w:
            assert (v ^ w).bit_count() < 24


def test_sharpness_construction():
    code = a56_sharpness_construction()
    assert (code.n, code.dimension) == (68, 2)
    assert code.weight_distribution().nonzero() == ((0, 1), (24, 1), (56, 2))


def test_concrete_codes_below_68_have_at_most_one_weight_56_word():
    # Hand-built codes with ambient <= 67 and all nonzero weights >= 24.
    cases = [
        Gf2Matrix.from_ints([(1 << 56) - 1], 56),
        Gf2Matrix.from_ints(
            [(1 << 56) - 1, ((1 << 35) - 1) << 32], 67
        ),
        Gf2Matrix.from_ints(
            [(1 << 56) - 1, ((1 << 24) - 1) << 43, ((1 << 30) - 1) << 12], 67
        ),
    ]
    for matrix in cases:
        code = LinearCode.from_rows(matrix)
        we = code.weight_distribution()
        weights = [w for w, _ in we.nonzero() if w]
        assert min(weights) >= 24, weights
        assert we.count(56) <= 1


def test_two_weight_scan_contradicts_high_dimensions():
    for d in (10, 11, 13, 16):
        report = verify_lemma_2_6(d)
        assert report.overall, json.dumps(report.to_json_dict(), indent=2)
        scan = report.steps[1]
        assert scan.id == "divisibility-scan"
        assert scan.data["valuations_seen"] == [8]
        assert scan.data["admissible_without_contradiction"] == []
        assert scan.data["zero_lhs_lengths"] == []


def test_two_weight_scan_admissible_window():
    report = verify_lemma_2_6(10)
    scan = report.steps[1]
    assert scan.data["admissible_lengths"] == list(range(48, 64))
    assert scan.data["required_valuation"] == 9


def test_two_weight_scan_ties_at_dimension_9():
    report = verify_lemma_2_6(9)
    assert not report.overall
    scan = report.steps[1]
    assert scan.data["valuations_seen"] == [8]
    assert scan.data["required_valuation"] == 8
    assert scan.data["lengths_without_contradiction"] == list(range(1, 129))
    assert scan.data["admissible_without_contradiction"] == list(range(48, 64))
    assert report.steps[0].status and report.steps[2].status


def test_two_weight_scan_vacuous_outside_admissible_window():
    # A single length where a count is negative: nothing is admissible, so
    # the scan passes even at dimension 9.
    report = verify_lemma_2_6(9, (64, 64))
    assert report.overall
    assert report.steps[1].data["admissible_lengths"] == []


LEMMA_2_6_RANGES = [(1, 256), (1, 1), (64, 64), (47, 49), (40, 70), (129, 200), (3, 130),
                    (1, 4096)]
# The reference solves the moment equations at every length, so the longest
# range is replayed at a fractional-count dimension and at the bound only, and
# (1, 256) at every d up to 30, far past the bound.
LEMMA_2_6_REFERENCE_DIMENSIONS = {(1, 4096): (3, 10), (1, 256): range(31)}


@pytest.mark.parametrize("n_range", LEMMA_2_6_RANGES, ids=lambda r: f"{r[0]}-{r[1]}")
def test_two_weight_scan_matches_per_length_reference(n_range):
    # d < 6 makes 2^(d-4) or 2^(d-6) a fraction.
    for d in LEMMA_2_6_REFERENCE_DIMENSIONS.get(n_range, range(17)):
        want = json.dumps(lemma_2_6_reference(d, n_range).to_json_dict(), indent=2)
        got = json.dumps(verify_lemma_2_6(d, n_range).to_json_dict(), indent=2)
        assert got == want, (d, n_range)


def _affine_scan_per_length(lo, hi, lhs, counts, shift, required):
    """``prover._affine_scan`` by evaluating every length."""
    valuations, zero, no_contradiction, admissible, both = set(), [], [], [], []
    for n in range(lo, hi + 1):
        value = lhs[0] + lhs[1] * n
        if value:
            valuations.add((value & -value).bit_length() - 1 - shift)
        else:
            zero.append(n)
        ok = value % (1 << required + shift) == 0
        if ok:
            no_contradiction.append(n)
        if all(c + s * n >= 0 and (c + s * n) % (1 << shift) == 0 for c, s in counts):
            admissible.append(n)
            if ok:
                both.append(n)
    return sorted(valuations), zero, no_contradiction, admissible, both


def test_affine_scan_matches_per_length_loop():
    rng = random.Random(2026)
    seen = dict.fromkeys(["flat lhs", "flat count", "zero inside", "zero outside", "one length",
                          "admissible", "admissible without contradiction"], 0)
    for _ in range(3000):
        shift = rng.randint(0, 4)  # counts scaled by 1 to 16
        lo = rng.randint(1, 300)  # most ranges start off every period
        hi = lo + rng.choice([0, rng.randint(1, 40), rng.randint(1, 400)])
        span = hi - lo
        slope = rng.choice([0, rng.randint(-99, 99) << rng.randint(0, 10)])
        # Put the left side's zero anywhere from well before to well after the range.
        root = rng.randint(-span - 9, 2 * span + 9)
        lhs = (-slope * root if rng.random() < 0.5 else rng.randint(-9999, 9999), slope)
        counts = [(rng.randint(-600, 600), rng.choice([0, rng.randint(-64, 64)]))
                  for _ in range(rng.randint(1, 3))]
        required = rng.randint(0, 8)
        # The draws are at t = n - lo; the scan takes forms in n itself.
        at_n = (lhs[0] - slope * lo, slope), [(c - s * lo, s) for c, s in counts]
        got = prover._affine_scan(lo, hi, *at_n, shift, required)
        want = _affine_scan_per_length(lo, hi, *at_n, shift, required)
        assert got == want, (lo, hi, *at_n, shift, required)
        seen["flat lhs"] += slope == 0
        seen["flat count"] += any(s == 0 for _, s in counts)
        seen["zero inside"] += bool(want[1]) and slope != 0
        seen["zero outside"] += lhs[0] == -slope * root and not want[1]
        seen["one length"] += span == 0
        seen["admissible"] += bool(want[3]) and shift > 0
        seen["admissible without contradiction"] += bool(want[4]) and want[4] != want[3]
    assert min(seen.values()) >= 20, seen


@pytest.mark.parametrize("n_range", [(1, 128), (64, 64)])
def test_two_weight_scan_solves_only_at_range_ends(monkeypatch, n_range):
    calls = []

    def counting(n, d, weights):
        calls.append(n)
        return solve(n, d, weights)

    solve = prover._count_numerators
    monkeypatch.setattr(prover, "_count_numerators", counting)
    assert verify_lemma_2_6(10, n_range).overall
    assert sorted(calls) == sorted(set(n_range))


def test_two_weight_scan_builds_no_fraction(monkeypatch):
    # The replay computes in integers, 16 times each closed form, and checks
    # them against the count solve's numerators: with ``Fraction`` and
    # ``AffineForm`` unusable every report is unchanged.
    def reports():
        return [json.dumps(verify_lemma_2_6(d, n_range).to_json_dict())
                for d in (0, 3, 9, 10, 14) for n_range in LEMMA_2_6_RANGES]

    expected = reports()

    def no_fraction(*args, **kwargs):
        raise AssertionError("the Lemma 2.6 replay built a Fraction or an AffineForm")

    for name in ("gf2codes.moments.Fraction", "gf2codes.moments.AffineForm"):
        monkeypatch.setattr(name, no_fraction)
    assert reports() == expected


def test_two_weight_scan_rejects_mutated_closed_form(monkeypatch):
    # An affine closed form off by one in a_24's constant disagrees with the
    # count solve at both ends, so the replay fails without solving between.
    def mutated(n, d):
        a24, a32 = closed(n, d)
        return a24 - 1, a32

    closed = prover._closed_form_counts
    monkeypatch.setattr(prover, "_closed_form_counts", mutated)
    report = verify_lemma_2_6(10, (1, 128))
    assert not report.overall
    assert not report.steps[0].status
    assert report.steps[0].data["all_lengths_match"] is False


def test_parity_argument_checks_the_scanned_valuation(monkeypatch):
    # a_24 one higher adds 24^2 = 2^6 * 9 to the left side at every length,
    # so its valuation is 6, not the 8 the parity step states.
    def raised(n, d):
        a24, a32 = closed(n, d)
        return a24 + 16, a32  # the helper returns 16 times each count

    closed = prover._closed_form_counts
    monkeypatch.setattr(prover, "_closed_form_counts", raised)
    parity = verify_lemma_2_6(10, (1, 128)).steps[2]
    assert parity.id == "parity-argument"
    assert not parity.status
    assert parity.data["valuation_for_all_lengths"] == 6


def test_two_weight_scan_rejects_mutated_factored_form(monkeypatch):
    # The inner term's constant 5 in place of 3: still affine, wrong at both ends.
    factored = prover._factored_lhs
    monkeypatch.setattr(prover, "_factored_lhs", lambda n, d: factored(n, d) + 512)
    report = verify_lemma_2_6(10, (1, 128))
    assert not report.overall
    scan = report.steps[1]
    assert not scan.status
    assert scan.data["factored_matches_sum"] is False


def _printed(text: str):
    """A printed formula as code, ``^`` read as a power; names bind to Fractions."""
    code = compile(text.replace("^", "**"), text, "eval")
    return lambda **names: eval(code, {"__builtins__": {}},
                                {k: Fraction(v) for k, v in names.items()})


def test_two_weight_scan_prints_the_forms_it_checks():
    # The replay checks 16 times each form through integer helpers; the
    # report prints the forms themselves, so evaluate the printed text.
    counts, scan = verify_lemma_2_6(10, (1, 128)).steps[:2]
    texts = [counts.data[f"a{w}_formula"] for w in (24, 32)]
    assert texts == list(prover._COUNT_FORMS)
    assert all(text in counts.statement for text in texts)
    assert scan.data["lhs_factored"] == f"2^8 * ({prover._INNER_TERM})"
    forms, lhs = [_printed(text) for text in texts], _printed(scan.data["lhs_factored"])
    for d in range(25):
        for n in range(1, 200):
            assert [16 * f(d=d, n=n) for f in forms] == list(prover._closed_form_counts(n, d))
            assert 16 * lhs(d=d, n=n) == prover._factored_lhs(n, d), (n, d)


def test_two_weight_scan_validation():
    with pytest.raises(ValueError, match="negative dimension"):
        verify_lemma_2_6(-1)
    with pytest.raises(ValueError, match="invalid length range"):
        verify_lemma_2_6(10, (0, 5))
    with pytest.raises(ValueError, match="invalid length range"):
        verify_lemma_2_6(10, (7, 3))


def test_two_weight_scan_bounds_its_range():
    longest = prover._LEMMA_2_6_MAX_LENGTHS
    assert longest >= 256  # the golden digests replay up to 256 lengths
    # At d = 9 no length gives a contradiction, so the report lists them all.
    report = verify_lemma_2_6(9, (1, longest))
    assert report.steps[1].data["lengths_without_contradiction"] == list(range(1, longest + 1))
    for n_range in ((1, longest + 1), (1000, 1000 + longest), (1, 10**9)):
        lo, hi = n_range
        with pytest.raises(ValueError, match=f"has {hi - lo + 1} lengths, more than {longest}"):
            verify_lemma_2_6(10, n_range)


def test_three_weight_bound_report():
    report = verify_lemma_24_32_56()
    assert report.overall
    assert [s.id for s in report.steps] == [
        "a56-at-most-one-n67",
        "case-a56-zero",
        "case-a56-one",
    ]
    assert {s.kind for s in report.steps} == {"arithmetic", "cited-lemma", "structural"}


def test_three_weight_bound_rejects_stricter_claim(monkeypatch):
    # Bound 9 cites Lemma 2.6 at dimension 9, where the valuations tie.
    monkeypatch.setattr(prover, "_LEMMA_BOUND", 9)
    report = verify_lemma_24_32_56()
    assert not report.overall
    by_id = {s.id: s for s in report.steps}
    assert not by_id["case-a56-zero"].status
    assert not by_id["case-a56-one"].status


def test_dimension_bound_theorem_overall():
    report = verify_theorem_a()
    assert report.overall
    assert report.theorem == (
        "a binary linear code of length 66 whose nonzero weights lie in "
        "{24, 32, 40, 56} has dimension at most 12"
    )


def test_dimension_bound_theorem_step_ids():
    report = verify_theorem_a()
    ids = [s.id for s in report.steps]
    assert ids == THEOREM_A_STEP_IDS
    assert len(set(ids)) == len(ids)


def test_dimension_bound_theorem_step_schema():
    report = verify_theorem_a()
    for step in report.steps:
        d = step.to_json_dict()
        assert set(d) == {"id", "kind", "statement", "anchor", "status", "data"}
        assert d["kind"] in {"arithmetic", "cited-lemma", "structural"}
        assert isinstance(d["status"], bool)
        assert d["statement"] and d["anchor"]


def test_dimension_bound_theorem_count_forms():
    by_id = {s.id: s for s in verify_theorem_a().steps}
    assert by_id["n65-count-solve"].data["a56"] == "-5/2 + 1/2*a2_star - 1/2*a3_star"
    assert by_id["n66-count-solve"].data["a56"] == "-13/2 + a2_star - 1/2*a3_star"
    assert by_id["n65-dual-pair-exists"].data["a2_star_min"] == 5
    assert by_id["n66-dual-pairs-at-least-7"].data["a2_star_min"] == 7
    assert by_id["n66-weight24-from-56"].data["pairs_matching"] == [[32, 56]]
    pairs = by_id["projection-doubly-even"].data["pairs"]
    assert len(pairs) == 17  # all 16 ordered weight pairs plus the kernel case
    assert all(p[2] % 4 == 0 and 0 <= p[2] <= 36 for p in pairs)


def test_theorem_a_prints_the_a56_forms_it_checks():
    # The replay checks the numerators (c, p, q, den); the report prints the
    # form and its rearrangement for a2_star, so evaluate both as printed.
    steps = verify_theorem_a().steps
    for deficit, ((c, p, q, den), printed, rearranged) in prover._STATED_A56.items():
        n = 64 + deficit
        solve, dual = [s for s in steps if s.id.startswith((f"n{n}-count", f"n{n}-dual-pair"))]
        assert solve.statement.endswith(f"give a_56 = {printed}")
        assert dual.data["a2_star_identity"] == f"a2_star = {rearranged}"
        a56, a2 = _printed(printed), _printed(rearranged)
        for a2_star in range(30):
            for a3_star in range(30):
                value = a56(a2_star=a2_star, a3_star=a3_star)
                assert value == Fraction(c + p * a2_star + q * a3_star, den)
                assert a2(a_56=value, a3_star=a3_star) == a2_star


def test_reports_serialize_deterministically():
    a = json.dumps(verify_theorem_a().to_json_dict(), indent=2)
    b = json.dumps(verify_theorem_a().to_json_dict(), indent=2)
    assert a == b
    doc = json.loads(a)
    assert set(doc) == {"theorem", "overall", "steps"}
    assert doc["overall"] is True
    assert len(doc["steps"]) == 18
    lemma = json.loads(json.dumps(verify_lemma_2_6(10).to_json_dict(), indent=2))
    assert json.dumps(lemma)  # already plain JSON types


@pytest.mark.parametrize(
    "claim, failed_step",
    [
        ((67, 13, (24, 32, 40, 56)), "length-window"),
        ((66, 12, (24, 32, 40, 56)), "length-window"),
        ((66, 13, (24, 32, 48, 56)), "projection-dimension-12"),
    ],
    ids=["length-67", "dimension-12", "weight-48"],
)
def test_dimension_bound_theorem_rejects_mutated_claim(monkeypatch, claim, failed_step):
    monkeypatch.setattr(prover, "_THEOREM_A", claim)
    report = verify_theorem_a()
    assert not report.overall
    by_id = {s.id: s for s in report.steps}
    assert not by_id[failed_step].status
    assert not by_id["conclusion"].status


@pytest.mark.parametrize(
    "claim, window",
    [
        ((60, 13, (24, 32, 40, 56)), []),
        ((65, 13, (24, 32, 40, 56)), [64, 65]),
        ((66, 14, (24, 32, 40, 56)), [66]),
    ],
    ids=["length-60", "length-65", "dimension-14"],
)
def test_dimension_bound_theorem_accepts_weaker_claim(monkeypatch, claim, window):
    # A shorter length or a larger dimension narrows the window of spanning
    # lengths; only the lengths inside it are refuted.
    monkeypatch.setattr(prover, "_THEOREM_A", claim)
    report = verify_theorem_a()
    assert report.overall, json.dumps(report.to_json_dict(), indent=2)
    by_id = {s.id: s for s in report.steps}
    assert by_id["length-window"].data["length_window"] == window
    assert by_id["conclusion"].data["cases"] == window
    # Each length's steps carry that length in their id.
    replayed = {int(m[1]) for i in by_id if (m := re.match(r"n(\d+)-", i))}
    assert replayed == set(window)


@pytest.mark.parametrize(
    "claim, replayed",
    [
        ((67, 13, (24, 32, 40, 56)), [64, 65, 66]),
        ((66, 12, (24, 32, 40, 56)), [62, 63, 64]),
        ((70, 13, (24, 32, 40, 56)), [64, 65, 66]),
    ],
    ids=["length-67", "dimension-12", "length-70"],
)
def test_window_past_deficit_two_still_replays_each_deficit(monkeypatch, claim, replayed):
    # Each deficit is one spanning length.  A window that runs past deficit 2
    # fails length-window, yet deficits 0, 1 and 2 are still replayed, in
    # order and at their own lengths, and the lengths past them get no steps.
    monkeypatch.setattr(prover, "_THEOREM_A", claim)
    report = verify_theorem_a()
    by_id = {s.id: s for s in report.steps}
    assert not by_id["length-window"].status
    assert by_id["length-window"].data["length_window"] == list(range(replayed[0], claim[0] + 1))
    per_length = [s for s in report.steps if re.match(r"n\d+-", s.id)]
    lengths = [int(re.match(r"n(\d+)-", s.id)[1]) for s in per_length]
    assert lengths == sorted(lengths) and sorted(set(lengths)) == replayed
    openers = [s.id for s in per_length if s.id.endswith(("-projection-self-dual", "-count-solve"))]
    assert openers == [f"n{replayed[0]}-projection-self-dual", f"n{replayed[1]}-count-solve",
                       f"n{replayed[2]}-count-solve"]
    if claim[1] == 13:
        # The same deficits as the stated claim, so the same steps.
        monkeypatch.setattr(prover, "_THEOREM_A", (66, 13, (24, 32, 40, 56)))
        stated = [s for s in verify_theorem_a().steps if re.match(r"n\d+-", s.id)]
        assert per_length == stated


@pytest.mark.parametrize(
    "claim, failed_step",
    [
        ((66, 13, (24, 32, 41, 56)), "n66-count-solve"),
        ((66, 13, (24, 32, 50, 56)), "projection-dimension-12"),
        ((66, 13, (11, 24, 32, 56)), "length-window"),
        ((66, 13, (24, 32, 56)), "weight-outside-lemma-exists"),
        ((56, 14, (24, 28, 32, 56)), "n56-weight26-from-56"),
        ((66, 13, (24, 32, 40, 48, 56)), "n65-count-solve"),
    ],
    ids=["odd-weight-41", "weight-50", "odd-weight-11", "no-weight-outside-lemma",
         "weight-28-impossible-pair", "five-weights"],
)
def test_unrealizable_or_missing_weight_fails_a_step(monkeypatch, claim, failed_step):
    # Pairs (|v|, |v+w|) no word realizes are skipped by the scan (for weight
    # 11 no pair with both weights at most 11 is left), and a claim with no
    # weight to project along stops at its first step.  Weight 41 leaves the
    # window {65, 66} with a block for each deficit, but the moment equations
    # at n = 66 do not give the stated a_56 form of deficit 1.
    # Projecting along weight 28, the pair {24, 56} sums to 80 as a projected
    # weight of 26 needs, but |v| = 24 and |w| = 28 force |v+w| <= 52, so no
    # pair realizes it and the deficit-2 step at n = 56 cites none.  Five
    # weights are more than the moment equations pin, so the count solve fails.
    monkeypatch.setattr(prover, "_THEOREM_A", claim)
    report = verify_theorem_a()
    assert not report.overall
    assert not {s.id: s for s in report.steps}[failed_step].status


def test_theorem_a_at_length_62_rests_on_the_replay_alone(monkeypatch):
    # Dimension 12 at length 62: the window is the one self-dual length 62, and
    # its four deficit-0 steps carry the claim.  Neither the LP bound nor the
    # moments rule the dimension out there, so the replay is the only evidence.
    monkeypatch.setattr(prover, "_THEOREM_A", (62, 12, (24, 32, 40, 56)))
    report = verify_theorem_a()
    assert report.overall
    by_id = {s.id: s for s in report.steps}
    assert by_id["length-window"].data["length_window"] == [62]
    assert [s.id for s in report.steps if s.id.startswith("n62-")] == [
        "n62-projection-self-dual", "n62-projected-weights-small", "n62-unique-56",
        "n62-contradiction",
    ]
    assert lp_dimension_bound(62, (24, 32, 40, 56)).dimension == 13
    for d in (12, 13):
        assert feasibility_check(62, d, (24, 32, 40, 56)).status == "feasible"


def test_barth_sextic_dimension_12_is_never_refuted(monkeypatch):
    # Soundness anchor: Barth's sextic has 65 nodes, so by the n - 53 bound
    # its code has dimension at least 12, with weights in {24,32,40,56}.  No
    # replay may refute dimension 12 at a length of 65 or more.
    for n in range(65, 100):
        monkeypatch.setattr(prover, "_THEOREM_A", (n, 12, (24, 32, 40, 56)))
        report = verify_theorem_a()
        assert not report.overall, n
        first_failure = next(s.id for s in report.steps if not s.status)
        assert first_failure == ("length-window" if n <= 67 else "weight-40-exists"), n


def test_theorem_a_step_ids_follow_the_claim(monkeypatch):
    # Ids name the claim's own numbers: the projected dimension, the weight
    # projected along, and at a deficit-2 length the a2_star minimum and the
    # forced projected weight.
    monkeypatch.setattr(prover, "_THEOREM_A", (66, 14, (24, 32, 40, 56)))
    ids = [s.id for s in verify_theorem_a().steps]
    assert "projection-dimension-13" in ids
    assert "projection-dimension-12" not in ids
    monkeypatch.setattr(prover, "_THEOREM_A", (66, 13, (24, 32, 41, 56)))
    by_id = {s.id: s for s in verify_theorem_a().steps}
    assert "weight-40-exists" not in by_id
    assert by_id["weight-41-exists"].data["bound_without_weight_41"] == 10
    monkeypatch.setattr(prover, "_THEOREM_A", (66, 12, (24, 32, 40, 56)))
    steps = verify_theorem_a().steps
    pairs = [s for s in steps if "dual-pairs-at-least" in s.id]
    assert [s.id for s in pairs] == [f"n64-dual-pairs-at-least-{pairs[0].data['a2_star_min']}"]
    assert "n64-weight22-from-56" in [s.id for s in steps]


# Every claim the tests above patch in, besides the stated one.
PATCHED_CLAIMS = [
    *[(n, 13, (24, 32, 40, 56)) for n in (60, 65, 67, 70)],
    *[(n, 12, (24, 32, 40, 56)) for n in (62, *range(65, 100))],
    (66, 14, (24, 32, 40, 56)),
    (66, 13, (24, 32, 48, 56)), (66, 13, (24, 32, 41, 56)), (66, 13, (24, 32, 50, 56)),
    (66, 13, (11, 24, 32, 56)), (66, 13, (24, 32, 56)), (56, 14, (24, 28, 32, 56)),
    (66, 13, (24, 32, 40, 48, 56)),
]


def test_theorem_a_decides_on_integers(monkeypatch):
    # The replay reads the count solve's integer numerators and builds text
    # only to print: with no Fraction view of the counts and every printed
    # form replaced, each step keeps its id and its status.
    stated = prover._THEOREM_A

    def decisions():
        out = []
        for claim in [stated, *PATCHED_CLAIMS]:
            monkeypatch.setattr(prover, "_THEOREM_A", claim)
            out.append([(s.id, s.status) for s in verify_theorem_a().steps])
        return out

    expected = decisions()

    def no_fraction(*args, **kwargs):
        raise AssertionError("the Theorem A replay built a Fraction view of the counts")

    monkeypatch.setattr("gf2codes.moments.solve_weight_counts", no_fraction)
    monkeypatch.setattr("gf2codes.moments.AffineForm", no_fraction)
    monkeypatch.setattr("gf2codes.prover._form", lambda numerators: "printed")
    assert decisions() == expected
    # The stub reached the printed forms, so the statuses came from integers.
    monkeypatch.setattr(prover, "_THEOREM_A", stated)
    by_id = {s.id: s for s in verify_theorem_a().steps}
    assert by_id["n66-count-solve"].data["a56"] == "printed"
    assert by_id["n66-count-solve"].status


def test_theorem_a_sweep_of_patched_claims_is_pinned(monkeypatch):
    # 612 claims: lengths 56-67, dimensions 12-14 and weights {24, 32, 56, w},
    # w = 26, 28, ..., 58, with and without 48.  They reach every deficit,
    # the count solve on three to five weights, and unrealizable pairs; the
    # digest pins every report's bytes against later refactors of the replay.
    digest = hashlib.sha256()
    for n in (56, 62, 64, 65, 66, 67):
        for d in (12, 13, 14):
            for w in range(26, 59, 2):
                for extra in (set(), {48}):
                    claim = (n, d, tuple(sorted({24, 32, 56, w} | extra)))
                    monkeypatch.setattr(prover, "_THEOREM_A", claim)
                    report = verify_theorem_a().to_json_dict()
                    digest.update(json.dumps(report, indent=2).encode())
    assert digest.hexdigest() == "c4ee1f1e9df199ade943fdf4b64aedb276541c4672fc07635c7e47ba0ca31e65"
