"""Machine-checked replays of the dimension-bound arguments.

Each verifier re-derives every number it relies on from the library
primitives (exact count solving, projected weights, union bounds) and
records the result as a sequence of typed proof steps.  A step is one of:

* ``arithmetic``: an exact computation checked against a stated value,
* ``cited-lemma``: a claim delegated to another verifier in this module,
* ``structural``: a counting or containment argument about code surgery
  whose numeric content is checked here and whose operations (projection,
  shortening, hyperplane subcodes) are implemented and tested in
  :mod:`gf2codes.transforms`.

Every step of every replay is built by ``_step``, which forms its anchor
as "<claim> / <what>" and its status as a bool.  Reports serialize to
stable-ordered JSON so replays are diffable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Mapping

from .codes import LinearCode
from .gf2core import Gf2Matrix
from .moments import _count_numerators, _form, _integral_class, _nonnegative_part, _v2
from .transforms import projected_weight

__all__ = [
    "ProofStep",
    "ProofReport",
    "min_union_length",
    "verify_remark_a56",
    "a56_sharpness_construction",
    "verify_lemma_2_6",
    "verify_lemma_24_32_56",
    "verify_theorem_a",
]


# Theorem A: length, the dimension refuted, and the allowed nonzero weights.
_THEOREM_A = (66, 13, (24, 32, 40, 56))
# Lemma 2.6: the two weights whose counts its closed forms give.
_LEMMA_2_6_WEIGHTS = (24, 32)
# The most lengths a Lemma 2.6 replay accepts: its scan is solved in closed
# form, but its report can list every length, so its size grows with the range.
_LEMMA_2_6_MAX_LENGTHS = 4096
# The three-weight lemma: its weights, and the dimension bound it proves in
# every ambient too short for two words of the largest weight.
_LEMMA_WEIGHTS = (*_LEMMA_2_6_WEIGHTS, 56)
_LEMMA_BOUND = 10
# The paper's a_56 at spanning lengths 65 and 66, keyed by how far the
# projection's length exceeds twice its dimension: the form as numerators
# (c, p, q, den), worth (c + p*a2_star + q*a3_star)/den, as printed, and
# rearranged for a2_star.  These are the claims the Theorem A replay checks.
_STATED_A56 = {
    1: ((-5, 1, -1, 2), "(a2_star - a3_star - 5)/2", "2*a_56 + a3_star + 5"),
    2: ((-13, 2, -1, 2), "a2_star - (a3_star + 13)/2", "a_56 + (a3_star + 13)/2"),
}


@dataclass(frozen=True)
class ProofStep:
    """One checked inference: what was claimed, how, and whether it held."""

    id: str
    kind: str
    statement: str
    anchor: str
    status: bool
    data: Mapping[str, object]  # JSON-native values only: str, int, bool, lists

    def to_json_dict(self) -> dict[str, object]:
        return {**vars(self), "data": dict(self.data)}


@dataclass(frozen=True)
class ProofReport:
    """A named claim together with every step of its replay."""

    theorem: str
    steps: tuple[ProofStep, ...]

    @property
    def overall(self) -> bool:
        return all(step.status for step in self.steps)

    def to_json_dict(self) -> dict[str, object]:
        return {
            "theorem": self.theorem,
            "overall": self.overall,
            "steps": [step.to_json_dict() for step in self.steps],
        }


def _step(claim: str, step_id: str, kind: str, statement: str, anchor: str, status: object,
          data: dict[str, object]) -> ProofStep:
    """A step of ``claim``'s replay, anchored "<claim> / <anchor>"."""
    return ProofStep(step_id, kind, statement, f"{claim} / {anchor}", bool(status), data)


def min_union_length(weight_a: int, weight_b: int, sum_weight: int) -> int:
    """Minimal ambient length carrying v, w with |v|, |w|, |v+w| as given.

    The union of the two supports is supp(w) plus the part of v outside it,
    whose size ``transforms.projected_weight`` derives; it is (weight_a +
    weight_b + sum_weight)/2, smallest when the sum weight is smallest.  An
    unrealizable triple raises there, printed as (|v|, |v+w|, |w|).
    """
    return weight_b + projected_weight(weight_a, sum_weight, weight_b)


def verify_remark_a56(ambient: int) -> ProofStep:
    """Check that two weight-56 words cannot coexist in the given ambient.

    In a code whose nonzero weights are all >= 24, two distinct weight-56
    words have |v+w| >= 24, and the union of their supports is smallest at
    the smallest sum weight; min_union_length(56, 56, 24) = 68 coordinates
    are then needed, so any ambient below 68 admits at most one such word.
    """
    low, top = min(_LEMMA_WEIGHTS), max(_LEMMA_WEIGHTS)
    union = _a56_union()
    overlap = 2 * top - union
    return _step(
        "remark-a56", f"a56-at-most-one-n{ambient}", "arithmetic",
        f"two distinct weight-{top} words whose sum has weight at least {low} "
        f"span at least {union} coordinates, more than the ambient {ambient}, "
        f"so a_{top} <= 1 there",
        "minimum union length",
        union > ambient,
        {
            "ambient": ambient,
            "pair_weights": [top, top],
            "min_sum_weight": low,
            "max_overlap": overlap,
            "min_union_length": union,
            "derivation": (
                f"overlap r satisfies |v+w| = {2 * top} - 2r >= {low}, so r <= "
                f"{overlap} and the union {2 * top} - r is at least {union}; the "
                "union shrinks only as the sum weight shrinks, so "
                f"{low} is the extremal case"
            ),
        },
    )


def _a56_union() -> int:
    """Fewest coordinates two weight-56 words span if their sum weighs >= 24."""
    low, top = min(_LEMMA_WEIGHTS), max(_LEMMA_WEIGHTS)
    return min_union_length(top, top, low)


def a56_sharpness_construction() -> LinearCode:
    """A length-68 code with two weight-56 words (the union bound is sharp).

    Rows: one word on coordinates 0..55, one on 12..67; they overlap in 44
    coordinates, so their sum has weight 24 and all nonzero weights are
    >= 24 while a_56 = 2.  Every number follows from ``_LEMMA_WEIGHTS``.
    """
    top, length = max(_LEMMA_WEIGHTS), _a56_union()
    v = (1 << top) - 1
    return LinearCode.from_rows(Gf2Matrix.from_ints([v, v << (length - top)], length))


# Lemma 2.6's closed forms for a_24, a_32 and the second moment's inner term;
# the helpers below return 16 times their values, integers at every d >= 0.
_COUNT_FORMS = ("2^(d-4)*(64-n) - 4", "2^(d-4)*(n-48) + 3")
_INNER_TERM = "9*2^(d-6)*(64-n) + 2^(d-2)*(n-48) + 3"


def _closed_form_counts(n: int, d: int) -> tuple[int, int]:
    return 2**d * (64 - n) - 64, 2**d * (n - 48) + 48


def _factored_lhs(n: int, d: int) -> int:
    return 9 * 2 ** (d + 6) * (64 - n) + 2 ** (d + 10) * (n - 48) + 3 * 2**12


def _classes(forms: list[tuple[int, int, int]]) -> list[tuple[int, int] | None]:
    """After each (c, s, k), ``_integral_class``'s (rem, mod): the t = rem
    (mod mod) at which every (c + s*t)/2^k so far is an integer, or None."""
    classes = [x and x[:2] for x in _integral_class([(c, s, 0, 1 << k) for c, s, k in forms])]
    return classes + [None] * (len(forms) - len(classes))


def _affine_scan(lo: int, hi: int, lhs: tuple[int, int], counts: list[tuple[int, int]],
                 shift: int, required: int) -> tuple[list[int], ...]:
    """Lemma 2.6's divisibility scan of the lengths [lo, hi], in closed form.

    At t = n - lo the left side is L + S*t for lhs = (L, S), and each count
    is c + s*t for (c, s) in counts, all scaled by 2^shift.  Returns the
    left side's 2-adic valuations less shift, then the lengths where it is
    zero, where 2^(required + shift) divides it (no contradiction), where
    every count is a nonnegative multiple of 2^shift (admissible), and
    where both of the last two hold.  Each list of lengths is the part of
    an interval in one residue class modulo a power of two, which
    ``moments._integral_class`` solves (through ``_classes``).  The counts'
    sign interval comes from ``moments._nonnegative_part``, and so do the
    zero lengths: those where the left side is both >= 0 and <= 0.
    """
    span = hi - lo
    L, S = lhs
    if L and (not S or _v2(L) < _v2(S)):  # every length has L's valuation
        valuations = [_v2(L) - shift]
    else:  # 2^v exactly divides L + S*t iff 2^(v+1) divides L - 2^v + S*t, and v >= v2(S)
        top = max(abs(L), abs(L + S * span)).bit_length()
        low = _v2(S) if S else top
        # L + S*t = 2^low*(L' + S'*t) with S' odd runs through every class mod
        # 2^(j+1) in 2^(j+1) <= span + 1 lengths: valuation low + j occurs.
        sure = low + (span + 1).bit_length() - 1
        valuations = [v - shift for v in range(low, top) if v < sure or (
            (cls := _classes([(L - (1 << v), S, v + 1)])[0]) and cls[0] <= span)]
    first, last = _nonnegative_part(*_nonnegative_part(0, span, L, S), -L, -S)
    zero = list(range(lo + first, lo + last + 1))
    first, last = 0, span
    for c, s in counts:
        first, last = _nonnegative_part(first, last, c, s)
    divisible = (L, S, required + shift)
    # One pass over the counts, then the left side; (0, 1) holds every t.
    *_, integral, both = [(0, 1), *_classes([(c, s, shift) for c, s in counts] + [divisible])]

    def lengths(cls: tuple[int, int] | None, first: int = 0, last: int = span) -> list[int]:
        return [] if cls is None else list(range(lo + first + (cls[0] - first) % cls[1],
                                                 lo + last + 1, cls[1]))

    return (valuations, zero, lengths(_classes([divisible])[0]),
            lengths(integral, first, last), lengths(both, first, last))


def verify_lemma_2_6(d: int, n_range: tuple[int, int] = (1, 128)) -> ProofReport:
    """Replay the two-weight {24, 32} divisibility contradiction at dimension d.

    For every length in ``n_range`` the first two moment equations pin the
    counts a_24, a_32; substituting them into the second-moment identity
    makes its left side 2^8 * (odd) for d >= 7, while solvability for the
    dual pair count needs divisibility by 2^(d-1).  For d >= 10 that is a
    contradiction at every length; at d = 9 the valuations tie and no
    contradiction appears (the bound is sharp there).

    The identities are checked at the two ends of the range only.  The
    moment system's matrix depends on the weights alone and its right side
    (2^d - 1, 2^(d-1) * n) is affine in n, so the solved counts are affine
    in n; so are the closed forms, the left side sum of w^2 * a_w and its
    factored form.  Two affine functions that agree at two lengths agree at
    every length, so agreement at both ends proves it for the whole range.
    Every number is an integer, 16 times its value: a solved count c/den of
    ``moments._count_numerators`` matches a closed form a if 16*c == a*den.
    ``_affine_scan`` (shift 4) solves each condition of the scan as a residue
    class of lengths with the feasibility scan's ``_integral_class`` and
    ``_nonnegative_part``, without visiting them one by one.  The report lists
    lengths, so a range of more than ``_LEMMA_2_6_MAX_LENGTHS`` raises.
    """
    lo, hi = n_range
    pair = _LEMMA_2_6_WEIGHTS
    if d < 0:
        raise ValueError(f"negative dimension {d}")
    if not 1 <= lo <= hi:
        raise ValueError(f"invalid length range [{lo}, {hi}]")
    if hi - lo >= _LEMMA_2_6_MAX_LENGTHS:
        raise ValueError(
            f"length range [{lo}, {hi}] has {hi - lo + 1} lengths, "
            f"more than {_LEMMA_2_6_MAX_LENGTHS}"
        )

    all_match = factored_ok = True
    for n in sorted({lo, hi}):
        counts = _closed_form_counts(n, d)
        solved = _count_numerators(n, d, pair)[1]  # two weights: constants c/den
        all_match &= all((16 * c, p, q) == (a * den, 0, 0)
                         for a, (c, p, q, den) in zip(counts, map(solved.get, pair)))
        factored_ok &= sum(w * w * c for w, c in zip(pair, counts)) == _factored_lhs(n, d)

    required = d - 1
    counts = _closed_form_counts(lo, d)
    slopes = [c - a for a, c in zip(counts, _closed_form_counts(lo + 1, d))]
    lhs, lhs_slope = (sum(w * w * c for w, c in zip(pair, cs)) for cs in (counts, slopes))
    valuations, zero_lhs_lengths, no_contradiction, admissible, admissible_no_contradiction = (
        _affine_scan(lo, hi, (lhs, lhs_slope), list(zip(counts, slopes)), 4, required)
    )
    uniform = valuations[0] if d >= 7 and len(valuations) == 1 else None

    step = partial(_step, "lemma-2-6")
    steps = (
        step(
            "closed-form-counts", "arithmetic",
            f"the first two moment equations give a_{pair[0]} = {_COUNT_FORMS[0]} "
            f"and a_{pair[1]} = {_COUNT_FORMS[1]} at every length in range",
            "two-weight count solve",
            all_match,
            {
                "dimension": d,
                "n_range": [lo, hi],
                **{f"a{x}_formula": form for x, form in zip(pair, _COUNT_FORMS)},
                "all_lengths_match": all_match,
            },
        ),
        step(
            "divisibility-scan", "arithmetic",
            "substituting the pinned counts into the second-moment identity, "
            "the dual pair count is an integer only if the left side is "
            f"divisible by 2^{required}; the scan records where that fails",
            "2-adic valuation of the second moment",
            factored_ok and not admissible_no_contradiction,
            {
                "dimension": d,
                "required_valuation": required,
                "lhs_factored": f"2^8 * ({_INNER_TERM})",
                "factored_matches_sum": factored_ok,
                "valuations_seen": valuations,
                "zero_lhs_lengths": zero_lhs_lengths,
                "lengths_without_contradiction": no_contradiction,
                "admissible_lengths": admissible,
                "admissible_without_contradiction": admissible_no_contradiction,
            },
        ),
        step(
            "parity-argument", "arithmetic",
            "for d >= 7 both scaled powers in the inner term are even, so the "
            "inner term is odd for every length and the left side has 2-adic "
            "valuation exactly 8",
            "inner term is odd",
            uniform == 8,
            {
                "inner_term": _INNER_TERM,
                "even_summands_from_dimension": 7,
                "dimension": d,
                "valuation_for_all_lengths": uniform,
            },
        ),
    )
    return ProofReport(
        theorem=(
            f"weights {_braces(pair)} at dimension {d}: the second-moment divisibility "
            f"fails at every admissible length in [{lo}, {hi}]"
        ),
        steps=steps,
    )


def verify_lemma_24_32_56() -> ProofReport:
    """Replay the bound: weights {24, 32, 56} in ambient <= 67 force dim <= 10.

    Splits on the number of weight-56 words, which the union bound caps at
    one.  The weights and the bound are ``_LEMMA_WEIGHTS`` and
    ``_LEMMA_BOUND``; the cited Lemma 2.6 replay runs at the bound itself, so
    a stricter bound such as 9 fails both cases.
    """
    top = max(_LEMMA_WEIGHTS)
    pair_weights = [x for x in _LEMMA_WEIGHTS if x != top]
    cap = _a56_union() - 1
    # Lemma 2.6 rules out two-weight codes of dimension _LEMMA_BOUND at every
    # length it scans, so they have dimension at most one less.
    two_weight = verify_lemma_2_6(_LEMMA_BOUND)
    two_weight_bound = _LEMMA_BOUND - 1
    lo, hi = two_weight.steps[0].data["n_range"]
    step = partial(_step, "lemma-24-32-56")
    case_zero = step(
        "case-a56-zero", "cited-lemma",
        f"with no weight-{top} word the weights lie in {_braces(pair_weights)}; "
        f"dimension {_LEMMA_BOUND} is impossible at every length, and any "
        f"higher-dimensional code has a {_LEMMA_BOUND}-dimensional subcode with "
        "the same weight constraint, so the dimension is at most "
        f"{two_weight_bound}",
        f"case without a weight-{top} word",
        two_weight.overall and lo <= 1 and cap <= hi,
        {
            "cited": "lemma-2-6",
            "dimension_replayed": _LEMMA_BOUND,
            "scan_overall": two_weight.overall,
            "lengths_covered": [lo, hi],
            "two_weight_bound": two_weight_bound,
            "claimed_bound": _LEMMA_BOUND,
        },
    )
    case_one = step(
        "case-a56-one", "structural",
        f"with exactly one weight-{top} word, a hyperplane subcode avoiding it "
        "has dimension exactly one less and weights in "
        f"{_braces(pair_weights)}, so the dimension is at most "
        f"1 + {two_weight_bound} = {1 + two_weight_bound}",
        f"case with one weight-{top} word",
        two_weight.overall,
        {
            "operation": "subcode_avoiding",
            "dimension_drop": 1,
            "subcode_weights": pair_weights,
            "resulting_bound": 1 + two_weight_bound,
            "claimed_bound": _LEMMA_BOUND,
        },
    )
    return ProofReport(
        theorem=(
            f"a binary code of length at most {cap} with nonzero weights in "
            f"{_braces(_LEMMA_WEIGHTS)} has dimension at most {_LEMMA_BOUND}"
        ),
        steps=(verify_remark_a56(cap), case_zero, case_one),
    )


def _braces(values) -> str:
    return "{" + ", ".join(str(v) for v in values) + "}"


def _spelled(count: int) -> str:
    """A count below ten as a word, as the paper writes it; others as digits."""
    words = ("zero", "one", "two", "three", "four", "five", "six", "seven", "eight", "nine")
    return words[count] if 0 <= count < len(words) else str(count)


def _pair_scan(weights: tuple[int, ...], weight_w: int) -> list[list[int]]:
    """Projected weight of every realizable ordered weight pair (|v|, |v+w|)."""
    table = []
    for wv in weights:
        for wvw in weights:
            try:
                table.append([wv, wvw, projected_weight(wv, wvw, weight_w)])
            except ValueError:
                continue  # no word v has these two weights
    return table


def verify_theorem_a() -> ProofReport:
    """Replay: length 66, weights within {24, 32, 40, 56} force dimension <= 12.

    Assumes a 13-dimensional counterexample and refutes every admissible
    spanning length.  Higher dimensions are covered because any code of
    dimension above 13 contains a 13-dimensional subcode with the same
    weight constraint.  Every number is derived from ``_THEOREM_A``, the
    three-weight lemma and the paper's stated a_56 forms.  Each deficit is one
    spanning length, so one pass refutes deficits 0, 1 and 2, those the window
    reaches; a window past the last stated a_56 form fails ``length-window``.
    """
    n_max, dim, weights = _THEOREM_A
    low, top = min(weights), max(weights)
    # The argument needs exactly one weight outside the lemma's set: the
    # weight w projected along.
    outside = sorted(set(weights) - set(_LEMMA_WEIGHTS))
    lemma_weights = _braces(_LEMMA_WEIGHTS)
    bound = _LEMMA_BOUND
    cap = _a56_union() - 1
    lemma = verify_lemma_24_32_56()
    pdim = dim - 1
    steps: list[ProofStep] = []

    def step(*args) -> None:
        steps.append(_step("theorem-a", *args))

    theorem = (
        f"a binary linear code of length {n_max} whose nonzero weights lie in "
        f"{_braces(weights)} has dimension at most {dim - 1}"
    )
    if not outside:
        step(
            "weight-outside-lemma-exists", "cited-lemma",
            f"no weight of {_braces(weights)} lies outside {lemma_weights}, so "
            "there is no weight to project along",
            "a weight outside the lemma's set must occur",
            False,
            {"weights": list(weights), "lemma_weights": list(_LEMMA_WEIGHTS)},
        )
        return ProofReport(theorem=theorem, steps=tuple(steps))
    w = outside[0]

    def count_solve(n: int, deficit: int) -> tuple[bool, str, str, int]:
        """Solve the moment equations at length n; check the stated a_56 form.

        Returns whether it matched (the numerators agree cross-multiplied by each
        other's denominators), the stated rearrangement for a2_star, and the least
        a2_star that a_56 >= 0 and a3_star >= 0 allow, printed and as its ceiling.
        """
        want, printed, rearranged = _STATED_A56[deficit]
        counts, note = {}, ""
        if len(set(weights)) <= 4:  # more weights than moment equations: no count solve
            _, counts, _, note = _count_numerators(n, dim, weights)
        c, p, q, den = counts.get(top, (0, 0, 0, 1))
        matched = bool(counts) and all(x * want[3] == y * den for x, y in zip((c, p, q), want))
        step(
            f"n{n}-count-solve", "arithmetic",
            f"at spanning length {n} and dimension {dim} the four moment equations "
            f"give a_{top} = {printed}",
            f"n={n} / four-weight count solve",
            matched and not note,
            {"n": n, "dimension": dim, **{f"a{x}": str(_form(f)) for x, f in counts.items()},
             "expected_a56": str(_form(want))},
        )
        # a_56 >= 0 and a3_star >= 0 give a2_star >= -c/p when p > 0 >= q.
        if not p > 0 >= q:
            c, p = 0, 1
        return matched, rearranged, str(_form((-c, 0, 0, p))), -(c // p)

    step(
        f"weight-{w}-exists", "cited-lemma",
        f"without a weight-{w} word the weights lie in {lemma_weights} with ambient "
        f"{n_max} <= {cap}, capping the dimension at {bound} < {dim}, so a "
        f"counterexample contains a weight-{w} word w",
        f"a weight-{w} word must occur",
        lemma.overall and outside == [w] and n_max <= cap and bound < dim,
        {
            "cited": "lemma-24-32-56",
            "lemma_overall": lemma.overall,
            f"bound_without_weight_{w}": bound,
            "hypothetical_dimension": dim,
            "ambient": n_max,
            "ambient_cap": cap,
        },
    )
    step(
        f"projection-dimension-{pdim}", "arithmetic",
        "two disjoint nonzero codewords have weights summing to at least "
        f"{low} + {low} = {2 * low} > {w}, so w is not a disjoint sum and "
        f"projecting along w drops the dimension by exactly one, to {pdim}",
        "projecting along w drops dimension exactly one",
        2 * low > w,
        {
            "smallest_weight": low,
            "min_disjoint_sum": 2 * low,
            "weight_w": w,
            "projected_dimension": pdim,
        },
    )

    pair_table = _pair_scan(weights, w)
    pairs = pair_table + [[w, 0, projected_weight(w, 0, w)]]
    doubly_even = all(row[2] % 4 == 0 for row in pairs)
    step(
        "projection-doubly-even", "arithmetic",
        f"every projected weight (|v| + |v+w| - {w})/2 over the weight set is a "
        "multiple of 4, so the projection is doubly even and in particular "
        "isotropic",
        "projected weights are multiples of 4",
        doubly_even,
        {"weight_w": w, "pairs": pairs, "all_multiples_of_4": doubly_even},
    )

    # A spanning length's deficit is how far its projection's length n - w
    # exceeds 2 * pdim: 0 (a self-dual projection) or a stated a_56 form's key.
    base = w + 2 * pdim
    window = list(range(base, n_max + 1))
    step(
        "length-window", "arithmetic",
        f"an isotropic dimension-{pdim} code needs ambient at least {2 * pdim}, "
        f"so the spanning length n satisfies n - {w} >= {2 * pdim}; with "
        f"n <= {n_max} the cases are n in {_braces(window)}",
        "isotropic dimension caps the length deficit",
        n_max - base <= max(_STATED_A56),
        {
            "isotropic_dimension": pdim,
            "min_projection_ambient": 2 * pdim,
            "length_window": window,
        },
    )

    # Deficit 0: the projection is self-dual.
    if base <= n_max:
        n, ambient = base, base - w
        step(
            f"n{n}-projection-self-dual", "arithmetic",
            f"at n = {n} the projection is isotropic of dimension {pdim} in "
            f"F^{ambient}, hence self-dual; an even self-dual code contains the "
            f"all-ones word, of weight {ambient}",
            f"n={n} / projection is self-dual",
            doubly_even and 2 * pdim == ambient,
            {
                "projection_ambient": ambient,
                "projection_dimension": pdim,
                "all_ones_weight": ambient,
            },
        )
        small_pairs = [row for row in pair_table if row[0] <= w and row[1] <= w]
        max_small = max((row[2] for row in small_pairs), default=0)
        step(
            f"n{n}-projected-weights-small", "arithmetic",
            f"words with |v| and |v+w| both at most {w} project to weight at most "
            f"{max_small} < {ambient}, so the all-ones preimage involves a "
            f"weight-{top} word",
            f"n={n} / small pairs project below {ambient}",
            max_small < ambient and [x for x in weights if x > w] == [top],
            {
                "pairs_scanned": small_pairs,
                "max_projected_weight": max_small,
                "required_weight": ambient,
            },
        )
        remark = verify_remark_a56(n)
        step(
            f"n{n}-unique-{top}", "cited-lemma",
            f"the union bound caps a_{top} at one in ambient {n}, and the all-ones "
            f"preimage forces at least one, so there is exactly one weight-{top} word",
            f"n={n} / exactly one weight-{top} word",
            remark.status,
            {
                "cited": remark.id,
                "min_union_length": remark.data["min_union_length"],
                "ambient": n,
                "a56": 1,
            },
        )
        free = n - top
        step(
            f"n{n}-contradiction", "structural",
            f"every weight-{w} word covers the {free} coordinates outside the unique "
            f"weight-{top} word, so the subcode vanishing at one such coordinate has "
            f"dimension {pdim} and weights in {lemma_weights}, contradicting the "
            f"dimension-{bound} bound",
            f"n={n} / coordinate-vanishing subcode",
            lemma.overall and free > 0 and pdim > bound and n <= cap,
            {
                "cited": "lemma-24-32-56",
                "free_coordinates": free,
                "subcode_dimension": pdim,
                "subcode_weights": list(_LEMMA_WEIGHTS),
                "cited_bound": bound,
            },
        )

    # Deficit k = 1: one weight-2 dual word z, which the projection cannot
    # have; shortening at it costs k dimensions and 2k coordinates.
    k = 1
    if base + k <= n_max:
        n, ambient = base + k, base + k - w
        matched, rearranged, floor, a2_min = count_solve(n, k)
        step(
            f"n{n}-dual-pair-exists", "arithmetic",
            f"rearranged, a2_star = {rearranged} >= {floor} > 0, so the dual "
            "contains a weight-2 word z",
            f"n={n} / the dual has a weight-2 word",
            matched and a2_min >= k,
            {"a2_star_identity": f"a2_star = {rearranged}", "a2_star_min": a2_min},
        )
        step(
            f"n{n}-projection-has-no-dual-pair", "arithmetic",
            "a weight-2 dual word of the projection would extend it to an isotropic "
            f"subspace of dimension {pdim + 1} in F^{ambient}, impossible since "
            f"2*{pdim + 1} = {2 * (pdim + 1)} > {ambient}; as z is orthogonal to w, its support "
            "meets supp(w) in an even number of coordinates, so supp(z) lies inside "
            f"supp(w) for every weight-{w} word w",
            f"n={n} / projected code admits no dual pair",
            2 * (pdim + 1) > ambient,
            {
                "projection_ambient": ambient,
                "extended_dimension": pdim + 1,
                f"isotropic_capacity_of_F{ambient}": ambient // 2,
                "intersection_options": [0, 2],
            },
        )
        step(
            f"n{n}-contradiction", "structural",
            "the subcode of words vanishing on supp(z) has dimension at least "
            f"{dim - k} (the two coordinates agree on every codeword), excludes every "
            f"weight-{w} word, and keeps weights in {lemma_weights} at ambient {n - 2 * k}, "
            f"contradicting the dimension-{bound} bound",
            f"n={n} / shorten at the dual pair",
            lemma.overall and a2_min >= k and dim - k > bound and n - 2 * k <= cap,
            {
                "cited": "lemma-24-32-56",
                "shortened_coordinates": 2 * k,
                "independent_constraints": k,
                "subcode_dimension_min": dim - k,
                "ambient_after": n - 2 * k,
                "cited_bound": bound,
            },
        )

    # Deficit k = 2: two weight-2 dual words z1, z2, while the projection
    # allows at most one dual pair.
    k = 2
    if base + k <= n_max:
        n, ambient = base + k, base + k - w
        matched, rearranged, floor, a2_min = count_solve(n, k)
        step(
            f"n{n}-dual-pairs-at-least-{a2_min}", "arithmetic",
            f"rearranged, a2_star = {rearranged} >= {floor}, and being an integer "
            f"a2_star >= {a2_min}; pick two distinct weight-2 dual words z1, z2",
            f"n={n} / at least {_spelled(a2_min)} weight-2 dual words",
            matched and a2_min >= k,
            {"a2_star_identity": f"a2_star = {rearranged}", "a2_star_min": a2_min},
        )
        forced = ambient - 2
        step(
            f"n{n}-projected-pair-span", "arithmetic",
            "a weight-2 dual word z' of the projection spans with it an isotropic "
            f"subspace of dimension {pdim + 1} in F^{ambient}, which is self-dual and "
            f"so contains the all-ones word; all-ones has weight {ambient}, not a "
            "multiple of 4, so it lies outside the doubly even projection and "
            f"all-ones + z' is a projected word of weight {forced}",
            f"n={n} / dual pair of the projection forces weight {forced}",
            doubly_even and 2 * (pdim + 1) == ambient and ambient % 4 != 0,
            {
                "span_dimension": pdim + 1,
                "projection_ambient": ambient,
                "all_ones_weight": ambient,
                "forced_word_weight": forced,
            },
        )
        pair_sum = 2 * forced + w
        matching = sorted({tuple(sorted(row[:2])) for row in pair_table if row[2] == forced})
        remark = verify_remark_a56(n)
        step(
            f"n{n}-weight{forced}-from-{top}", "arithmetic",
            f"a projected weight of {forced} needs |v| + |v+w| = {pair_sum}, realized "
            f"only by the pair {', '.join(_braces(p) for p in matching)}; the fibers "
            f"{{v, v+w}} map projected weight-{forced} words injectively to "
            f"weight-{top} words, so a2_star(projection) <= a_{forced}(projection) "
            f"<= a_{top} <= 1 by the union bound at ambient {n}",
            f"n={n} / projected weight {forced} needs a weight-{top} word",
            matching and all(p.count(top) == 1 for p in matching) and remark.status,
            {
                "cited": remark.id,
                "pair_sum_required": pair_sum,
                "pairs_matching": [list(p) for p in matching],
                "a56_cap": 1,
                "chain": f"a2_star(projection) <= a{forced}(projection) <= a{top} <= 1",
            },
        )
        step(
            f"n{n}-contradiction", "structural",
            "were both z1 and z2 disjoint from supp(w) they would project to two dual "
            f"pairs, exceeding the cap of 1, so every weight-{w} word meets "
            f"Z = supp(z1) | supp(z2); the subcode vanishing on Z (at most {2 * k} "
            f"coordinates, at most {k} independent constraints) has dimension at "
            f"least {dim - k} and weights in {lemma_weights} at ambient at least {n - 2 * k}, "
            f"contradicting the dimension-{bound} bound",
            f"n={n} / shorten at two dual pairs",
            lemma.overall and a2_min >= k and dim - k > bound and n - 2 * k <= cap,
            {
                "cited": "lemma-24-32-56",
                "dual_pairs_available": a2_min,
                "dual_pairs_used": k,
                "projection_dual_pair_cap": 1,
                "shortened_coordinates_max": 2 * k,
                "independent_constraints_max": k,
                "subcode_dimension_min": dim - k,
                "ambient_after_min": n - 2 * k,
                "cited_bound": bound,
            },
        )

    step(
        "conclusion", "structural",
        f"every admissible spanning length ({', '.join(map(str, window))}) is "
        f"refuted, so no {dim}-dimensional code exists; higher dimensions contain "
        f"{dim}-dimensional subcodes with the same weights, so the dimension is "
        f"at most {dim - 1}",
        "all spanning lengths refuted",
        all(s.status for s in steps),
        {"cases": window, "dimension_bound": dim - 1},
    )
    return ProofReport(theorem=theorem, steps=tuple(steps))
