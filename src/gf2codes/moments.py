"""Power moments of weight distributions and exact count solving.

For a dimension-d code spanning F_2^n, the first four power moments of the
weight distribution are determined by n, d and the number of weight-2 and
weight-3 words in the dual (a2_star, a3_star):

    sum_{i>0} a_i        = 2^d - 1
    sum_{i>0} i   * a_i  = 2^(d-1) * n
    sum_{i>0} i^2 * a_i  = 2^(d-1) * (a2_star + n(n+1)/2)
    sum_{i>0} i^3 * a_i  = 2^(d-2) * (3*(a2_star*n - a3_star) + n^2(n+3)/2)

Given a prescribed set of nonzero weights this pins the counts as affine
functions of (a2_star, a3_star); leftover moment equations become residual
constraints.  Everything here is exact.  The count solve yields integer
numerators over a positive denominator, which the feasibility scan and the
Theorem A replay read, building ``AffineForm``s and ``Fraction``s only to
print; ``solve_weight_counts`` is their public ``Fraction`` view.  It divides
one master polynomial by each (t - w) and reads a2_star only in equations 3
and 4, a3_star only in 4: nowhere else are their columns nonzero.

``lp_dimension_bound`` is Delsarte's linear-programming bound: the dual
distribution of any code with weights in W is nonnegative, which caps the
number of nonzero words and hence the dimension.  Its simplex runs in
integers, and ``Fraction``s are built only for the ``LpBound``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, gcd, lcm
from typing import Iterable, Iterator, Mapping

from .codes import DEFAULT_ENUMERATION_CAP, LinearCode, WeightEnumerator
from .codes import _krawtchouk_lanes

__all__ = [
    "AffineForm",
    "MomentReport",
    "LinearCountSolution",
    "FeasibilityVerdict",
    "LpBound",
    "FEASIBLE",
    "INFEASIBLE",
    "power_moment",
    "moment_identities_check",
    "solve_weight_counts",
    "feasibility_check",
    "lp_dimension_bound",
]

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"

REASON_NONE = "none"
REASON_NEGATIVE = "negative count"
REASON_NON_INTEGER = "non-integer count"
REASON_DIVISIBILITY = "divisibility contradiction"
REASON_INCONSISTENT = "inconsistent system"

# (reason, certificate) of a failed check.
Failure = tuple[str, str]
# A count, or the a3_star equation 4 forces, as integers (c, p, q, den)
# worth (c + p*a2_star + q*a3_star)/den, den > 0.
Numerators = tuple[int, int, int, int]
# (rem, mod, base, slope, period), a lattice of ``_integral_class``.
Lattice = tuple[int, int, int, int, int]


@dataclass(frozen=True)
class AffineForm:
    """const + a2_coeff * a2_star + a3_coeff * a3_star, coefficients exact."""

    const: Fraction = Fraction(0)
    a2_coeff: Fraction = Fraction(0)
    a3_coeff: Fraction = Fraction(0)

    def evaluate(self, a2_star: int | Fraction, a3_star: int | Fraction) -> Fraction:
        return self.const + self.a2_coeff * a2_star + self.a3_coeff * a3_star

    def is_constant(self) -> bool:
        return self.a2_coeff == 0 and self.a3_coeff == 0

    def __str__(self) -> str:
        parts = [str(self.const)]
        for coeff, name in ((self.a2_coeff, "a2_star"), (self.a3_coeff, "a3_star")):
            if coeff == 0:
                continue
            sign = "+" if coeff > 0 else "-"
            mag = abs(coeff)
            parts.append(f"{sign} {mag}*{name}" if mag != 1 else f"{sign} {name}")
        return " ".join(parts)


@dataclass(frozen=True)
class MomentReport:
    """Moment identity check of one spanning code."""

    n: int
    d: int
    moments: tuple[int, int, int, int]
    a2_star: int
    a3_star: int
    identity_status: tuple[bool, bool, bool, bool]

    @property
    def all_hold(self) -> bool:
        return all(self.identity_status)


@dataclass(frozen=True)
class LinearCountSolution:
    """Counts for a prescribed weight set as affine forms in (a2*, a3*).

    ``expressions`` maps each weight to its count; ``residuals`` maps each
    unused moment-equation index (1-based) to a form that must vanish.
    ``consistent`` is False when a residual is a nonzero constant, i.e. no
    assignment of (a2_star, a3_star) can satisfy the system.
    """

    n: int
    d: int
    weights: tuple[int, ...]
    expressions: Mapping[int, AffineForm]
    residuals: Mapping[int, AffineForm]
    consistent: bool
    note: str = ""


@dataclass(frozen=True)
class FeasibilityVerdict:
    """Outcome of a necessary-condition search over (a2_star, a3_star).

    Feasible means the moment system admits nonnegative integer counts; it
    does not promise a code exists.  Infeasible is a proof that none does.
    ``scanned`` (outside equality) counts the a2_star values checked.
    """

    status: str
    reason: str
    witness: Mapping[str, object] | None = None
    certificate: str | None = None
    scanned: int = field(default=0, compare=False)

    @property
    def feasible(self) -> bool:
        return self.status == FEASIBLE


@dataclass(frozen=True)
class LpBound:
    """Delsarte's LP bound on the dimension, with its dual certificate.

    ``optimum`` is the largest sum of A_w over w in W such that A_w >= 0 and
    K_j(0) + sum_w A_w K_j(w) >= 0 for j = 1..n, K_j the Krawtchouk
    polynomials; a code with weights in W has at most 2^``dimension`` words,
    ``dimension`` = floor(log2(1 + optimum)).  ``multipliers[j - 1]`` = y_j
    >= 0 with sum_j y_j (-K_j(w)) >= 1 for each w in W, so every feasible A
    has sum_w A_w <= sum_j y_j K_j(0) = ``optimum`` (weak duality).
    """

    dimension: int
    optimum: Fraction
    multipliers: tuple[Fraction, ...]


def power_moment(we: WeightEnumerator, k: int) -> int:
    """sum over all weights i of i^k * a_i, with the convention 0^0 = 1.

    At k = 0 this is the total count 2^d, so the first identity reads
    power_moment(we, 0) - 1 = 2^d - 1.
    """
    if k < 0:
        raise ValueError(f"negative moment order {k}")
    return sum(a * i**k for i, a in enumerate(we.counts))


def _scaled_rhs(n: int, d: int) -> tuple[tuple[int, int, int], ...]:
    """8 times the right sides of the four moment equations, as integer
    (const, a2_star, a3_star) coefficients."""
    return (
        (8 * (2**d - 1), 0, 0),
        (2 ** (d + 2) * n, 0, 0),
        (2 ** (d + 1) * n * (n + 1), 2 ** (d + 2), 0),
        (2**d * n * n * (n + 3), 3 * 2 ** (d + 1) * n, -3 * 2 ** (d + 1)),
    )


def _form(x: Numerators) -> AffineForm:
    return AffineForm(*[Fraction(v, x[3]) for v in x[:3]])


def moment_identities_check(code: LinearCode, cap: int = DEFAULT_ENUMERATION_CAP) -> MomentReport:
    """Check all four moment identities for a spanning code, exactly.

    Both distributions come from one count and one MacWilliams transform
    (``LinearCode._weight_distributions``), so the identities are checked end to end.
    """
    if not code.predicate_profile().is_spanning:
        raise ValueError(
            "moment identities require a spanning code (no identically-zero coordinate); "
            "apply spanning_form first"
        )
    we, dual_we = code._weight_distributions(cap)
    a2_star = dual_we.count(2) if code.n >= 2 else 0
    a3_star = dual_we.count(3) if code.n >= 3 else 0
    moments = tuple([power_moment(we, k) for k in range(4)])
    # The identities cover nonzero weights only; at k = 0 that is the total
    # minus the zero word.
    lhs = (moments[0] - 1,) + moments[1:]
    status = tuple([
        8 * x == c + p * a2_star + q * a3_star
        for x, (c, p, q) in zip(lhs, _scaled_rhs(code.n, code.dimension))
    ])
    return MomentReport(
        n=code.n,
        d=code.dimension,
        moments=moments,  # type: ignore[arg-type]
        a2_star=a2_star,
        a3_star=a3_star,
        identity_status=status,  # type: ignore[arg-type]
    )


def _count_numerators(
    n: int, d: int, weights: Iterable[int]
) -> tuple[tuple[int, ...], dict[int, Numerators], dict[int, Numerators], str]:
    """The count solve: the sorted weights, the counts and residuals (keyed as in
    ``LinearCountSolution``) as ``Numerators``, and ``note`` ("" if consistent).

    Count w's row of the inverse Vandermonde matrix is P/(t - w) over Q(w) =
    prod_{v != w} (w - v), from one master polynomial P = prod_v (t - v); the
    row is negated when Q(w) < 0, so den = 8*|Q(w)| > 0.  Of ``_scaled_rhs``'s
    columns a2_star's is nonzero only in equations 3 and 4 and a3_star's only
    in equation 4, so p and q take one or two products each.
    """
    ws = tuple(sorted(set(weights)))
    if not 1 <= len(ws) <= 4:
        raise ValueError(f"need between 1 and 4 distinct weights, got {len(ws)}")
    if any(w <= 0 for w in ws):
        raise ValueError(f"weights must be positive, got {ws}")
    if n < 1 or d < 0:
        raise ValueError(f"need n >= 1 and d >= 0, got n={n}, d={d}")
    m, rhs = len(ws), _scaled_rhs(n, d)
    (r1, _, _), (r2, _, _), (r3, p3, _), (r4, p4, q4) = rhs
    full = [1]  # the master polynomial prod_v (t - v), highest degree first
    for v in ws:
        full = [a - v * b for a, b in zip(full + [0], [0] + full)]
    counts: dict[int, Numerators] = {}
    for w in ws:
        row, b, at_w = [], 0, 0  # P/(t - w) by synthetic division, Q(w) by Horner
        for a in full[:m]:
            b = a + w * b
            row.append(b)
            at_w = at_w * w + b
        if at_w < 0:
            row, at_w = [-x for x in row], -at_w
        k0, k1, k2, k3 = row[::-1] + [0] * (4 - m)  # lowest degree first
        counts[w] = (k0 * r1 + k1 * r2 + k2 * r3 + k3 * r4, k2 * p3 + k3 * p4, k3 * q4, 8 * at_w)
    den = lcm(*(count[3] for count in counts.values()))
    residuals: dict[int, Numerators] = {}
    note = ""
    for k in range(m, 4):
        c, p, q = [-x * (den // 8) for x in rhs[k]]
        for w, (cw, pw, qw, dw) in counts.items():
            scale = w**k * (den // dw)
            c, p, q = c + scale * cw, p + scale * pw, q + scale * qw
        residuals[k + 1] = c, p, q, den
        if c and not p and not q:
            note = f"equation {k + 1} reduces to {Fraction(c, den)} = 0"
    return ws, counts, residuals, note


def solve_weight_counts(n: int, d: int, weights: Iterable[int]) -> LinearCountSolution:
    """Solve the first |weights| moment equations for the counts, exactly.

    Returns each count as an affine form in (a2_star, a3_star) plus the
    residual forms of the unused equations.  The Vandermonde system on
    distinct positive weights is always nonsingular, so failure can only be
    a nonzero constant residual (flagged via ``consistent``).  This is the
    public ``Fraction`` view of ``_count_numerators``, whose integers the
    feasibility scan and the Theorem A replay read directly.
    """
    ws, counts, residuals, note = _count_numerators(n, d, weights)
    return LinearCountSolution(
        n=n,
        d=d,
        weights=ws,
        expressions={w: _form(x) for w, x in counts.items()},
        residuals={k: _form(x) for k, x in residuals.items()},
        consistent=not note,
        note=note,
    )


def _v2(x: int) -> int:
    """2-adic valuation of a nonzero integer."""
    return (x & -x).bit_length() - 1


def _progression(lo: int, hi: int, signs: Iterable[tuple[int, int]],
                 lattice: tuple[int, ...] | None) -> range:
    """The x in [lo, hi] with u + v*x >= 0 for every (u, v) in signs and x = rem
    (mod mod), a lattice's (rem, mod, ...); empty for None."""
    if lattice is None:
        return range(0)
    for u, v in signs:
        if v > 0:
            lo = max(lo, -(u // v))
        elif v < 0:
            hi = min(hi, u // -v)
        elif u < 0:
            return range(0)
    rem, mod, *_ = lattice
    return range(lo + (rem - lo) % mod, hi + 1, mod)


def feasibility_check(n: int, d: int, weights: Iterable[int]) -> FeasibilityVerdict:
    """Search for (a2_star, a3_star) making all counts nonnegative integers.

    A necessary-condition check: Infeasible rules out any spanning code of
    length n and dimension d <= n with nonzero weights inside the given set,
    which must lie in [1, n]; Feasible only reports a consistent assignment.
    The box is 0 <= a2_star <= C(n,2), 0 <= a3_star <= C(n,3), searched by
    increasing a2_star, in one of three regimes for m weights:

    * m <= 2: the counts are constants, and equations 3 and 4 force a2_star
      and a3_star, so one a2_star is checked;
    * m = 3: no count involves a3_star, and equation 4 forces it;
    * m = 4: the a3_star coefficient of every count is
      -3*2^(d-2) / prod_{i != j}(w_j - w_i) (last column of the inverse
      Vandermonde matrix), nonzero, and the least a3_star making every count
      a nonnegative integer is taken.

    The scan reads the count solve's integer numerators and builds no
    ``AffineForm``: each count, and a forced a3_star, is (c + p*a2_star +
    q*a3_star)/den with integers (c, p, q, den), den > 0, and a ``Fraction``
    is built only for a printed certificate.  With m >= 3 an
    a2_star is checked only if a real a3_star keeps every count nonnegative
    and it lies on the lattice of points (``_integral_class``) where every
    count, and a forced a3_star, is an integer, off which m = 4 reads the
    integer a3_star; the others fail, so the witness, the lexicographically
    least (a2_star, a3_star), is unchanged.  Unless the system, a constant
    count or a forced a2_star fails first, the certificate is the failure at
    the box's first a2_star (0, or the forced value), checked or not.
    """
    if n < 1 or not 1 <= d <= n:
        raise ValueError(f"need n >= 1 and 1 <= d <= n, got n={n}, d={d}")
    ws, counts, residuals, note = _count_numerators(n, d, weights)
    if ws[-1] > n:
        raise ValueError(f"weights must lie in [1, {n}], got {list(ws)}")
    if note:
        return FeasibilityVerdict(INFEASIBLE, REASON_INCONSISTENT, certificate=note)
    a2_hi, a3_hi = comb(n, 2), comb(n, 3)
    first_a2 = 0
    if len(ws) <= 2:
        for w, (c, _, _, den) in counts.items():
            if c % den:
                certificate = f"a_{w} = {Fraction(c, den)} is not an integer"
                return FeasibilityVerdict(INFEASIBLE, REASON_NON_INTEGER, certificate=certificate)
            if c < 0:
                certificate = f"a_{w} = {c // den} is negative"
                return FeasibilityVerdict(INFEASIBLE, REASON_NEGATIVE, certificate=certificate)
        # Equation 3 forces a2_star = c/-p: its a2_star coefficient is -2^(d-1).
        c, p, _, _ = residuals[3]
        failure = _forced_failure(3, c, -p, a2_hi)
        if failure is not None:
            return FeasibilityVerdict(INFEASIBLE, failure[0], certificate=failure[1])
        first_a2 = c // -p
    # With m <= 3 equation 4 forces a3_star = -(c + p*a2_star)/q: its residual's
    # a3_star coefficient is 3*2^(d-2), so q > 0.
    a3_forced = None
    if 4 in residuals:
        c, p, q, _ = residuals[4]
        a3_forced = (-c, -p, 0, q)
    lattices, a2_values = [], (first_a2,)
    if len(ws) > 2:
        lattices, a2_values = _a2_candidates(counts, a2_hi, a3_hi, a3_forced)

    for scanned, a2 in enumerate(a2_values, 1):
        a3, bad = _check_a2(counts, lattices, a2, a3_hi, a3_forced)
        if bad is None:
            values = {w: (c + p * a2 + q * a3) // den for w, (c, p, q, den) in counts.items()}
            witness = {"a2_star": a2, "a3_star": a3, "counts": values}
            return FeasibilityVerdict(FEASIBLE, REASON_NONE, witness=witness, scanned=scanned)
    reason, certificate = _check_a2(counts, lattices, first_a2, a3_hi, a3_forced)[1]
    return FeasibilityVerdict(INFEASIBLE, reason, certificate=certificate, scanned=len(a2_values))


def _a2_candidates(
    counts: Mapping[int, Numerators], a2_hi: int, a3_hi: int, a3_forced: Numerators | None
) -> tuple[list[Lattice | None], range]:
    """``_integral_class``'s lattices and the a2_star in [0, a2_hi] that can carry a witness.

    Each count c + p*a2 + q*a3 >= 0 with q != 0, 0 <= a3 <= a3_hi and a forced
    a3 bound a3 by forms (c + s*a2)/den, den > 0, kept as (c, s, 0, den);
    eliminating a3 (Fourier-Motzkin) leaves upper - lower >= 0 for each pair,
    like a count with q = 0.  a2 must also lie on the last lattice, whose a3
    (read off by the scan) make every count, and a forced a3, an integer.
    """
    integral = [*counts.values(), a3_forced] if a3_forced else counts.values()
    lattices = list(_integral_class(integral))
    if lattices[-1] is None:
        return lattices, range(0)
    lower, upper, forms = [(0, 0, 0, 1)], [(a3_hi, 0, 0, 1)], []
    if a3_forced is not None:
        lower.append(a3_forced)
        upper.append(a3_forced)
    for c, p, q, den in counts.values():
        if q > 0:
            lower.append((-c, -p, 0, q))
        elif q < 0:
            upper.append((c, p, 0, -q))
        else:
            forms.append((c, p))
    forms += [(c_up * d_lo - c_lo * d_up, s_up * d_lo - s_lo * d_up)
              for c_lo, s_lo, _, d_lo in lower for c_up, s_up, _, d_up in upper]
    return lattices, _progression(0, a2_hi, forms, lattices[-1])


def _integral_class(forms: Iterable[Numerators]) -> Iterator[Lattice | None]:
    """After each form, the lattice of integer points (a2_star, a3_star) at
    which every form so far is an integer; None, and the end, if there are none.

    A lattice (rem, mod, base, slope, period) holds a2 = rem + mod*t, a3 =
    base + slope*t + period*u for all integers t, u.  It starts as Z^2, and on
    it the form (c + p*a2 + q*a3)/den is (alpha + beta*t + gamma*u)/den: some
    u makes that an integer exactly when g = gcd(gamma, den) divides alpha +
    beta*t, so for t = t0 (mod step) or for no t, and u is then fixed mod
    den/g, affine in t.  A form with q = 0 leaves a3 free.  The scan reads each
    a3 class and, through ``_progression``, each a2 class off these lattices and
    solves no other congruence; so does ``prover._affine_scan`` (a2 = n).
    """
    rem, mod, base, slope, period = 0, 1, 0, 0, 1
    for c, p, q, den in forms:
        alpha, beta, gamma = c + p * rem + q * base, p * mod + q * slope, q * period
        g = gcd(gamma, den)
        h = gcd(beta, g)
        if alpha % h:
            yield None
            return
        step = g // h
        t0 = -alpha // h * pow(beta // h, -1, step) % step
        inverse = -pow(gamma // g, -1, den // g)
        u0, u1 = (alpha + beta * t0) // g * inverse, beta * step // g * inverse
        rem, mod = rem + mod * t0, mod * step
        base, slope = base + slope * t0 + period * u0, slope * step + period * u1
        period *= den // g
        yield rem, mod, base, slope, period


def _check_a2(
    counts: Mapping[int, Numerators],
    lattices: list[Lattice | None],
    a2: int,
    a3_hi: int,
    a3_forced: Numerators | None,
) -> tuple[int | None, Failure | None]:
    """The a3_star taken at a2 (forced, else least admissible) and why it is no witness."""
    if a3_forced is None:
        return _admissible_a3(counts, lattices, a2, a3_hi)
    c, p, _, den = a3_forced
    a3 = (c + p * a2) // den
    return a3, _forced_failure(4, c + p * a2, den, a3_hi, a2) or _count_failure(counts, a2, a3)


def _forced_failure(k: int, num: int, den: int, hi: int, a2: int | None = None) -> Failure | None:
    """Why num/den (den > 0), forced by equation k, is not an integer in [0, hi], or None.

    The forced parameter is a2_star when ``a2`` is None, else a3_star at
    that a2_star; only an a2_star certificate carries the 2-adic detail.
    """
    if num % den == 0 and 0 <= num <= hi * den:
        return None
    value = Fraction(num, den)
    name, where = ("a2_star", "") if a2 is None else ("a3_star", f"at a2_star={a2}, ")
    claim = f"{where}equation {k} forces {name} = {value}"
    if value.denominator == 1:
        return REASON_INCONSISTENT, f"{claim}, outside [0, {hi}]"
    # Over an even denominator the numerator is odd: v2 is minus the denominator's.
    detail = ""
    if a2 is None and (v2 := -_v2(value.denominator)) < 0:
        detail = f" (2-adic valuation {v2} < 0)"
    return REASON_DIVISIBILITY, f"{claim}, not an integer{detail}"


def _count_failure(counts: Mapping[int, Numerators], a2: int, a3: int) -> Failure | None:
    """The first count that is not a nonnegative integer at (a2, a3), or None."""
    for w, (c, p, q, den) in counts.items():
        num = c + p * a2 + q * a3
        if num % den or num < 0:
            reason = REASON_NON_INTEGER if num % den else REASON_NEGATIVE
            return reason, f"a_{w} = {Fraction(num, den)} at (a2_star={a2}, a3_star={a3})"
    return None


def _admissible_a3(
    counts: Mapping[int, Numerators], lattices: list[Lattice | None], a2: int, a3_hi: int
) -> tuple[int | None, Failure | None]:
    """Smallest a3 in [0, a3_hi] making every count a nonnegative integer.

    With four weights and a2 fixed each count is (alpha + q*a3)/den, q != 0,
    nonnegative on an interval of a3; ``_progression`` cuts it, then the class
    of integer a3 in it.  That class is read off ``lattices``, ``_integral_class``'s
    after each count: on the last, a2 = rem + mod*t and it is (base + slope*t)
    mod period; off it, the first lattice that misses a2 (each lies inside the
    one before) names the count that fails.  Returns (a3, None) or (None, failure).
    """
    signs = []
    for (w, (c, p, q, den)), lattice in zip(counts.items(), lattices):
        alpha = c + p * a2
        if lattice is None or (a2 - lattice[0]) % lattice[1]:
            if alpha % gcd(q, den):
                never = (f"a_{w} = {Fraction(alpha, den)} + {Fraction(q, den)}*a3_star "
                         f"is never an integer at a2_star={a2}")
                return None, (REASON_NON_INTEGER, never)
            conflict = f"integrality congruences on a3_star conflict at a2_star={a2}"
            return None, (REASON_NON_INTEGER, conflict)
        signs.append((alpha, q))
    interval = _progression(0, a3_hi, signs, (0, 1))
    if not interval:
        empty = f"no a3_star in [0, {a3_hi}] keeps all counts nonnegative at a2_star={a2}"
        return None, (REASON_NEGATIVE, empty)
    rem, mod, base, slope, period = lattice
    a3 = (base + slope * ((a2 - rem) // mod)) % period
    admissible = _progression(interval.start, interval[-1], (), (a3, period))
    if not admissible:
        missed = (f"no integer-valued a3_star in [{interval.start}, {interval[-1]}] at "
                  f"a2_star={a2} (need a3_star = {a3} mod {period})")
        return None, (REASON_NON_INTEGER, missed)
    return admissible.start, None


def lp_dimension_bound(n: int, weights: Iterable[int]) -> LpBound:
    """Delsarte's LP for length n and weight set W, solved exactly in integers
    by ``_lp_max`` and read as ``Fraction``s.  Weights outside [1, n] raise ValueError.
    """
    dimension, objective, denom, nonbasic = _lp_max(n, weights)
    m = len(nonbasic)
    # y_j is the reduced cost of s_j: zero while s_j is basic.
    multipliers = [Fraction(0)] * n
    for v, cost in zip(nonbasic, objective):
        if v >= m:
            multipliers[v - m] = Fraction(cost, denom)
    return LpBound(
        dimension=dimension,
        optimum=Fraction(objective[m], denom),
        multipliers=tuple(multipliers),
    )


def _lp_max(n: int, weights: Iterable[int]) -> tuple[int, list[int], int, list[int]]:
    """Delsarte's LP in integers: (dimension, objective, denom, nonbasic).

    Simplex with Bland's rule from the origin, which is feasible since the
    right-hand sides K_j(0) are binomials; summing the constraints gives
    sum_w A_w <= 2^n - 1, so every entering column has a positive entry.
    The tableau keeps only the nonbasic columns, as integers over the common
    denominator ``denom`` (the last pivot): fraction-free pivoting divides
    exactly.  Its rows are the lanes of one packed Krawtchouk sum, so no
    table is kept between calls.  ``objective`` holds the final reduced
    costs of the variables in ``nonbasic`` (i < m: A_{ws[i]}; m + j - 1:
    the slack s_j), then the optimum, all times ``denom``.
    """
    if n < 0:
        raise ValueError(f"negative length {n}")
    ws = sorted(set(weights))
    if any(w <= 0 or w > n for w in ws):
        raise ValueError(f"weights must lie in [1, {n}], got {ws}")
    m, size = len(ws), (n + 9) // 8  # lanes of n + 2 bits hold |K_j(w)| <= C(n, j) <= 2^n
    # Row j - 1, -sum_w K_j(w) A_w + s_j = K_j(0) with the right side last, is
    # lane group j of the Krawtchouk sum of -X^i at ws[i] and X^m at 0.
    coeffs = [1 << 8 * size * m] + [0] * n
    for i, w in enumerate(ws):
        coeffs[w] = -1 << 8 * size * i
    lanes = _krawtchouk_lanes(coeffs, size, m + 1)
    rows = [lanes[k : k + m + 1] for k in range(m + 1, len(lanes), m + 1)]
    objective = [-1] * m + [0]  # the reduced costs, then the objective value
    nonbasic = list(range(m))
    basic = list(range(m, m + n))
    denom = 1
    while entering := [c for c in range(m) if objective[c] < 0]:
        c = min(entering, key=nonbasic.__getitem__)
        # Least ratio row[m] / row[c] over row[c] > 0, ties to the least
        # basic variable (Bland).
        r = -1
        for i, row in enumerate(rows):
            if row[c] > 0 and (
                r < 0 or (row[m] * rows[r][c], basic[i]) < (rows[r][m] * row[c], basic[r])
            ):
                r = i
        pivot_row = rows[r]
        p = pivot_row[c]
        others = [k for k in range(m + 1) if k != c]
        for row in rows + [objective]:
            if row is pivot_row:
                continue
            f = row[c]
            for k in others:
                row[k] = (p * row[k] - f * pivot_row[k]) // denom
            row[c] = -f
        pivot_row[c] = denom
        denom = p
        basic[r], nonbasic[c] = nonbasic[c], basic[r]
    return (1 + objective[m] // denom).bit_length() - 1, objective, denom, nonbasic
