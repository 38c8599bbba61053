from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import ceil, comb, floor, gcd, lcm
from pathlib import Path

import pytest

from gf2codes import (
    FEASIBLE,
    INFEASIBLE,
    FeasibilityVerdict,
    Gf2Matrix,
    LinearCode,
    LinearCountSolution,
    SearchResult,
    feasibility_check,
    lp_dimension_bound,
    max_dimension_exhaustive,
    parse_generator_text,
    solve_weight_counts,
    spanning_form,
)
from gf2codes.moments import (
    REASON_DIVISIBILITY,
    REASON_INCONSISTENT,
    REASON_NEGATIVE,
    REASON_NON_INTEGER,
    AffineForm,
    Failure,
    _scaled_rhs,
)
from gf2codes.prover import ProofReport, ProofStep, _braces
from gf2codes.search import DEFAULT_NODE_CAP, _word_tables

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# Populated by test_acceptance.py; echoed after the run so each criterion
# gets one visible pass/fail line even under output capture.
ACCEPTANCE_RESULTS: list[tuple[int, str, str]] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num, desc, status in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line(f"[acceptance] criterion {num} ({desc}): {status}")


def load_code(name: str) -> LinearCode:
    return LinearCode.from_rows(parse_generator_text((FIXTURES / name).read_text()))


def random_code(rng: random.Random, n: int, rows: int) -> LinearCode:
    """A code spanned by uniformly random rows (dimension = their rank)."""
    return LinearCode.from_rows(
        Gf2Matrix.from_ints([rng.getrandbits(n) for _ in range(rows)], n)
    )


def all_codewords(code: LinearCode) -> list[int]:
    """Every codeword as a bit-packed int, by span doubling (not Gray order)."""
    words = [0]
    for row in code.generator.rows:
        words += [w ^ row for w in words]
    return words


def brute_distribution(code: LinearCode) -> tuple[int, ...]:
    """Weight counts of ``all_codewords(code)``, independent of the library's walk."""
    counts = [0] * (code.n + 1)
    for w in all_codewords(code):
        counts[w.bit_count()] += 1
    return tuple(counts)


def column_scan_rref(rows, n_cols: int) -> tuple[list[int], list[int]]:
    """Row reduction column by column, kept as the oracle for ``rref_ints``.

    For each column in turn, the first row from the current one down with
    that bit is swapped up and cleared from every other row.  Returns the
    rows (nonzero ones in pivot order, then zero rows) and the pivots.
    """
    work = list(rows)
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        piv = next((i for i in range(r, len(work)) if (work[i] >> c) & 1), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        for i in range(len(work)):
            if i != r and (work[i] >> c) & 1:
                work[i] ^= work[r]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work, pivots


def free_column_nullspace(matrix: Gf2Matrix) -> Gf2Matrix:
    """Null space basis with one row per free column of rref(M), not reduced.

    Row f is e_f plus e_p for each pivot p whose reduced row has bit f.
    """
    work, pivots = column_scan_rref(matrix.rows, matrix.n_cols)
    basis = []
    for free in range(matrix.n_cols):
        if free in pivots:
            continue
        vec = 1 << free
        for row, p in zip(work, pivots):
            if (row >> free) & 1:
                vec |= 1 << p
        basis.append(vec)
    return Gf2Matrix.from_ints(basis, matrix.n_cols)


def per_bit_transpose(rows, width: int) -> list[int]:
    """Column j of the bit-packed rows, assembled one bit at a time."""
    return [sum([((r >> j) & 1) << i for i, r in enumerate(rows)]) for j in range(width)]


def per_bit_nullspace(matrix: Gf2Matrix) -> Gf2Matrix:
    """The null space word by word and bit by bit, kept as the oracle for
    ``nullspace_basis``: the rows are reduced with each pivot at the row's
    highest bit, then every set bit f below a pivot q adds q to free column
    f's word."""
    reduced: list[int] = []
    for r in matrix.rows:
        for row in reduced:
            if (r >> (row.bit_length() - 1)) & 1:
                r ^= row
        if r:
            top = r.bit_length() - 1
            reduced = [row ^ r if (row >> top) & 1 else row for row in reduced]
            reduced.append(r)
    words = {f: 1 << f for f in range(matrix.n_cols)}
    for row in reduced:
        top = row.bit_length() - 1
        del words[top]
        rest = row ^ 1 << top
        while rest:
            low = rest & -rest
            words[low.bit_length() - 1] |= 1 << top
            rest ^= low
    return Gf2Matrix.from_ints(list(words.values()), matrix.n_cols)


def per_bit_restrict(rows, n: int, dropped: int) -> LinearCode:
    """The code spanned by rows with the coordinates in dropped deleted, each
    row rebuilt bit by bit: the oracle for ``transforms._restrict``."""
    keep = [i for i in range(n) if not (dropped >> i) & 1]
    restricted = []
    for r in rows:
        out = 0
        for new_pos, old_pos in enumerate(keep):
            if (r >> old_pos) & 1:
                out |= 1 << new_pos
        restricted.append(out)
    return LinearCode.from_rows(Gf2Matrix.from_ints(restricted, len(keep)))


def minus(f: AffineForm, g: AffineForm, factor: Fraction = Fraction(1)) -> AffineForm:
    """f - factor * g, coefficient by coefficient."""
    return AffineForm(
        f.const - factor * g.const,
        f.a2_coeff - factor * g.a2_coeff,
        f.a3_coeff - factor * g.a3_coeff,
    )


def gauss_jordan_counts(n: int, d: int, weights) -> LinearCountSolution:
    """Gauss-Jordan elimination with pivot search on the Vandermonde system,
    kept as the oracle for ``solve_weight_counts`` (valid input only)."""
    ws = tuple(sorted(set(weights)))
    m = len(ws)
    rhs = [AffineForm(*[Fraction(x, 8) for x in row]) for row in _scaled_rhs(n, d)]
    rows = [[Fraction(w) ** k for w in ws] for k in range(m)]
    forms = [rhs[k] for k in range(m)]
    for col in range(m):
        piv = next(i for i in range(col, m) if rows[i][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        forms[col], forms[piv] = forms[piv], forms[col]
        factor = rows[col][col]
        rows[col] = [x / factor for x in rows[col]]
        f = forms[col]
        forms[col] = AffineForm(f.const / factor, f.a2_coeff / factor, f.a3_coeff / factor)
        for i in range(m):
            if i != col and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[col])]
                forms[i] = minus(forms[i], forms[col], f)
    expressions = {w: forms[j] for j, w in enumerate(ws)}
    residuals = {}
    note = ""
    consistent = True
    for k in range(m, 4):
        lhs = AffineForm()
        for w in ws:
            lhs = minus(lhs, expressions[w], -(Fraction(w) ** k))
        residual = minus(lhs, rhs[k])
        residuals[k + 1] = residual
        if residual.is_constant() and residual.const != 0:
            consistent = False
            note = f"equation {k + 1} reduces to {residual.const} = 0"
    return LinearCountSolution(n, d, ws, expressions, residuals, consistent, note)


def count_numerators_reference(n: int, d: int, weights):
    """The O(m^3) integer count solve, kept as ``moments._count_numerators``'s
    oracle (valid input only): each inverse Vandermonde row is multiplied out
    factor by factor, and every count and residual numerator is a sum over
    all four equations."""
    ws = tuple(sorted(set(weights)))
    rhs = _scaled_rhs(n, d)
    counts = {}
    for w in ws:
        # Row w: the coefficients, lowest degree first, of the product of
        # (t - v) over v < w and (v - t) over v > w over its value at w (> 0).
        coeffs, at_w = [1], 1
        for v in ws:
            if v != w:
                coeffs = [b - v * a if v < w else v * a - b
                          for a, b in zip(coeffs + [0], [0] + coeffs)]
                at_w *= abs(w - v)
        counts[w] = tuple([sum(c * r[i] for c, r in zip(coeffs, rhs)) for i in range(3)]
                          + [8 * at_w])
    den = lcm(*(count[3] for count in counts.values()))
    residuals = {}
    note = ""
    for k in range(len(ws), 4):
        c, p, q, _ = residuals[k + 1] = tuple([
            sum(w**k * count[i] * (den // count[3]) for w, count in counts.items())
            - rhs[k][i] * (den // 8)
            for i in range(3)
        ] + [den])
        if c and not p and not q:
            note = f"equation {k + 1} reduces to {Fraction(c, den)} = 0"
    return ws, counts, residuals, note


def rref_dfs_reference(n: int, weights) -> SearchResult:
    """The unpruned RREF depth-first search, kept as the search's oracle.

    Tries every row with a free pivot in increasing numeric order and keeps
    the codewords spanned so far in a list; ``nodes_explored`` counts every
    row tried, admissible or not.  It has no node cap or LP stop, so it always
    exhausts the search; ``bound`` is the trivial bound n.
    """
    wset = frozenset(weights)
    best_rows: list[int] = []
    rows: list[int] = []
    words: list[int] = []
    nodes = 0

    def extend(last_pivot: int, union: int) -> None:
        nonlocal nodes, best_rows
        for pivot in range(last_pivot + 1, n):
            if (union >> pivot) & 1:
                continue
            for mask in range(1 << (n - pivot - 1)):
                nodes += 1
                candidate = (1 << pivot) | (mask << (pivot + 1))
                if candidate.bit_count() not in wset:
                    continue
                new_words = [candidate ^ x for x in words]
                if any(x.bit_count() not in wset for x in new_words):
                    continue
                rows.append(candidate)
                words.append(candidate)
                words.extend(new_words)
                if len(rows) > len(best_rows):
                    best_rows = list(rows)
                extend(pivot, union | candidate)
                del words[-(len(new_words) + 1):]
                rows.pop()

    extend(-1, 0)
    return SearchResult(
        n=n,
        weights=tuple(sorted(wset)),
        max_dimension=len(best_rows),
        witness=Gf2Matrix.from_ints(best_rows, n) if best_rows else None,
        nodes_explored=nodes,
        complete=True,
        stop="exhausted",
        bound=n,
    )


def single_phase_search(n: int, weights, node_cap: int = DEFAULT_NODE_CAP) -> SearchResult:
    """The one-phase branch-and-bound, kept as the two-phase search's oracle.

    Walks canonical generators only, every free bucket in pivot order, cuts
    branches that cannot beat the best code found so far and stops once it
    reaches the LP bound.  Its first witness of the largest dimension, its
    ``complete``, ``stop`` and ``bound`` are what the two-phase search must
    return; only ``nodes_explored`` differs.
    """
    wset = frozenset(weights)
    lp_bound = lp_dimension_bound(n, wset).dimension
    keep, lowest, by_weight = _word_tables(n)
    best_rows: list[int] = []
    rows: list[int] = []
    nodes = 0

    class Stopped(Exception):
        pass

    def extend(last_pivot: int, union: int, admissible: int) -> None:
        nonlocal nodes, best_rows
        free = [q for q in range(last_pivot + 1, n) if not (union >> q) & 1]
        buckets = [admissible & lowest[1 << q] for q in free]
        counts = [bucket.bit_count() for bucket in buckets]
        words_left = sum(counts)
        buckets_left = sum(1 for count in counts if count)
        for pivot, bucket, count in zip(free, buckets, counts):
            bound = min(buckets_left, (1 + words_left).bit_length() - 1)
            if len(rows) + bound <= len(best_rows):
                return
            words_left -= count
            buckets_left -= count > 0
            while bucket:
                low = bucket & -bucket
                bucket ^= low
                nodes += 1
                if nodes > node_cap:
                    raise Stopped("node-cap")
                row = low.bit_length() - 1
                shifted = admissible
                for j in range(pivot, n):
                    if (row >> j) & 1:
                        step = 1 << j
                        shifted = ((shifted & keep[step]) << step) | ((shifted >> step) & keep[step])
                rows.append(row)
                if len(rows) > len(best_rows):
                    best_rows = list(rows)
                    if len(best_rows) == lp_bound:
                        raise Stopped("lp-bound")
                extend(pivot, union | row, admissible & shifted)
                rows.pop()

    stop = "exhausted"
    try:
        extend(-1, 0, sum([by_weight[w] for w in wset]))
    except Stopped as stopped:
        stop = stopped.args[0]
    return SearchResult(
        n=n,
        weights=tuple(sorted(wset)),
        max_dimension=len(best_rows),
        witness=Gf2Matrix.from_ints(best_rows, n) if best_rows else None,
        nodes_explored=nodes,
        complete=stop != "node-cap",
        stop=stop,
        bound=lp_bound,
    )


def cross_validate(
    n_max: int, weight_universe, node_cap: int = DEFAULT_NODE_CAP
) -> list[tuple[int, tuple[int, ...], bool]]:
    """Check search witnesses against the moment feasibility test, which
    must never rule out a code the search actually found.

    For every length up to n_max and every subset W of the universe, a
    witness found by exhaustive search is re-embedded at its spanning
    length and, with the weights of W that fit in that length, checked by
    feasibility_check: a disagreement would mean the necessary condition is
    not actually necessary.  Returns (n, W, agree) triples.
    """
    universe = sorted(set(weight_universe))
    results: list[tuple[int, tuple[int, ...], bool]] = []
    for n in range(1, n_max + 1):
        for r in range(len(universe) + 1):
            for subset in combinations(universe, r):
                wset = tuple([w for w in subset if w <= n])
                found = max_dimension_exhaustive(n, wset, node_cap=node_cap)
                agree = True
                if found.max_dimension >= 1 and found.witness is not None:
                    code = spanning_form(LinearCode.from_rows(found.witness))
                    fitting = tuple([w for w in wset if w <= code.n])
                    verdict = feasibility_check(code.n, code.dimension, fitting)
                    agree = verdict.feasible
                results.append((n, subset, agree))
    return results


def krawtchouk(n: int, j: int, w: int) -> int:
    """K_j(w) = sum_s (-1)^s C(w, s) C(n - w, j - s), from the definition."""
    return sum((-1) ** s * comb(w, s) * comb(n - w, j - s) for s in range(j + 1))


def _det(matrix: list[list[int]]) -> int:
    """Integer determinant by Laplace expansion along the first row."""
    if not matrix:
        return 1
    return sum(
        (-1) ** i * a * _det([row[:i] + row[i + 1:] for row in matrix[1:]])
        for i, a in enumerate(matrix[0])
        if a
    )


def lp_vertex_reference(n: int, weights) -> Fraction:
    """Delsarte's LP optimum by vertex enumeration, kept as the simplex's oracle.

    The constraints are A_w >= 0 and K_j(0) + sum_w A_w K_j(w) >= 0 for
    j = 1..n, each written as coeffs . A <= rhs with integer entries.  Every
    choice of |W| of them taken as equalities with a unique solution is
    solved by Cramer's rule, A = num / det; the largest objective over the
    feasible solutions is the optimum, since the feasible region is a
    nonempty polytope.  Meant for |W| <= 3.
    """
    ws = sorted(set(weights))
    m = len(ws)
    constraints = [([-1 if v == w else 0 for v in ws], 0) for w in ws] + [
        ([-krawtchouk(n, j, w) for w in ws], comb(n, j)) for j in range(1, n + 1)
    ]
    best = Fraction(0)
    for active in combinations(constraints, m):
        matrix = [coeffs for coeffs, _ in active]
        det = _det(matrix)
        if det == 0:
            continue
        num = [
            _det([row[:i] + [b] + row[i + 1:] for row, (_, b) in zip(matrix, active)])
            for i in range(m)
        ]
        sign = 1 if det > 0 else -1
        if all(
            sign * sum(c * x for c, x in zip(coeffs, num)) <= sign * b * det
            for coeffs, b in constraints
        ):
            best = max(best, Fraction(sum(num), det))
    return best


# The scan's per-a2_star helpers in rational arithmetic, for
# ``full_scan_reference`` (and the 2-adic valuation for
# ``lemma_2_6_reference``): oracles that share no helper with the library's
# integer scan.


def _two_adic_valuation(x: Fraction) -> int | None:
    """2-adic valuation of a nonzero rational; None for zero."""
    if x == 0:
        return None
    num, den = x.numerator, x.denominator
    return (abs(num) & -abs(num)).bit_length() - ((den & -den).bit_length())


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
    detail = ""
    if a2 is None and (v2 := _two_adic_valuation(value)) < 0:
        detail = f" (2-adic valuation {v2} < 0)"
    return REASON_DIVISIBILITY, f"{claim}, not an integer{detail}"


def _crt_merge(r1: int, m1: int, r2: int, m2: int) -> tuple[int, int] | None:
    """Combine x = r1 (mod m1) with x = r2 (mod m2); None if incompatible."""
    g = gcd(m1, m2)
    if (r2 - r1) % g:
        return None
    l = lcm(m1, m2)
    step = m2 // g
    k = ((r2 - r1) // g * pow(m1 // g, -1, step)) % step if step > 1 else 0
    return (r1 + m1 * k) % l, l


def _integral_congruence(u: Fraction, v: Fraction) -> tuple[int, int] | None:
    """(r, M) with u + v*x an integer exactly when x = r (mod M); None if never."""
    denom = lcm(u.denominator, v.denominator)
    a, b = int(u * denom), int(v * denom)
    g = gcd(b, denom)
    if a % g:
        return None
    step = denom // g
    return ((-a // g) * pow(b // g, -1, step)) % step if step > 1 else 0, step


def _nonnegative_part(lo: int, hi: int, u: Fraction, v: Fraction) -> tuple[int, int]:
    """The integers x in [lo, hi] with u + v*x >= 0 (empty when lo > hi)."""
    if v > 0:
        return max(lo, ceil(-u / v)), hi
    if v < 0:
        return lo, min(hi, floor(-u / v))
    return (lo, hi) if u >= 0 else (lo, lo - 1)


def _count_failure(sol: LinearCountSolution, a2: int, a3: int | Fraction) -> Failure | None:
    """The first count that is not a nonnegative integer at (a2, a3), or None."""
    for w in sol.weights:
        value = sol.expressions[w].evaluate(a2, a3)
        if value.denominator != 1:
            return REASON_NON_INTEGER, f"a_{w} = {value} at (a2_star={a2}, a3_star={a3})"
        if value < 0:
            return REASON_NEGATIVE, f"a_{w} = {value} at (a2_star={a2}, a3_star={a3})"
    return None


def _admissible_a3(
    sol: LinearCountSolution, a2: int, a3_hi: int
) -> tuple[int | None, Failure | None]:
    """Smallest a3 in [0, a3_hi] making every count a nonnegative integer.

    With four weights and a2 fixed each count is alpha + beta * a3, beta != 0;
    nonnegativity becomes an interval in a3 and integrality a congruence,
    merged across counts.  Returns (a3, None) or (None, failure).
    """
    lo, hi, rem, mod = 0, a3_hi, 0, 1
    for w, f in sol.expressions.items():
        alpha, beta = f.const + f.a2_coeff * a2, f.a3_coeff
        lo, hi = _nonnegative_part(lo, hi, alpha, beta)
        congruence = _integral_congruence(alpha, beta)
        if congruence is None:
            never = f"a_{w} = {alpha} + {beta}*a3_star is never an integer at a2_star={a2}"
            return None, (REASON_NON_INTEGER, never)
        merged = _crt_merge(rem, mod, *congruence)
        if merged is None:
            conflict = f"integrality congruences on a3_star conflict at a2_star={a2}"
            return None, (REASON_NON_INTEGER, conflict)
        rem, mod = merged
    if lo > hi:
        empty = f"no a3_star in [0, {a3_hi}] keeps all counts nonnegative at a2_star={a2}"
        return None, (REASON_NEGATIVE, empty)
    first = lo + ((rem - lo) % mod)
    if first > hi:
        missed = (f"no integer-valued a3_star in [{lo}, {hi}] at a2_star={a2} "
                  f"(need a3_star = {rem} mod {mod})")
        return None, (REASON_NON_INTEGER, missed)
    return first, None


def _a2_interval(sol: LinearCountSolution, a2_hi: int, a3_hi: int) -> tuple[int, int]:
    """The integers a2 in [0, a2_hi] at which some real a3 in [0, a3_hi]
    keeps every count nonnegative (and the equation 4 residual zero, when
    there is one), as (lo, hi), empty when lo > hi.

    Fourier-Motzkin: each constraint is c + p*a2 + q*a3 >= 0; every pair of
    a lower (q > 0) and an upper (q < 0) bound on a3, and every constraint
    without a3, leaves one constraint on a2 alone.
    """
    one, zero = Fraction(1), Fraction(0)
    cons = [(f.const, f.a2_coeff, f.a3_coeff) for f in sol.expressions.values()]
    cons += [(zero, zero, one), (Fraction(a3_hi), zero, -one)]
    for f in sol.residuals.values():
        cons += [(f.const, f.a2_coeff, f.a3_coeff), (-f.const, -f.a2_coeff, -f.a3_coeff)]
    on_a2 = [(c, p) for c, p, q in cons if q == 0]
    on_a2 += [
        (-q2 * c1 + q1 * c2, -q2 * p1 + q1 * p2)
        for c1, p1, q1 in cons if q1 > 0
        for c2, p2, q2 in cons if q2 < 0
    ]
    lo, hi = 0, a2_hi
    for c, p in on_a2:
        if p > 0:
            lo = max(lo, ceil(-c / p))
        elif p < 0:
            hi = min(hi, floor(-c / p))
        elif c < 0:
            return 0, -1
    return lo, hi


def full_scan_reference(n: int, d: int, weights) -> FeasibilityVerdict:
    """The unpruned feasibility scan, kept as the pruned scan's oracle.

    Checks a2_star = 0, then every a2_star of ``_a2_interval`` in increasing
    order (or the one equation 3 forces), in rational arithmetic with the
    helpers above, and keeps the failure at the first one checked as the
    certificate.  No a2_star outside the interval can give a witness, so
    this finds the same first witness as checking all of [0, C(n,2)].
    Inputs are taken as valid; ``scanned`` is left at 0.
    """
    sol = solve_weight_counts(n, d, weights)
    if not sol.consistent:
        return FeasibilityVerdict(INFEASIBLE, "inconsistent system", certificate=sol.note)
    m = len(sol.weights)
    a2_hi, a3_hi = comb(n, 2), comb(n, 3)
    if m <= 2:
        for w in sol.weights:
            count = sol.expressions[w].const
            if count.denominator != 1:
                certificate = f"a_{w} = {count} is not an integer"
                return FeasibilityVerdict(INFEASIBLE, "non-integer count", certificate=certificate)
            if count < 0:
                certificate = f"a_{w} = {count} is negative"
                return FeasibilityVerdict(INFEASIBLE, "negative count", certificate=certificate)
        eq3 = sol.residuals[3]
        forced_a2 = -eq3.const / eq3.a2_coeff
        failure = _forced_failure(3, *forced_a2.as_integer_ratio(), a2_hi)
        if failure is not None:
            return FeasibilityVerdict(INFEASIBLE, failure[0], certificate=failure[1])
        a2_values = [int(forced_a2)]
    else:
        lo, hi = _a2_interval(sol, a2_hi, a3_hi)
        a2_values = [0, *range(max(lo, 1), hi + 1)]
    if m <= 3:
        eq4 = sol.residuals[4]
        a3_base, a3_slope = -eq4.const / eq4.a3_coeff, -eq4.a2_coeff / eq4.a3_coeff
    failure = None
    for a2 in a2_values:
        if m <= 3:
            a3 = a3_base + a3_slope * a2
            bad = _forced_failure(4, *a3.as_integer_ratio(), a3_hi, a2)
        else:
            a3, bad = _admissible_a3(sol, a2, a3_hi)
        if bad is None:
            bad = _count_failure(sol, a2, a3)
        if bad is None:
            counts = {w: int(sol.expressions[w].evaluate(a2, a3)) for w in sol.weights}
            witness = {"a2_star": a2, "a3_star": int(a3), "counts": counts}
            return FeasibilityVerdict(FEASIBLE, "none", witness=witness)
        failure = failure or bad
    return FeasibilityVerdict(INFEASIBLE, failure[0], certificate=failure[1])


def lemma_2_6_reference(d: int, n_range: tuple[int, int]) -> ProofReport:
    """The per-length Lemma 2.6 replay, kept as the affine replay's oracle.

    Solves the moment equations and evaluates the closed forms, the second
    moment and its factored form at every length in ``n_range``.  Inputs
    are taken as valid.
    """
    lo, hi = n_range
    pair = (24, 32)
    all_match = True
    required = d - 1
    valuations: set[int] = set()
    zero_lhs_lengths: list[int] = []
    no_contradiction: list[int] = []
    admissible: list[int] = []
    admissible_no_contradiction: list[int] = []
    factored_ok = True
    for n in range(lo, hi + 1):
        scale = Fraction(2) ** (d - 4)
        counts = (scale * (64 - n) - 4, scale * (n - 48) + 3)
        sol = solve_weight_counts(n, d, pair)
        if sol.expressions != {w: AffineForm(c) for w, c in zip(pair, counts)}:
            all_match = False
        lhs = sum(w * w * c for w, c in zip(pair, counts))
        factored = 256 * (
            Fraction(2) ** (d - 6) * 9 * (64 - n) + Fraction(2) ** (d - 2) * (n - 48) + 3
        )
        if lhs != factored:
            factored_ok = False
        v2 = _two_adic_valuation(lhs)
        if v2 is None:
            zero_lhs_lengths.append(n)
        else:
            valuations.add(v2)
        contradiction = v2 is not None and v2 < required
        if not contradiction:
            no_contradiction.append(n)
        if all(c.denominator == 1 and c >= 0 for c in counts):
            admissible.append(n)
            if not contradiction:
                admissible_no_contradiction.append(n)

    steps = (
        ProofStep(
            id="closed-form-counts",
            kind="arithmetic",
            statement=(
                f"the first two moment equations give a_{pair[0]} = 2^(d-4)*(64-n) - 4 "
                f"and a_{pair[1]} = 2^(d-4)*(n-48) + 3 at every length in range"
            ),
            anchor="lemma-2-6 / two-weight count solve",
            status=all_match,
            data={
                "dimension": d,
                "n_range": [lo, hi],
                f"a{pair[0]}_formula": "2^(d-4)*(64-n) - 4",
                f"a{pair[1]}_formula": "2^(d-4)*(n-48) + 3",
                "all_lengths_match": all_match,
            },
        ),
        ProofStep(
            id="divisibility-scan",
            kind="arithmetic",
            statement=(
                "substituting the pinned counts into the second-moment identity, "
                "the dual pair count is an integer only if the left side is "
                f"divisible by 2^{required}; the scan records where that fails"
            ),
            anchor="lemma-2-6 / 2-adic valuation of the second moment",
            status=factored_ok and not admissible_no_contradiction,
            data={
                "dimension": d,
                "required_valuation": required,
                "lhs_factored": "2^8 * (9*2^(d-6)*(64-n) + 2^(d-2)*(n-48) + 3)",
                "factored_matches_sum": factored_ok,
                "valuations_seen": sorted(valuations),
                "zero_lhs_lengths": zero_lhs_lengths,
                "lengths_without_contradiction": no_contradiction,
                "admissible_lengths": admissible,
                "admissible_without_contradiction": admissible_no_contradiction,
            },
        ),
        ProofStep(
            id="parity-argument",
            kind="arithmetic",
            statement=(
                "for d >= 7 both scaled powers in the inner term are even, so the "
                "inner term is odd for every length and the left side has 2-adic "
                "valuation exactly 8"
            ),
            anchor="lemma-2-6 / inner term is odd",
            status=d >= 7,
            data={
                "inner_term": "9*2^(d-6)*(64-n) + 2^(d-2)*(n-48) + 3",
                "even_summands_from_dimension": 7,
                "dimension": d,
                "valuation_for_all_lengths": 8 if d >= 7 else None,
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


@pytest.fixture
def golay() -> LinearCode:
    return load_code("golay_24_12.txt")


@pytest.fixture
def hamming_7_4() -> LinearCode:
    return load_code("hamming_7_4.txt")


@pytest.fixture
def hamming_8_4() -> LinearCode:
    return load_code("hamming_8_4.txt")


@pytest.fixture
def even_weight_4() -> LinearCode:
    return load_code("even_weight_4.txt")


@pytest.fixture
def repetition_5() -> LinearCode:
    return load_code("repetition_5.txt")
