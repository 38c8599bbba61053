"""Output checks for benchmark ops, written independently of the program.

Every op's ``--json`` documents are checked against invariants that hold for
any seed: distribution totals, the MacWilliams round trip, the paper's four
power-moment identities with a2*/a3* counted from the generator's columns,
orthogonality and rank of duals, exact spans of projections and
shortenings, search witnesses whose whole span stays in the weight set, and
feasibility witnesses re-solved with ``Fraction``.  A vector is a Python int
whose bit i is coordinate i, as in the program's text format.
"""

from __future__ import annotations

import hashlib
import json
import re
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb

FEASIBILITY_REASONS = frozenset({
    "negative count",
    "non-integer count",
    "divisibility contradiction",
    "inconsistent system",
})

# Above this dual dimension the dual is not enumerated by the checker.
DUAL_ENUMERATION_LIMIT = 12

_NODES_LINE = re.compile(r'^\s*"nodes_explored": \d+,?\n', re.MULTILINE)


# ---------------------------------------------------------------- GF(2)

def rref(rows):
    """Canonical basis of the span: fully reduced, sorted by pivot.

    The pivot of a row is its lowest set coordinate, matching the program's
    canonical generator, so equal spans give equal lists.
    """
    basis: list[int] = []
    for r in rows:
        for b in basis:
            if r & (b & -b):
                r ^= b
        if r:
            low = r & -r
            basis = [b ^ r if b & low else b for b in basis]
            basis.append(r)
    return sorted(basis, key=lambda b: b & -b)


def rank(rows) -> int:
    return len(rref(rows))


def parse_row(text: str) -> int:
    """A '0'/'1' string as an int, character i giving coordinate i."""
    if set(text) - {"0", "1"}:
        raise ValueError(f"not a bit string: {text!r}")
    return int(text[::-1], 2) if text else 0


def format_row(bits: int, n: int) -> str:
    return format(bits, f"0{n}b")[::-1] if n else ""


def span_weights(rows) -> Counter:
    """Weight distribution of the span of independent rows (Gray-code walk)."""
    counts = Counter({0: 1})
    cur = 0
    for m in range(1, 1 << len(rows)):
        cur ^= rows[(m & -m).bit_length() - 1]
        counts[cur.bit_count()] += 1
    return counts


def column_dual_counts(rows, n: int) -> tuple[int, int, int]:
    """(a1*, a2*, a3*): dual words of weight 1, 2, 3, counted from columns.

    e_i is in the dual iff column i is zero; e_i + e_j iff columns i and j
    are equal; e_i + e_j + e_l iff the three columns sum to zero.
    """
    cols = [sum(((r >> j) & 1) << i for i, r in enumerate(rows)) for j in range(n)]
    positions: dict[int, list[int]] = {}
    for j, c in enumerate(cols):
        positions.setdefault(c, []).append(j)
    a1 = len(positions.get(0, ()))
    a2 = sum(len(p) * (len(p) - 1) // 2 for c, p in positions.items() if c)
    a3 = 0
    for i in range(n):
        if cols[i] == 0:
            continue
        for j in range(i + 1, n):
            x = cols[i] ^ cols[j]
            if x and x in positions:
                later = positions[x]
                a3 += len(later) - bisect_right(later, j)
    return a1, a2, a3


# ------------------------------------------------------------ weight data

@lru_cache(maxsize=None)
def _krawtchouk(n: int) -> tuple[tuple[int, ...], ...]:
    """Row i holds the coefficients of (1 - x)^i (1 + x)^(n - i)."""
    row = [comb(n, j) for j in range(n + 1)]
    rows = [tuple(row)]
    for _ in range(n):
        quotient = []
        prev = 0
        for c in row[:-1]:
            prev = c - prev
            quotient.append(prev)
        row = [a - b for a, b in zip(quotient + [0], [0] + quotient)]
        rows.append(tuple(row))
    return tuple(rows)


def macwilliams(counts: dict[int, int], n: int, dim: int) -> dict[int, int] | None:
    """Distribution of the dual of a dimension-``dim`` code, or None if the
    transform is not a nonnegative integer vector."""
    k = _krawtchouk(n)
    acc = [0] * (n + 1)
    for i, a in counts.items():
        row = k[i]
        for j in range(n + 1):
            acc[j] += a * row[j]
    out = {}
    for j, c in enumerate(acc):
        if c < 0 or c % (1 << dim):
            return None
        if c:
            out[j] = c >> dim
    return out


def moment_identities_hold(counts: dict[int, int], n: int, d: int, a2: int, a3: int) -> bool:
    """The paper's four power-moment identities over nonzero weights."""
    nonzero = {w: a for w, a in counts.items() if w > 0}
    m = [sum(a * w ** e for w, a in nonzero.items()) for e in range(4)]
    half = Fraction(2) ** (d - 1)
    quarter = Fraction(2) ** (d - 2)
    return (
        m[0] == 2 ** d - 1
        and m[1] == half * n
        and m[2] == half * (a2 + Fraction(n * (n + 1), 2))
        and m[3] == quarter * (3 * (a2 * n - a3) + Fraction(n * n * (n + 3), 2))
    )


def _distribution(payload: dict, n: int) -> dict[int, int]:
    weights, counts = payload["weights"], payload["counts"]
    if len(weights) != len(counts) or weights != sorted(set(weights)):
        raise ValueError("distribution weights not strictly ascending or lengths differ")
    if weights and not 0 <= weights[0] <= weights[-1] <= n:
        raise ValueError(f"distribution has a weight outside [0, {n}]")
    if any(c <= 0 for c in counts):
        raise ValueError("distribution lists a count that is not positive")
    return dict(zip(weights, counts))


# ------------------------------------------------------------ op checks

class _Report:
    def __init__(self) -> None:
        self.problems: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def _load(outs, report: _Report, command: str, allowed_rcs=(0,)):
    """Parse each command's JSON document; None entries for unusable ones."""
    docs = []
    for rc, out, err in outs:
        if rc not in allowed_rcs:
            report.problems.append(f"{command}: exit code {rc}: {err.strip()[:200]}")
            docs.append(None)
            continue
        try:
            doc = json.loads(out)
        except ValueError:
            report.problems.append(f"{command}: stdout is not one JSON document")
            docs.append(None)
            continue
        report.expect(set(doc) == {"command", "inputs", "payload", "version"},
                      f"{command}: document keys {sorted(doc)}")
        docs.append(doc)
    return docs


def _canonical_rows(report: _Report, label: str, texts: list[str], n: int) -> list[int]:
    """Parse generator rows of length n and require canonical reduced form."""
    report.expect(all(len(t) == n for t in texts), f"{label}: a row does not have length {n}")
    rows = [parse_row(t) for t in texts]
    report.expect(rows == rref(rows), f"{label}: generator is not in canonical reduced form")
    return rows


def check_analyze(op, outs) -> tuple[list[str], dict]:
    """analyze, dual, project --word 0 and shorten --coords 0,1 on one code."""
    report = _Report()
    rows, n, k = op.params["rows"], op.params["n"], op.params["k"]
    facts = {"highrate": n - k < k}
    docs = _load(outs, report, "analyze-op")
    if len(docs) != 4 or any(d is None for d in docs):
        report.expect(len(docs) == 4, f"expected 4 documents, got {len(docs)}")
        return report.problems, facts
    analyze, dual, proj, short = docs
    try:
        canon = rref(rows)
        a1s, a2s, a3s = column_dual_counts(rows, n)

        p = analyze["payload"]
        report.expect(analyze["command"] == "analyze", "analyze: wrong command")
        report.expect((p["n"], p["dimension"]) == (n, k), f"analyze: [n,k] = {p['n']},{p['dimension']}")
        primal = _distribution(p["weight_distribution"], n)
        dual_dist = _distribution(p["dual_weight_distribution"], n)
        report.expect(sum(primal.values()) == 2 ** k, "analyze: distribution does not sum to 2^k")
        report.expect(sum(dual_dist.values()) == 2 ** (n - k),
                      "analyze: dual distribution does not sum to 2^(n-k)")
        report.expect(primal.get(0) == 1 and dual_dist.get(0) == 1, "analyze: A_0 is not 1")
        report.expect(macwilliams(dual_dist, n, n - k) == primal,
                      "analyze: MacWilliams of the dual distribution is not the distribution")
        report.expect((dual_dist.get(1, 0), dual_dist.get(2, 0), dual_dist.get(3, 0)) == (a1s, a2s, a3s),
                      "analyze: dual weights 1-3 disagree with the generator's columns")
        report.expect(moment_identities_hold(primal, n, k, a2s, a3s),
                      "analyze: power-moment identities fail")
        meets_even = all((a & b).bit_count() % 2 == 0 for i, a in enumerate(canon) for b in canon[i + 1:])
        is_even = all(w % 2 == 0 for w in primal)
        isotropic = is_even and meets_even
        report.expect(p["profile"] == {
            "is_even": is_even,
            "is_doubly_even": all(w % 4 == 0 for w in primal),
            "is_isotropic": isotropic,
            "is_self_dual": isotropic and 2 * k == n,
            "is_spanning": True,
        }, "analyze: predicate profile is wrong")

        p = dual["payload"]
        report.expect(dual["command"] == "dual", "dual: wrong command")
        dual_rows = _canonical_rows(report, "dual", p["generator"], n)
        report.expect((p["n"], p["dimension"], len(dual_rows)) == (n, n - k, n - k),
                      "dual: dimension is not n-k")
        report.expect(all((a & b).bit_count() % 2 == 0 for a in dual_rows for b in rows),
                      "dual: a row is not orthogonal to the code")
        if n - k <= DUAL_ENUMERATION_LIMIT:
            report.expect(dict(span_weights(dual_rows)) == dual_dist,
                          "dual: enumerated dual distribution differs from analyze's")

        w0 = canon[0]
        keep = [i for i in range(n) if not (w0 >> i) & 1]
        image = rref(_restrict(r, keep) for r in rows)
        p = proj["payload"]
        report.expect(proj["command"] == "project", "project: wrong command")
        report.expect(p["n"] == len(keep), "project: length is not n - |w|")
        proj_rows = _canonical_rows(report, "project", p["generator"], len(keep))
        report.expect(proj_rows == image and p["dimension"] == len(image),
                      "project: rows do not span the projected code")
        report.expect(k - w0.bit_count() <= p["dimension"] <= k - 1, "project: dimension out of bounds")
        report.expect(p["note"] == f"dimension {k} -> {p['dimension']}", "project: note")

        p = short["payload"]
        short_rows = _canonical_rows(report, "shorten", p["generator"], n - 2)
        expected_dim = k - rank(r & 0b11 for r in rows)
        report.expect(short["command"] == "shorten", "shorten: wrong command")
        report.expect((p["n"], p["dimension"], len(short_rows)) == (n - 2, expected_dim, expected_dim),
                      "shorten: length or dimension wrong")
        report.expect(rank(canon + [r << 2 for r in short_rows]) == k,
                      "shorten: a row is not a codeword vanishing on the shortened coordinates")
        report.expect(k - 2 <= p["dimension"] <= k, "shorten: dimension out of bounds")
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        report.problems.append(f"analyze-op: malformed document ({exc!r})")
    return report.problems, facts


def _restrict(bits: int, keep: list[int]) -> int:
    out = 0
    for new, old in enumerate(keep):
        out |= ((bits >> old) & 1) << new
    return out


def check_search(op, outs) -> tuple[list[str], dict]:
    report = _Report()
    n, weights = op.params["n"], op.params["weights"]
    facts = {"capped": False}
    (doc,) = _load(outs, report, "search")
    if doc is None:
        return report.problems, facts
    try:
        p = doc["payload"]
        facts["capped"] = p["complete"] is not True
        report.expect((p["n"], p["weights"]) == (n, list(weights)), "search: echoed inputs differ")
        rows = [parse_row(r) for r in p["witness"] or []]
        report.expect(all(len(r) == n for r in p["witness"] or []), "search: witness row length")
        report.expect(rank(rows) == len(rows) == p["max_dimension"],
                      "search: witness rank is not max_dimension")
        report.expect((p["witness"] is None) == (p["max_dimension"] == 0), "search: witness presence")
        bad = set(span_weights(rows)) - {0} - set(weights)
        report.expect(not bad, f"search: witness span has weights {sorted(bad)} outside W")
        report.expect(isinstance(p["nodes_explored"], int) and p["nodes_explored"] > 0,
                      "search: nodes_explored")
    except (KeyError, TypeError, ValueError) as exc:
        report.problems.append(f"search: malformed document ({exc!r})")
    return report.problems, facts


def check_feasibility(op, outs) -> tuple[list[str], dict]:
    report = _Report()
    n, d, weights = op.params["n"], op.params["d"], op.params["weights"]
    facts = {"feasible": False}
    (doc,) = _load(outs, report, "feasibility")
    if doc is None:
        return report.problems, facts
    try:
        p = doc["payload"]
        report.expect((p["n"], p["d"], p["weights"]) == (n, d, list(weights)),
                      "feasibility: echoed inputs differ")
        if p["status"] == "feasible":
            facts["feasible"] = True
            w = p["witness"]
            counts = {int(k): v for k, v in w["counts"].items()}
            a2, a3 = w["a2_star"], w["a3_star"]
            report.expect(p["reason"] == "none" and p["certificate"] is None, "feasibility: reason")
            report.expect(set(counts) == set(weights), "feasibility: witness weights differ from W")
            report.expect(all(isinstance(v, int) and v >= 0 for v in (a2, a3, *counts.values())),
                          "feasibility: witness has a negative or non-integer value")
            report.expect(a2 <= comb(n, 2) and a3 <= comb(n, 3), "feasibility: witness outside box")
            report.expect(moment_identities_hold(counts, n, d, a2, a3),
                          "feasibility: witness violates the moment equations")
        else:
            report.expect(p["status"] == "infeasible", f"feasibility: status {p['status']!r}")
            report.expect(p["reason"] in FEASIBILITY_REASONS, f"feasibility: reason {p['reason']!r}")
            report.expect(isinstance(p["certificate"], str) and p["certificate"] != "",
                          "feasibility: missing certificate")
            report.expect(p["witness"] is None, "feasibility: infeasible verdict with a witness")
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        report.problems.append(f"feasibility: malformed document ({exc!r})")
    return report.problems, facts


def check_verify(op, outs) -> tuple[list[str], dict]:
    report = _Report()
    facts = {"verify_failed": False}
    (doc,) = _load(outs, report, "verify", allowed_rcs=(0, 1))
    if doc is None:
        return report.problems, facts
    try:
        p = doc["payload"]
        rc = outs[0][0]
        facts["verify_failed"] = p["overall"] is False
        report.expect(rc == (0 if p["overall"] else 1), f"verify: exit code {rc} disagrees with overall")
        report.expect(bool(p["steps"]) and p["overall"] == all(s["status"] for s in p["steps"]),
                      "verify: overall is not the conjunction of the steps")
        claim = op.params["claim"]
        report.expect(doc["inputs"]["claim"] == claim, "verify: echoed claim differs")
        if claim == "lemma-2-6":
            # Lemma 2.6: weights {24, 32} are impossible from dimension 10 on.
            if op.params["d"] >= 10:
                report.expect(p["overall"] is True, "verify: lemma 2.6 fails at d >= 10")
        else:
            report.expect(p["overall"] is True, f"verify: the paper's {claim} does not check")
    except (KeyError, TypeError, ValueError) as exc:
        report.problems.append(f"verify: malformed document ({exc!r})")
    return report.problems, facts


CHECKS = {
    "analyze": check_analyze,
    "search": check_search,
    "feasibility": check_feasibility,
    "verify": check_verify,
}


def check_op(op, outs) -> tuple[list[str], dict]:
    """Problems found in one op's outputs (empty when correct), and facts
    about it that the run header reports as its input mix."""
    return CHECKS[op.kind](op, outs)


def digest(outs) -> str:
    """Digest of an op's stdout bytes, leaving out search node counts."""
    h = hashlib.sha256()
    for _, out, _ in outs:
        h.update(_NODES_LINE.sub("", out).encode())
        h.update(b"\0")
    return h.hexdigest()[:24]
