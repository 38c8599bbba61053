import dataclasses
from itertools import combinations

import pytest

from conftest import all_codewords, cross_validate, rref_dfs_reference, single_phase_search
from gf2codes import (
    Gf2Matrix,
    LinearCode,
    lp_dimension_bound,
    max_dimension_exhaustive,
    search,
)
from gf2codes.search import MAX_SEARCH_LENGTH


def naive_max_dimension(n: int, wset: frozenset[int]) -> int:
    """Independent oracle: breadth over span sets instead of generators."""
    best = 0
    seen: set[frozenset[int]] = set()

    def grow(span: frozenset[int], dim: int) -> None:
        nonlocal best
        best = max(best, dim)
        for v in range(1, 1 << n):
            if v in span:
                continue
            coset = {x ^ v for x in span}
            if any(x.bit_count() not in wset for x in coset):
                continue
            bigger = frozenset(span | coset)
            if bigger in seen:
                continue
            seen.add(bigger)
            grow(bigger, dim + 1)

    grow(frozenset({0}), 0)
    return best


def test_spot_values():
    assert max_dimension_exhaustive(3, {2}).max_dimension == 2
    assert max_dimension_exhaustive(4, {3}).max_dimension == 1
    assert max_dimension_exhaustive(5, {2, 4}).max_dimension == 4
    assert max_dimension_exhaustive(6, {2, 4}).max_dimension == 4
    assert max_dimension_exhaustive(6, {4}).max_dimension == 2
    assert max_dimension_exhaustive(8, {4, 8}).max_dimension == 4
    assert max_dimension_exhaustive(10, {2, 4, 6}).max_dimension == 6


def test_first_witness_is_deterministic():
    result = max_dimension_exhaustive(3, {2})
    # Candidates tried: the proof phase takes the root 011 and 110 under it,
    # which reaches the LP bound 2.  The witness phase takes 011, whose one
    # free bucket {100} holds no admissible word, then 101 and 110 under it.
    assert result.nodes_explored == 5
    assert result.complete
    assert result.witness == Gf2Matrix.from_ints([5, 6], 3)
    code = LinearCode.from_rows(result.witness)
    assert code == LinearCode.from_rows(Gf2Matrix.from_ints([0b101, 0b110], 3))
    again = max_dimension_exhaustive(3, {2})
    assert again == result


def test_witness_rows_are_already_canonical():
    for n, ws in ((6, {2, 4}), (8, {4, 8}), (7, {3, 4})):
        result = max_dimension_exhaustive(n, ws)
        assert result.witness is not None
        LinearCode(result.witness)  # must not raise


def test_extended_witness():
    result = max_dimension_exhaustive(8, {4, 8})
    assert result.witness.rows == (105, 170, 204, 240)
    code = LinearCode.from_rows(result.witness)
    weights = {w.bit_count() for w in all_codewords(code) if w}
    assert weights <= {4, 8}


def test_witness_codewords_stay_in_weight_set():
    for n in range(1, 7):
        for ws in ({1}, {2}, {1, 2}, {2, 4}, {3}, {2, 3}, {n}):
            if any(w > n for w in ws):
                continue
            result = max_dimension_exhaustive(n, ws)
            if result.witness is None:
                assert result.max_dimension == 0
                continue
            code = LinearCode.from_rows(result.witness)
            assert code.dimension == result.max_dimension
            assert {w.bit_count() for w in all_codewords(code) if w} <= ws


def test_matches_naive_subspace_enumeration():
    cases = [
        (4, {1, 2}),
        (4, {2, 3}),
        (5, {2}),
        (5, {2, 4}),
        (5, {3, 4}),
        (6, {4}),
        (6, {2, 4}),
        (6, {3, 4, 5}),
        (6, {1, 2, 3, 4, 5, 6}),
    ]
    for n, ws in cases:
        expected = naive_max_dimension(n, frozenset(ws))
        assert max_dimension_exhaustive(n, ws).max_dimension == expected, (n, ws)


def _rows(result):
    return result.witness.rows if result.witness is not None else None


def _assert_matches_reference(n, ws):
    got = max_dimension_exhaustive(n, ws)
    want = rref_dfs_reference(n, ws)
    assert got.max_dimension == want.max_dimension, (n, ws)
    assert got.complete == want.complete, (n, ws)
    assert _rows(got) == _rows(want), (n, ws)
    # The LP stop fires exactly when the bound is tight and a code was found.
    assert got.bound >= want.max_dimension, (n, ws)
    assert got.stop == ("lp-bound" if got.bound == want.max_dimension > 0 else "exhausted"), (n, ws)


@pytest.mark.parametrize("n", range(8))
def test_matches_unpruned_search_on_every_weight_set(n):
    for r in range(n + 1):
        for ws in combinations(range(1, n + 1), r):
            _assert_matches_reference(n, ws)


def test_matches_unpruned_search_on_small_weight_sets_at_length_8():
    for r in range(4):
        for ws in combinations(range(1, 9), r):
            _assert_matches_reference(8, ws)


def test_length_11_weights_4_6_8_completes():
    result = max_dimension_exhaustive(11, {4, 6, 8})
    assert result.complete
    assert result.max_dimension == 6
    code = LinearCode.from_rows(result.witness)
    assert code.dimension == 6
    assert {w.bit_count() for w in all_codewords(code) if w} <= {4, 6, 8}


def test_length_guard():
    assert MAX_SEARCH_LENGTH == 20
    with pytest.raises(ValueError, match="lengths up to 20, got 21"):
        max_dimension_exhaustive(MAX_SEARCH_LENGTH + 1, {2})
    assert max_dimension_exhaustive(MAX_SEARCH_LENGTH, {20}).max_dimension == 1


def test_empty_weight_set_and_zero_length():
    empty = max_dimension_exhaustive(5, set())
    assert empty.max_dimension == 0
    assert empty.witness is None
    assert empty.complete
    zero = max_dimension_exhaustive(0, set())
    assert zero.max_dimension == 0 and zero.nodes_explored == 0


def test_weight_validation():
    with pytest.raises(ValueError, match=r"weights must lie in \[1, 3\]"):
        max_dimension_exhaustive(3, {2, 4})
    with pytest.raises(ValueError, match="weights must lie in"):
        max_dimension_exhaustive(3, {0})
    with pytest.raises(ValueError, match="negative length"):
        max_dimension_exhaustive(-1, set())


def test_node_cap_reports_incomplete():
    full = max_dimension_exhaustive(6, {2, 4})
    capped = max_dimension_exhaustive(6, {2, 4}, node_cap=5)
    assert not capped.complete
    assert capped.nodes_explored == 6
    assert capped.max_dimension <= full.max_dimension


def test_node_cap_must_be_nonnegative():
    with pytest.raises(ValueError, match="negative node cap -1"):
        max_dimension_exhaustive(8, {2, 4}, node_cap=-1)
    # A cap of 0 is legal: the first admissible candidate already exceeds it.
    zero = max_dimension_exhaustive(8, {2, 4}, node_cap=0)
    assert not zero.complete and zero.max_dimension == 0


def test_search_agrees_with_feasibility():
    results = cross_validate(8, {2, 4})
    assert len(results) == 8 * 4
    assert all(agree for _, _, agree in results)
    # {2, 6} at length 6 admits single words only, such as 110000, whose
    # spanning length 2 is below the weight 6.
    results = cross_validate(6, {2, 6})
    assert len(results) == 6 * 4
    assert all(agree for _, _, agree in results)


def _subsets(universe):
    return [ws for r in range(len(universe) + 1) for ws in combinations(universe, r)]


# The search cases of the tests above and of acceptance criterion 9.
TIER1_CASES = [
    (3, (2,)), (4, (3,)), (5, (2, 4)), (6, (2, 4)), (6, (4,)), (8, (4, 8)), (10, (2, 4, 6)),
    (7, (3, 4)), (4, (1, 2)), (4, (2, 3)), (5, (2,)), (5, (3, 4)), (6, (3, 4, 5)),
    (6, (1, 2, 3, 4, 5, 6)), (11, (4, 6, 8)), (20, (20,)), (12, (4, 8)), (11, (3, 5, 6)),
] + [
    (n, tuple(w for w in ws if w <= n))
    for n_max, universe in ((8, (2, 4)), (6, (2, 6)), (10, (2, 4, 6)))
    for n in range(1, n_max + 1)
    for ws in _subsets(universe)
]


def test_lp_bound_covers_every_search_result():
    for n, ws in TIER1_CASES:
        result = max_dimension_exhaustive(n, ws)
        assert result.complete
        assert result.bound == lp_dimension_bound(n, ws).dimension >= result.max_dimension, (n, ws)
        assert result.nodes_explored >= (1 if ws else 0), (n, ws)


def test_two_weight_dimension_within_its_2_adic_cap():
    # Two weights pin their counts: a + b = 2^d - 1, w1*a + w2*b = 2^(d-1)*n.
    # The second moment w1^2*a + w2^2*b = (w1 + w2)*2^(d-1)*n - w1*w2*(a + b)
    # is then L = 2^(d-1)*(n(w1 + w2) - 2*w1*w2) + w1*w2, which must equal
    # 2^(d-1)*(a2* + n(n+1)/2).  So 2^(d-1) divides w1*w2, d <= v2(w1*w2) + 1
    # at every length, and the search never goes above that cap.
    pairs = at_cap = 0
    for n in range(2, 14):
        for w1, w2 in combinations(range(1, n + 1), 2):
            result = max_dimension_exhaustive(n, (w1, w2))
            cap = ((w1 * w2) & -(w1 * w2)).bit_length()  # v2(w1*w2) + 1
            assert result.complete and result.max_dimension <= cap, (n, w1, w2)
            pairs += 1
            at_cap += result.max_dimension == cap
    assert (pairs, at_cap) == (364, 230)


def _remove_lp_stop(monkeypatch):
    """Patch the search's LP core to a bound of n, which is never below the
    result, so the stop cannot end the search early; returns the calls."""
    real, calls = search._lp_max, []

    def bound_n(length, weights):
        calls.append(length)
        return (length,) + real(length, weights)[1:]

    monkeypatch.setattr(search, "_lp_max", bound_n)
    return calls


@pytest.mark.parametrize(
    "n, ws",
    [(8, ws) for r in range(4) for ws in combinations(range(1, 9), r)]
    + [(9, (3, 4, 5)), (10, (2, 4, 6)), (11, (4, 6, 8))],
)
def test_lp_stop_changes_only_the_node_count(monkeypatch, n, ws):
    stopped = max_dimension_exhaustive(n, ws)
    calls = _remove_lp_stop(monkeypatch)
    unstopped = max_dimension_exhaustive(n, ws)
    assert calls == [n]
    assert unstopped.bound == n and unstopped.stop == "exhausted"
    assert unstopped == dataclasses.replace(stopped, nodes_explored=unstopped.nodes_explored)
    assert unstopped.nodes_explored >= stopped.nodes_explored


def test_lp_stop_ends_searches_the_pruning_cannot():
    # Without the stop the proof phase exhausts (12, {4, 8}) after 2,404
    # candidates and (11, {3, 5, 6}) after 1,554; exhausting the canonical
    # search alone tries about 250,000 and 290,000.
    for n, ws, dimension, nodes in ((12, {4, 8}, 4, 23), (11, {3, 5, 6}, 3, 291)):
        result = max_dimension_exhaustive(n, ws)
        assert result.complete and result.stop == "lp-bound"
        assert result.max_dimension == result.bound == dimension
        assert result.nodes_explored == nodes


def test_lp_stop_can_complete_within_the_node_cap():
    # Exhausting (5, {2}) tries 7 candidates and (6, {2, 4}) 24, so both
    # were capped without the stop; reaching the bound proves them optimal.
    for n, ws, cap, nodes in ((5, {2}, 5, 5), (6, {2, 4}, 15, 15)):
        result = max_dimension_exhaustive(n, ws, node_cap=cap)
        assert result.complete and result.stop == "lp-bound", (n, ws)
        assert result.nodes_explored == nodes
        assert result == dataclasses.replace(max_dimension_exhaustive(n, ws), nodes_explored=nodes)
    capped = max_dimension_exhaustive(6, {2, 4}, node_cap=14)
    assert not capped.complete and capped.stop == "node-cap"


def _summary(result):
    return (result.max_dimension, _rows(result), result.complete, result.stop, result.bound)


def _assert_matches_single_phase(n, ws):
    want = single_phase_search(n, ws)
    assert _summary(max_dimension_exhaustive(n, ws)) == _summary(want), (n, ws)


def test_matches_single_phase_search_on_the_benchmark_grid():
    for n in (8, 9):
        for r in range(1, 4):
            for ws in combinations(range(1, n + 1), r):
                _assert_matches_single_phase(n, ws)


@pytest.mark.parametrize("n, ws", [(10, (2, 4, 6)), (11, (4, 6, 8)), (11, (3, 5, 6)), (12, (4, 8))])
def test_matches_single_phase_search_on_larger_cases(n, ws):
    _assert_matches_single_phase(n, ws)


def _assert_code_in_weight_set(matrix, dimension, ws):
    code = LinearCode(matrix)  # canonical rows, or this raises
    assert code.dimension == dimension
    assert {w.bit_count() for w in all_codewords(code) if w} <= set(ws)


@pytest.mark.parametrize("lp_stop", [True, False])
def test_proof_phase_maximum_matches_unpruned_search(monkeypatch, lp_stop):
    if not lp_stop:
        _remove_lp_stop(monkeypatch)
    for n in range(8):
        for r in range(1, n + 1):
            for ws in combinations(range(1, n + 1), r):
                full = max_dimension_exhaustive(n, ws)
                # The witness phase takes at least one candidate, its last, so
                # a cap one below the total ends the search just after the
                # proof phase and returns the proof's best code.
                proof = max_dimension_exhaustive(n, ws, node_cap=full.nodes_explored - 1)
                assert not proof.complete and proof.stop == "node-cap", (n, ws)
                assert proof.max_dimension == rref_dfs_reference(n, ws).max_dimension, (n, ws)
                _assert_code_in_weight_set(proof.witness, proof.max_dimension, ws)


def test_node_cap_inside_either_phase():
    for n, ws, cap in ((6, (2, 4), 3), (9, (3, 4, 5), 3), (10, (2, 4, 6), 40), (11, (4, 6, 8), 200)):
        full = max_dimension_exhaustive(n, ws)
        capped = max_dimension_exhaustive(n, ws, node_cap=cap)
        assert not capped.complete and capped.stop == "node-cap", (n, ws)
        assert capped.nodes_explored == cap + 1, (n, ws)
        # Below the maximum: the cap fell inside the proof phase.
        assert 1 <= capped.max_dimension < full.max_dimension, (n, ws)
        _assert_code_in_weight_set(capped.witness, capped.max_dimension, ws)
    # (6, {2, 4}) proves dimension 4 in 9 candidates; a cap of 9 ends the
    # witness phase at its first, and the proof's code stands in for it.
    capped = max_dimension_exhaustive(6, (2, 4), node_cap=9)
    assert not capped.complete and capped.nodes_explored == 10
    assert capped.max_dimension == 4
    assert _rows(capped) == (17, 18, 20, 24) != _rows(max_dimension_exhaustive(6, (2, 4)))
    _assert_code_in_weight_set(capped.witness, 4, (2, 4))


def test_proof_phase_prunes_cases_the_lp_bound_does_not_settle():
    # Neither case reaches its LP bound, so the proof phase runs to the end;
    # the one-phase search tries 21,063 and 26,857 candidates on them.
    for n, ws, dimension, nodes in ((9, (3, 4, 5), 3, 221), (10, (2, 4, 6), 6, 707)):
        result = max_dimension_exhaustive(n, ws)
        assert result.complete and result.stop == "exhausted", (n, ws)
        assert result.max_dimension == dimension < result.bound, (n, ws)
        assert result.nodes_explored == nodes, (n, ws)


# nodes_explored on every case of perfbench's search grid, in its order: n = 8
# then 9, weight sets of size 1 to 3 in lexicographic order; 7,808 in all.
BENCHMARK_GRID_NODES = (
    2, 10, 2, 21, 2, 2, 2, 2, 11, 2, 22, 2, 2, 2, 2, 15, 53, 11, 9, 7, 11, 19, 2, 4, 2,
    2, 26, 17, 22, 63, 6, 2, 2, 2, 2, 2, 24, 56, 11, 9, 7, 12, 58, 2, 5, 2, 2, 22, 18,
    23, 64, 4, 2, 2, 4, 2, 4, 62, 39, 26, 18, 16, 98, 51, 56, 47, 22, 40, 12, 12, 34, 8,
    25, 65, 73, 235, 4, 2, 4, 4, 5, 2, 18, 49, 92, 18, 106, 63, 7, 7, 2, 2, 2, 11, 2,
    22, 2, 7, 2, 2, 2, 12, 2, 23, 2, 8, 2, 2, 2, 17, 69, 13, 17, 9, 7, 12, 56, 2, 4, 2,
    2, 2, 30, 191, 34, 81, 23, 6, 2, 5, 2, 8, 8, 8, 2, 2, 2, 27, 72, 13, 17, 9, 7, 13,
    106, 2, 5, 2, 2, 2, 23, 192, 35, 82, 24, 31, 2, 6, 2, 4, 9, 9, 4, 2, 4, 80, 48, 36,
    22, 20, 18, 181, 170, 83, 51, 70, 44, 56, 36, 14, 22, 51, 18, 12, 38, 8, 221, 578,
    282, 304, 57, 122, 2, 4, 2, 37, 5, 6, 5, 2, 4, 231, 325, 118, 130, 207, 185, 192,
    85, 35, 82, 6, 5, 7, 5, 2, 6, 9, 9, 9, 2,
)


def test_node_counts_are_pinned():
    # Every prune decision shows in these counts: a change to the pruning
    # must change them on purpose, and a faster bookkeeping must keep them.
    grid = [
        max_dimension_exhaustive(n, ws).nodes_explored
        for n in (8, 9)
        for r in range(1, 4)
        for ws in combinations(range(1, n + 1), r)
    ]
    assert tuple(grid) == BENCHMARK_GRID_NODES
    larger = ((10, (2, 4, 6), 707), (11, (4, 6, 8), 14791), (11, (3, 5, 6), 291), (12, (4, 8), 23),
              (15, (8,), 6231))
    for n, ws, nodes in larger:
        assert max_dimension_exhaustive(n, ws).nodes_explored == nodes, (n, ws)


def test_search_builds_no_fraction(monkeypatch):
    # The stop dimension comes from the LP core's integers: with ``Fraction``
    # unusable in ``moments`` every grid result, and every refusal of bad
    # weights, is unchanged.
    cases = [(n, ws) for n in (8, 9) for r in range(1, 4) for ws in combinations(range(1, n + 1), r)]

    def results():
        return [(r, r.stop, r.bound) for r in (max_dimension_exhaustive(n, ws) for n, ws in cases)]

    expected = results()

    def no_fraction(*args, **kwargs):
        raise AssertionError("the search built a Fraction")

    monkeypatch.setattr("gf2codes.moments.Fraction", no_fraction)
    assert results() == expected
    for n, ws, message in ((3, {2, 4}, r"weights must lie in \[1, 3\], got \[2, 4\]"),
                           (3, {0}, r"weights must lie in \[1, 3\], got \[0\]")):
        with pytest.raises(ValueError, match=message):
            max_dimension_exhaustive(n, ws)
