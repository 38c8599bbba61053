from __future__ import annotations

import random
from pathlib import Path

import pytest

from gf2codes import Gf2Matrix, LinearCode, SearchResult, parse_generator_text

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
    for row in code.generator.row_bits():
        words += [w ^ row for w in words]
    return words


def brute_distribution(code: LinearCode) -> tuple[int, ...]:
    """Weight counts of ``all_codewords(code)``, independent of the library's walk."""
    counts = [0] * (code.n + 1)
    for w in all_codewords(code):
        counts[w.bit_count()] += 1
    return tuple(counts)


def rref_dfs_reference(n: int, weights) -> SearchResult:
    """The unpruned RREF depth-first search, kept as the search's oracle.

    Tries every row with a free pivot in increasing numeric order and keeps
    the codewords spanned so far in a list; ``nodes_explored`` counts every
    row tried, admissible or not.  It has no node cap, so it always completes.
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
