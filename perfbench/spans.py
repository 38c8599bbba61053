"""Spans around the program's public entry points, recorded from outside it.

``Tracer.install`` replaces each entry point below wherever its callers look
it up: the attribute of every ``gf2codes`` module that holds the function,
and the class attribute for ``LinearCode`` methods.  Per-word helpers such as
``Gf2Vector`` methods are never wrapped.  Spans stay in memory as
(name, parent, op, start, end, work) and are written out when the run ends;
self time is a span's duration minus the durations of its direct children,
which in a single thread are nested inside it.
"""

from __future__ import annotations

import functools
import json
import sys
from contextlib import contextmanager
from math import comb
from pathlib import Path
from time import perf_counter

LAYERS = ("cli", "gf2core", "codes", "transforms", "moments", "prover", "search")

# (span name, owner path under gf2codes, work derived from args and result)
ENTRY_POINTS = (
    ("cli.run", "cli.run", None),
    ("gf2core.rref_ints", "gf2core.rref_ints", None),
    ("gf2core.rref", "gf2core.rref", None),
    ("gf2core.nullspace_basis", "gf2core.nullspace_basis", None),
    ("codes.parse_generator_text", "codes.parse_generator_text", None),
    ("codes.from_rows", "codes.LinearCode.from_rows", None),
    # Words walked by the Gray-code enumeration: 2^k - 1 for the code passed in.
    ("codes.weight_distribution", "codes.LinearCode.weight_distribution",
     lambda args, result: (1 << args[0].dimension) - 1),
    ("codes.macwilliams_transform", "codes.macwilliams_transform", None),
    ("codes.dual", "codes.LinearCode.dual", None),
    ("codes.predicate_profile", "codes.LinearCode.predicate_profile", None),
    ("transforms.project", "transforms.project", None),
    ("transforms.shorten", "transforms.shorten", None),
    # Size of the default a2* box, an upper bound on the values scanned.
    ("moments.feasibility_check", "moments.feasibility_check",
     lambda args, result: comb(args[0], 2) + 1),
    ("moments.solve_weight_counts", "moments.solve_weight_counts", None),
    ("prover.verify_lemma_2_6", "prover.verify_lemma_2_6",
     lambda args, result: len(result.steps)),
    ("prover.verify_lemma_24_32_56", "prover.verify_lemma_24_32_56",
     lambda args, result: len(result.steps)),
    ("prover.verify_theorem_a", "prover.verify_theorem_a",
     lambda args, result: len(result.steps)),
    ("search.max_dimension_exhaustive", "search.max_dimension_exhaustive",
     lambda args, result: (result.nodes_explored, not result.complete)),
)

# Metric groups: <group>_calls and <group>_s count and time the outermost
# spans of these names.
GROUPS = {
    "gf2core.rref": ("gf2core.rref_ints", "gf2core.rref"),
    "gf2core.nullspace": ("gf2core.nullspace_basis",),
    "codes.parse": ("codes.parse_generator_text",),
    "codes.from_rows": ("codes.from_rows",),
    "codes.enumerate": ("codes.weight_distribution",),
    "codes.macwilliams": ("codes.macwilliams_transform",),
    "codes.dual": ("codes.dual",),
    "codes.profile": ("codes.predicate_profile",),
    "transforms.project": ("transforms.project",),
    "transforms.shorten": ("transforms.shorten",),
    "moments.feasibility": ("moments.feasibility_check",),
    "moments.solve": ("moments.solve_weight_counts",),
}

NAME, PARENT, OP, START, END, WORK = range(6)


class Tracer:
    """Records spans for the ops of one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._op = -1

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else None, self._op, 0.0, 0.0, None])
        self._stack.append(index)
        self.spans[index][START] = perf_counter()
        return index

    def _close(self, index: int) -> None:
        self.spans[index][END] = perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, op_id: int):
        """Root span of one benchmark op; spans opened inside belong to it."""
        self._op = op_id
        index = self._open("op")
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name: str, fn, work):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if work is not None:
                self.spans[index][WORK] = work(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every entry point in the imported ``gf2codes`` modules."""
        modules = [m for k, m in sys.modules.items() if k == "gf2codes" or k.startswith("gf2codes.")]
        for name, owner, work in ENTRY_POINTS:
            module_name, _, rest = owner.partition(".")
            target = sys.modules[f"gf2codes.{module_name}"]
            if "." in rest:
                cls_name, attr = rest.split(".")
                cls = getattr(target, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__, work))
                else:
                    wrapped = self._wrap(name, raw, work)
                self._restore.append((cls, attr, raw))
                setattr(cls, attr, wrapped)
                continue
            fn = getattr(target, rest)
            wrapped = self._wrap(name, fn, work)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._restore.append((module, attr, fn))
                        setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="ascii") as handle:
            for i, (name, parent, op, start, end, work) in enumerate(self.spans):
                handle.write(json.dumps({"id": i, "name": name, "parent": parent, "op": op,
                                         "start": start, "end": end, "work": work}) + "\n")


def per_layer_metrics(spans: list[list], scale: float = 1.0) -> dict[str, tuple[float, str]]:
    """Per-op layer metrics from recorded spans: {name: (value, unit)}.

    Span durations are multiplied by ``scale``, the run's factor to the
    reference machine speed.
    """
    n_ops = sum(1 for s in spans if s[NAME] == "op") or 1
    duration = [(s[END] - s[START]) * scale for s in spans]
    child = [0.0] * len(spans)
    ancestors: list[frozenset] = []
    for i, s in enumerate(spans):
        parent = s[PARENT]
        if parent is None:
            ancestors.append(frozenset())
        else:
            child[parent] += duration[i]
            ancestors.append(ancestors[parent] | {spans[parent][NAME]})

    def layer(name: str) -> str:
        return name.partition(".")[0]

    def outermost(i: int, names) -> bool:
        return not (ancestors[i] & names)

    out: dict[str, tuple[float, str]] = {}
    for lay in LAYERS:
        names = frozenset(e[0] for e in ENTRY_POINTS if layer(e[0]) == lay)
        mine = [i for i, s in enumerate(spans) if s[NAME] in names]
        out[f"{lay}.calls"] = (len(mine) / n_ops, "1/op")
        out[f"{lay}.busy_s"] = (sum(duration[i] for i in mine if outermost(i, names)) / n_ops, "s/op")
        out[f"{lay}.self_s"] = (sum(duration[i] - child[i] for i in mine) / n_ops, "s/op")
    for group, names in GROUPS.items():
        names = frozenset(names)
        mine = [i for i, s in enumerate(spans) if s[NAME] in names]
        out[f"{group}_calls"] = (len(mine) / n_ops, "1/op")
        out[f"{group}_s"] = (sum(duration[i] for i in mine if outermost(i, names)) / n_ops, "s/op")

    def work(name: str, pick=lambda w: w, top_level_only=False):
        return sum(
            pick(s[WORK]) for i, s in enumerate(spans)
            if s[NAME] == name and s[WORK] is not None
            and not (top_level_only and any(a.startswith(layer(name) + ".") for a in ancestors[i]))
        )

    words = work("codes.weight_distribution")
    enumerate_s = out["codes.enumerate_s"][0] * n_ops
    out["codes.enumerate_words"] = (words / n_ops, "1/op")
    out["codes.enumerate_words_per_s"] = (words / enumerate_s if enumerate_s else 0.0, "1/s")
    out["moments.a2_box"] = (work("moments.feasibility_check") / n_ops, "1/op")
    steps = sum(work(name, top_level_only=True) for name in
                ("prover.verify_lemma_2_6", "prover.verify_lemma_24_32_56", "prover.verify_theorem_a"))
    out["prover.steps"] = (steps / n_ops, "1/op")
    nodes = work("search.max_dimension_exhaustive", pick=lambda w: w[0])
    search_s = out["search.busy_s"][0] * n_ops
    out["search.nodes"] = (nodes / n_ops, "1/op")
    out["search.nodes_per_s"] = (nodes / search_s if search_s else 0.0, "1/s")
    out["search.capped"] = (work("search.max_dimension_exhaustive", pick=lambda w: int(w[1])) / n_ops, "1/op")
    return out
