"""Command-line interface.

Exit codes: 0 for success (including an infeasible verdict, which is a
successful analysis), 1 when a ``verify`` replay does not establish its
claim, 2 for usage or input errors.  With ``--json`` every command emits a
report document {command, inputs, payload, version}; output is built
deterministically, so identical inputs give identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii
from typing import Callable, Sequence

from . import __version__
from .codes import (
    DEFAULT_ENUMERATION_CAP,
    LinearCode,
    WeightEnumerator,
    parse_generator_text,
)
from .gf2core import Gf2Vector
from .moments import feasibility_check, moment_identities_check
from .prover import verify_lemma_2_6, verify_lemma_24_32_56, verify_theorem_a
from .search import DEFAULT_NODE_CAP, MAX_SEARCH_LENGTH, max_dimension_exhaustive
from .transforms import project, shorten

__all__ = ["run", "main"]


def _load_code(path: str) -> LinearCode:
    with open(path, "r", encoding="ascii") as handle:
        return LinearCode.from_rows(parse_generator_text(handle.read()))


def _emit(args: argparse.Namespace, command: str, inputs: dict, payload: dict,
          human: Callable[[], list[str]]) -> None:
    """Print the ``--json`` document, or else the lines ``human()`` builds."""
    if args.json:
        document = {
            "command": command,
            "inputs": inputs,
            "payload": payload,
            "version": __version__,
        }
        print(_dumps(document))
    else:
        for line in human():
            print(line)


def _dumps(value: object, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, byte for byte.  With an indent the
    stdlib takes its pure-Python encoder; this one writes the common cases
    directly and hands floats and unsupported types to ``json.dumps``."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if type(value) is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if type(value) is bool:
        return "true" if value else "false"
    inner = indent + "  "
    if isinstance(value, (list, tuple)) and value:
        if all(type(item) is int for item in value):
            items = map(int.__repr__, value)
        else:
            items = [_dumps(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if isinstance(value, dict) and value:
        items = [_key(key) + ": " + _dumps(item, inner) for key, item in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    return json.dumps(value)


def _key(key: object) -> str:
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if key is None or isinstance(key, (int, float)):
        return '"' + _dumps(key) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _distribution_payload(we: WeightEnumerator) -> dict:
    pairs = we.nonzero()
    return {"weights": [w for w, _ in pairs], "counts": [a for _, a in pairs]}


def _distribution_line(label: str, we: WeightEnumerator) -> str:
    pairs = we.nonzero()
    counts = ",".join(str(a) for _, a in pairs)
    weights = ",".join(str(w) for w, _ in pairs)
    return f"{label} {counts} at weights {weights}"


def _cmd_analyze(args: argparse.Namespace) -> int:
    code = _load_code(args.path)
    we, dual_we = code._weight_distributions(args.cap)
    # The fields in order.  dataclasses.asdict would do the same but builds
    # a tuple from a generator on every call (see gf2core's module docs).
    profile_payload = vars(code.predicate_profile())
    payload = {
        "n": code.n,
        "dimension": code.dimension,
        "weight_distribution": _distribution_payload(we),
        "dual_weight_distribution": _distribution_payload(dual_we),
        "profile": profile_payload,
    }
    _emit(args, "analyze", {"path": args.path}, payload, lambda: [
        f"n={code.n} k={code.dimension}",
        _distribution_line("distribution", we),
        _distribution_line("dual distribution", dual_we),
        "profile: " + " ".join(f"{k[3:]}={'yes' if v else 'no'}"
                               for k, v in profile_payload.items()),
    ])
    return 0


def _cmd_dual(args: argparse.Namespace) -> int:
    code = _load_code(args.path)
    dual = code.dual()
    payload = {"n": dual.n, "dimension": dual.dimension, "generator": dual.generator.row_strings()}
    _emit(args, "dual", {"path": args.path}, payload,
          lambda: [f"n={dual.n} k={dual.dimension}", *payload["generator"]])
    return 0


def _resolve_word(code: LinearCode, word: str) -> Gf2Vector:
    """A --word argument: explicit bits when it looks like a full row,
    otherwise a generator row index."""
    if word and set(word) <= {"0", "1"} and len(word) == code.n:
        return Gf2Vector.from_string(word)
    if not (word.isascii() and word.isdigit()):  # int() also takes '_', signs, spaces
        raise ValueError(
            f"--word must be a row index or a {code.n}-character bit string, got {word!r}"
        )
    index = int(word)
    if not 0 <= index < code.dimension:
        raise ValueError(f"row index {index} outside [0, {code.dimension})")
    return Gf2Vector(code.n, code.generator.rows[index])


def _emit_surgery(args: argparse.Namespace, command: str, inputs: dict,
                  code: LinearCode, result: LinearCode) -> None:
    """Report the code a project or shorten produced from ``code``."""
    note = f"dimension {code.dimension} -> {result.dimension}"
    generator = result.generator.row_strings()
    payload = {"n": result.n, "dimension": result.dimension, "generator": generator,
               "note": note}
    _emit(args, command, inputs, payload,
          lambda: [f"n={result.n} k={result.dimension} ({note})", *generator])


def _cmd_project(args: argparse.Namespace) -> int:
    code = _load_code(args.path)
    result = project(code, _resolve_word(code, args.word))
    _emit_surgery(args, "project", {"path": args.path, "word": args.word}, code, result)
    return 0


def _cmd_shorten(args: argparse.Namespace) -> int:
    code = _load_code(args.path)
    coords = _parse_ints(args.coords, "--coords")
    result = shorten(code, coords)
    _emit_surgery(args, "shorten", {"path": args.path, "coords": coords}, code, result)
    return 0


def _cmd_moments(args: argparse.Namespace) -> int:
    code = _load_code(args.path)
    report = moment_identities_check(code, cap=args.cap)
    payload = {
        "n": report.n,
        "dimension": report.d,
        "moments": list(report.moments),
        "a2_star": report.a2_star,
        "a3_star": report.a3_star,
        "identities": list(report.identity_status),
        "all_hold": report.all_hold,
    }
    _emit(args, "moments", {"path": args.path}, payload, lambda: [
        f"n={report.n} k={report.d}",
        f"moments (orders 0..3): {', '.join(str(m) for m in report.moments)}",
        f"a2_star={report.a2_star} a3_star={report.a3_star}",
        "identities: " + " ".join(
            f"eq{idx + 1}={'ok' if ok else 'FAIL'}" for idx, ok in enumerate(report.identity_status)
        ),
    ])
    return 0


def _cmd_feasibility(args: argparse.Namespace) -> int:
    weights = _parse_ints(args.weights, "--weights")
    verdict = feasibility_check(args.n, args.d, weights)
    payload = {
        "n": args.n,
        "d": args.d,
        "weights": list(weights),
        "status": verdict.status,
        "reason": verdict.reason,
        "witness": dict(verdict.witness) if verdict.witness is not None else None,
        "certificate": verdict.certificate,
    }
    def human() -> list[str]:
        lines = [f"status: {verdict.status}", f"reason: {verdict.reason}"]
        if verdict.witness is not None:
            lines.append(f"witness: {json.dumps(dict(verdict.witness))}")
        if verdict.certificate is not None:
            lines.append(f"certificate: {verdict.certificate}")
        return lines

    _emit(args, "feasibility", {"n": args.n, "d": args.d, "weights": list(weights)},
          payload, human)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.claim == "lemma-2-6":
        d = 10 if args.d is None else args.d
        n_range = "1..128" if args.n_range is None else args.n_range
        report = verify_lemma_2_6(d, _parse_range(n_range))
        inputs = {"claim": args.claim, "d": d, "n_range": n_range}
    elif args.d is not None or args.n_range is not None:
        given = [flag for flag, value in (("--d", args.d), ("--n-range", args.n_range))
                 if value is not None]
        raise ValueError(f"only lemma-2-6 takes {' and '.join(given)}, not {args.claim}")
    else:
        replay = {"lemma-24-32-56": verify_lemma_24_32_56, "theorem-a": verify_theorem_a}
        report = replay[args.claim]()
        inputs = {"claim": args.claim}
    payload = report.to_json_dict()
    _emit(args, "verify", inputs, payload, lambda: [
        f"claim: {report.theorem}",
        *(f"  [{'ok' if step.status else 'FAIL'}] {step.id}: {step.statement}"
          for step in report.steps),
        f"overall: {'PASS' if report.overall else 'FAIL'}",
    ])
    return 0 if report.overall else 1


def _cmd_search(args: argparse.Namespace) -> int:
    weights = _parse_ints(args.weights, "--weights")
    result = max_dimension_exhaustive(args.n, weights, node_cap=args.node_cap)
    witness_rows = result.witness.row_strings() if result.witness is not None else None
    payload = {
        "n": result.n,
        "weights": list(result.weights),
        "max_dimension": result.max_dimension,
        "witness": witness_rows,
        "nodes_explored": result.nodes_explored,
        "complete": result.complete,
    }
    _emit(args, "search", {"n": args.n, "weights": list(weights),
                           "node_cap": args.node_cap}, payload, lambda: [
        f"max dimension {result.max_dimension} for weights "
        f"{{{','.join(str(w) for w in result.weights)}}} in F^{result.n}"
        + ("" if result.complete else " (INCOMPLETE: node cap reached)"),
        *(witness_rows or ()),
    ])
    return 0


def _parse_ints(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple([int(part) for part in text.split(",")])
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated integers, got {text!r}") from None


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise ValueError(f"--n-range expects A..B, got {text!r}")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise ValueError(f"--n-range expects A..B with integers, got {text!r}") from None


# Parsing leaves the parsers unchanged, so one set serves every run().
@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its {command name: subparser} map."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit a JSON report document")
    parser = argparse.ArgumentParser(
        prog="gf2codes",
        description="Exact analysis of binary linear codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common],
                       help="weight distribution, dual distribution, predicates")
    p.add_argument("path", help="generator matrix file ('0'/'1' rows)")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("dual", parents=[common], help="canonical generator of the dual code")
    p.add_argument("path")
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("project", parents=[common],
                       help="delete the support of a codeword")
    p.add_argument("path")
    p.add_argument("--word", required=True,
                   help="generator row index, or an explicit bit string (membership-checked)")
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("shorten", parents=[common],
                       help="subcode vanishing on given coordinates, coordinates deleted")
    p.add_argument("path")
    p.add_argument("--coords", required=True, help="comma-separated coordinate indices")
    p.set_defaults(func=_cmd_shorten)

    p = sub.add_parser("moments", parents=[common],
                       help="power moments and the four moment identities")
    p.add_argument("path")
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("feasibility", parents=[common],
                       help="necessary-condition check for a weight set at (n, d)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--weights", required=True, help="comma-separated weights (1 to 4 of them)")
    p.set_defaults(func=_cmd_feasibility)

    p = sub.add_parser("verify", parents=[common], help="replay a dimension-bound argument")
    p.add_argument("claim", choices=["lemma-2-6", "lemma-24-32-56", "theorem-a"])
    p.add_argument("--d", type=int,
                   help="dimension to replay (lemma-2-6 only, default 10)")
    p.add_argument("--n-range",
                   help="length range A..B to scan (lemma-2-6 only, default 1..128)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("search", parents=[common],
                       help="exhaustive maximum dimension for a weight set")
    p.add_argument("--n", type=int, required=True,
                   help=f"code length, at most {MAX_SEARCH_LENGTH}")
    p.add_argument("--weights", required=True)
    p.add_argument("--node-cap", type=int, default=DEFAULT_NODE_CAP)
    p.set_defaults(func=_cmd_search)

    # Only the subcommands that enumerate codewords take a cap.
    for name in ("analyze", "moments"):
        sub.choices[name].add_argument(
            "--cap", type=int, default=DEFAULT_ENUMERATION_CAP, metavar="K",
            help="refuse to enumerate codes of dimension above K "
                 f"(default {DEFAULT_ENUMERATION_CAP})")
    return parser, sub.choices


def _parse_plain(parser: argparse.ArgumentParser,
                 argv: Sequence[str]) -> argparse.Namespace | None:
    """``parser.parse_known_args(argv)``'s namespace, read straight from the
    parser's actions, when ``argv`` is plain; otherwise None.

    Plain: each option is spelt out in full and given once, a flag storing
    its ``const`` and any other option taking the next token; the other
    tokens fill the positionals; no value starts with "-" or fails its
    ``type`` or ``choices``; every positional and required option is given.
    """
    values = {}
    positionals = [action for action in parser._actions if not action.option_strings]
    tokens = iter(argv)
    for token in tokens:
        if token[:1] != "-":
            if not positionals:
                return None
            action = positionals.pop(0)
        else:
            action = parser._option_string_actions.get(token)
            if action is None or action.dest in values:
                return None
            if action.nargs == 0 and isinstance(action, argparse._StoreConstAction):
                values[action.dest] = action.const
                continue
            token = next(tokens, "-")  # a missing value declines like a dashed one
            if token[:1] == "-":
                return None
        if type(action) is not argparse._StoreAction or action.nargs is not None:
            return None
        if action.type is not None:
            try:
                token = action.type(token)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
        if action.choices is not None and token not in action.choices:
            return None
        values[action.dest] = token
    if positionals:
        return None
    for action in parser._actions:
        if action.dest not in values and action.default is not argparse.SUPPRESS:
            # argparse would convert a string default through the action's type.
            if action.required or isinstance(action.default, str):
                return None
            values[action.dest] = action.default
    return argparse.Namespace(**{**parser._defaults, **values})


def run(argv: Sequence[str] | None = None) -> int:
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        # A plain command line is read straight from its command's actions.
        # The top-level parser parses every other line and is the only one
        # that prints, so help, usage lines and errors are argparse's own.
        args = None
        if argv and argv[0] in commands:
            args = _parse_plain(commands[argv[0]], argv[1:])
        if args is None:
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run())
