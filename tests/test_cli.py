import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import re
import shlex
import signal
import subprocess
import sys
from collections import OrderedDict
from fractions import Fraction
from pathlib import Path

import pytest

import gf2codes
from conftest import FIXTURES, random_code
from gf2codes import __version__, cli, codes, format_generator_text
from gf2codes.cli import run

GOLAY = str(FIXTURES / "golay_24_12.txt")
EVEN4 = str(FIXTURES / "even_weight_4.txt")
HAMMING16 = str(FIXTURES / "hamming_16_11.txt")


README = FIXTURES.parent / "README.md"


def _readme_examples() -> list[tuple[list[str], bool, list[str]]]:
    # Each "$ gf2codes ..." line of the README's example block, run from the
    # repository root, prints the lines under it; "| tail -1" keeps the last.
    # Returns (arguments after "gf2codes", whether piped to tail, lines).
    block = README.read_text().split("Examples, with real output:\n\n```text\n")[1]
    examples = []
    for example in ("\n" + block.split("```")[0]).split("\n$ ")[1:]:
        command, *expected = example.rstrip("\n").splitlines()
        argv = shlex.split(command)
        assert argv[0] == "gf2codes", command
        tail = argv[-3:] == ["|", "tail", "-1"]
        examples.append((argv[1:-3] if tail else argv[1:], tail, expected))
    return examples


def test_readme_examples_match_real_output(capsys, monkeypatch):
    monkeypatch.chdir(README.parent)
    examples = _readme_examples()
    for argv, tail, expected in examples:
        run(argv)
        out = capsys.readouterr().out.splitlines()
        assert (out[-1:] if tail else out) == expected, argv
    assert len(examples) == 4


def test_readme_library_example_and_exports_table():
    section = README.read_text().split("## Library\n\n```python\n")[1]
    block, table = section.split("```", 1)
    namespace = {}
    exec(block, namespace)
    assert repr(namespace["we"]) == "WeightEnumerator(n=4, counts=(1, 0, 6, 0, 1))"
    assert f"we = code.weight_distribution()        # {namespace['we']!r}\n" in block
    rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", table.split("\n\n## ")[0], re.MULTILINE)
    assert [module for module, _ in rows] == [
        "gf2core", "codes", "transforms", "moments", "prover", "search"]
    for module, exports in rows:
        names = re.findall(r"`(\w+)`", exports)
        assert names and set(names) <= set(getattr(gf2codes, module).__all__), module


def test_readme_command_list_matches_the_parser():
    block = README.read_text().split("## Command line\n")[1].split("```text\n")[1]
    listed = [tuple(line.split(None, 1)) for line in block.split("```")[0].splitlines()]
    parser, commands = cli._build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert listed == [(a.dest, a.help) for a in subparsers._choices_actions]
    assert [name for name, _ in listed] == list(commands)


def test_analyze_human_output(capsys):
    assert run(["analyze", GOLAY]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "n=24 k=12",
        "distribution 1,759,2576,759,1 at weights 0,8,12,16,24",
        "dual distribution 1,759,2576,759,1 at weights 0,8,12,16,24",
        "profile: even=yes doubly_even=yes isotropic=yes self_dual=yes spanning=yes",
    ]


def test_analyze_json_document(capsys):
    assert run(["analyze", GOLAY, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"command", "inputs", "payload", "version"}
    assert doc["command"] == "analyze"
    assert doc["version"] == __version__
    assert doc["inputs"] == {"path": GOLAY}
    payload = doc["payload"]
    assert (payload["n"], payload["dimension"]) == (24, 12)
    assert payload["weight_distribution"] == {
        "weights": [0, 8, 12, 16, 24],
        "counts": [1, 759, 2576, 759, 1],
    }
    assert payload["profile"]["is_self_dual"] is True


def test_analyze_high_rate_fixture(capsys):
    assert run(["analyze", HAMMING16, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert (payload["n"], payload["dimension"]) == (16, 11)
    assert payload["weight_distribution"] == {
        "weights": [0, 4, 6, 8, 10, 12, 16],
        "counts": [1, 140, 448, 870, 448, 140, 1],
    }
    assert payload["dual_weight_distribution"] == {
        "weights": [0, 8, 16],
        "counts": [1, 30, 1],
    }


def test_output_is_byte_stable(capsys):
    run(["analyze", GOLAY, "--json"])
    first = capsys.readouterr().out
    run(["analyze", GOLAY, "--json"])
    second = capsys.readouterr().out
    assert first == second


def test_dual_of_even_weight_code(capsys):
    assert run(["dual", EVEN4]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "n=4 k=1"
    assert out[1:] == ["1111"]


def test_dual_of_the_full_space_has_no_rows(capsys, tmp_path):
    path = tmp_path / "full_4.txt"
    path.write_text("1000\n0100\n0010\n0001\n")
    assert run(["dual", str(path)]) == 0
    assert capsys.readouterr().out == "n=4 k=0\n"
    assert run(["dual", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload == {"n": 4, "dimension": 0, "generator": []}


def test_project_by_index_and_by_bits(capsys):
    assert run(["project", EVEN4, "--word", "0"]) == 0
    by_index = capsys.readouterr().out
    assert run(["project", EVEN4, "--word", "1100"]) == 0
    by_bits = capsys.readouterr().out
    assert by_index == by_bits
    assert by_index.splitlines()[0] == "n=2 k=2 (dimension 3 -> 2)"


def test_project_rejects_bad_words(capsys):
    assert run(["project", EVEN4, "--word", "0000"]) == 2
    assert "zero word" in capsys.readouterr().err
    assert run(["project", EVEN4, "--word", "1000"]) == 2
    assert "not a codeword" in capsys.readouterr().err
    assert run(["project", EVEN4, "--word", "7"]) == 2
    assert "outside [0, 3)" in capsys.readouterr().err
    assert run(["project", EVEN4, "--word", "abc"]) == 2
    assert "row index or a 4-character bit string" in capsys.readouterr().err


def test_project_takes_a_row_index_only_as_ascii_digits(capsys):
    # int() would read each of these as a row index.
    for word in ("1_0", " 3", "+3", "3 ", "\u0663"):
        assert run(["project", GOLAY, "--word", word]) == 2
        assert capsys.readouterr().err == (
            f"error: --word must be a row index or a 24-character bit string, got {word!r}\n")
    assert run(["project", GOLAY, "--word", "10"]) == 0
    by_index = capsys.readouterr().out
    row = cli._load_code(GOLAY).generator.row_strings()[10]
    assert run(["project", GOLAY, "--word", row]) == 0
    assert capsys.readouterr().out == by_index


def test_shorten(capsys):
    assert run(["shorten", GOLAY, "--coords", "0,1"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "n=22 k=10 (dimension 12 -> 10)"
    assert run(["shorten", GOLAY, "--coords", "99"]) == 2
    assert "outside [0, 24)" in capsys.readouterr().err
    assert run(["shorten", GOLAY, "--coords", "1;2"]) == 2
    assert "--coords expects comma-separated integers" in capsys.readouterr().err


def test_moments(capsys):
    assert run(["moments", GOLAY]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "n=24 k=12"
    assert out[1] == "moments (orders 0..3): 4096, 49152, 614400, 7962624"
    assert out[2] == "a2_star=0 a3_star=0"
    assert out[3] == "identities: eq1=ok eq2=ok eq3=ok eq4=ok"


def test_feasibility_infeasible_is_exit_zero(capsys):
    assert run(["feasibility", "--n", "60", "--d", "10", "--weights", "24,32"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "status: infeasible"
    assert out[1] == "reason: divisibility contradiction"
    assert out[2].startswith("certificate: equation 3 forces a2_star = -9/2")


def test_feasibility_witness_json(capsys):
    assert run(
        ["feasibility", "--n", "3", "--d", "2", "--weights", "2", "--json"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["payload"]["status"] == "feasible"
    assert doc["payload"]["witness"] == {
        "a2_star": 0,
        "a3_star": 1,
        "counts": {"2": 3},
    }


def test_verify_exit_codes(capsys):
    assert run(["verify", "theorem-a"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "overall: PASS"
    assert sum("[ok]" in line for line in out) == 18
    assert run(["verify", "lemma-2-6", "--d", "9"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "overall: FAIL"
    assert run(["verify", "lemma-2-6", "--d", "10"]) == 0
    capsys.readouterr()
    assert run(["verify", "lemma-24-32-56"]) == 0
    capsys.readouterr()


def test_verify_json_keeps_exit_code(capsys):
    assert run(["verify", "lemma-2-6", "--d", "9", "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["payload"]["overall"] is False
    assert doc["inputs"] == {"claim": "lemma-2-6", "d": 9, "n_range": "1..128"}
    assert run(["verify", "theorem-a", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["payload"]["overall"] is True


def test_verify_bad_range(capsys):
    assert run(["verify", "lemma-2-6", "--n-range", "1-128"]) == 2
    assert "expects A..B" in capsys.readouterr().err
    assert run(["verify", "lemma-2-6", "--n-range", "a..b"]) == 2
    assert "expects A..B with integers, got 'a..b'" in capsys.readouterr().err


# SHA-256 of stdout for each replay, pinned so that rewriting a verifier
# cannot change a byte of its statements, anchors or data.
VERIFY_DIGESTS = [
    (["verify", "theorem-a"], 0,
     "616879454c870e35e8691427213312018ab2554f3117e1dfe6f9a52277cdbdf5"),
    (["verify", "theorem-a", "--json"], 0,
     "e0521b22e7eb4453b0c0f9644c048d180545ef7ee1427f0e8c5c736b54e1dd58"),
    (["verify", "lemma-24-32-56"], 0,
     "3d51681eb7d0d34ec647614393cc25237e624c3ce51f47a7ed4242e730a99f32"),
    (["verify", "lemma-24-32-56", "--json"], 0,
     "22f78b3dc7894e544aa4f77e67d4a035bb9e6cd4373caf81ddf084c6d2d59bc1"),
    (["verify", "lemma-2-6", "--d", "9", "--json"], 1,
     "b145662509f2bc4b572a9b45e97e64718ed8f3e15188a9eb9261f0927bc6093e"),
    (["verify", "lemma-2-6", "--d", "10"], 0,
     "5e64e9bfd03050c36bb2ca3c147d772898ea263fad79b5baaa53fd7b2d1edc9c"),
    # d = 0: no admissible length; d = 3, 6: a zero left side at some lengths;
    # d = 10, 14: the contradiction holds at every length.
    (["verify", "lemma-2-6", "--d", "0", "--n-range", "1..256", "--json"], 1,
     "94187bfca483ccb5464601e291d3fa889034a1b0e783005d2b9e51a2a1261e33"),
    (["verify", "lemma-2-6", "--d", "3", "--n-range", "1..256", "--json"], 1,
     "b92452ba0369e13654df428aac8b809bf6f7c0b13e9695ad09af37a2438d6e1a"),
    (["verify", "lemma-2-6", "--d", "6", "--n-range", "1..256", "--json"], 1,
     "ae68a0a432da684d2ce095c1082b6e9e8f14dc20e1ce8b97c9f8990a2fdd33d4"),
    (["verify", "lemma-2-6", "--d", "10", "--n-range", "1..256", "--json"], 0,
     "fc75eb48082eb10286dc7f592dbd7bd88991e11c54023dbebc88d1fde6925bef"),
    (["verify", "lemma-2-6", "--d", "14", "--n-range", "1..256", "--json"], 0,
     "a19258150423ed56ff5fb8c43a1ffad9b21f24fc057f3deaf6df31f69d694f48"),
]


def test_verify_output_matches_golden_digests(capsys):
    for argv, code, digest in VERIFY_DIGESTS:
        assert run(argv) == code, argv
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


# SHA-256 of `feasibility --json` stdout for one case per certificate the
# scan can give, then feasible cases and the paper's two, pinned so that
# rewriting the scan cannot change a verdict, witness or certificate.
FEASIBILITY_DIGESTS = [
    # equation 2 reduces to -1 = 0
    ((2, 1, "1"), "4a15ac8bd06b965775667aaa920156829c427bc77be7c35b02ba601fd405e444"),
    # equation 3 forces a2_star = -1/2, not an integer (2-adic valuation -1 < 0)
    ((3, 3, "1,2"), "9bd6406e6bca453e0191a72aadbc6b2c925edb3b4ae216e2b18fc40f239603e1"),
    # at a2_star=3, equation 4 forces a3_star = -2, outside [0, 4]
    ((4, 3, "1,4"), "edc5138507e91752590e0d087ae1bc26109d63f4809913dbc7b611420c64211c"),
    # equation 3 forces a2_star = -1, outside [0, 6]
    ((4, 4, "2,4"), "42673223a3002dff42a14edc5def4c70374242ed9fc4feb1e8812fe6a14336e1"),
    # a_1 = -1 is negative
    ((3, 1, "1,2"), "2a8651d9488172a80b770ef18ec9b541b2b6e06177c9e32bba609e1b8544e4c6"),
    # a_1 = 3/2 is not an integer
    ((3, 2, "1,3"), "ef9e9eb1672ee1a4265bdb4ed80a0070bef37dcef8f8f854d6f67703b64d3136"),
    # at a2_star=0, equation 4 forces a3_star = 1/2, not an integer
    ((4, 4, "1,2,3"), "723140049373440211977f817c5c6fbadf5ed10e15fcdc4c28eb7efec9a99eeb"),
    # at a2_star=0, equation 4 forces a3_star = -1, outside [0, 20]
    ((6, 6, "2,4,6"), "92d5b2de6e12138862708c4aea3b333609c9790a0abb6093ca7180d7590bcb78"),
    # a_10 = -4 at (a2_star=0, a3_star=10)
    ((10, 5, "4,8,10"), "fe351b55b981f87431a5134ce592851832f66d34d3efe6898520a5a52eb94337"),
    # a_2 = -9/4 at (a2_star=0, a3_star=31)
    ((7, 1, "2,4,6"), "628076768c528ec78313cdf5c1c633dd02555d02277e5223875a810672320c63"),
    # no a3_star in [0, 120] keeps all counts nonnegative at a2_star=0
    ((10, 6, "4,6,8,10"), "13974d3668ca80de0c1d782a0d0cd931f8d33cf415420d042464d101bfadbf7c"),
    # a_2 = 45/4 + 3/2*a3_star is never an integer at a2_star=0
    ((10, 7, "2,4,6,10"), "e95db619acb3b30edf29707759565f47d25053d316adbbb1e58f4748feaa4bd6"),
    # integrality congruences on a3_star conflict at a2_star=0
    ((9, 1, "2,4,6,8"), "7cb764c929a4172c0489030f8fbbb4d443765f9a0e78302a51b4754a84e1eef2"),
    # no integer-valued a3_star in [0, 5] at a2_star=0 (need a3_star = 30 mod 40)
    ((12, 5, "2,6,10,12"), "4b45bdb3778e1899c4081359044fdc55426d070e8cb4714845424b8d10afbced"),
    # feasible with one, three and four weights
    ((2, 1, "2"), "726038f4fe539fd0bf0aea404c2abf0b4cdf34d5381aaa0c97bae78d72a166e4"),
    ((6, 1, "2,4,6"), "f2d270c3a153413f0226d7357ea5551235c6a5377a8bb35fd2bcf79ab21406e1"),
    ((8, 1, "2,4,6,8"), "0113239e60db3eadbb4c5df475c25dd2f9bd52773e0bb5b013350dbe5cf99d55"),
    # a four-weight witness past a2_star = 0, read off the lattice at the
    # 271st a2_star scanned: (a2_star, a3_star) = (1079, 7989)
    ((127, 12, "12,46,86,104"), "e69149fe5bd47000aad8f8c7cce0a426ce44fb0bb36dd2facba4e409c5c5bb57"),
    # the paper's cases: a_32 = -13 is negative; no a3_star in [0, 341376] ...
    ((32, 4, "24,32"), "aa3409f35ff1dd1646ad9f817a60023a54a5625ca53c25dab0c7a6da6df5e5cd"),
    ((128, 10, "24,32,40,56"), "7c75b40e2d2652bd5036b6014f3470cffeeed040ad7de5232ed33fb011b8bad7"),
]


def test_feasibility_output_matches_golden_digests(capsys):
    for (n, d, weights), digest in FEASIBILITY_DIGESTS:
        argv = ["feasibility", "--n", str(n), "--d", str(d), "--weights", weights, "--json"]
        assert run(argv) == 0, argv
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv
    # A dimension above the length has no spanning code: exit 2, not a verdict.
    for n, d, weights in ((2, 3, "1,2"), (6, 7, "2,4,6"), (8, 9, "2,4,6,8")):
        argv = ["feasibility", "--n", str(n), "--d", str(d), "--weights", weights, "--json"]
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: need n >= 1 and 1 <= d <= n, got n={n}, d={d}" in captured.err


def test_search_cli(capsys):
    assert run(["search", "--n", "3", "--weights", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["max dimension 2 for weights {2} in F^3", "101", "011"]
    assert run(["search", "--n", "6", "--weights", "2,4", "--node-cap", "5"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "(INCOMPLETE: node cap reached)" in out[0]
    assert run(["search", "--n", "21", "--weights", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: search supports lengths up to 20, got 21" in captured.err
    assert run(["search", "--n", "3", "--weights", "2,4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: weights must lie in [1, 3], got [2, 4]\n"


SCHEMA_INVOCATIONS = [
    ["analyze", GOLAY],
    ["dual", EVEN4],
    ["project", EVEN4, "--word", "0"],
    ["shorten", GOLAY, "--coords", "0,1"],
    ["moments", GOLAY],
    ["feasibility", "--n", "3", "--d", "2", "--weights", "2"],
    ["verify", "lemma-24-32-56"],
    ["search", "--n", "3", "--weights", "2"],
]


def test_every_subcommand_emits_schema_json(capsys):
    for argv in SCHEMA_INVOCATIONS:
        assert run(argv + ["--json"]) == 0, argv
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"command", "inputs", "payload", "version"}, argv
        assert doc["command"] == argv[0]
        assert json.loads(json.dumps(doc)) == doc


def test_json_output_builds_no_human_lines(capsys, monkeypatch):
    # Under --json the human lines are never built; without it they are.
    built = []
    emit, line = cli._emit, cli._distribution_line
    monkeypatch.setattr(cli, "_emit", lambda args, command, inputs, payload, human: emit(
        args, command, inputs, payload, lambda: built.append(command) or human()))
    monkeypatch.setattr(cli, "_distribution_line",
                        lambda label, we: built.append(label) or line(label, we))
    for argv in SCHEMA_INVOCATIONS + [["analyze", HAMMING16], ["verify", "theorem-a"]]:
        assert run(argv + ["--json"]) == 0, argv
        assert built == [], argv
        assert run(argv) == 0, argv
        assert built[0] == argv[0], argv
        built.clear()
    capsys.readouterr()


def test_analyze_transforms_once(capsys, monkeypatch):
    calls = []
    transform = codes.macwilliams_transform
    monkeypatch.setattr(codes, "macwilliams_transform",
                        lambda we, d: calls.append(d) or transform(we, d))
    for path, counted in ((GOLAY, 12), (HAMMING16, 5)):
        assert run(["analyze", path, "--json"]) == 0
        assert calls == [counted], path
        calls.clear()
    capsys.readouterr()


_JSON_TEXT = ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "/", "a", " ", "\u00e9", "\u2028",
              "\u4e2d", "\U0001f600", "\U00010000"]
_JSON_SCALARS = [0, -1, 7, 2**64, -(2**64) - 1, 3**90, True, False, None, 0.5, -0.0, 1e300,
                 float("nan"), float("inf"), float("-inf")]
_JSON_KEYS = [0, -3, 2**70, True, False, None, 1.5, -0.0, float("nan"), float("inf")]


def _random_text(rng: random.Random) -> str:
    return "".join([rng.choice(_JSON_TEXT) for _ in range(rng.randrange(5))])


def _random_json(rng: random.Random, depth: int) -> object:
    # A JSON-native tree of the given depth at most: strings, scalars, lists
    # of plain ints, lists, tuples and dicts with keys of every JSON key type.
    kind = rng.randrange(5 if depth else 2)
    if kind == 0:
        return _random_text(rng)
    if kind == 1:
        return rng.choice(_JSON_SCALARS)
    if kind == 2:
        return [rng.randrange(-(2**66), 2**66) for _ in range(rng.randrange(5))]
    items = [_random_json(rng, depth - 1) for _ in range(rng.randrange(4))]
    if kind == 3:
        return items if rng.random() < 0.5 else tuple(items)
    return {rng.choice(_JSON_KEYS) if rng.random() < 0.3 else _random_text(rng): item
            for item in items}


def test_dumps_matches_stdlib_indent_2():
    values = [_random_json(random.Random(seed), 4) for seed in range(3000)]
    values += _JSON_TEXT + _JSON_SCALARS + [[], {}, (), [[]], {"a": {}}, ([], ()), [1, True, None]]
    values += [{key: key} for key in _JSON_KEYS] + [{"".join(_JSON_TEXT): _JSON_TEXT}]
    # Subclasses are encoded as their base type.
    values += [OrderedDict([("b", [signal.SIGINT]), (signal.SIGTERM, {})]), [signal.SIGINT, 1]]
    for value in values:
        assert cli._dumps(value) == json.dumps(value, indent=2), value
    for bad in (Fraction(1, 3), [0, {"a": Fraction(1, 3)}], {(1, 2): 0}, {"a": {1, 2}}):
        with pytest.raises(TypeError) as expected:
            json.dumps(bad, indent=2)
        with pytest.raises(TypeError, match=re.escape(str(expected.value))):
            cli._dumps(bad)


def test_dumps_matches_stdlib_on_every_cli_document(capsys, monkeypatch):
    # Every document the README examples and the schema invocations print.
    documents = []
    dumps = cli._dumps

    def recording(value, indent="\n"):
        if indent == "\n" and isinstance(value, dict):  # not a dict key
            documents.append(value)
        return dumps(value, indent)

    monkeypatch.setattr(cli, "_dumps", recording)
    monkeypatch.chdir(README.parent)
    invocations = [argv for argv, _, _ in _readme_examples()] + SCHEMA_INVOCATIONS
    for argv in invocations:
        run(argv + ["--json"])
        out = capsys.readouterr().out
        assert out == dumps(documents[-1]) + "\n" == json.dumps(documents[-1], indent=2) + "\n"
    assert len(documents) == len(invocations)


def test_usage_and_input_errors(capsys, tmp_path):
    assert run(["analyze", str(tmp_path / "missing.txt")]) == 2
    assert "error:" in capsys.readouterr().err
    ragged = tmp_path / "ragged.txt"
    ragged.write_text("101\n011\n01\n")
    assert run(["analyze", str(ragged)]) == 2
    assert "line 3" in capsys.readouterr().err
    assert run(["analyze", GOLAY, "--cap", "5"]) == 2
    err = capsys.readouterr().err
    assert "error: dimension 12 exceeds enumeration cap 5" in err
    assert run(["no-such-command"]) == 2
    capsys.readouterr()
    assert run([]) == 2
    capsys.readouterr()
    assert run(["verify", "no-such-claim"]) == 2
    capsys.readouterr()
    # --cap belongs to the subcommands that enumerate codewords only.
    for argv in (
        ["search", "--n", "3", "--weights", "2"],
        ["dual", EVEN4],
        ["project", EVEN4, "--word", "0"],
        ["shorten", EVEN4, "--coords", "0"],
        ["feasibility", "--n", "3", "--d", "2", "--weights", "2"],
        ["verify", "theorem-a"],
    ):
        assert run(argv + ["--cap", "1"]) == 2, argv
        assert "unrecognized arguments: --cap 1" in capsys.readouterr().err
    # --d and --n-range belong to lemma-2-6 only.
    assert run(["verify", "theorem-a", "--d", "3", "--n-range", "5..6"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "--d and --n-range" in err
    assert run(["verify", "lemma-24-32-56", "--n-range", "1..128"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "--n-range" in err
    # Feasibility weights must fit in the length.
    assert run(["feasibility", "--n", "10", "--d", "4", "--weights", "1,6,7,12"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: weights must lie in [1, 10], got [1, 6, 7, 12]" in captured.err
    # A negative node cap is refused rather than reported as an incomplete search.
    assert run(["search", "--n", "8", "--weights", "2,4", "--node-cap", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: negative node cap -1\n"
    # A Lemma 2.6 range is bounded: its report lists every length.
    assert run(["verify", "lemma-2-6", "--d", "9", "--n-range", "1..200000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: length range [1, 200000] has 200000 lengths, more than 4096\n"


def _subprocess_env(**extra: str) -> dict[str, str]:
    # Subprocesses import the package from this checkout's src directory,
    # whether or not it is installed.
    src = str(Path(gf2codes.__file__).resolve().parents[1])
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def test_module_entry_point():
    env = _subprocess_env()
    proc = subprocess.run(
        [sys.executable, "-m", "gf2codes", "analyze", GOLAY],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "n=24 k=12"
    bad = subprocess.run(
        [sys.executable, "-m", "gf2codes", "verify", "lemma-2-6", "--d", "9"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert bad.returncode == 1


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# SHA-256 of `--help` stdout at COLUMNS=80 for the top-level parser and each
# subcommand, taken when the parser was still rebuilt on every call.  From
# 3.13 argparse puts the top-level usage line's "..." after the subcommand
# list instead of on a line of its own.
TOP_LEVEL_HELP_DIGEST = (
    "94e62b0e816d805b53dc781f302370b7449509a135750ce2d09095ab128ffb16"
    if sys.version_info < (3, 13)
    else "17462dc8693c6bd9022a4cf678d424ca113868ce458d59c45848dd780d580386"
)
HELP_DIGESTS = [
    ([], TOP_LEVEL_HELP_DIGEST),
    (["analyze"], "54dc60b9d1816ff5ba58b564a90225cbe547b474b8d3385cc0ab14966d102f9a"),
    (["dual"], "919337118754987f3b9d6b3a61b3fc24cfc94d750eb6a6ad4f2c795045cee959"),
    (["project"], "1c3f728182d293d5aaf62ca803957820afb37d4f17dc9cd39ea16e9cf96762c7"),
    (["shorten"], "fa1f3d1bea8def370dc99619b390ad57f8bfb88d868218e60f3eff7361c3736c"),
    (["moments"], "0dd7bd847910b0c8dab8ab71ee5293a4de6883e23aa11322a278f2f8762694b2"),
    (["feasibility"], "f340286cfab35ea7f861c16ec5ce9e3059553ba81d3dbef78d640455a37ddd4a"),
    (["verify"], "9d147187ed33cea97bfd7285b1323a439d80d42ebf1cf3bccf92d5eaf4b2c5cf"),
    (["search"], "2b38bfc86f75e336de3cf54c004a59dee0536015725a9e5bddb3754749cb6c28"),
]


def test_help_and_usage_text_match_golden_digests(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    for command, digest in HELP_DIGESTS:
        assert run(command + ["--help"]) == 0, command
        captured = capsys.readouterr()
        assert captured.err == ""
        assert _sha256(captured.out) == digest, command
    # A missing required option: usage wrapped at 80 columns, then the error.
    assert run(["search", "--n", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _sha256(captured.err) == (
        "188fe1853206ca55119591971d771aa9dff02a80a516ba055be44334b59c98aa")


# Cases that the top-level parser reports, with the stderr recorded on
# Python 3.11 when it parsed every command line: plain lines are read from
# the command's actions, and the top-level parser handles every other line
# and is the only one that prints.  Later Pythons word argparse's usage and
# messages slightly differently, so there the test compares with the
# top-level parser alone.
TOP_LEVEL_USAGE = ("usage: gf2codes [-h]\n"
                   "                {analyze,dual,project,shorten,moments,feasibility,verify,search}\n"
                   "                ...\n")
FALLBACK_ERRORS = [
    (["no-such-command"], "argument command: invalid choice: 'no-such-command' (choose from "
     "'analyze', 'dual', 'project', 'shorten', 'moments', 'feasibility', 'verify', 'search')"),
    ([], "the following arguments are required: command"),
    (["search", "--n", "3", "--weights", "2", "--cap", "1"], "unrecognized arguments: --cap 1"),
    (["--json", "analyze", GOLAY], "unrecognized arguments: --json"),
]


def test_fallback_errors_match_golden_text(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    parser, _ = cli._build_parser()
    for argv, message in FALLBACK_ERRORS:
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        assert (exc.value.code, captured.out, captured.err) == (2, "", capsys.readouterr().err)
        if sys.version_info < (3, 12):
            assert captured.err == f"{TOP_LEVEL_USAGE}gf2codes: error: {message}\n", argv


def _ci_json_loop() -> list[tuple[str, str]]:
    # The arguments of each "code:arguments" entry of CI's installed-script
    # loop, with the plain twin named after "|" ("" for none).
    workflow = (README.parent / ".github" / "workflows" / "tier1.yml").read_text()
    block = workflow.split("for entry in ")[1].split("; do")[0]
    return [args.partition("|")[::2] for args in re.findall(r'"\d:([^"]+)"', block)]


# The CI loop's spellings that only argparse reads, so that its path runs on
# every Python CI covers.
CI_ARGPARSE_SPELLINGS = [
    "feasibility --n=32 --d=4 --weights=24,32",
    "search --n 8 --wei 2,4",
    "search --n 8 --weights 2,4 --node-cap -1",
]

# The benchmark's command shapes (perfbench/workloads.py), as the tuples it runs.
BENCHMARK_SHAPES = [
    ("analyze", GOLAY), ("dual", GOLAY), ("project", GOLAY, "--word", "0"),
    ("shorten", GOLAY, "--coords", "0,1"),
    ("feasibility", "--n", "64", "--d", "6", "--weights", "24,32,40"),
    ("verify", "lemma-2-6", "--d", "10", "--n-range", "1..128"),
    ("verify", "lemma-24-32-56"), ("verify", "theorem-a"),
    ("search", "--n", "9", "--weights", "3,4,6", "--node-cap", "10000000"),
]


def _spellings(argv: list[str]) -> tuple[list[list[str]], list[list[str]]]:
    # The same command line spelt other ways: (reorderings, which a plain
    # line stays under, and spellings that argparse reads alike or rejects).
    command, *rest = argv
    options = [(flag, value) for flag, value in zip(rest, rest[1:]) if flag.startswith("--")]
    positionals = [token for token in rest if token not in {t for pair in options for t in pair}]
    reordered = [t for pair in reversed(options) for t in pair] + positionals
    longest = max([flag for flag, _ in options if len(flag) > 3], key=len, default=None)
    others = [
        [*rest, "--json", "--json"], [f"{f}={v}" for f, v in options] + positionals,
        [t[:-1] if t == longest else t for t in rest] if longest else [*rest, "--js"],
        [*rest, "--", *positionals], ["--", *rest], [*rest, "-h"], [*rest, "--help"],
        ["--bogus", *rest], [*rest, "--bogus", "1"], [*rest, "extra"],
    ]
    for flag, value in options:
        others += [[*rest, flag, value],  # repeated
                   [t for f, v in options if f != flag for t in (f, v)] + positionals,
                   [t for f, v in options for t in (f, "-" + v if f == flag else v)]
                   + positionals,
                   [t for f, v in options for t in (f, "x1" if f == flag else v)]
                   + positionals]
    if command == "verify":
        others.append(["lemma-2-7", *rest[1:]])
    plain = [["--json", *rest], [*rest, "--json"], reordered, ["--json", *reordered]]
    return ([[command, *line] for line in plain], [[command, *line] for line in others])


def _argparse_namespace(argv: list[str]) -> argparse.Namespace:
    # What the command's own parser reads, with nothing left over.
    _, commands = cli._build_parser()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args, extra = commands[argv[0]].parse_known_args(argv[1:])
        except SystemExit:
            raise AssertionError(f"argparse rejects {argv}") from None
    assert extra == [], argv
    return args


def test_plain_parse_matches_argparse():
    # cli._parse_plain either declines a line or returns the namespace that
    # argparse builds for it, and it reads every line that the README, CI's
    # loop and the benchmark run, in any order of their flags.
    _, commands = cli._build_parser()

    def plain(argv):
        return cli._parse_plain(commands[argv[0]], argv[1:])

    ci = _ci_json_loop()
    assert [args for args, _ in ci if args in CI_ARGPARSE_SPELLINGS] == CI_ARGPARSE_SPELLINGS
    lines = ([argv for argv, _, _ in _readme_examples()]
             + [args.split() for args, _ in ci if args not in CI_ARGPARSE_SPELLINGS]
             + [twin.split() for _, twin in ci if twin] + BENCHMARK_SHAPES)
    accepted = declined = 0
    for argv in lines:
        reordered, others = _spellings(list(argv))
        for line in [argv, *reordered]:
            args = plain(line)
            assert args is not None, line
            assert vars(args) == vars(_argparse_namespace(list(line))), line
        for line in others:
            args = plain(line)
            declined += args is None
            if args is not None:
                accepted += 1
                assert vars(args) == vars(_argparse_namespace(line)), line
    for spelling in CI_ARGPARSE_SPELLINGS:
        assert plain(spelling.split()) is None, spelling
    assert accepted and declined, (accepted, declined)


def test_repeated_runs_keep_no_state(capsys, monkeypatch):
    # One process runs these calls with the same parser; each must print and
    # exit as the same command does alone in a fresh process.
    monkeypatch.setenv("COLUMNS", "80")
    env = _subprocess_env(COLUMNS="80")
    calls = [
        # Options of one call must not reach the next call of that subcommand.
        (["verify", "lemma-2-6", "--d", "5", "--n-range", "1..8"], 1),
        (["verify", "theorem-a"], 0),
        # Nor may a line argparse reads change its plain twin, read without it.
        (["search", "--n", "8", "--wei", "2,4", "--node-cap", "5"], 0),
        (["search", "--n", "8", "--weights", "2,4", "--node-cap", "5"], 0),
        (["search", "--n", "8", "--weights", "2,4"], 0),
        (["analyze", GOLAY, "--cap", "3"], 2),
        (["analyze", GOLAY], 0),
        # Nor may a usage error or --help change what follows.
        (["search", "--n", "3"], 2),
        (["--help"], 0),
        (["dual", EVEN4, "--json"], 0),
    ]
    outs = []
    for argv, expected in calls:
        assert run(argv) == expected, argv
        captured = capsys.readouterr()
        alone = subprocess.run([sys.executable, "-m", "gf2codes", *argv],
                               capture_output=True, text=True, env=env)
        assert (alone.returncode, alone.stdout, alone.stderr) == (
            expected, captured.out, captured.err), argv
        outs.append(captured.out)
    assert outs[2] == outs[3] and "INCOMPLETE" in outs[3] and "INCOMPLETE" not in outs[4]


@pytest.mark.skipif(platform.python_implementation() != "CPython",
                    reason="tuple free lists are a CPython detail")
def test_repeated_runs_leave_tuple_free_lists_empty(tmp_path):
    # A tuple built from a generator expression is resized in place and dies
    # onto the free list of its final length, which only a full collection
    # empties.  A loop of cli.run calls leaves no garbage that would start one,
    # so such tuples would pile up there: about 8,500 blocks over these 800
    # calls, against under 1,000 when every tuple is built at its final size.
    rng = random.Random(20261018)
    paths = []
    while len(paths) < 40:
        k = rng.randint(11, 19)
        n = rng.randint(k + 4, 30)
        code = random_code(rng, n, k)
        if code.dimension != k or not code.predicate_profile().is_spanning:
            continue
        path = tmp_path / f"code{len(paths)}.txt"
        path.write_text(format_generator_text(code.generator))
        paths.append(str(path))
    commands = [["analyze"], ["dual"], ["project", "--word", "0"], ["shorten", "--coords", "0,1"]]

    def one_round() -> None:
        for path in paths:
            for command in commands:
                with contextlib.redirect_stdout(io.StringIO()):
                    assert run([command[0], path, *command[1:], "--json"]) == 0

    one_round()
    gc.collect()
    for _ in range(5):
        one_round()
    before = sys.getallocatedblocks()
    gc.collect()
    freed = before - sys.getallocatedblocks()
    assert freed < 3000, freed
