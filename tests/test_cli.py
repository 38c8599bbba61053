import hashlib
import json
import subprocess
import sys

from conftest import FIXTURES
from gf2codes import __version__
from gf2codes.cli import run

GOLAY = str(FIXTURES / "golay_24_12.txt")
EVEN4 = str(FIXTURES / "even_weight_4.txt")
HAMMING16 = str(FIXTURES / "hamming_16_11.txt")


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
]


def test_verify_output_matches_golden_digests(capsys):
    for argv, code, digest in VERIFY_DIGESTS:
        assert run(argv) == code, argv
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


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


def test_every_subcommand_emits_schema_json(capsys):
    invocations = [
        ["analyze", GOLAY],
        ["dual", EVEN4],
        ["project", EVEN4, "--word", "0"],
        ["shorten", GOLAY, "--coords", "0,1"],
        ["moments", GOLAY],
        ["feasibility", "--n", "3", "--d", "2", "--weights", "2"],
        ["verify", "lemma-24-32-56"],
        ["search", "--n", "3", "--weights", "2"],
    ]
    for argv in invocations:
        assert run(argv + ["--json"]) == 0, argv
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"command", "inputs", "payload", "version"}, argv
        assert doc["command"] == argv[0]
        assert json.loads(json.dumps(doc)) == doc


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


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "gf2codes", "analyze", GOLAY],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "n=24 k=12"
    bad = subprocess.run(
        [sys.executable, "-m", "gf2codes", "verify", "lemma-2-6", "--d", "9"],
        capture_output=True,
        text=True,
    )
    assert bad.returncode == 1
