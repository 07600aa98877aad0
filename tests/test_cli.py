"""Command-line surface: schemas, exit codes, determinism, budgets."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dycksum import combin, hirota, qkz, tee
from dycksum.cli import run
from dycksum.hirota import EnumerationBudgetError
from dycksum.ring import TauPoly

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def capout(capsys):
    def invoke(argv):
        code = run(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


def test_sums_schema(capout):
    code, out, _ = capout(["sums", "--L", "6", "--p", "2", "--sign", "plus"])
    assert code == 0
    data = json.loads(out)
    assert data["terms"] == [[0, "1"], [2, "8"], [4, "12"], [6, "5"]]
    assert data["ring"] == "Z[tau,tau^-1]"


def test_sums_general_t(capout):
    code, out, _ = capout(["sums", "--L", "4", "--p", "1", "--t", "tau-inv"])
    assert code == 0
    assert json.loads(out)["terms"] == [[0, "2"], [2, "1"]]
    code, out, _ = capout(["sums", "--L", "4", "--p", "1", "--t", "1/2"])
    assert code == 0
    data = json.loads(out)
    assert data["ring"] == "Q[tau,tau^-1]"
    assert data["terms"] == [[0, "1"], [1, "1/2"], [2, "1"]]


def test_tee_trivial(capout):
    code, out, _ = capout(["tee", "--L", "4", "--p", "0", "--k", "1"])
    assert code == 0
    assert json.loads(out)["terms"] == [[0, "1"]]


def test_psi_round_trips(capout):
    code, out, _ = capout(["psi", "--L", "6"])
    assert code == 0
    data = json.loads(out)
    assert set(data["psi"]) == {"UDUDUD", "UDUUDD", "UUDDUD", "UUDUDD", "UUUDDD"}
    top = TauPoly.from_json(data["psi"]["UDUDUD"])
    assert top == TauPoly({0: 1, 2: 5, 4: 4, 6: 1})


def test_hirota_file_input(tmp_path, capout):
    blob = {"n": 2, "entries": [["1", "2"], ["3/2", "4"]]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(blob))
    code, out, _ = capout(["hirota", "--input", str(path), "--tau2", "-1"])
    assert code == 0
    assert json.loads(out)["value"] == "1"


def test_hirota_zero_connected_minor(tmp_path, capout):
    # the central 2x2 connected minor is zero at tau2 = -1; the value still exists
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 4, "entries": [[1, 2, 3, 4], [5, 1, 1, 7], [2, 1, 1, 3], [9, 4, 8, 1]]}))
    code, out, _ = capout(["hirota", "--input", str(path), "--tau2", "-1"])
    assert (code, out) == (0, '{"n":4,"tau2":"-1","value":"-61"}\n')


def test_hirota_rejects_loose_entries(tmp_path, capout):
    # a string row, a JSON float, a boolean and a non-integer n are refused, not coerced
    blobs = [
        {"n": 2, "entries": [["1", "2"], "34"]},
        {"n": 2, "entries": [["1", "2"], ["3", 0.1]]},
        {"n": 2, "entries": [["1", "2"], ["3", True]]},
        {"n": 2.7, "entries": [["1", "2"], ["3", "4"]]},
        {"n": True, "entries": [["5"]]},
    ]
    for i, blob in enumerate(blobs):
        path = tmp_path / f"m{i}.json"
        path.write_text(json.dumps(blob))
        code, out, _ = capout(["hirota", "--input", str(path), "--tau2", "-1"])
        assert code == 2, blob
        assert out == "", blob
    # JSON integers stay accepted
    path = tmp_path / "ints.json"
    path.write_text(json.dumps({"n": 2, "entries": [[1, 2], [3, "4"]]}))
    code, out, _ = capout(["hirota", "--input", str(path), "--tau2", "-1"])
    assert code == 0
    assert json.loads(out)["value"] == "-2"


def test_fpl_output(capout):
    code, out, _ = capout(["fpl", "--L", "4", "--p", "1"])
    assert code == 0
    data = json.loads(out)
    assert data["total"] == 3
    assert data["restricted"] == 3
    assert data["patterns"] == {"UDUD": 2, "UUDD": 1}


def test_vsasm_output(capout):
    code, out, _ = capout(["asm", "--size", "5", "--class", "vsasm"])
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 3
    assert data["terms"] == [[0, "2"], [2, "1"]]


def test_asm_output(capout):
    code, out, _ = capout(["asm", "--size", "7"])
    assert code == 0
    assert json.loads(out) == {"class": "asm", "count": 218348, "size": 7}
    code, out, _ = capout(["asm", "--class", "vsasm", "--size", "11"])
    assert code == 0
    assert json.loads(out)["count"] == 45885


def test_optimized_interpreter_prints_same_bytes(tmp_path):
    # -O strips assert statements; the invariant checks are explicit raises
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for argv in (
        ["asm", "--class", "vsasm", "--size", "9"],
        ["verify", "--suite", "prop4", "--max-L", "10"],
    ):
        outs = []
        for flags in ([], ["-O"]):
            proc = subprocess.run(
                [sys.executable, *flags, "-m", "dycksum.cli", *argv],
                capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
            )
            assert proc.returncode == 0, (flags, argv, proc.stderr)
            outs.append(proc.stdout)
        assert outs[0] == outs[1] and outs[0], argv


def test_sfactor_output(capout):
    code, out, _ = capout(["sfactor", "--L", "12", "--p", "3", "--bits", "256"])
    assert code == 0
    assert json.loads(out)["nearest_int"] == 18900


def test_verify_small_exits_zero(capout):
    code, out, err = capout(["verify", "--suite", "prop1", "--max-L", "6"])
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert data["reports"][0]["checked"] == 16
    assert "prop1" in err


def test_verify_determinism(capout):
    args = ["verify", "--suite", "residues", "--max-L", "4", "--seed", "7"]
    _, out1, _ = capout(args)
    _, out2, _ = capout(args)
    assert out1 == out2


def test_exit_codes(tmp_path, capout):
    code, _, _ = capout(["nope"])
    assert code == 2
    code, _, err = capout(["fpl", "--L", "12"])
    assert code == 2 and "budget" in err
    code, _, _ = capout(["sums", "--L", "6"])  # missing --p
    assert code == 2
    code, _, err = capout(["psi", "--L", "99"])
    assert code == 2
    code, _, err = capout(["verify", "--suite", "unknown"])
    assert code == 2
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"n": 13, "entries": [["1"] * 13] * 13}))
    # one request just past each cap; the library function called raises
    over_budget = [
        ["psi", "--L", "11"],
        ["sums", "--L", "11", "--p", "0"],
        ["sums", "--L", "11", "--p", "0", "--t", "1/2"],
        ["tee", "--L", "21", "--p", "0", "--k", "1"],
        ["tee", "--L", "21", "--p", "0", "--k", "1", "--via-u"],
        ["hirota", "--input", str(big), "--tau2", "-1"],
        ["lgv", "--method", "paths", "--L", "21", "--p", "1", "--k", "0"],
        ["lgv", "--L", "21", "--p", "1", "--k", "0"],
        ["asm", "--size", str(hirota.ASM_MAX_N + 1)],
        ["asm", "--class", "vsasm", "--size", str(combin.VSASM_MAX_SIZE + 2)],
        ["fpl", "--L", "9"],
        ["sfactor", "--L", "65", "--p", "0"],
        ["verify", "--suite", "ring", "--max-L", "13"],
    ]
    for argv in over_budget:
        code, out, err = capout(argv)
        assert code == 2 and out == "" and "budget" in err, argv
    # a zero denominator is bad input, not an internal fault
    one = tmp_path / "one.json"
    one.write_text(json.dumps({"n": 1, "entries": [["1"]]}))
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"n": 1, "entries": [["1/0"]]}))
    for argv in (
        ["sums", "--L", "6", "--p", "1", "--t=1/0"],
        ["hirota", "--input", str(one), "--tau2", "1/0"],
        ["hirota", "--input", str(zero), "--tau2", "-1"],
    ):
        code, out, err = capout(argv)
        assert code == 2 and out == "" and "zero denominator" in err, argv
    # a size below 1 is bad input for both classes
    for argv in (
        ["asm", "--size", "0"],
        ["asm", "--class", "vsasm", "--size", "-1"],
        ["asm", "--class", "vsasm", "--size", "-3"],
    ):
        code, out, err = capout(argv)
        assert code == 2 and out == "" and "must be positive" in err, argv
    # p outside 0..(L-1)//2 has no restricted family
    for p in ("9", "-1", "4"):
        code, out, err = capout(["fpl", "--L", "8", "--p", p])
        assert code == 2 and out == "" and "p must lie in 0..3" in err, p
    # 2^513 cannot round exactly at 256 bits; 1024 bits can
    code, out, err = capout(["sfactor", "--L", "64", "--p", "20"])
    assert code == 2 and out == "" and "--bits >= 545" in err
    code, out, _ = capout(["sfactor", "--L", "64", "--p", "20", "--bits", "1024"])
    assert code == 0 and json.loads(out)["nearest_int"].bit_length() == 513


def test_verify_max_l_range(capout):
    # refused before any suite runs: no partial sweep, no empty pass
    for argv in (
        ["verify", "--suite", "all", "--max-L", "3"],
        ["verify", "--suite", "lemma1", "--max-L", "-3"],
    ):
        code, out, err = capout(argv)
        assert code == 2 and out == "" and "4 <= max-L <= 12" in err, argv


def test_internal_errors_exit_3(tmp_path, capout, monkeypatch):
    for exc in (qkz.ConventionError("broken convention"), KeyError("lost key")):

        def broken(L, exc=exc):
            raise exc

        monkeypatch.setattr(qkz, "solve_psi", broken)
        code, out, err = capout(["psi", "--L", "4"])
        assert code == 3 and out == "", exc
        assert err.startswith("internal error:") and err.count("\n") == 1
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 2}))
    code, out, err = capout(["hirota", "--input", str(path), "--tau2", "-1"])
    assert code == 2 and out == "" and "entries" in err


def test_library_budgets():
    over_budget = [
        lambda: qkz.solve_psi(qkz.SOLVE_MAX_L + 1),
        lambda: qkz.psi_bar((1,) * 5, qkz.SOLVE_MAX_L + 1),
        lambda: tee.tee(tee.TEE_MAX_L + 1, 0, 1),
        lambda: tee.tee_via_U(tee.TEE_MAX_L + 1, 0, 1),
        lambda: tee.verify_lemma2(tee.LEMMA2_MAX_P + 1),
        lambda: hirota.tau2_det([[1] * 13] * (hirota.TAU2_DET_MAX_N + 1), -1),
        lambda: hirota.asm_count(hirota.ASM_MAX_N + 1),
        lambda: hirota.enumerate_asm(hirota.ASM_EXPANSION_MAX_N + 1),
        lambda: hirota.asm_expansion([[1] * 6] * (hirota.ASM_EXPANSION_MAX_N + 1), 1),
        lambda: combin.path_count(combin.PATHS_MAX_L + 1, 1, 0),
        lambda: combin.lgv_tee(combin.PATHS_MAX_L + 1, 0, 1),
        lambda: combin.vsasm_genfun(combin.VSASM_MAX_SIZE + 2),
        lambda: combin.enumerate_vsasm(combin.VSASM_LIST_MAX_SIZE + 2),
        lambda: combin.enumerate_fpl(combin.FPL_MAX_L + 1),
        lambda: combin.sfactor(combin.SFACTOR_MAX_L + 1, 0),
    ]
    for call in over_budget:
        with pytest.raises(EnumerationBudgetError, match="budget"):
            call()


def test_table_format(capout):
    code, out, _ = capout(["tee", "--L", "4", "--p", "1", "--k", "2", "--format", "table"])
    assert code == 0
    assert "terms" in out and "\n" in out


def test_seed_changes_randomized_suite(capout):
    _, out1, _ = capout(["verify", "--suite", "residues", "--seed", "1"])
    _, out2, _ = capout(["verify", "--suite", "residues", "--seed", "2"])
    assert json.loads(out1)["passed"] and json.loads(out2)["passed"]


def test_verify_all_small(capout):
    code, out, err = capout(["verify", "--suite", "all", "--max-L", "6", "--seed", "42"])
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert {r["suite"] for r in data["reports"]} >= {"prop1", "trecur", "lemma2", "fpl", "residues"}


def test_global_flags_before_subcommand(capout):
    code, out, _ = capout(["--format", "table", "tee", "--L", "4", "--p", "1", "--k", "2"])
    assert code == 0 and "terms" in out


def test_smallest_sizes(capout):
    code, out, _ = capout(["psi", "--L", "1"])
    assert code == 0
    assert json.loads(out)["psi"] == {"U": {"ring": "Z[tau,tau^-1]", "terms": [[0, "1"]]}}
    code, out, _ = capout(["sums", "--L", "2", "--p", "0", "--sign", "minus"])
    assert code == 0
    assert json.loads(out)["terms"] == [[0, "1"]]
