"""Command-line interface: golden outputs, exit codes, file inputs.

The three canonical invocations are frozen byte-for-byte, including key
order, so any change to the JSON envelope shows up as a diff here.
"""

import json
import math
import pathlib
import time

import pytest

from repring.cli import run
from repring.completion import MACAULAY_COLUMN_CAP

SL3_CASE = str(pathlib.Path(__file__).resolve().parent.parent
               / "cases" / "sl3_levi.json")


def invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_golden_pi1_adjoint(capsys):
    code, out, err = invoke(capsys, [
        "pi1", "--type", "A", "--rank", "1", "--variant", "adjoint"])
    assert code == 0
    assert err == ""
    assert out == ('{"command":"pi1","inputs_echo":{"datum":"A1-adjoint"},'
                   '"result":{"free_rank":0,"invariant_factors":[2]}}\n')


def test_golden_support_all_ones(capsys):
    code, out, err = invoke(capsys, [
        "support", "--type", "A", "--rank", "1",
        "--variant", "simply_connected", "--point", "1"])
    assert code == 0
    assert out == ('{"command":"support","inputs_echo":'
                   '{"datum":"A1-simply_connected","point":"1"},'
                   '"result":{"connected":true,"kernel_lattice":[[1]],'
                   '"quotient":{"free_rank":0,"invariant_factors":[]}}}\n')


def test_golden_twist_check(capsys):
    code, out, err = invoke(capsys, [
        "twist-check", "--type", "A", "--rank", "1",
        "--variant", "simply_connected", "--point", "2", "--height", "3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"] == {"all_passed": True}
    assert out == ('{"command":"twist-check","inputs_echo":'
                   '{"datum":"A1-simply_connected","height":3,"point":"2"},'
                   '"result":{"all_passed":true}}\n')


def test_output_is_reproducible(capsys):
    argv = ["character", "--type", "A", "--rank", "2", "--weight", "1,0"]
    _, out1, _ = invoke(capsys, argv)
    _, out2, _ = invoke(capsys, argv)
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["result"]["dimension"] == 3
    assert doc["result"]["character"] == "x1^-1*x2^1 + x2^-1 + x1^1"


def test_roots_output(capsys):
    code, out, _ = invoke(capsys, ["roots", "--type", "G", "--rank", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["count"] == 12
    assert len(doc["result"]["roots"]) == 12
    assert len(doc["result"]["coroots"]) == 12


def test_orbit_output(capsys):
    code, out, _ = invoke(capsys, [
        "orbit", "--type", "A", "--rank", "1", "--weight", "-3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["size"] == 2
    assert sorted(doc["result"]["orbit"]) == [[-3], [3]]
    assert doc["result"]["dominant_representative"] == [3]


def test_fiber_output(capsys):
    code, out, _ = invoke(capsys, [
        "fiber", "--type", "A", "--rank", "1", "--point", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"] == {"size": 2, "points": ["1/2", "2"]}


def test_stabilizer_output(capsys):
    code, out, _ = invoke(capsys, [
        "stabilizer", "--type", "A", "--rank", "2", "--point", "2,4"])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"] == {"geometric_order": 2, "ideal_order": 2,
                             "subsystem_order": 2, "agree": True}


def test_centralizer_output(capsys):
    code, out, _ = invoke(capsys, [
        "centralizer", "--type", "A", "--rank", "2", "--point", "2,4"])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["weyl_order"] == 2
    assert doc["result"]["saturation_applied"] is False
    assert sorted(doc["result"]["roots"]) == [[-2, 1], [2, -1]]


def test_nal_check_on_curated_case(capsys):
    code, out, _ = invoke(capsys, ["nal-check", "--case", SL3_CASE])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["all_passed"] is True
    assert doc["result"]["restriction_valid"] is True
    levels = doc["result"]["levels"]
    assert [lv["level"] for lv in levels] == [1, 2, 3]
    assert all(lv["isomorphic"] for lv in levels)


def test_nal_check_j_max_override(capsys):
    code, out, _ = invoke(capsys, [
        "nal-check", "--case", SL3_CASE, "--j-max", "1"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["result"]["levels"]) == 1


def test_nal_check_macaulay_cap_exits_3(capsys):
    t0 = time.monotonic()
    code, out, err = invoke(capsys, [
        "nal-check", "--case", SL3_CASE, "--j-max", "40"])
    assert time.monotonic() - t0 < 5.0
    assert code == 3
    assert out == ""
    assert f"MACAULAY_COLUMN_CAP = {MACAULAY_COLUMN_CAP}" in err


def test_nal_check_levels_through_j6(capsys):
    t0 = time.monotonic()
    code, out, _ = invoke(capsys, [
        "nal-check", "--case", SL3_CASE, "--j-max", "6"])
    elapsed = time.monotonic() - t0
    assert code == 0
    levels = json.loads(out)["result"]["levels"]
    assert [(lv["dim_source"], lv["dim_target"]) for lv in levels] == [
        (j * (j + 1) // 2, j * (j + 1) // 2) for j in range(1, 7)]
    assert all(lv["isomorphic"] for lv in levels)
    assert elapsed < 0.2


def test_nal_check_j_max_10_is_under_the_cap(capsys):
    # The case's larger side has three variables (y1, y2, u2).
    assert math.comb(3 + 10 - 1, 3) <= MACAULAY_COLUMN_CAP
    code, out, _ = invoke(capsys, [
        "nal-check", "--case", SL3_CASE, "--j-max", "10"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["all_passed"] is True
    assert [lv["dim_target"] for lv in result["levels"]] == [
        j * (j + 1) // 2 for j in range(1, 11)]


def test_nal_check_non_invertible_image_exits_2(capsys, tmp_path):
    torus = {"images": [{"monomial": [1]}], "inverted": [1]}
    case = {"datum": {"type": "A", "rank": 1}, "point": ["2"],
            "source_presentation": torus, "target_presentation": torus,
            "restriction": ["y1 - 2"], "j_max": 2}
    path = tmp_path / "case.json"
    path.write_text(json.dumps(case))
    code, out, err = invoke(capsys, ["nal-check", "--case", str(path)])
    assert code == 2
    assert out == ""
    assert "not invertible in the truncated quotient" in err


def test_validate_basic(capsys):
    code, out, _ = invoke(capsys, ["validate", "--type", "G", "--rank", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["datum_ok"] is True
    assert doc["result"]["roots_count"] == 12
    assert doc["result"]["weyl_order"] == 12
    assert doc["result"]["fundamental_group"] == {
        "free_rank": 0, "invariant_factors": []}


def _case_with(**fields):
    case = json.loads(pathlib.Path(SL3_CASE).read_text(encoding="utf-8"))
    case.update(fields)
    return case


@pytest.mark.parametrize("command, flag, content", [
    ("pi1", "--datum-file", [1, 2]),
    ("pi1", "--datum-file", {"rank": None, "simple_roots": [], "simple_coroots": []}),
    ("pi1", "--datum-file", {"rank": 1, "simple_roots": 5, "simple_coroots": [[2]]}),
    ("validate", "--presentation-file", {"images": 3}),
    ("validate", "--presentation-file", {"images": [{"orbit_sum": [1]}], "relations": [5]}),
    ("nal-check", "--case", _case_with(restriction=[5, 6])),
    ("nal-check", "--case", _case_with(datum=["A", 2])),
    ("nal-check", "--case", _case_with(point="2,4")),
    ("nal-check", "--case", _case_with(datum={"type": "A", "rank": None})),
    ("nal-check", "--case", _case_with(datum={"type": 5, "rank": 2})),
    ("nal-check", "--case", _case_with(j_max=None)),
    ("validate", "--presentation-file", {"images": [{"orbit_sum": [1]}], "inverted": 3}),
    ("validate", "--presentation-file", {"images": [{"monomial": [1]}], "inverted": [0]}),
    ("validate", "--presentation-file", {"images": [{"monomial": 5}]}),
    ("validate", "--presentation-file", {"images": [{"terms": [["1/0", [1]]]}]}),
    ("validate", "--presentation-file", {"images": [{"orbit_sum": 5}]}),
])
def test_valid_json_of_the_wrong_shape_exits_2(tmp_path, capsys, command, flag, content):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content), encoding="utf-8")
    argv = [command, flag, str(path)]
    if command == "validate":
        argv += ["--type", "A", "--rank", "1"]
    code, out, err = invoke(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("invalid input:") and err.count("\n") == 1
    assert "coordinates" not in err


def test_validate_with_presentation(tmp_path, capsys):
    cfg = {"images": [{"orbit_sum": [1]}]}
    path = tmp_path / "sl2_pres.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    code, out, _ = invoke(capsys, [
        "validate", "--type", "A", "--rank", "1",
        "--presentation-file", str(path), "--height", "3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["presentation"]["all_passed"] is True
    assert doc["inputs_echo"]["height"] == 3


def test_datum_file_round_trip(tmp_path, capsys):
    datum = {
        "name": "my-c2",
        "rank": 2,
        "simple_roots": [[2, -1], [-2, 2]],
        "simple_coroots": [[1, 0], [0, 1]],
    }
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(datum), encoding="utf-8")
    code, out, _ = invoke(capsys, ["roots", "--datum-file", str(path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["count"] == 8
    assert doc["inputs_echo"]["datum"] == "my-c2"


def test_exit_two_bad_point(capsys):
    code, out, err = invoke(capsys, [
        "support", "--type", "A", "--rank", "1", "--point", "0"])
    assert code == 2
    assert out == ""
    assert err.startswith("invalid input:")


def test_exit_two_missing_datum(capsys):
    code, _, err = invoke(capsys, ["pi1"])
    assert code == 2
    assert "no datum given" in err


def test_exit_two_both_datum_sources(tmp_path, capsys):
    path = tmp_path / "d.json"
    path.write_text("{}", encoding="utf-8")
    code, _, err = invoke(capsys, [
        "pi1", "--type", "A", "--rank", "1", "--datum-file", str(path)])
    assert code == 2
    assert "not both" in err


def test_exit_two_type_without_rank(capsys):
    code, _, err = invoke(capsys, ["pi1", "--type", "A"])
    assert code == 2
    assert "needs --rank" in err


def test_exit_two_non_dominant_weight(capsys):
    code, _, err = invoke(capsys, [
        "character", "--type", "A", "--rank", "1", "--weight", "-1"])
    assert code == 2
    assert err.startswith("invalid input:")


def test_exit_two_malformed_weight(capsys):
    code, _, err = invoke(capsys, [
        "orbit", "--type", "A", "--rank", "2", "--weight", "1"])
    assert code == 2
    assert "weight needs 2" in err


def test_exit_two_missing_case_file(capsys):
    code, _, err = invoke(capsys, ["nal-check", "--case", "no-such-file.json"])
    assert code == 2
    assert err.startswith("invalid input:")


def test_exit_two_unknown_subcommand(capsys):
    code, _, _ = invoke(capsys, ["frobnicate"])
    assert code == 2


def test_exit_zero_for_help(capsys):
    code, _, _ = invoke(capsys, ["--help"])
    assert code == 0


def test_exit_three_on_cap(capsys):
    code, out, err = invoke(capsys, [
        "validate", "--type", "A", "--rank", "2", "--cap", "3"])
    assert code == 3
    assert out == ""
    assert err.startswith("resource cap exceeded:")


def test_console_entry_point():
    import subprocess
    import sys
    proc = subprocess.run(
        [sys.executable, "-m", "repring.cli", "pi1", "--type", "C",
         "--rank", "2", "--variant", "simply_connected"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["result"] == {"free_rank": 0, "invariant_factors": []}


AFFINE_A1 = {"name": "affine-A1", "rank": 2,
             "simple_roots": [[2, -2], [-2, 2]],
             "simple_coroots": [[1, 0], [0, 1]]}


def test_orbit_of_an_infinite_reflection_group_exits_3(tmp_path, capsys):
    path = tmp_path / "affine.json"
    path.write_text(json.dumps(AFFINE_A1))
    start = time.perf_counter()
    code, out, err = invoke(capsys, [
        "orbit", "--datum-file", str(path), "--weight", "1,0"])
    assert time.perf_counter() - start < 30.0
    assert code == 3
    assert out == ""
    assert "WEYL_ORDER_CAP = 1000000" in err


def test_roots_of_an_affine_datum_exits_2(tmp_path, capsys):
    path = tmp_path / "affine.json"
    path.write_text(json.dumps(AFFINE_A1))
    code, out, err = invoke(capsys, ["roots", "--datum-file", str(path)])
    assert code == 2
    assert out == ""
    assert "inconsistent coroot" in err


def test_pi1_rejects_a_non_cartan_datum_with_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"rank": 2, "simple_roots": [[2, 1], [3, 2]],
                                "simple_coroots": [[1, 0], [0, 1]]}))
    code, out, err = invoke(capsys, ["pi1", "--datum-file", str(path)])
    assert code == 2
    assert out == ""
    assert "generalized Cartan matrix" in err


def test_support_at_a_large_prime_exits_3_quickly(capsys):
    start = time.perf_counter()
    code, out, err = invoke(capsys, [
        "support", "--type", "A", "--rank", "1", "--point", "10000000000000061"])
    assert time.perf_counter() - start < 5.0
    assert code == 3
    assert out == ""
    assert "TRIAL_DIVISION_CAP = 1000000" in err
    # A composite power base is refused at its smallest factor, under the cap.
    code, out, err = invoke(capsys, [
        "support", "--type", "A", "--rank", "1", "--point", "20000000000000122^1"])
    assert code == 2
    assert "must be prime" in err


@pytest.mark.parametrize("args, key, value", [
    (["fiber", "--point", "2,3,zeta(3)^1,99999999977"], "size", 384),
    (["stabilizer", "--point", "1,1,2,99999999977"], "agree", True)])
def test_a_large_prime_coordinate_is_proven_prime_once(capsys, args, key, value):
    # Every Weyl translate keeps the point's primes, which were proven
    # prime when the point was parsed; trial division to the square root
    # of 99999999977 on each of the 384 translates took over 30 s.
    start = time.perf_counter()
    code, out, err = invoke(capsys, args[:1] + ["--type", "C", "--rank", "4"] + args[1:])
    assert time.perf_counter() - start < 2.0
    assert code == 0, err
    assert json.loads(out)["result"][key] == value


@pytest.mark.parametrize("args", [["character", "--weight", "0,0"],
                                  ["fiber", "--point", "2,3"],
                                  ["stabilizer", "--point", "2,3"]])
def test_affine_datum_exits_2_quickly(tmp_path, capsys, args):
    path = tmp_path / "affine.json"
    path.write_text(json.dumps(AFFINE_A1))
    start = time.perf_counter()
    code, out, err = invoke(capsys, args[:1] + ["--datum-file", str(path)] + args[1:])
    assert time.perf_counter() - start < 2.0
    assert code == 2
    assert out == ""
    assert "inconsistent coroot" in err


def test_validate_cap_counts_the_weyl_group_not_the_roots(capsys):
    # B3 has 18 roots, under the cap, but |W| = 48 is over it.
    code, out, err = invoke(capsys, [
        "validate", "--type", "B", "--rank", "3", "--cap", "20"])
    assert code == 3
    assert out == ""
    assert "--cap = 20" in err


def test_validate_weyl_order_matches_the_closed_form(capsys):
    orders = {"A": lambda n: math.factorial(n + 1),
              "B": lambda n: 2 ** n * math.factorial(n),
              "C": lambda n: 2 ** n * math.factorial(n),
              "D": lambda n: 2 ** (n - 1) * math.factorial(n),
              "G": lambda n: 12}
    for label, rank in [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
                        ("B", 4), ("C", 2), ("C", 3), ("C", 4), ("D", 3), ("D", 4),
                        ("G", 2)]:
        for variant in ("simply_connected", "adjoint"):
            code, out, _ = invoke(capsys, ["validate", "--type", label, "--rank",
                                           str(rank), "--variant", variant])
            assert code == 0
            assert json.loads(out)["result"]["weyl_order"] == orders[label](rank)
