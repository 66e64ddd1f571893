"""Command-line interface: golden outputs, exit codes, file inputs.

The three canonical invocations are frozen byte-for-byte, including key
order, so any change to the JSON envelope shows up as a diff here.
"""

import json
import math
import pathlib
import subprocess
import sys
import time
from collections import Counter

import pytest

from repring import completion, rootdata
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


def test_stabilizer_at_a_root_of_unity_of_huge_prime_order():
    # The point's Galois key comes from the scan over unit cosets; testing
    # each unit mod 1000000007 in turn would take about 10^9 steps.  A child
    # process lets the time bound stop such a run.
    proc = subprocess.run(
        [sys.executable, "-m", "repring.cli", "stabilizer", "--type", "A", "--rank", "1",
         "--point", "zeta(1000000007)^1*2"], capture_output=True, text=True, timeout=2.0)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["result"] == {"geometric_order": 1, "ideal_order": 1,
                                                 "subsystem_order": 1, "agree": True}


def test_a_fiber_over_the_digit_limit_is_a_resource_cap():
    # 2^15000 has 4,516 digits, over the interpreter's default limit for
    # str() on integers (4,300), so a fiber member's literal cannot be
    # written; the other point commands answer.  Child processes fix the
    # limit, so the environment of the test run cannot change it.
    def child(limit, command):
        return subprocess.run(
            [sys.executable, "-X", f"int_max_str_digits={limit}", "-m", "repring.cli", command,
             "--type", "A", "--rank", "1", "--point", "2^15000"],
            capture_output=True, text=True, timeout=30)

    for command in ("support", "stabilizer", "centralizer"):
        assert child(4300, command).returncode == 0
    proc = child(4300, "fiber")
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith("resource cap exceeded: ")
    assert all(s in proc.stderr for s in ("4300", "PYTHONINTMAXSTRDIGITS", "-X int_max_str_digits"))
    proc = child(0, "fiber")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["result"]["size"] == 2


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
    # A float (even 2.0), a boolean or a string where an integer belongs.
    ("pi1", "--datum-file", {"rank": 2, "simple_roots": [[2, -1.7], [-1, 2]],
                             "simple_coroots": [[1, 0], [0, 1]]}),
    ("pi1", "--datum-file", {"rank": 1.5, "simple_roots": [[2]], "simple_coroots": [[1]]}),
    ("pi1", "--datum-file", {"rank": 1, "simple_roots": [[True]], "simple_coroots": [[2]]}),
    ("pi1", "--datum-file", {"rank": 1, "simple_roots": [[2.0]], "simple_coroots": [[1]]}),
    ("nal-check", "--case", _case_with(target_presentation={
        "images": [{"terms": [["1", [1, 0]], ["1", [-1, 1]]]}, {"monomial": "12"}],
        "inverted": [2]})),
    ("nal-check", "--case", _case_with(source_presentation={
        "images": [{"orbit_sum": [1, 0]}, {"orbit_sum": "01"}]})),
    ("validate", "--presentation-file", {"images": [{"terms": [["1", [1.0]]]}]}),
    ("nal-check", "--case", _case_with(j_max=2.9)),
    ("nal-check", "--case", _case_with(target_presentation={
        "images": [{"terms": [["1", [1, 0]], ["1", [-1, 1]]]}, {"monomial": [0, 1]}],
        "inverted": [2.7]})),
    ("nal-check", "--case", _case_with(datum={"type": "A", "rank": "2"})),
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


def test_a_case_point_needs_one_literal_per_coordinate(tmp_path, capsys):
    # Joined with commas, ["2,4"] would read as the two coordinates 2 and 4.
    path = tmp_path / "case.json"
    path.write_text(json.dumps(_case_with(point=["2,4"])), encoding="utf-8")
    code, out, err = invoke(capsys, ["nal-check", "--case", str(path)])
    assert code == 2
    assert out == ""
    assert err == "invalid input: expected 2 coordinates, got 1\n"


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


@pytest.mark.parametrize("argv", [
    ["fiber", "--type", "A", "--rank", "1", "--point=--"],
    ["orbit", "--type", "A", "--rank", "1", "--weight=--"],
    ["roots", "--type=--", "--rank", "1"],
    ["support", "--datum-file=--", "--point", "1"],
    ["nal-check", "--case=--"],
    ["nal-check", "--case", SL3_CASE, "--j-max=--"],
    ["validate", "--type", "A", "--rank", "1", "--presentation-file=--"],
])
def test_exit_two_for_an_option_value_of_double_dash(capsys, argv):
    # argparse before Python 3.13 reads "--opt=--" as an empty list, and 3.13
    # as the string "--"; every version gets the same refusal.
    option = next(a for a in argv if a.endswith("=--")).removesuffix("=--")
    code, out, err = invoke(capsys, argv)
    assert (code, out) == (2, "")
    assert err == f"invalid input: {option} cannot take the value '--'\n"


@pytest.mark.parametrize("argv, message", [
    # An abbreviation is refused under the option's full name.
    (["fiber", "--type", "A", "--rank", "1", "--poi=--"], "invalid input: --point"),
    # Options are checked in the order the command declares them.
    (["fiber", "--point=--", "--type=--"], "invalid input: --type"),
    # A command without the option, or a token after a bare "--", is
    # left to argparse.
    (["pi1", "--point=--"], "unrecognized arguments: --point=--"),
    (["pi1", "--type", "A", "--rank", "1", "--", "--point=--"],
     "unrecognized arguments: -- --point=--"),
])
def test_double_dash_refusal_names_the_declared_option(capsys, argv, message):
    code, out, err = invoke(capsys, argv)
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize("argv, code, message", [
    # The datum is read first, then the point or the weight, then the
    # command's own options; validate reads --cap before --presentation-file.
    (["support", "--type", "Q", "--rank", "1", "--point", "0"], 2,
     "invalid input: unknown type label 'Q'"),
    (["twist-check", "--type", "A", "--rank", "1", "--point", "0", "--height=-1"], 2,
     "invalid input: zero is not an evaluation value"),
    (["character", "--type", "A", "--rank", "2", "--weight", "-1"], 2,
     "invalid input: weight needs 2 comma-separated integers"),
    (["validate", "--type", "A", "--rank", "2", "--cap", "3",
      "--presentation-file", "no-such-file.json"], 3,
     "resource cap exceeded: root closure exceeded cap 3 (--cap = 3)"),
    (["support", "--datum-file", "no-such-file.json", "--point", "0"], 2,
     "invalid input: [Errno 2] No such file or directory: 'no-such-file.json'"),
    (["pi1", "--type", "A", "--rank", "1", "--datum-file", "no-such-file.json"], 2,
     "invalid input: give either --type/--rank or --datum-file, not both"),
    (["nal-check", "--case", "no-such-file.json", "--j-max", "-1"], 2,
     "invalid input: [Errno 2] No such file or directory: 'no-such-file.json'"),
    # A cap below 0 is invalid input, read where the command reads --cap.
    (["roots", "--type", "A", "--rank", "2", "--cap", "-1"], 2,
     "invalid input: --cap must be nonnegative, got -1"),
    (["validate", "--type", "A", "--rank", "2", "--cap", "-1",
      "--presentation-file", "no-such-file.json"], 2,
     "invalid input: --cap must be nonnegative, got -1"),
    (["roots", "--type", "Q", "--rank", "2", "--cap", "-1"], 2,
     "invalid input: unknown type label 'Q'"),
    (["validate", "--datum-file", "no-such-file.json", "--cap", "-5"], 2,
     "invalid input: [Errno 2] No such file or directory: 'no-such-file.json'"),
])
def test_the_first_bad_input_is_the_one_reported(capsys, argv, code, message):
    assert invoke(capsys, argv) == (code, "", message + "\n")


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


@pytest.mark.parametrize("args", [["orbit", "--weight", "1,0"],
                                  ["twist-check", "--point", "2,3", "--height", "1"]],
                         ids=["orbit", "twist-check"])
def test_orbit_of_an_infinite_reflection_group_exits_2(tmp_path, capsys, args):
    # The root closure refuses the datum before any orbit closure; the
    # orbit once ran to WEYL_ORDER_CAP points (5 s, 171 MB) and exited 3.
    path = tmp_path / "affine.json"
    path.write_text(json.dumps(AFFINE_A1))
    start = time.perf_counter()
    code, out, err = invoke(capsys, args[:1] + ["--datum-file", str(path)] + args[1:])
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (2, "")
    assert err == ("invalid input: inconsistent coroot produced by reflection closure; "
                   "the datum is not of finite type\n")


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


@pytest.mark.parametrize("command", [["fiber"], ["twist-check", "--height", "1"]])
def test_a_cyclotomic_field_of_huge_degree_exits_3_quickly(capsys, command):
    # phi(30030) = 5760: building the 30030th cyclotomic polynomial alone
    # ran past 20 s before CYCLOTOMIC_DEGREE_CAP.
    start = time.perf_counter()
    code, out, err = invoke(capsys, command[:1] + [
        "--type", "A", "--rank", "1", "--point", "zeta(30030)^1"] + command[1:])
    assert time.perf_counter() - start < 2.0
    assert code == 3
    assert out == ""
    assert "CYCLOTOMIC_DEGREE_CAP = 256" in err


def test_support_at_a_root_of_unity_of_huge_order_builds_no_field(capsys):
    code, out, err = invoke(capsys, [
        "support", "--type", "A", "--rank", "1", "--point", "zeta(30030)^1"])
    assert (code, err) == (0, "")
    assert out == ('{"command":"support","inputs_echo":{"datum":"A1-simply_connected",'
                   '"point":"zeta(30030)^1"},"result":{"connected":false,'
                   '"kernel_lattice":[[30030]],"quotient":{"free_rank":0,'
                   '"invariant_factors":[30030]}}}\n')


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


def test_validate_cap_at_the_weyl_order_boundary(capsys):
    for label, rank, order in [("A", 3, 24), ("B", 3, 48), ("G", 2, 12), ("D", 5, 1920)]:
        for variant in ("simply_connected", "adjoint"):
            argv = ["validate", "--type", label, "--rank", str(rank), "--variant", variant]
            code, out, _ = invoke(capsys, argv + ["--cap", str(order)])
            assert code == 0
            assert json.loads(out)["result"]["weyl_order"] == order
            code, out, err = invoke(capsys, argv + ["--cap", str(order - 1)])
            assert code == 3
            assert out == ""
            assert f"--cap = {order - 1}" in err


def test_validate_refuses_linearly_dependent_simple_roots(tmp_path, capsys):
    # The root closure of affine A2 on Z^2 closes, but no base exists.
    path = tmp_path / "affine_a2.json"
    path.write_text(json.dumps({"rank": 2, "simple_roots": [[2, -1], [-1, 2], [-1, -1]],
                                "simple_coroots": [[1, 0], [0, 1], [-1, -1]]}))
    code, out, err = invoke(capsys, ["validate", "--datum-file", str(path)])
    assert code == 2
    assert out == ""
    assert "linearly dependent" in err


AFFINE_A2 = {"rank": 2, "simple_roots": [[2, -1], [-1, 2], [-1, -1]],
             "simple_coroots": [[1, 0], [0, 1], [-1, -1]]}


@pytest.mark.parametrize("args", [["centralizer", "--point", "1,1"],
                                  ["stabilizer", "--point", "1,1"],
                                  ["fiber", "--point", "2,3"],
                                  ["character", "--weight=0,0"],
                                  ["orbit", "--weight=1,0"],
                                  ["orbit", "--weight=0,0"],
                                  ["twist-check", "--point", "2,3", "--height", "1"]])
def test_every_reader_of_a_base_refuses_dependent_simple_roots(tmp_path, capsys, args):
    # Affine A2 on Z^2 has a finite root closure but no base: these
    # commands once printed a Levi with no base and |W| 1, a disagreeing
    # stabilizer, a character, a one-point orbit or a passed twist check,
    # or ran a 10^4-step descent.
    path = tmp_path / "affine_a2.json"
    path.write_text(json.dumps(AFFINE_A2))
    start = time.perf_counter()
    code, out, err = invoke(capsys, args[:1] + ["--datum-file", str(path)] + args[1:])
    assert time.perf_counter() - start < 2.0
    assert code == 2
    assert out == ""
    assert "linearly dependent" in err


@pytest.mark.parametrize("args, expected", [
    (["roots"], '{"command":"roots","inputs_echo":{"datum":"custom"},"result":'
                '{"coroots":[[-1,0],[-1,-1],[0,1],[0,-1],[1,1],[1,0]],"count":6,'
                '"roots":[[-2,1],[-1,-1],[-1,2],[1,-2],[1,1],[2,-1]]}}\n'),
    (["pi1"], '{"command":"pi1","inputs_echo":{"datum":"custom"},"result":'
              '{"free_rank":0,"invariant_factors":[]}}\n'),
    (["support", "--point", "1,1"],
     '{"command":"support","inputs_echo":{"datum":"custom","point":"1,1"},"result":'
     '{"connected":true,"kernel_lattice":[[1,0],[0,1]],"quotient":'
     '{"free_rank":0,"invariant_factors":[]}}}\n')])
def test_commands_that_read_no_base_keep_dependent_simple_roots(tmp_path, capsys,
                                                                args, expected):
    path = tmp_path / "affine_a2.json"
    path.write_text(json.dumps(AFFINE_A2))
    code, out, err = invoke(capsys, args[:1] + ["--datum-file", str(path)] + args[1:])
    assert (code, out, err) == (0, expected, "")


def test_roots_cap_names_the_flag(capsys):
    argv = ["roots", "--type", "A", "--rank", "2", "--cap"]
    code, out, err = invoke(capsys, argv + ["5"])
    assert code == 3
    assert out == ""
    assert "--cap = 5" in err
    code, out, err = invoke(capsys, argv + ["6"])
    assert (code, err) == (0, "")
    assert json.loads(out)["result"]["count"] == 6


@pytest.mark.parametrize("argv", [
    ["validate", "--type", "B", "--rank", "5"],
    ["centralizer", "--type", "C", "--rank", "4", "--point", "1,1,2,3"],
    ["character", "--type", "C", "--rank", "4", "--weight", "1,0,0,1"],
    ["stabilizer", "--type", "C", "--rank", "4", "--point", "1,1,2,3"]])
def test_each_datum_is_closed_at_most_once_per_op(monkeypatch, capsys, argv):
    closed = []
    close_roots = rootdata._close_roots

    def counting(d, cap):
        closed.append(d)  # kept, so no two data share an id
        return close_roots(d, cap)

    monkeypatch.setattr(rootdata, "_close_roots", counting)
    for _ in range(2):
        del closed[:]
        assert invoke(capsys, argv)[0] == 0
        # Each op closes afresh: nothing is kept across runs.
        assert closed
        assert max(Counter(map(id, closed)).values()) == 1, argv


def test_nal_check_finds_the_support_and_centralizer_once(monkeypatch, capsys):
    # The loaded case carries its centralizer into the comparison.
    calls = Counter()
    for name in ("support", "centralizer_subsystem"):
        def counting(*args, _name=name, _fn=getattr(completion, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(completion, name, counting)
    assert invoke(capsys, ["nal-check", "--case", SL3_CASE, "--j-max", "2"])[0] == 0
    assert calls == {"support": 1, "centralizer_subsystem": 1}


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


RANK_0 = {"rank": 0, "simple_roots": [], "simple_coroots": []}


@pytest.mark.parametrize("args, result", [
    (["support", "--point="], {"connected": True, "kernel_lattice": [],
                               "quotient": {"free_rank": 0, "invariant_factors": []}}),
    (["centralizer", "--point="], {"base_roots": [], "roots": [],
                                   "saturation_applied": False, "weyl_order": 1}),
    (["fiber", "--point="], {"points": [""], "size": 1}),
    (["stabilizer", "--point="], {"agree": True, "geometric_order": 1,
                                  "ideal_order": 1, "subsystem_order": 1}),
    (["twist-check", "--point="], {"all_passed": True}),
    (["orbit", "--weight="], {"dominant_representative": [], "orbit": [[]], "size": 1}),
    (["character", "--weight="], {"character": "1", "dimension": 1})])
def test_a_rank_0_datum_takes_its_one_point_and_weight(tmp_path, capsys, args, result):
    # The empty literal is the only point and the only weight at rank 0;
    # these commands once read it as one empty coordinate and exited 2.
    path = tmp_path / "rank0.json"
    path.write_text(json.dumps(RANK_0))
    code, out, err = invoke(capsys, args[:1] + ["--datum-file", str(path)] + args[1:])
    assert (code, err) == (0, "")
    assert json.loads(out)["result"] == result


@pytest.mark.parametrize("rank, args, message", [
    (0, ["fiber", "--point", "1"], "expected 0 coordinates, got 1"),
    (0, ["orbit", "--weight", "0"], "weight needs 0 comma-separated integers"),
    (1, ["fiber", "--point="], "empty factor in point literal"),
    (1, ["orbit", "--weight="], "weight entries must be integers, got ''")])
def test_empty_and_rank_0_literals_keep_their_refusals(tmp_path, capsys, rank, args, message):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(RANK_0 if rank == 0 else
                               {"rank": 1, "simple_roots": [[2]], "simple_coroots": [[1]]}))
    code, out, err = invoke(capsys, args[:1] + ["--datum-file", str(path)] + args[1:])
    assert (code, out) == (2, "")
    assert err == f"invalid input: {message}\n"


def test_fiber_refuses_a_huge_field_before_walking_w(capsys):
    # The Galois key of each of the 384 translates loops over the units
    # modulo m = 30030; the fiber once did that before reaching the cap.
    start = time.perf_counter()
    code, out, err = invoke(capsys, ["fiber", "--type", "C", "--rank", "4",
                                     "--point", "zeta(30030)^1,1,1,1"])
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (3, "")
    assert "CYCLOTOMIC_DEGREE_CAP = 256" in err


def _exceptional(rank: int, edges) -> dict:
    # The simply connected datum: simple roots are the rows of the Cartan
    # matrix (Bourbaki numbering), and the simple coroots are the identity.
    cartan = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j in edges:
        cartan[i - 1][j - 1] = cartan[j - 1][i - 1] = -1
    return {"rank": rank, "simple_roots": cartan,
            "simple_coroots": [[int(i == j) for j in range(rank)] for i in range(rank)]}


def test_every_walk_over_w_reads_the_module_cap_when_called(monkeypatch, capsys):
    # |W(C4)| = 384: under a module cap of 100 the count of validate and
    # the walks of fiber and stabilizer all refuse it.
    monkeypatch.setattr(rootdata, "WEYL_ORDER_CAP", 100)
    datum = ["--type", "C", "--rank", "4"]
    for argv in (["validate", *datum], ["fiber", *datum, "--point", "2,3,5,7"],
                 ["stabilizer", *datum, "--point", "2,3,5,7"]):
        code, out, err = invoke(capsys, argv)
        assert (code, out) == (3, ""), argv
        assert err.startswith("resource cap exceeded: ") and "100" in err, argv


@pytest.mark.parametrize("command", ["fiber", "stabilizer"])
@pytest.mark.parametrize("rank", [7, 8])
def test_a_weyl_group_over_the_cap_is_refused_before_the_walk(tmp_path, capsys, command, rank):
    # |W(E7)| = 2,903,040 and |W(E8)| = 696,729,600 exceed WEYL_ORDER_CAP; the
    # walk over W once ran to the cap for about 50 s before refusing them.
    edges = [(1, 3), (2, 4)] + [(k, k + 1) for k in range(3, rank)]
    path = tmp_path / f"e{rank}.json"
    path.write_text(json.dumps(_exceptional(rank, edges)))
    start = time.perf_counter()
    code, out, err = invoke(capsys, [command, "--datum-file", str(path),
                                     "--point", ",".join(["1"] * (rank - 1) + ["2"])])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert err == "resource cap exceeded: group enumeration exceeded cap 1000000\n"
