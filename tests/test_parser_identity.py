"""The CLI parser against a reference built with every option declared.

`cli._build_parser` gives its subcommands `-h` and the datum options by
copying them from a parent parser.  The reference below declares every
option on every subcommand, each subcommand with its own `-h`, as the
parser did before it shared them.  For each argv both must give the same
exit code, stdout, stderr and parsed namespace (minus the handler).
"""

import argparse
import contextlib
import io

import pytest

from repring import cli

NAMES = ["pi1", "roots", "orbit", "support", "centralizer", "fiber",
         "stabilizer", "character", "twist-check", "nal-check", "validate"]


def reference_parser() -> argparse.ArgumentParser:
    parser = cli._Parser(
        prog="repring",
        description="Exact computations with root data and invariant rings.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, needs_point, extra in [
        ("pi1", False, []),
        ("roots", False, ["cap"]),
        ("orbit", False, ["weight"]),
        ("support", True, []),
        ("centralizer", True, []),
        ("fiber", True, []),
        ("stabilizer", True, []),
        ("character", False, ["weight"]),
        ("twist-check", True, ["height"]),
    ]:
        sub = subs.add_parser(name, add_help=True)
        cli._add_datum_args(sub)
        if needs_point:
            sub.add_argument("--point", required=True,
                             help="comma-separated coordinate literals")
        if "weight" in extra:
            sub.add_argument("--weight", required=True,
                             help="comma-separated integer weight")
        if "height" in extra:
            sub.add_argument("--height", type=int, default=2,
                             help="height bound for the checked orbit sums")
        if "cap" in extra:
            sub.add_argument("--cap", type=int, default=None,
                             help="enumeration cap override")
    nal = subs.add_parser("nal-check", add_help=True)
    nal.add_argument("--case", required=True,
                     help="JSON case file with presentations and restriction")
    nal.add_argument("--j-max", type=int, default=None,
                     help="override the truncation level bound from the case")
    val = subs.add_parser("validate", add_help=True)
    cli._add_datum_args(val)
    val.add_argument("--presentation-file", default=None,
                     help="JSON presentation to validate against the datum")
    val.add_argument("--height", type=int, default=2,
                     help="orbit-sum height bound for the spanning check")
    val.add_argument("--cap", type=int, default=None,
                     help="group enumeration cap override")
    return parser


def outcome(parser, argv):
    """(exit code, stdout, stderr, namespace) of parsing argv."""
    out, err = io.StringIO(), io.StringIO()
    code, space = 0, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            space = vars(parser.parse_args(argv))
        except SystemExit as exc:
            code = exc.code
    if space is not None:
        space.pop("handler", None)
    return code, out.getvalue(), err.getvalue(), space


DATUM = ["--type", "A", "--rank", "2"]
OWN = {"pi1": [], "roots": ["--cap", "5"], "orbit": ["--weight", "1,0"],
       "support": ["--point", "1,2"], "centralizer": ["--point", "1,2"],
       "fiber": ["--point", "1,2"], "stabilizer": ["--point", "1,2"],
       "character": ["--weight", "1,0"],
       "twist-check": ["--point", "1,2", "--height", "1"],
       "nal-check": ["--case", "c.json", "--j-max", "3"],
       "validate": ["--presentation-file", "p.json", "--height", "1",
                    "--cap", "9"]}
CASES = [[], ["-h"], ["--help"], ["bogus"], ["--type", "A"]]
for name in NAMES:
    CASES += [[name, "-h"], [name, "--help"], [name], [name, "--bogus=1"],
              [name, *OWN[name]], [name, *OWN[name], "--"],
              [name, *OWN[name], "extra"], [name, "-h", "--bogus"]]
    if name != "nal-check":
        CASES += [[name, *DATUM, *OWN[name]],
                  [name, "--datum-file", "d.json", "--variant", "adjoint",
                   *OWN[name]],
                  [name, *DATUM, "--variant", "other", *OWN[name]],
                  [name, "--rank", "two", *OWN[name]],
                  [name, "--ty", "B", "--ra", "2", *OWN[name]],
                  [name, "--type=--", *OWN[name]]]
for name in ["support", "centralizer", "fiber", "stabilizer", "twist-check"]:
    CASES += [[name, *DATUM, "--poi=1,2"], [name, *DATUM, "--point=--"],
              [name, *DATUM, "--point"], [name, *DATUM, "--point=", "--po", "3"]]
CASES += [["orbit", *DATUM, "--weight=--"], ["character", *DATUM, "--wei", "1,1"],
          ["twist-check", *DATUM, "--point", "2,3", "--height", "x"],
          ["twist-check", *DATUM, "--point", "2,3", "--height=-1"],
          ["validate", *DATUM, "--height", "x"], ["validate", *DATUM, "--cap", "x"],
          ["validate", *DATUM, "--pres", "p.json"], ["roots", *DATUM, "--cap", "x"],
          ["nal-check", "--case", "c.json", "--j-max", "x"],
          ["nal-check", "--j", "2", "--case=--"], ["nal-check", "--type", "A"],
          ["--", "pi1"], ["pi1", "--", "--type", "A"]]


@pytest.mark.parametrize("columns", ["80", "44"])
def test_shared_options_parse_as_declared_ones(monkeypatch, columns):
    monkeypatch.setenv("COLUMNS", columns)
    for argv in CASES:
        assert outcome(cli._build_parser(), argv) == \
            outcome(reference_parser(), argv), argv


def test_the_cases_reach_every_option_and_outcome():
    subparsers = reference_parser()._subparsers._group_actions[0].choices
    declared = {s for sub in subparsers.values() for action in sub._actions
                for s in action.option_strings}
    used = {s.partition("=")[0] for argv in CASES for s in argv}
    assert declared <= used
    assert {outcome(reference_parser(), argv)[0] for argv in CASES} == {0, 2}
