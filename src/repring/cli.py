"""Command-line front end emitting deterministic JSON reports.

Every subcommand prints one JSON document {"command", "inputs_echo",
"result"} with sorted keys and no whitespace, so identical inputs give
byte-identical output.  Exit codes: 0 success, 2 invalid input (with a
diagnostic on standard error), 3 a resource cap was hit.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from fractions import Fraction

from .completion import load_case_config, local_isomorphism_check, \
    presentation_from_config, validate_presentation
from .errors import ResourceCapError
from .invariants import dominant_weights_in_box, orbit_sum, weyl_character
from .lattice import FinAbGroup
from .laurent import augmentation, render
from .rootdata import (RootDatum, all_roots, centralizer_subsystem,
                       datum_from_dict, dominant_representative,
                       fundamental_group, orbit, standard_datum, weyl_order)
from .spectrum import (EvalPoint, fiber_over_RG, parse_point, render_rows,
                       stabilizer_check, support)
from .twist import twist_check


def _group_doc(g: FinAbGroup) -> dict:
    return {"free_rank": g.free_rank,
            "invariant_factors": g.invariant_factors}


def _resolve_datum(args) -> RootDatum:
    if args.datum_file is not None and args.type is not None:
        raise ValueError("give either --type/--rank or --datum-file, not both")
    if args.datum_file is not None:
        with open(args.datum_file, encoding="utf-8") as fh:
            return datum_from_dict(json.load(fh))
    if args.type is None:
        raise ValueError("no datum given: use --type with --rank, or --datum-file")
    if args.rank is None:
        raise ValueError("--type needs --rank")
    return standard_datum(args.type, args.rank, args.variant)


def _parse_weight(text: str, rank: int) -> list[int]:
    parts = [p.strip() for p in text.split(",")] if text or rank else []
    if len(parts) != rank:
        raise ValueError(f"weight needs {rank} comma-separated integers")
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise ValueError(f"weight entries must be integers, got {text!r}") from None


def _add_datum_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--type", help="Cartan type letter: A, B, C, D, or G")
    sub.add_argument("--rank", type=int, help="rank of the built-in datum")
    sub.add_argument("--variant", default="simply_connected",
                     choices=["simply_connected", "adjoint"],
                     help="which built-in lattice to use")
    sub.add_argument("--datum-file", help="JSON file with a custom root datum")


def _under_cap(d: RootDatum, cap: int | None, *readers) -> list:
    """Each reader's value on d under the --cap override, which a cap error names."""
    if cap is not None and cap < 0:
        raise ValueError(f"--cap must be nonnegative, got {cap}")
    try:
        return [read(d) if cap is None else read(d, cap) for read in readers]
    except ResourceCapError as exc:
        if cap is None:
            raise
        raise ResourceCapError(f"{exc} (--cap = {cap})") from None


def _pi1(d: RootDatum, _, args) -> dict:
    return _group_doc(fundamental_group(d))


def _roots(d: RootDatum, _, args) -> dict:
    pairs, = _under_cap(d, args.cap, all_roots)
    return {"count": len(pairs), "roots": [a for a, _ in pairs],
            "coroots": [av for _, av in pairs]}


def _orbit(d: RootDatum, w: list[int], args) -> dict:
    pts = orbit(d, w)
    return {
        "size": len(pts),
        "orbit": pts,
        "dominant_representative": dominant_representative(d, w),
    }


def _support(d: RootDatum, p: EvalPoint, args) -> dict:
    desc = support(p)
    return {"connected": desc.connected, "quotient": _group_doc(desc.quotient),
            "kernel_lattice": desc.kernel_lattice.hnf_rows}


def _centralizer(d: RootDatum, p: EvalPoint, args) -> dict:
    levi = centralizer_subsystem(d, support(p).kernel_lattice)
    return {
        "roots": levi.roots,
        "base_roots": levi.datum.simple_roots,
        "weyl_order": weyl_order(levi.datum),
        "saturation_applied": levi.saturation_applied,
    }


def _fiber(d: RootDatum, p: EvalPoint, args) -> dict:
    members = fiber_over_RG(d, p)
    return {"size": len(members), "points": sorted(map(render_rows, members))}


def _stabilizer(d: RootDatum, p: EvalPoint, args) -> dict:
    return asdict(stabilizer_check(d, p))


def _character(d: RootDatum, w: list[int], args) -> dict:
    chi = weyl_character(d, w)
    dim = augmentation(chi)
    assert Fraction(dim).denominator == 1
    return {"dimension": int(dim), "character": render(chi)}


def _twist_check(d: RootDatum, p: EvalPoint, args) -> dict:
    if args.height < 0:
        raise ValueError("height bound must be nonnegative")
    polys = [orbit_sum(d, w) for w in dominant_weights_in_box(d, args.height)]
    return {"all_passed": twist_check(polys, p)}


def _nal_check(case: dict, j_max: int, args) -> dict:
    report = local_isomorphism_check(case["datum"], case["point"],
                                     case["source"], case["target"],
                                     case["restriction"], j_max, case["levi"])
    return {
        "all_passed": report.all_passed,
        "restriction_valid": report.restriction_valid,
        "levels": [{**asdict(lv), "isomorphic": lv.isomorphic} for lv in report.levels],
    }


def _validate(d: RootDatum, _, args) -> dict:
    pairs, order = _under_cap(d, args.cap, all_roots, weyl_order)
    result = {
        "datum_ok": True,
        "rank": d.rank,
        "roots_count": len(pairs),
        "weyl_order": order,
        "fundamental_group": _group_doc(fundamental_group(d)),
    }
    if args.presentation_file:
        with open(args.presentation_file, encoding="utf-8") as fh:
            cfg = json.load(fh)
        pres = presentation_from_config(cfg, d)
        result["presentation"] = asdict(validate_presentation(pres, d, args.height))
    return result


_DASHES = object()


class _Parser(argparse.ArgumentParser):
    """Reads the option value "--" (as in --point=--) as _DASHES on every
    Python, where argparse before 3.13 reads [] and 3.13 the string "--"."""

    def _get_values(self, action, arg_strings):
        if action.option_strings and arg_strings == ["--"]:
            return _DASHES
        return super()._get_values(action, arg_strings)


def _build_parser() -> argparse.ArgumentParser:
    # Subcommands copy -h and the datum options, each action built once.
    datum = argparse.ArgumentParser()
    _add_datum_args(datum)
    parser = _Parser(
        prog="repring",
        description="Exact computations with root data and invariant rings.")
    subs = parser.add_subparsers(dest="command", required=True)

    for name, handler, needs_point, extra in [
        ("pi1", _pi1, False, []),
        ("roots", _roots, False, ["cap"]),
        ("orbit", _orbit, False, ["weight"]),
        ("support", _support, True, []),
        ("centralizer", _centralizer, True, []),
        ("fiber", _fiber, True, []),
        ("stabilizer", _stabilizer, True, []),
        ("character", _character, False, ["weight"]),
        ("twist-check", _twist_check, True, ["height"]),
    ]:
        sub = subs.add_parser(name, parents=[datum], add_help=False)
        sub.set_defaults(handler=handler)
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

    nal = subs.add_parser("nal-check")
    nal.set_defaults(handler=_nal_check)
    nal.add_argument("--case", required=True,
                     help="JSON case file with presentations and restriction")
    nal.add_argument("--j-max", type=int, default=None,
                     help="override the truncation level bound from the case")

    val = subs.add_parser("validate", parents=[datum], add_help=False)
    val.set_defaults(handler=_validate)
    val.add_argument("--presentation-file", default=None,
                     help="JSON presentation to validate against the datum")
    val.add_argument("--height", type=int, default=2,
                     help="orbit-sum height bound for the spanning check")
    val.add_argument("--cap", type=int, default=None,
                     help="group enumeration cap override")
    return parser


def _dispatch(args) -> tuple[dict, dict]:
    """The inputs echo and the result of one parsed command.  Inputs are read
    in one order, so the first bad one is the one reported: the datum (for
    nal-check, the case file), then the point or the weight, then the
    command's own options, read by its handler.  A handler is called with
    the datum (the case), the point or weight or None (j_max) and args."""
    for name, value in vars(args).items():
        if value is _DASHES:
            raise ValueError(f"--{name.replace('_', '-')} cannot take the value '--'")
    if "case" in args:
        case = load_case_config(args.case)
        j_max = case["j_max"] if args.j_max is None else args.j_max
        echo = {"case": args.case, "datum": case["datum"].name, "j_max": j_max}
        return echo, args.handler(case, j_max, args)
    d = _resolve_datum(args)
    echo, value = {"datum": d.name}, None
    if "point" in args:
        echo["point"], value = args.point, parse_point(args.point, d.rank)
    if "weight" in args:
        echo["weight"], value = args.weight, _parse_weight(args.weight, d.rank)
    # validate reads --height only together with --presentation-file.
    if "height" in args and vars(args).get("presentation_file", True):
        echo["height"] = args.height
    if vars(args).get("presentation_file"):
        echo["presentation_file"] = args.presentation_file
    return echo, args.handler(d, value, args)


def run(argv: list[str]) -> int:
    """Execute one command; print JSON on success and return the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    try:
        echo, result = _dispatch(args)
    except ResourceCapError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    doc = {"command": args.command, "inputs_echo": echo, "result": result}
    print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
