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
from fractions import Fraction

from .completion import load_case_config, local_isomorphism_check, \
    presentation_from_config, validate_presentation
from .errors import ResourceCapError
from .invariants import dominant_weights_in_box, orbit_sum, weyl_character
from .lattice import FinAbGroup, Sublattice
from .laurent import augmentation, render
from .rootdata import (RootDatum, all_roots, centralizer_subsystem,
                       datum_from_dict, dominant_representative,
                       fundamental_group, orbit, standard_datum, weyl_order)
from .spectrum import (fiber_over_RG, parse_point, render_point,
                       stabilizer_check, support)
from .twist import twist_augmentation_check, twist_multiplicativity_check


def _group_doc(g: FinAbGroup) -> dict:
    return {"free_rank": g.free_rank,
            "invariant_factors": list(g.invariant_factors)}


def _lattice_doc(s: Sublattice) -> list[list[int]]:
    return [list(row) for row in s.hnf_rows]


def _resolve_datum(args) -> RootDatum:
    file_given = getattr(args, "datum_file", None) is not None
    type_given = getattr(args, "type", None) is not None
    if file_given and type_given:
        raise ValueError("give either --type/--rank or --datum-file, not both")
    if file_given:
        with open(args.datum_file, encoding="utf-8") as fh:
            return datum_from_dict(json.load(fh))
    if not type_given:
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
        sub = subs.add_parser(name)
        _add_datum_args(sub)
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
    nal.add_argument("--case", required=True,
                     help="JSON case file with presentations and restriction")
    nal.add_argument("--j-max", type=int, default=None,
                     help="override the truncation level bound from the case")

    val = subs.add_parser("validate")
    _add_datum_args(val)
    val.add_argument("--presentation-file", default=None,
                     help="JSON presentation to validate against the datum")
    val.add_argument("--height", type=int, default=2,
                     help="orbit-sum height bound for the spanning check")
    val.add_argument("--cap", type=int, default=None,
                     help="group enumeration cap override")
    return parser


def _under_cap(d: RootDatum, cap: int | None, *readers) -> list:
    """Each reader's value on d under the --cap override, which a cap error names."""
    try:
        return [read(d) if cap is None else read(d, cap) for read in readers]
    except ResourceCapError as exc:
        if cap is None:
            raise
        raise ResourceCapError(f"{exc} (--cap = {cap})") from None


def _cmd_pi1(args) -> tuple[dict, dict]:
    d = _resolve_datum(args)
    return {"datum": d.name}, _group_doc(fundamental_group(d))


def _cmd_roots(args) -> tuple[dict, dict]:
    d = _resolve_datum(args)
    pairs, = _under_cap(d, args.cap, all_roots)
    return {"datum": d.name}, {
        "count": len(pairs),
        "roots": [list(a) for a, _ in pairs],
        "coroots": [list(av) for _, av in pairs],
    }


def _cmd_orbit(args) -> tuple[dict, dict]:
    d = _resolve_datum(args)
    w = _parse_weight(args.weight, d.rank)
    pts = orbit(d, w)
    return {"datum": d.name, "weight": args.weight}, {
        "size": len(pts),
        "orbit": [list(v) for v in pts],
        "dominant_representative": list(dominant_representative(d, w)),
    }


def _cmd_support(args) -> tuple[dict, dict]:
    d = _resolve_datum(args)
    p = parse_point(args.point, d.rank)
    desc = support(p)
    return {"datum": d.name, "point": args.point}, {
        "connected": desc.connected,
        "kernel_lattice": _lattice_doc(desc.kernel_lattice),
        "quotient": _group_doc(desc.quotient),
    }


def _cmd_centralizer(args) -> tuple[dict, dict]:
    d = _resolve_datum(args)
    p = parse_point(args.point, d.rank)
    desc = support(p)
    levi = centralizer_subsystem(d, desc.kernel_lattice)
    return {"datum": d.name, "point": args.point}, {
        "roots": [list(r) for r in levi.roots],
        "base_roots": [list(r) for r in levi.datum.simple_roots],
        "weyl_order": weyl_order(levi.datum),
        "saturation_applied": levi.saturation_applied,
    }


def _cmd_fiber(args) -> tuple[dict, dict]:
    d = _resolve_datum(args)
    p = parse_point(args.point, d.rank)
    points = fiber_over_RG(d, p)
    return {"datum": d.name, "point": args.point}, {
        "size": len(points),
        "points": sorted(map(render_point, points)),
    }


def _cmd_stabilizer(args) -> tuple[dict, dict]:
    d = _resolve_datum(args)
    p = parse_point(args.point, d.rank)
    report = stabilizer_check(d, p)
    return {"datum": d.name, "point": args.point}, {
        "geometric_order": report.geometric.order,
        "ideal_order": report.ideal.order,
        "subsystem_order": report.subsystem.order,
        "agree": report.agree,
    }


def _cmd_character(args) -> tuple[dict, dict]:
    d = _resolve_datum(args)
    w = _parse_weight(args.weight, d.rank)
    chi = weyl_character(d, w)
    dim = augmentation(chi)
    assert Fraction(dim).denominator == 1
    return {"datum": d.name, "weight": args.weight}, {
        "dimension": int(dim),
        "character": render(chi),
    }


def _cmd_twist_check(args) -> tuple[dict, dict]:
    d = _resolve_datum(args)
    p = parse_point(args.point, d.rank)
    if args.height < 0:
        raise ValueError("height bound must be nonnegative")
    polys = [orbit_sum(d, w) for w in dominant_weights_in_box(d, args.height)]
    ok = all(twist_augmentation_check(f, p) for f in polys)
    if ok:
        ok = all(twist_multiplicativity_check(polys[i], polys[j], p)
                 for i in range(len(polys)) for j in range(i, len(polys)))
    echo = {"datum": d.name, "point": args.point, "height": args.height}
    return echo, {"all_passed": ok}


def _cmd_nal_check(args) -> tuple[dict, dict]:
    case = load_case_config(args.case)
    j_max = args.j_max if args.j_max is not None else case["j_max"]
    report = local_isomorphism_check(case["datum"], case["point"],
                                     case["source"], case["target"],
                                     case["restriction"], j_max)
    echo = {"case": args.case, "datum": case["datum"].name, "j_max": j_max}
    return echo, {
        "all_passed": report.all_passed,
        "restriction_valid": report.restriction_valid,
        "levels": [{
            "level": lv.level,
            "dim_source": lv.dim_source,
            "dim_target": lv.dim_target,
            "surjective": lv.surjective,
            "isomorphic": lv.isomorphic,
        } for lv in report.levels],
    }


def _cmd_validate(args) -> tuple[dict, dict]:
    d = _resolve_datum(args)
    pairs, order = _under_cap(d, args.cap, all_roots, weyl_order)
    echo = {"datum": d.name}
    result = {
        "datum_ok": True,
        "rank": d.rank,
        "roots_count": len(pairs),
        "weyl_order": order,
        "fundamental_group": _group_doc(fundamental_group(d)),
    }
    if args.presentation_file:
        echo["presentation_file"] = args.presentation_file
        echo["height"] = args.height
        with open(args.presentation_file, encoding="utf-8") as fh:
            cfg = json.load(fh)
        pres = presentation_from_config(cfg, d)
        rep = validate_presentation(pres, d, args.height)
        result["presentation"] = {
            "images_invariant": rep.images_invariant,
            "relations_vanish": rep.relations_vanish,
            "spans_orbit_sums": rep.spans_orbit_sums,
            "degree_bound": rep.degree_bound,
            "all_passed": rep.all_passed,
        }
    return echo, result


_HANDLERS = {
    "pi1": _cmd_pi1,
    "roots": _cmd_roots,
    "orbit": _cmd_orbit,
    "support": _cmd_support,
    "centralizer": _cmd_centralizer,
    "fiber": _cmd_fiber,
    "stabilizer": _cmd_stabilizer,
    "character": _cmd_character,
    "twist-check": _cmd_twist_check,
    "nal-check": _cmd_nal_check,
    "validate": _cmd_validate,
}


def run(argv: list[str]) -> int:
    """Execute one command; print JSON on success and return the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return 0 if code == 0 else 2
    for name, value in vars(args).items():
        if isinstance(value, list):  # argparse before 3.13 reads "--opt=--" as []
            print(f"invalid input: --{name.replace('_', '-')} cannot take the value '--'",
                  file=sys.stderr)
            return 2
    try:
        echo, result = _HANDLERS[args.command](args)
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
