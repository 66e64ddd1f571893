"""The benchmark's workloads: seeded lists of CLI invocations, each with a
check of its parsed result against an independent oracle.

local   nal-check on the curated sl3 case at j_max 1..5.  Load on poly,
        groebner, completion and linalg; the op list is fixed.
orbits  the heavy ops of the ROADMAP baseline table.  Load on whole-group
        enumeration, alternating sums, translates and cyclotomic
        evaluation; no Groebner work at all.  The op list is fixed so its
        numbers continue that table.
sweep   a few hundred small ops drawn from the seed over the 13 simply
        connected built-ins of acceptance criterion 2 and their adjoint
        variants.  Per-call set-up dominates: argument parsing, datum
        construction, root and Weyl closure, small SNF/HNF, JSON output.
        Ops that enumerate a Weyl group are held to |W| <= 48 so that no
        single op dominates a pass.

The seed only picks points, weights and the order of ops in each pass;
the program receives nothing but the generated argv.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable

from oracles import (divides, is_dominant, nal_levels,
                     pi1_factors, root_count, support_connected,
                     weyl_dimension, weyl_order)

CASE = "cases/sl3_levi.json"

SC_BUILTINS = [("A", 1), ("A", 2), ("A", 3), ("A", 4),
               ("B", 2), ("B", 3), ("B", 4),
               ("C", 2), ("C", 3), ("C", 4),
               ("D", 3), ("D", 4), ("G", 2)]
VARIANTS = ("simply_connected", "adjoint")
HEIGHT = 2
# Held lower than HEIGHT and |W| <= 48 where one op would otherwise take
# more than a tenth of a pass: B3/C3 characters of height-2 weights, B3/C3
# fibers and rank-3 twist checks each reach 0.3-0.9 s.  G2 twist checks at
# high-order torsion (up to 0.26 s) are rare outliers that would set the
# tail by chance, so twist checks stop at |W| <= 8.  Each round also has
# the character of the largest weight of the height-1 box, the costliest
# small op, so the tail follows that fixed op class, not rare draws.
CHARACTER_HEIGHT = 1
SMALL_GROUP = 48
FIBER_GROUP = 24
TWIST_GROUP = 8
# Each datum's strata are drawn this many times per pass, so that the
# largest op stays well under a tenth of a pass.
ROUNDS = 2

# (result, results of the same pass by argv) -> problem, or None if it holds
Check = Callable[[dict, dict], "str | None"]


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    check: Check


def expect(**fields) -> Check:
    def check(result: dict, _pass: dict) -> str | None:
        bad = sorted(k for k, v in fields.items() if result.get(k) != v)
        return f"{', '.join(bad)} disagree with the oracle" if bad else None
    return check


def datum_args(letter: str, rank: int, variant: str) -> tuple[str, ...]:
    return ("--type", letter, "--rank", str(rank), "--variant", variant)


def weight_arg(weight) -> str:
    # The "=" form keeps argparse from reading a negative weight as a flag.
    return "--weight=" + ",".join(map(str, weight))


def render_point(torsion: list[Fraction], rational: list[dict[int, int]]) -> str:
    coords = []
    for t, exps in zip(torsion, rational):
        parts = [f"zeta({t.denominator})^{t.numerator}"] if t else []
        parts += [f"{p}^{e}" for p, e in sorted(exps.items())]
        coords.append("*".join(parts) or "1")
    return ",".join(coords)


def sample_point(rng: random.Random, rank: int):
    """The point distribution of the acceptance tests: each coordinate is
    a primitive root of unity of order 2..6 half the time, times powers
    2^a 3^b 5^c with each exponent nonzero (in +-1, +-2) with chance 0.4."""
    torsion, rational = [], []
    for _ in range(rank):
        if rng.random() < 0.5:
            m = rng.choice([2, 3, 4, 5, 6])
            torsion.append(Fraction(rng.choice([k for k in range(1, m) if gcd(k, m) == 1]), m))
        else:
            torsion.append(Fraction(0))
        rational.append({p: rng.choice([-2, -1, 1, 2])
                         for p in (2, 3, 5) if rng.random() < 0.4})
    return torsion, rational


def nal_op(j: int) -> Op:
    def check(result: dict, _pass: dict) -> str | None:
        if result.get("levels") != nal_levels(j):
            return "truncation levels differ from j(j+1)/2 on both sides"
        if not (result.get("all_passed") and result.get("restriction_valid")):
            return "comparison did not pass"
        return None
    return Op(("nal-check", "--case", CASE, "--j-max", str(j)), check)


def validate_op(letter: str, rank: int, variant: str) -> Op:
    return Op(("validate",) + datum_args(letter, rank, variant),
              expect(datum_ok=True, rank=rank,
                     roots_count=root_count(letter, rank),
                     weyl_order=weyl_order(letter, rank),
                     fundamental_group={"free_rank": 0, "invariant_factors":
                                        pi1_factors(letter, rank, variant)}))


def character_op(letter: str, rank: int, variant: str, weight) -> Op:
    return Op(("character",) + datum_args(letter, rank, variant)
              + (weight_arg(weight),),
              expect(dimension=weyl_dimension(letter, rank, variant, weight)))


def fiber_op(letter: str, rank: int, variant: str, point: str,
             stabilizer: tuple[str, ...] | None = None) -> Op:
    """Fiber over the invariant ring.  With a stabilizer op at the same
    point (connected support), check |fiber| * |Stab| = |W|; otherwise
    only that |fiber| divides |W|."""
    order = weyl_order(letter, rank)

    def check(result: dict, in_pass: dict) -> str | None:
        size = result.get("size")
        if len(result.get("points", ())) != size or not divides(size, order):
            return f"fiber size {size} does not divide |W| = {order}"
        if stabilizer is None:
            return None
        stab = in_pass[stabilizer]
        if size * stab["geometric_order"] != order:
            return f"|fiber| {size} * |Stab| {stab['geometric_order']} != |W| {order}"
        return None
    return Op(("fiber",) + datum_args(letter, rank, variant) + ("--point", point), check)


def stabilizer_op(letter: str, rank: int, variant: str, point: str) -> Op:
    order = weyl_order(letter, rank)

    def check(result: dict, _pass: dict) -> str | None:
        orders = {result.get(k) for k in ("geometric_order", "ideal_order", "subsystem_order")}
        if result.get("agree") is not True or len(orders) != 1:
            return "the three stabilizers disagree on a connected support"
        if not divides(orders.pop(), order):
            return f"stabilizer order does not divide |W| = {order}"
        return None
    return Op(("stabilizer",) + datum_args(letter, rank, variant) + ("--point", point), check)


def orbit_op(letter: str, rank: int, variant: str, weight) -> Op:
    order = weyl_order(letter, rank)

    def check(result: dict, _pass: dict) -> str | None:
        orbit = [tuple(v) for v in result.get("orbit", ())]
        dom = tuple(result.get("dominant_representative", ()))
        if len(orbit) != result.get("size") or len(set(orbit)) != len(orbit):
            return "orbit size does not match its distinct members"
        if tuple(weight) not in orbit or dom not in orbit:
            return "orbit misses the weight or its dominant representative"
        if not is_dominant(letter, rank, variant, dom) or not divides(len(orbit), order):
            return "dominant representative not dominant, or |orbit| does not divide |W|"
        return None
    return Op(("orbit",) + datum_args(letter, rank, variant)
              + (weight_arg(weight),), check)


def support_op(letter: str, rank: int, variant: str, torsion, rational) -> Op:
    return Op(("support",) + datum_args(letter, rank, variant)
              + ("--point", render_point(torsion, rational)),
              expect(connected=support_connected(torsion, rational)))


def centralizer_op(letter: str, rank: int, variant: str, point: str) -> Op:
    order, roots = weyl_order(letter, rank), root_count(letter, rank)

    def check(result: dict, _pass: dict) -> str | None:
        if not divides(result.get("weyl_order", 0), order) or len(result.get("roots", ())) > roots:
            return "centralizer is not a subsystem of the datum"
        return None
    return Op(("centralizer",) + datum_args(letter, rank, variant) + ("--point", point), check)


def local_ops(rng: random.Random) -> list[Op]:
    return [nal_op(j) for j in range(1, 6)]


def orbits_ops(rng: random.Random) -> list[Op]:
    return [character_op("D", 4, "simply_connected", (1, 1, 1, 1)),
            character_op("C", 4, "simply_connected", (1, 0, 0, 1)),
            validate_op("B", 5, "simply_connected"),
            validate_op("D", 5, "simply_connected"),
            fiber_op("C", 4, "simply_connected", "2,3,zeta(3)^1,1"),
            stabilizer_op("C", 4, "simply_connected", "1,1,2,3")]


def sweep_ops(rng: random.Random) -> list[Op]:
    """Stratified draw: the same number of ops of each subcommand on each
    datum for every seed, so that the seed moves points and weights but
    not the mix, and pass times stay comparable across seeds."""
    ops = []
    data = [(letter, rank, variant) for letter, rank in SC_BUILTINS for variant in VARIANTS]
    for letter, rank, variant in ROUNDS * data:
        dargs = datum_args(letter, rank, variant)
        order = weyl_order(letter, rank)
        ops.append(Op(("pi1",) + dargs, expect(free_rank=0, invariant_factors=
                                               pi1_factors(letter, rank, variant))))
        ops.append(Op(("roots",) + dargs, expect(count=root_count(letter, rank))))
        for _ in range(2):
            ops.append(orbit_op(letter, rank, variant, rng.choice(_box(rank, HEIGHT))))
            ops.append(support_op(letter, rank, variant, *sample_point(rng, rank)))
        if order > SMALL_GROUP:
            continue
        ops.append(validate_op(letter, rank, variant))
        dominant = [w for w in _box(rank, CHARACTER_HEIGHT)
                    if is_dominant(letter, rank, variant, w)]
        top = max(dominant, key=lambda w: weyl_dimension(letter, rank, variant, w))
        ops.append(character_op(letter, rank, variant, top))
        ops.append(character_op(letter, rank, variant, rng.choice(dominant)))
        for _ in range(2):
            ops.append(centralizer_op(letter, rank, variant,
                                      render_point(*sample_point(rng, rank))))
        if order > FIBER_GROUP:
            continue
        point = render_point(*connected_point(rng, rank))
        stab = stabilizer_op(letter, rank, variant, point)
        ops += [stab, fiber_op(letter, rank, variant, point, stab.argv)]
        if order > TWIST_GROUP:
            continue
        for _ in range(2):
            ops.append(Op(("twist-check",) + dargs
                          + ("--point", render_point(*sample_point(rng, rank)),
                             "--height", "1"),
                          expect(all_passed=True)))
    return ops


def connected_point(rng: random.Random, rank: int):
    while True:
        torsion, rational = sample_point(rng, rank)
        if support_connected(torsion, rational):
            return torsion, rational


def _box(rank: int, height: int) -> list[list[int]]:
    out = [[]]
    for _ in range(rank):
        out = [w + [x] for w in out for x in range(-height, height + 1)]
    return out


WORKLOADS = {"local": local_ops, "orbits": orbits_ops, "sweep": sweep_ops}
