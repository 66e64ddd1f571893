"""The fiber on the point's orbit: where W is walked and where it is not.

The fiber over p is the W-orbit of p up to Galois conjugation.  W acts on
the point's rows linearly and commutes with each sigma_k, so two orbit
points share a Galois class exactly when a conjugate sigma_k(p) != p lies
in the orbit.  fiber_over_RG returns the orbit itself where no such
conjugate does, and walks W otherwise.  The criterion is checked against
the classes of the per-element walk over full points (tests/orbit_oracle.py)
at seeded points of torsion order 2-12, and the mechanism by making every
walk over W raise: the fiber still answers, and equals the oracle, at the
`orbits` benchmark's C4 point, at the E6 point of the walk digests and at
seeded rational points.
"""

import contextlib
import hashlib
import io
import random
from fractions import Fraction
from math import gcd

import pytest
from orbit_oracle import fiber_points, galois_key, translates
from test_spectrum import SMALL_BUILTINS
from test_walk_digests import E6_DIGEST, E6_POINT, write_e6

from repring import spectrum
from repring.cli import run
from repring.rootdata import row_orbit, standard_datum, weyl_order
from repring.spectrum import EvalPoint, _conjugates_in_orbit, fiber_over_RG, parse_point

def torsion_point(rng, rank: int, rational: bool) -> EvalPoint:
    """A seeded point of torsion order m, 2 <= m <= 12, with exponents of
    2, 3 and 5 on some coordinates if rational is set."""
    m = rng.randint(2, 12)
    numerators = [0] * rank
    while gcd(m, *numerators) != 1:
        numerators = [rng.randrange(m) for _ in range(rank)]
    exponents = [{q: rng.choice([-2, -1, 1, 2]) for q in (2, 3, 5)
                  if rational and rng.random() < 0.3} for _ in range(rank)]
    return EvalPoint.from_parts([Fraction(a, m) for a in numerators], exponents)


def conjugates_in_orbit(d, p) -> int:
    m, zeta_row, prime_rows = p
    return _conjugates_in_orbit(p, row_orbit(d, (zeta_row, *(r for _, r in prime_rows)), m))


def test_the_fiber_is_the_orbit_exactly_when_no_other_conjugate_lies_in_it():
    # The count of p's conjugates in its orbit is the size of p's class
    # among the walk's translates, and it is 1 exactly when every class
    # holds one translate; both outcomes occur.
    rng = random.Random(2412)
    outcomes = []
    for label, rank, variant in SMALL_BUILTINS:
        d = standard_datum(label, rank, variant)
        assert weyl_order(d) <= 384
        for rational in (False, True):
            p = torsion_point(rng, rank, rational)
            assert 2 <= p.m <= 12
            classes: dict = {}
            for _, q in translates(d, p):
                classes.setdefault(galois_key(q), set()).add(q)
            count = conjugates_in_orbit(d, p)
            assert count == len(classes[galois_key(p)])
            assert (count == 1) == all(len(points) == 1 for points in classes.values())
            outcomes.append(count == 1)
    assert True in outcomes and False in outcomes


@pytest.fixture
def no_walk(monkeypatch):
    """Every walk over W the fiber could start raises."""
    def refuse(*args, **kwargs):
        raise AssertionError("W was walked")

    monkeypatch.setattr(spectrum, "weyl_walk", refuse)


def test_the_benchmarks_c4_fiber_walks_no_w(no_walk):
    d, p = standard_datum("C", 4), parse_point("2,3,zeta(3)^1,1", 4)
    assert fiber_over_RG(d, p) == sorted(fiber_points(d, p))
    assert len(fiber_over_RG(d, p)) == weyl_order(d)


def test_seeded_rational_fibers_walk_no_w(no_walk):
    rng = random.Random(1224)
    for label, rank, variant in SMALL_BUILTINS:
        d = standard_datum(label, rank, variant)
        if weyl_order(d) > 48:
            continue
        p = EvalPoint.from_parts([0] * rank, [{q: rng.choice([-2, -1, 1, 2]) for q in (2, 3, 5)
                                               if rng.random() < 0.4} for _ in range(rank)])
        assert fiber_over_RG(d, p) == sorted(fiber_points(d, p))


def test_the_e6_fiber_walks_no_w(no_walk, tmp_path):
    path = tmp_path / "e6.json"
    write_e6(path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(["fiber", "--datum-file", str(path), "--point", E6_POINT])
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == E6_DIGEST
