"""The package ships what its subcommands run.

References that only the tests read live in the test oracles
(`groebner_oracle`, `reflection_oracle`, `series_oracle`), and
capabilities that nothing called, or that the dense series of
`completion` replaced, are gone.  No module of src/repring defines or imports one of
those names, the package exports none of them, and the import edges
that only they needed are gone: `completion` does not import `groebner`,
`laurent` does not import `lattice`, and only `__init__` imports
`groebner`, which no subcommand runs.
"""

import ast
import inspect
import pathlib

import repring
from repring.laurent import LaurentPoly
from repring.poly import Poly, monomial_values
from repring.spectrum import EvalPoint

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repring"

# Moved to tests/groebner_oracle.py, tests/reflection_oracle.py or
# tests/series_oracle.py (`_cut` as `cut`), or deleted.
GONE = {"point_ideal", "_value_to_z_poly", "make_elim_key", "substitute",
        "mat_inverse_unimodular", "mat_vec", "weyl_act", "character_dimension",
        "is_derived_simply_connected", "render_point", "proven_primes",
        "_cut", "_expand", "_series_inverse"}


def names_and_imports(path):
    """The names a module binds by def, class, assignment or import, and the
    repring modules it imports from."""
    bound, modules = set(), set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            bound.add(node.target.id)
        elif isinstance(node, ast.Assign):
            bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.ImportFrom):
            bound.update(alias.asname or alias.name for alias in node.names)
            if node.level:
                modules.update([node.module] if node.module
                               else [alias.name for alias in node.names])
            elif node.module.startswith("repring."):
                modules.add(node.module.split(".")[1])
    return bound, modules


def test_the_core_keeps_no_test_reference_and_no_dead_capability():
    imports = {}
    for path in sorted(SRC.glob("*.py")):
        bound, imports[path.stem] = names_and_imports(path)
        assert not bound & GONE, (path.name, sorted(bound & GONE))
    assert not GONE & set(dir(repring))
    assert not GONE & set(repring.__all__)
    for cls, member in [(Poly, "render"), (Poly, "substitute"), (Poly, "__pow__"),
                        (LaurentPoly, "__pow__")]:
        assert not hasattr(cls, member), (cls.__name__, member)
    assert list(inspect.signature(EvalPoint).parameters) == ["torsion", "rational"]
    assert "cut" not in inspect.signature(monomial_values).parameters
    assert "groebner" not in imports["completion"]
    assert "lattice" not in imports["laurent"]
    assert [name for name, mods in imports.items() if "groebner" in mods] == ["__init__"]
