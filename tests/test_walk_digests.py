"""Golden digests of `fiber` and `stabilizer`, the two commands that read a
point's W-orbit.

`fiber` prints, for each Galois class of translates, the first translate
in sorted-W order, so the order in which W is closed must not change
which translate is printed; `stabilizer` prints the orders of three
groups.  The fiber walks W only where a Galois conjugate of the point
other than itself lies in its orbit, 9 of the 94 fibers here, so those
pin the walk and the rest the orbit.  For every built-in (all have |W| <= 384) in both variants, at
three seeded points, one of them rational, one cyclotomic in every
coordinate and one mixed, the sha256 of argv, exit code and stdout of
both commands is pinned, and so is `fiber` on D5 at two points.  Torsion
points whose Galois classes hold several translates, where the least
element of W decides which translate `fiber` prints, are pinned for both
commands and variants; `stabilizer` refuses the disconnected ones, and
is pinned also at connected points with torsion and a nontrivial
stabilizer.  The digests were recorded before the Weyl closure was keyed
by one reflected vector, those of D5 before the fiber's probe check was
packed into integers, and the torsion rows before W was walked by left
multiplication.  `fiber` on E6 from a datum file, at a point whose
51,840 members each used to be checked on probe invariants (17 s), is
pinned with a time bound, recorded before the members were compared with
the orbit of the point's rows instead.
"""

import contextlib
import hashlib
import io
import json
import random
import time
from math import gcd

from repring.cli import run
from repring.rootdata import standard_datum, weyl_order

# |W(D5)| = 1920, the largest walk of the tests; at zeta(512) each Galois
# key is a search over the units of Z/512.
D5_POINTS = ("zeta(3)^1,2,3,5,7", "zeta(512)^1,2,3,5,7")
# A1 zeta(3)^1 prints zeta(3)^2: the translate by -1, the least element.
TORSION_POINTS = [("A", 1, "zeta(3)^1"), ("C", 2, "1,zeta(4)^1"), ("C", 2, "1,zeta(2)^1"),
                  ("G", 2, "zeta(2)^1,1"), ("A", 1, "zeta(3)^1*2"), ("C", 2, "zeta(4)^1*2,1"),
                  ("G", 2, "zeta(2)^1*3,1")]
E6_POINT = "2,3,zeta(3)^1*5,1,1,7"
E6_DIGEST = "c889a0b277682abae5d91a9d480a2734f3638a83b0f688515f135ad12fa6f1da"
SC_BUILTINS = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
               ("C", 2), ("C", 3), ("C", 4), ("D", 3), ("D", 4), ("G", 2)]
VARIANTS = ("simply_connected", "adjoint")


def coordinate(rng, kind: str) -> str:
    """A point literal for one coordinate: "rational" has no root of unity,
    "cyclotomic" always has one, "mixed" draws either."""
    factors = []
    if kind == "cyclotomic" or (kind == "mixed" and rng.random() < 0.5):
        m = rng.choice([2, 3, 4, 5, 6, 8, 12])
        factors.append(f"zeta({m})^{rng.choice([a for a in range(1, m) if gcd(a, m) == 1])}")
    if kind == "rational" or rng.random() < 0.5:
        factors.append(rng.choice(["2", "3", "2^-1", "3/5", "5^2", "7/4", "6"]))
    return "*".join(factors) or "1"


def invocations():
    rng = random.Random(384)
    for label, rank in SC_BUILTINS:
        for variant in VARIANTS:
            datum = ["--type", label, "--rank", str(rank), "--variant", variant]
            for kind in ("rational", "cyclotomic", "mixed"):
                point = ",".join(coordinate(rng, kind) for _ in range(rank))
                for command in ("fiber", "stabilizer"):
                    yield f"{label}{rank}-{variant}", [command, *datum, "--point", point]
    for point in D5_POINTS:
        yield f"D5-{point}", ["fiber", "--type", "D", "--rank", "5", "--point", point]
    for label, rank, point in TORSION_POINTS:
        for variant in VARIANTS:
            for command in ("fiber", "stabilizer"):
                yield f"{label}{rank}-{point}", [command, "--type", label, "--rank", str(rank),
                                                 "--variant", variant, "--point", point]


def digests() -> dict[str, str]:
    """One sha256 per datum over argv, exit code and stdout of its runs."""
    hashes = {}
    for name, argv in invocations():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run(argv)
        h = hashes.setdefault(name, hashlib.sha256())
        h.update(f"{' '.join(argv)}\n{code}\n{out.getvalue()}".encode())
    return {name: h.hexdigest() for name, h in hashes.items()}


GOLDEN = {
    "A1-simply_connected": "1a4c23618090691565e5268c5faf63fedfa41fc8613308edf8b9b5242700f60b",
    "A1-adjoint": "c6343552bdc6e68743d4ed38ca71d1d2aa68bfa37218a280ff8a5c7861a91ea3",
    "A2-simply_connected": "4a6201ac4c287d2c709ec51ae3e18bd8c80a081be5e962f48c9622143379589c",
    "A2-adjoint": "4f4c423d9a86943048e78d3f4bd1d4a5e6ea42434e704c8ac61a19933e4c0f78",
    "A3-simply_connected": "370848da4c4a7db502cce35ce911331c2394ab0ee31bfa9eab7c7f4192eda340",
    "A3-adjoint": "361e3ab182e044a65fa959a4c764bc92d23bdac11296d069539ae190913b8a5b",
    "A4-simply_connected": "a1bef46d05f4f87179d25dc47d8f159ad04041c0a4d9263077e2d1c9764d469b",
    "A4-adjoint": "03b792f4cc8a8c9abc351eae794d08a850802fb07f3251c653fc8545cb20b6ee",
    "B2-simply_connected": "85d85526cfe8ac20a0890fdfc2f0265730d2459d379e039b0853ab6f3b092c90",
    "B2-adjoint": "a85cc9ca4411ae26bc4aa21eac760d4452514c92888820d4e4d3eadfacd435de",
    "B3-simply_connected": "e7f6ad57b20bd96c2258789024b317f04c896b261f1f89c3999eba23624665f6",
    "B3-adjoint": "139b1b849eb89d493f17f5a5d461a73a0c1e26e29ba4006ec75326cb2245665c",
    "B4-simply_connected": "60090897c972d79ac97fce964d1b317019ef094bf7e56274a022102f21a6ff4d",
    "B4-adjoint": "913931958fc7dc5e524d5e74b02f58902117dc504e785f8dbba3327b0c4119f2",
    "C2-simply_connected": "6d94735f371e1dcf7206613de47688eeef6c1de68bb4ee5969e0b33ea7f73b64",
    "C2-adjoint": "622aebf59852ce254f24dd6c36d9c822971d014fb5d694cd97dbf2b6cd8370b8",
    "C3-simply_connected": "ae45a6cca8d6c736831cae94d7e7d292d8c5164ca80791febb3b76bf47659ea8",
    "C3-adjoint": "da1dcd20395a22cc2b1078e4817fc7ea2cea5752ddcc45694c15dd58712ae9aa",
    "C4-simply_connected": "5ac38a60f3dd0775864f61f0a6d74e37f3eaeec6f7be10026cc6f1d0d93b6f72",
    "C4-adjoint": "5d7f981b8330e9cfc80666a3d6c3590933752277a41b418a9e138be22b3988fc",
    "D3-simply_connected": "94229b1b963acf68ee66dcd51615980b8d1de9e6ab394f892f4b8c62945b1e90",
    "D3-adjoint": "1f7c56fe1ba7d8f30df4af5c8fad10074a22ef038ca3ea3342ea3291f35c86c9",
    "D4-simply_connected": "21b7bae8bbe29994de1d2e4a7224608f07e32c640156be7f1e61460ecc61f912",
    "D4-adjoint": "b6dd47d0b5b2a327fa38ef489f1f7d37b47029de6bd21d2f1e20f306f38858dd",
    "G2-simply_connected": "e1a44a1d4f8aedd905e4bf80c779c710e4b8aa8a2c99c7d3ab7c28b517b7df94",
    "G2-adjoint": "c514e0dd708a7ed4c417be1c95170390e7ade7362cdb6841abdad519f944822c",
    "D5-zeta(3)^1,2,3,5,7": "9d679ff868744d90b3b827b46cf15832b68eefc6b43f8c7004b8a6cd0d133081",
    "D5-zeta(512)^1,2,3,5,7": "983acaa16da0e7370d894cb5fa01a4512ad2ff3dab8e017d39ef24c099fffb70",
    "A1-zeta(3)^1": "0f943271dba9a16af2f44e27dcb9418b924250f432d7bb4190269f68f73c32eb",
    "C2-1,zeta(4)^1": "9a9859ea6e5f6389be44ad4094ce506f44c62ce5d1ff44c1248297ecc756d378",
    "C2-1,zeta(2)^1": "46f2c1891381eefc0996c85bde62c27bc984eae237eb2aa8798b4dd66e0a3427",
    "G2-zeta(2)^1,1": "850f81a99e6231335bc3345fe6672bd886182201698da60d14d82d1c104fa719",
    "A1-zeta(3)^1*2": "7a283a5d3617ccbaa5de2e0f90b97f132b6f9bbe3a6b29f1427fd9f20489bc48",
    "C2-zeta(4)^1*2,1": "c11539ba6962b19fc1bfe0b68ff72d40d2a11137791bb5cb0d7017aff05d2c74",
    "G2-zeta(2)^1*3,1": "b821e00817cc20ffbdf8098f5398a8d0c3f9f0eeb85ea284dfdfad86f42793f6",
}


def test_every_builtin_is_small_enough_to_walk():
    assert all(weyl_order(standard_datum(label, rank, variant)) <= 384
               for label, rank in SC_BUILTINS for variant in VARIANTS)


def test_fiber_and_stabilizer_stdout_match_the_recorded_digests():
    assert digests() == GOLDEN


def write_e6(path) -> None:
    """Simply connected E6 as a datum file, Bourbaki's numbering: the Cartan
    rows as simple roots, identity coroots."""
    edges = {(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)}
    cartan = [[2 * (i == j) - ((i, j) in edges or (j, i) in edges) for j in range(6)]
              for i in range(6)]
    path.write_text(json.dumps({"rank": 6, "name": "E6", "simple_roots": cartan,
                                "simple_coroots": [[int(i == j) for j in range(6)]
                                                   for i in range(6)]}))


def test_the_e6_fiber_at_a_trivial_stabilizer_matches_its_digest_in_seconds(tmp_path):
    # The point's stabilizer is trivial and no Galois conjugate of it lies
    # in its orbit, so the fiber is the orbit of its rows, |W(E6)| = 51,840
    # members, and no W is walked; it takes about 1.5 s.
    path = tmp_path / "e6.json"
    write_e6(path)
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = run(["fiber", "--datum-file", str(path), "--point", E6_POINT])
    elapsed = time.perf_counter() - start
    assert code == 0 and json.loads(out.getvalue())["result"]["size"] == 51840
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == E6_DIGEST
    assert elapsed < 10.0, f"E6 fiber took {elapsed:.1f} s"
