"""Golden digest of the `character` command.

`character` prints a character's dimension and its rendered polynomial, so
this pins both the multiplicities of Freudenthal's formula and the text
form of `laurent.render`.  For every built-in (the 13 simply connected
types of the walk digests, in both variants) at every dominant weight of
its height-1 box, and at D4 `1,1,1,1`, one sha256 over argv, exit code and
stdout of all runs is pinned.  It was recorded while each string weight of
Freudenthal's formula was still read at its dominant representative and
before `render` joined its terms in one pass.
"""

import contextlib
import hashlib
import io

from test_walk_digests import SC_BUILTINS, VARIANTS

from repring.cli import run
from repring.invariants import dominant_weights_in_box
from repring.rootdata import standard_datum

GOLDEN = "30dd8df0a6d76ebd82b0c9a09d44d0613e24a7395163d2b274770fc9866fd40a"


def invocations():
    for label, rank in SC_BUILTINS:
        for variant in VARIANTS:
            datum = ["--type", label, "--rank", str(rank), "--variant", variant]
            for lam in dominant_weights_in_box(standard_datum(label, rank, variant), 1):
                yield ["character", *datum, f"--weight={','.join(map(str, lam))}"]
    yield ["character", "--type", "D", "--rank", "4", "--weight", "1,1,1,1"]


def digest() -> str:
    h = hashlib.sha256()
    for argv in invocations():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run(argv)
        h.update(f"{' '.join(argv)}\n{code}\n{out.getvalue()}".encode())
    return h.hexdigest()


def test_character_stdout_matches_the_recorded_digest():
    assert digest() == GOLDEN
