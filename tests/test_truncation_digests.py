"""Golden digests of `nal-check`, the command that compares truncations.

Every level's dimensions and `surjective` flag come from exact ranks of
the shifted Macaulay echelons, so a change in how those ranks are
computed must leave stdout byte for byte the same.  The sha256 of argv,
exit code and stdout is pinned for the curated sl3 case at every j_max
from 1 to 17, and for case files at points with a root-of-unity
coordinate: sl2 onto its torus in rank one (one valid and one wrong
restriction), sl3 at a regular point onto the rank-two torus, and a
line through that point whose value is rational while the torus's are
not, so no level is surjective.  One more case maps sl2 onto its torus
at the central point 1, where y1 - 2 goes into m^2, so only level one
is reached.  Every case file, the curated one copied, is written to a
temporary directory and named relative to it, so the path echoed on
stdout is the same on every run.  The digests up to j_max 12 were
recorded before the truncations' row spaces were kept in integers, and
those of j_max 13 to 17, the levels up to MACAULAY_COLUMN_CAP, before
the shifted series were held as dense integer coefficient vectors.
"""

import contextlib
import hashlib
import io
import json
import pathlib

import pytest

from repring.cli import run

SL3_CASE = pathlib.Path(__file__).resolve().parent.parent / "cases" / "sl3_levi.json"

SL2 = {"images": [{"orbit_sum": [1]}]}
T1 = {"images": [{"monomial": [1]}], "inverted": [1]}
SL3 = {"images": [{"orbit_sum": [1, 0]}, {"orbit_sum": [0, 1]}]}
T2 = {"images": [{"monomial": [1, 0]}, {"monomial": [0, 1]}], "inverted": [1, 2]}

CASES = {
    "a1_zeta5.json": {"datum": {"type": "A", "rank": 1}, "point": ["zeta(5)^2*2"],
                      "source_presentation": SL2, "target_presentation": T1,
                      "restriction": ["y1 + u1"], "j_max": 5},
    "a1_zeta3_wrong.json": {"datum": {"type": "A", "rank": 1}, "point": ["zeta(3)^1*2"],
                            "source_presentation": SL2, "target_presentation": T1,
                            "restriction": ["y1"], "j_max": 4},
    "a2_zeta3.json": {"datum": {"type": "A", "rank": 2},
                      "point": ["zeta(3)^1*2", "zeta(3)^2*3"],
                      "source_presentation": SL3, "target_presentation": T2,
                      "restriction": ["y1 + u1*y2 + u2", "y2 + y1*u2 + u1"], "j_max": 4},
    "a2_line_zeta3.json": {"datum": {"type": "A", "rank": 2},
                           "point": ["zeta(3)^1*2", "zeta(3)^2*3"],
                           "source_presentation": {"images": [{"monomial": [1, 1]}],
                                                   "inverted": [1]},
                           "target_presentation": T2, "restriction": ["y1*y2"], "j_max": 3},
    "a1_central.json": {"datum": {"type": "A", "rank": 1}, "point": ["1"],
                        "source_presentation": SL2, "target_presentation": T1,
                        "restriction": ["y1 + u1"], "j_max": 4},
}


def invocations():
    for j in range(1, 18):
        yield f"sl3_levi-j{j}", ["nal-check", "--case", "sl3_levi.json", "--j-max", str(j)]
    for name in CASES:
        yield name, ["nal-check", "--case", name]


def digest(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    return hashlib.sha256(f"{' '.join(argv)}\n{code}\n{out.getvalue()}".encode()).hexdigest()


GOLDEN = {
    "sl3_levi-j1": "6262aee73da0803a333f6920e52ee9d98c464c73fe6dfa29b34911280fca3e3d",
    "sl3_levi-j2": "82c2cf701fbcb31c4a3dde082eca47774f0972751d2f3d9dfb2155a03eb116f2",
    "sl3_levi-j3": "f4a0e107bca57c4971a7ed8932b43d01597e0951f3cda5cff8edcaef7dc58f0d",
    "sl3_levi-j4": "7d66cf854b265a5ed1f39e1c2f7736974db02cbd0c62668281cccedcf9594a1f",
    "sl3_levi-j5": "a2a7421a8f3d783fc4439d016f63f30e97929903f2fb1daf340684934a34a785",
    "sl3_levi-j6": "24eba36f568e98a8fdae0e37b80e3ec173f6cf688f64068bdfa08baa142c8a0d",
    "sl3_levi-j7": "51791119c871e03085aad0633176a66a7245975797995e0bc64cea09cf4e8758",
    "sl3_levi-j8": "a7faa2d97edbc97d9638c7360f22047a5a64d9fd2cced345dcdeeb73f71cb0d2",
    "sl3_levi-j9": "6d629ffd9cec2c3d7c49c12606a8b17d49f0ad6e33b5b4d4f4c8dde7b5d5f749",
    "sl3_levi-j10": "b0b0d05909307bdb5477c93b21eaf6581589864829027c4043cc18830d78927b",
    "sl3_levi-j11": "2984a58970a5d5cacb194126348ab59378fcb9aba8facff55c092c682f344813",
    "sl3_levi-j12": "2bb2a114d4331c55a506998ca069d5a8de08003368c05d485e10b5d04bc2d272",
    "sl3_levi-j13": "98b79c891a0ae40dfeef535eee79d04b93afa799a3b048abaab760a890a85283",
    "sl3_levi-j14": "445a93faf5fcef7c99b55711d0a9281a690c40d486572b857bcc7449d0d9cad5",
    "sl3_levi-j15": "ce4ad7935e7198f17e08891b5895f6050915850118039334f2df008e25542daa",
    "sl3_levi-j16": "91d97a3a27fa1616e95e3b268287799cdc789f60a1e09aad082416df77dd1d8b",
    "sl3_levi-j17": "30b2aad10d4d72caa10429b8154068f5c6ab91fbd9d2bd95751344bd8a45826f",
    "a1_zeta5.json": "e033baa861db915d035d65ba142eb60418a769e0e645fcc8023502f8ede4b45b",
    "a1_zeta3_wrong.json": "9909ff9738c4b728429edea02f3a4b38cfaeeb799ffd4fb3b0898ea5d728d6df",
    "a2_zeta3.json": "645e429da2ab8605b3b0b741ec88708b407ea15de264b20fceb4a6adfc820e16",
    "a2_line_zeta3.json": "2ccdbc9fc3b4ca2b3b81c9e002eb3987e99333f3e9a5470d25edf20e4683392d",
    "a1_central.json": "09b7642b5da34c982249fd3b206d5d4f92bf2c48bf43cf726bb7d0ea293666e3",
}


@pytest.fixture
def case_dir(tmp_path, monkeypatch):
    (tmp_path / "sl3_levi.json").write_text(SL3_CASE.read_text(encoding="utf-8"),
                                            encoding="utf-8")
    for name, case in CASES.items():
        (tmp_path / name).write_text(json.dumps(case), encoding="utf-8")
    monkeypatch.chdir(tmp_path)


def test_nal_check_stdout_matches_the_recorded_digests(case_dir):
    got = {name: digest(argv) for name, argv in invocations()}
    assert got == GOLDEN
