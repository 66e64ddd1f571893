"""Tests of the benchmark itself: its oracles, its tracer and its contract.

Run with `python -m pytest bench` from the repository root.  The oracles
are compared with known values and, as a cross-check only, with repring.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import SC_BUILTINS, VARIANTS, sample_point  # noqa: E402

import repring.cli as cli  # noqa: E402
from repring.rootdata import standard_datum  # noqa: E402
from repring.spectrum import EvalPoint, support  # noqa: E402


def test_closed_forms_match_known_values():
    assert oracles.weyl_order("D", 4) == 192
    assert oracles.weyl_order("B", 5) == 3840
    assert oracles.weyl_order("C", 4) == 384
    assert oracles.weyl_order("A", 3) == 24
    assert oracles.weyl_order("G", 2) == 12
    assert oracles.root_count("D", 5) == 40
    assert oracles.root_count("B", 5) == 50
    assert oracles.root_count("G", 2) == 12


def test_positive_coroots_count_half_the_roots():
    for letter, rank in SC_BUILTINS + [("B", 5), ("D", 5)]:
        assert 2 * len(oracles.positive_coroots(letter, rank)) == oracles.root_count(letter, rank)


def test_weyl_dimension_known_representations():
    sc = "simply_connected"
    assert oracles.weyl_dimension("A", 2, sc, (1, 1)) == 8
    assert oracles.weyl_dimension("A", 3, sc, (0, 1, 0)) == 6
    assert oracles.weyl_dimension("B", 3, sc, (0, 0, 1)) == 8
    assert oracles.weyl_dimension("C", 2, sc, (1, 0)) == 4
    assert oracles.weyl_dimension("D", 4, sc, (0, 0, 0, 1)) == 8
    assert sorted(oracles.weyl_dimension("G", 2, sc, w) for w in [(1, 0), (0, 1)]) == [7, 14]
    # the adjoint datum is written in root coordinates: alpha_1 + alpha_2 is the highest root of A2
    assert oracles.weyl_dimension("A", 2, "adjoint", (1, 1)) == 8


def test_cartan_and_pi1_agree_with_the_builtins():
    for letter, rank in SC_BUILTINS:
        d = standard_datum(letter, rank)
        assert [list(r) for r in d.simple_roots] == oracles.cartan(letter, rank)
        for variant in VARIANTS:
            out = _cli(["pi1", "--type", letter, "--rank", str(rank), "--variant", variant])
            assert out["invariant_factors"] == oracles.pi1_factors(letter, rank, variant)


def test_weyl_dimension_agrees_with_the_character_command():
    for letter, rank, variant, weight in [("B", 3, "simply_connected", (1, 0, 1)),
                                          ("C", 3, "adjoint", (1, 2, 1)),
                                          ("G", 2, "simply_connected", (1, 1))]:
        out = _cli(["character", "--type", letter, "--rank", str(rank), "--variant", variant,
                    "--weight=" + ",".join(map(str, weight))])
        assert out["dimension"] == oracles.weyl_dimension(letter, rank, variant, weight)


def test_integer_kernel_spans_the_kernel():
    basis = oracles.integer_kernel([[2, 4, 6], [1, 1, 1]], 3)
    assert len(basis) == 1
    assert all(sum(a * b for a, b in zip(row, basis[0])) == 0 for row in [[2, 4, 6], [1, 1, 1]])
    assert sorted(map(abs, basis[0])) == [1, 1, 2]
    assert oracles.integer_kernel([], 2) == [[1, 0], [0, 1]]


def test_support_connected_agrees_with_repring():
    rng = random.Random(7)
    seen = set()
    for _ in range(300):
        rank = rng.choice([1, 2, 3])
        torsion, rational = sample_point(rng, rank)
        p = EvalPoint.from_parts(torsion, rational)
        mine = oracles.support_connected(torsion, rational)
        assert mine == support(p).connected, (torsion, rational)
        seen.add(mine)
    assert seen == {True, False}


def test_tail_is_the_highest_percentile_with_ten_beyond():
    value, pct, beyond = run.tail([float(i) for i in range(100)])
    assert (value, beyond) == (89.0, 10)
    assert pct == 90.0
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_tail_stays_on_one_op_whatever_the_pass_count():
    # Six fixed ops, as in orbits: the tail must fall on the second-slowest
    # op whether the machine's speed allows five passes or eight.
    bases = {f"op{k}": base for k, base in enumerate([2.0, 1.6, 0.9, 0.5, 0.3, 0.1])}
    for passes in (5, 8):
        by_class = {name: [base * (1 + 0.01 * i) for i in range(passes)]
                    for name, base in bases.items()}
        value, _pct, beyond = run.tail(run.tail_pool(by_class))
        assert min(by_class["op1"]) <= value <= max(by_class["op1"])
        assert beyond == 10


def test_times_are_scaled_by_the_slowness_over_their_pass():
    classes = [("a",), ("b",)]
    passes = [(classes, [0.2, 0.4], 0.6), (classes, [0.1, 0.2], 0.3)]
    metrics = run.end_to_end_metrics(passes, [2.0, 1.0], [0.1])
    assert metrics["wall_s"][0] == pytest.approx(0.3)
    assert metrics["op_p50_ms"][0] == pytest.approx(150.0)
    pool, count = run.scaled_pool(passes, [2.0, 1.0])
    assert count == 2 and max(pool) == pytest.approx(0.2)
    assert run.slowness() > 0


def test_op_class_drops_the_drawn_point_and_weight():
    datum = ("--type", "B", "--rank", "3", "--variant", "adjoint")
    assert run.op_class(("fiber",) + datum + ("--point", "1,2,3")) == ("fiber",) + datum
    assert run.op_class(("character",) + datum + ("--weight=1,0,-1",)) == ("character",) + datum
    nal = ("nal-check", "--case", "cases/sl3_levi.json", "--j-max", "4")
    assert run.op_class(nal) == nal


def test_quantile_points_spread_evenly_over_the_samples():
    assert run.quantile_points([5.0], 4) == [5.0] * 4
    assert run.quantile_points([0.0, 1.0, 2.0, 3.0], 4) == [0.0, 1.0, 2.0, 3.0]
    assert run.quantile_points([0.0, 8.0], 4) == [0.0, 2.0, 6.0, 8.0]


def test_benchmark_json_names_every_reported_metric():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = run.end_to_end_metrics([([("pi1",)], [0.001], 1.0)], [1.0], [0.1])
    assert [m["name"] for m in doc["end_to_end"]] == list(e2e)
    layers = run.layer_metrics({}, [{}], [0.0], [1.0])
    assert [m["name"] for m in doc["per_layer"]] == list(layers)
    for m in doc["end_to_end"] + doc["per_layer"]:
        unit = (e2e | layers)[m["name"]][1]
        assert m["unit"] == unit
    assert layers["total.src_lines"][0] == sum(
        len(p.read_text().splitlines()) for p in (ROOT / "src" / "repring").glob("*.py"))


def test_recorded_digests_hold_for_the_cheap_local_ops(monkeypatch):
    monkeypatch.chdir(ROOT)  # nal-check echoes its relative --case path
    ops, _order = run.pass_ops("local", 3, 0)
    want = run.expected_digests(run.load_expected("local"), 3, 0)
    keep = [i for i, op in enumerate(ops) if int(op.argv[-1]) <= 3]
    outputs, _lat, _wall = run.run_pass(cli, [ops[i] for i in keep], list(range(len(keep))))
    _digests, problems = run.check_pass([ops[i] for i in keep], outputs, [want[i] for i in keep])
    assert problems == []


def test_traced_pass_matches_untraced_and_repeats_its_counts(tmp_path):
    ops, _order = run.pass_ops("sweep", 5, 0)
    ops = [op for op in ops if op.argv[0] != "twist-check"][:80]
    order = list(range(len(ops)))
    untraced, _lat, _wall = run.run_pass(cli, ops, order)
    tracer = spans.Tracer()
    counts = []
    for _ in range(2):
        tracer.install()
        mark = tracer.mark()
        try:
            traced, _lat, _wall = run.run_pass(cli, ops, order)
        finally:
            tracer.uninstall()
        totals = tracer.layer_totals(mark)
        counts.append({k: v for k, v in totals.items() if not k.endswith("self_s")})
        assert run.check_pass(ops, traced, None)[0] == run.check_pass(ops, untraced, None)[0]
    assert counts[0] == counts[1]
    assert counts[0]["cli.calls"] == len(ops)
    assert counts[0]["rootdata.calls"] > 0 and counts[0]["lattice.calls"] > 0
    assert cli.run.__module__ == "repring.cli" and not hasattr(cli.run, "__wrapped__")
    tracer.write(tmp_path / "spans.gz")
    back = spans.read_spans(tmp_path / "spans.gz")
    assert back["names"] == tracer.names
    assert back["parent"] == tracer.parent and back["end"] == tracer.end


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "local",
                           "--seconds", "1"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _cli(argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.run(argv) == 0
    return json.loads(buf.getvalue())["result"]
