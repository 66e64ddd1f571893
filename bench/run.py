"""The repring benchmark: drive the CLI entry point in one process.

    python3 bench/run.py --workload {local,orbits,sweep} [--seed N]
                         [--seconds S] [--trace 0|1]

One client runs one op at a time through `repring.cli.run(argv)` and
waits for it (a closed loop, like a user at a shell or a script waiting
on each reply).  A pass is one round of the workload's ops in a seeded
order; passes repeat up to the pass boundary nearest to `--seconds`.
Every op's exit code and stdout are checked against recorded sha256
digests (where the seed has them) and against oracles computed here,
never by repring.

With `--trace 0` the last line of stdout reports the end-to-end metrics.
Their times are scaled to a reference machine speed, measured by a fixed
integer loop at every pass boundary; the times as measured are printed
on a line of their own.
With `--trace 1` each pass runs twice, untraced and traced (see spans.py),
and the last line reports per-layer metrics; the traced pass must give
the same stdout digests as the untraced one.

Outputs are written under `.bench_out/` at the repository root: the
per-pass stdout digests (so two commits can be diffed) and, for traced
runs, every recorded span.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import random
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import spans
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
DEFAULT_SEED = 1
# The run length in BENCHMARK.json, which the bounds were measured at.
DEFAULT_SECONDS = 42.0
# Set-ups before the first pass; one more follows every pass, so that
# setup_s samples the machine's speed over the whole run, as the passes do.
SETUP_REPEATS = 5
TAIL_BEYOND = 10
# Each op class puts this many evenly spaced quantiles of its latencies
# into the tail pool, however many samples it has.  The pool's makeup, and
# so the class the tail falls on, then does not depend on how many passes
# the machine's speed allows.
TAIL_POINTS = 8
SHOWN_PROBLEMS = 5
# On a shared machine the speed can swing by up to 2x for seconds to
# minutes at a time, and CPU time swings with it.  A fixed integer loop,
# timed at every pass boundary, tracks much of the swing; each pass's times
# are scaled to the speed at which the loop's fastest of CAL_SAMPLES runs
# takes CAL_REF_S.
CAL_LOOP = 150_000
CAL_SAMPLES = 5
CAL_REF_S = 0.010


def program_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "repring" or n.startswith("repring.")}


def load_program():
    """Import repring afresh, as each CLI process does, and return its cli module."""
    for name in program_modules():
        del sys.modules[name]
    return importlib.import_module("repring.cli")


def load_expected(workload: str) -> dict:
    with open(BENCH / "expected" / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def expected_digests(expected: dict, seed: int, index: int) -> list[str] | None:
    """Recorded digests for one pass: a fixed op list has one entry for
    every seed and pass; a seeded one has them for its recorded seed."""
    if expected["seed"] is None:
        return expected["passes"][0]
    if seed == expected["seed"] and index < len(expected["passes"]):
        return expected["passes"][index]
    return None


def pass_ops(workload: str, seed: int, index: int):
    """The ops of one pass and the order to run them in, both from the seed."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    ops = WORKLOADS[workload](rng)
    order = list(range(len(ops)))
    rng.shuffle(order)
    return ops, order


def setup(workload: str, seed: int):
    start = time.perf_counter()
    cli = load_program()
    first = pass_ops(workload, seed, 0)
    expected = load_expected(workload)
    return time.perf_counter() - start, cli, first, expected


def timed_setup(workload: str, seed: int) -> float:
    """Time one more set-up, then put back the program instance the passes
    use, so that every op of a run (and the tracer's patches) sees one
    instance of each repring module."""
    in_use = program_modules()
    seconds = setup(workload, seed)[0]
    for name in program_modules():
        del sys.modules[name]
    sys.modules.update(in_use)
    return seconds


def slowness() -> float:
    """How much slower than the reference speed the machine runs now."""
    clock = time.perf_counter
    best = float("inf")
    for _ in range(CAL_SAMPLES):
        t0 = clock()
        acc = 0
        for i in range(CAL_LOOP):
            acc += i * i % 7
        best = min(best, clock() - t0)
    return best / CAL_REF_S


def run_pass(cli, ops, order) -> tuple[list[tuple[int, str, str]], list[float], float]:
    """Run every op once; returns (exit code, stdout, stderr) and latency per op."""
    outputs: list = [None] * len(ops)
    latency = [0.0] * len(ops)
    gc.collect()
    clock = time.perf_counter
    begin = clock()
    for i in order:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = clock()
            code = cli.run(list(ops[i].argv))
            latency[i] = clock() - t0
        outputs[i] = (code, out.getvalue(), err.getvalue())
    return outputs, latency, clock() - begin


def digest(code: int, stdout: str) -> str:
    return f"{code}:{hashlib.sha256(stdout.encode()).hexdigest()[:16]}"


def check_pass(ops, outputs, expected: list[str] | None) -> tuple[list[str], list[str]]:
    """Digests of the pass and one problem line per failed op."""
    results = {}
    for op, (code, stdout, _err) in zip(ops, outputs):
        if code == 0:
            with contextlib.suppress(ValueError, KeyError, TypeError):
                results[op.argv] = json.loads(stdout)["result"]
    digests, problems = [], []
    for k, (op, (code, stdout, err)) in enumerate(zip(ops, outputs)):
        digests.append(digest(code, stdout))
        if code != 0:
            problem = f"exit code {code}: {err.strip()[:200]}"
        elif expected is not None and expected[k] != digests[-1]:
            problem = "stdout differs from the recorded digest"
        elif op.argv not in results:
            problem = "stdout is not a JSON report"
        else:
            try:
                problem = op.check(results[op.argv], results)
            except (KeyError, TypeError, ValueError) as exc:
                problem = f"result lacks what the oracle reads: {exc!r}"
        if problem:
            problems.append(f"{' '.join(op.argv)}: {problem}")
    return digests, problems


def op_class(argv: tuple[str, ...]) -> tuple[str, ...]:
    """An op without its drawn point or weight: subcommand and datum (and
    the other fixed flags).  Sweep draws make nearly every argv distinct;
    their classes recur in every pass."""
    out, skip = [], False
    for arg in argv:
        if not skip and arg != "--point" and not arg.startswith("--weight="):
            out.append(arg)
        skip = arg == "--point"
    return tuple(out)


def quantile_points(samples: list[float], k: int = TAIL_POINTS) -> list[float]:
    """k evenly spaced quantiles, at (i + 1/2)/k, interpolating between samples."""
    ordered = sorted(samples)
    n = len(ordered)
    out = []
    for i in range(k):
        pos = min(max((i + 0.5) * n / k - 0.5, 0.0), n - 1.0)
        lo = int(pos)
        hi = min(lo + 1, n - 1)
        out.append(ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo]))
    return out


def tail_pool(by_class: dict[tuple, list[float]]) -> list[float]:
    return [x for samples in by_class.values() for x in quantile_points(samples)]


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it:
    (value, percentile, samples beyond).  Too few samples give the maximum."""
    ordered = sorted(latencies)
    k = len(ordered) - 1 - (TAIL_BEYOND if len(ordered) > TAIL_BEYOND else 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - 1 - k


def src_lines() -> dict[str, int]:
    pkg = ROOT / "src" / "repring"
    counts = {p.stem: len(p.read_text(encoding="utf-8").splitlines())
              for p in sorted(pkg.glob("*.py"))}
    out = {f"{layer}.src_lines": counts[layer] for layer in spans.LAYERS}
    out["total.src_lines"] = sum(counts.values())
    return out


def ratio(num: float, den: float) -> float:
    """num/den, or 0 where the base is empty (the base is reported beside it)."""
    return num / den if den else 0.0


def scaled_pool(passes: list, factors: list[float]) -> tuple[list[float], int]:
    """The tail pool of the scaled op latencies, and the number of op classes."""
    by_class: defaultdict[tuple, list[float]] = defaultdict(list)
    for (classes, lat, _wall), f in zip(passes, factors):
        for c, x in zip(classes, lat):
            by_class[c].append(x / f)
    return tail_pool(by_class), len(by_class)


def end_to_end_metrics(passes: list, factors: list[float],
                       setups: list[float]) -> dict[str, tuple[float, str]]:
    """From (op classes, op latencies, wall) of each untraced pass, each
    divided by the machine's slowness over that pass: medians over passes of
    the pass time and of the pass's median op latency; the tail over the
    pool of per-class quantiles."""
    walls = [wall / f for (_c, _lat, wall), f in zip(passes, factors)]
    pass_p50s = [statistics.median(lat) / f for (_c, lat, _wall), f in zip(passes, factors)]
    return {
        "wall_s": (statistics.median(walls), "s"),
        "op_p50_ms": (1000 * statistics.median(pass_p50s), "ms"),
        "op_tail_ms": (1000 * tail(scaled_pool(passes, factors)[0])[0], "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def layer_metrics(first: dict, per_pass: list[dict], overheads: list[float],
                  untraced: list[float]) -> dict[str, tuple[float, str]]:
    """Counts and ratios of the first traced pass (they repeat exactly for a
    seed), self times as medians over traced passes."""
    def calls(*names: str) -> int:
        return sum(first.get(f"@{n}", 0) for n in names)

    out: dict[str, tuple[float, str]] = {}
    for layer in spans.LAYERS:
        out[f"{layer}.calls"] = (first.get(f"{layer}.calls", 0), "count")
        out[f"{layer}.self_s"] = (statistics.median(
            p.get(f"{layer}.self_s", 0.0) for p in per_pass), "s")
    for name, lines in src_lines().items():
        out[name] = (lines, "lines")
    s_polys = calls("groebner.s_polynomial")
    adds = calls("linalg.RowSpace.add")
    fiber_translates = first.get("spectrum.fiber_translates", 0)
    cyclo = [n[1:] for n in first if n.startswith("@cyclotomic.Cyclo.")]
    out.update({
        "groebner.s_polys": (s_polys, "count"),
        "groebner.useful_pair_share": (ratio(first.get("groebner.s_useful", 0), s_polys), "ratio"),
        "poly.mul_calls": (calls("poly.Poly.__mul__", "poly.Poly.__rmul__"), "count"),
        "completion.std_monomials": (first.get("completion.std_monomials", 0), "count"),
        "linalg.rowspace_adds": (adds, "count"),
        "linalg.rowspace_yield": (ratio(first.get("linalg.rowspace_grew", 0), adds), "ratio"),
        "rootdata.weyl_elements": (first.get("rootdata.weyl_elements", 0), "count"),
        "laurent.mul_calls": (calls("laurent.LaurentPoly.__mul__",
                                    "laurent.LaurentPoly.__rmul__"), "count"),
        "laurent.divide_calls": (calls("laurent.exact_divide"), "count"),
        "spectrum.translates": (calls("spectrum.weyl_translate"), "count"),
        "spectrum.fiber_translates": (fiber_translates, "count"),
        "spectrum.fiber_yield": (ratio(first.get("spectrum.fiber_members", 0),
                                       fiber_translates), "ratio"),
        "spectrum.ideal_equal_calls": (calls("spectrum.ideal_equal"), "count"),
        "cyclotomic.ops": (calls(*cyclo), "count"),
        "lattice.snf_calls": (calls("lattice.smith_normal_form"), "count"),
        "lattice.hnf_calls": (calls("lattice.hermite_normal_form"), "count"),
        "trace.overhead_s": (statistics.median(overheads), "s"),
        "trace.overhead_share": (ratio(statistics.median(overheads),
                                       statistics.median(untraced)), "ratio"),
    })
    return out


def measure(args) -> int:
    before = slowness()
    setups, slow_setups = [], []
    for _ in range(SETUP_REPEATS):
        seconds, cli, first, expected = setup(args.workload, args.seed)
        setups.append(seconds)
        slow_setups.append(before)

    tracer = spans.Tracer() if args.trace else None
    passes, factors, traced_walls, per_pass, digests_run = [], [], [], [], []
    attempted, problems = 0, []
    largest_share = 0.0
    start = time.perf_counter()
    index = 0
    last = 0.0
    # Stop at the pass boundary nearest to --seconds.
    while index == 0 or time.perf_counter() - start + last / 2 < args.seconds:
        begun = time.perf_counter()
        ops, order = first if index == 0 else pass_ops(args.workload, args.seed, index)
        want = expected_digests(expected, args.seed, index)
        # A traced run makes each pass untraced and traced, alternating which
        # goes first so that the warm-up of the first pass biases neither.
        modes = [False] if tracer is None else [index % 2 == 1, index % 2 == 0]
        for traced in modes:
            if traced:
                tracer.install()
                mark = tracer.mark()
            try:
                outputs, lat, wall = run_pass(cli, ops, order)
            finally:
                if traced:
                    tracer.uninstall()
            digests, bad = check_pass(ops, outputs, want)
            attempted += len(ops)
            problems += bad
            if traced:
                per_pass.append(tracer.layer_totals(mark))
                traced_walls.append(wall)
                traced_digests = digests
            else:
                passes.append(([op_class(op.argv) for op in ops], lat, wall))
                largest_share = max(largest_share, max(lat) / sum(lat))
                digests_run.append(digests)
        if tracer is not None:
            problems += [f"{' '.join(op.argv)}: traced stdout differs from untraced"
                         for op, a, b in zip(ops, digests_run[-1], traced_digests) if a != b]
        after = slowness()
        factors.append((before + after) / 2)
        before = after
        setups.append(timed_setup(args.workload, args.seed))
        slow_setups.append(after)
        index += 1
        last = time.perf_counter() - begun

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    with open(OUT / f"hashes-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "passes": digests_run}, fh, indent=0)

    failed = len(problems)
    for line in problems[:SHOWN_PROBLEMS]:
        print(f"FAIL {line}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}: {index} passes of "
          f"{len(first[0])} ops, closed loop with one client")
    print(f"fail_share {failed}/{attempted} = {failed / attempted:.4f}")
    if tracer is None:
        metrics = end_to_end_metrics(passes, factors, [
            x / f for x, f in zip(setups, slow_setups)])
        pool, classes = scaled_pool(passes, factors)
        _value, pct, beyond = tail(pool)
        print(f"op_tail_ms is p{pct:.2f} of {len(pool)} points ({TAIL_POINTS} quantiles "
              f"of each of {classes} op classes, from {len(passes) * len(first[0])} "
              f"op samples), {beyond} beyond it")
        print(f"largest single op: {largest_share:.3f} of its pass")
        unscaled = end_to_end_metrics(passes, [1.0] * len(passes), setups)
        print(f"machine slowness {statistics.median(factors):.4f} (median over passes); "
              "as measured: " + ", ".join(f"{name} {value:.6g} {unit}" for name, (value, unit)
                                         in unscaled.items() if name != "peak_rss_mb"))
    else:
        walls = [wall for _c, _lat, wall in passes]
        overheads = [t - u for t, u in zip(traced_walls, walls)]
        metrics = layer_metrics(per_pass[0], per_pass, overheads, walls)
        print(f"traced wall_s {statistics.median(traced_walls):.4f} s against "
              f"{statistics.median(walls):.4f} s untraced; "
              f"{len(tracer.name_id)} spans over {len(per_pass)} traced passes")
        tracer.write(OUT / f"spans-{stem}.json.gz")
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repring").is_dir() or not (ROOT / "cases").is_dir():
        print(f"no repring source tree under {ROOT}: run from a full checkout",
              file=sys.stderr)
        return 2
    # nal-check echoes its --case path, so ops use paths relative to the root.
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
