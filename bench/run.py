"""gcelab benchmark: three closed-loop workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 bench/run.py --workload builtins-40k --seed 1 --seconds 36 --trace 0

One client runs one op at a time for about ``--seconds`` seconds, in whole
cycles over the workload's ops.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced cycles and prints the per-layer
metrics, with spans written to ``.bench_traces/`` at the end of the run.
Every op's outputs are checked; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 only when every check passed.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
TRACE_DIR = os.path.join(ROOT, ".bench_traces")

WORKLOAD_NAMES = ("builtins-40k", "coupled-residuals", "cli-band-edge")
MIN_CYCLES = 2      # every op runs twice, so byte-identity is always checked
SETUP_RUNS = 5      # fresh interpreters timed for setup_s (median)
IMPORT_RUNS = 3     # fresh interpreters timed for cli.import_s (median)
TAIL_BEYOND = 10    # samples that must lie beyond the tail percentile
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def cap_threads() -> None:
    """Run BLAS/OpenMP single-threaded, in this process and its children.

    gcelab's arrays are small enough that a second BLAS thread buys no wall
    time, while its spinning competes with the main thread for the CPUs and
    made run-to-run spreads about twice as wide.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"


class Run:
    """Latencies, failures and output digests of one benchmark run."""

    def __init__(self):
        self.records: list[tuple] = []      # (op, seconds) of timed ops
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        self.child_rss_kib = 0

    def execute(self, op, *, inprocess=False, tracer=None, op_id=-1, warm_up=False):
        run = op.run_inprocess if inprocess and op.run_inprocess else op.run
        root = tracer.begin_op(op_id) if tracer else None
        error = None
        t0 = time.perf_counter()
        try:
            result = run()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            result, error = None, f"raised {type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        if tracer:
            tracer.end_op(root)
        digest = None
        if error is None:
            error, digest = op.check(result)
            if not inprocess and op.run_inprocess is not None:
                # a CLI op ran in a child: (exit code, output, peak RSS in KiB)
                self.child_rss_kib = max(self.child_rss_kib, result[2])
        if digest is not None:
            first = self.digests.setdefault(op.key, digest)
            if digest != first and error is None:
                error = "outputs differ from the first run of this op"
        if error is not None:
            self.failures.append(f"{op.key}: {error}")
        self.attempted += 1
        if not warm_up:
            self.records.append((op, wall))
        return wall


def another_cycle(start: float, cycles: int, seconds: float, min_cycles: int) -> bool:
    """Whether to run one more whole cycle.

    A run stops at the cycle boundary nearest to ``seconds``: it goes on while
    one more cycle, at the mean cycle time so far, would end less than half a
    cycle past ``seconds``.  So a run lasts ``seconds`` on average, where
    stopping at the first boundary past it would overshoot by half a cycle
    (about 6 s on ``cli-band-edge``).
    """
    if cycles < min_cycles:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + 0.5 * elapsed / cycles < seconds


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it."""
    s = sorted(values)
    k = len(s) - 1 - TAIL_BEYOND
    if k < 0:
        return s[-1], 100.0
    return s[k], 100.0 * (k + 1) / len(s)


def timed_setup(argv: list[str], env: dict, work: str) -> float:
    """Wall time from spawning a fresh interpreter to the ready stamp it prints."""
    import workloads

    t0 = time.monotonic()  # the clock setup_probe.py prints
    code, out, _ = workloads.run_child(argv, env, work)
    if code != 0:
        raise RuntimeError(f"{argv[1:]} exited {code}: {out.strip()[-400:]}")
    return float(out.split()[-1]) - t0


def end_to_end(workload, seed, seconds, ops, work, env) -> tuple[Run, dict]:
    import resource

    import workloads

    probe = [sys.executable, os.path.join(BENCH, "setup_probe.py"),
             workload, str(seed), SRC]
    setups = []
    for _ in range(SETUP_RUNS):
        probe_dir = tempfile.mkdtemp(prefix="setup-", dir=work)
        setups.append(timed_setup(probe + [probe_dir], env, probe_dir))
        shutil.rmtree(probe_dir)

    run = Run()
    # In-process ops get one untimed cycle first, so that lazy imports, first
    # calls and output files are in place; a cold CLI process pays these on
    # every op and is timed as it is.
    if workload != "cli-band-edge":
        for op in ops:
            run.execute(op, warm_up=True)
    start = time.perf_counter()
    cycles = 0
    while another_cycle(start, cycles, seconds, MIN_CYCLES):
        for op in ops:
            run.execute(op)
        cycles += 1

    lat_ms = [wall * 1e3 for _, wall in run.records]
    tail_ms, tail_pct = tail(lat_ms)
    points = sum(op.weight for op, _ in run.records)
    busy = sum(wall for _, wall in run.records)
    if workload == "cli-band-edge":
        rss_kib = run.child_rss_kib
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "points_per_s": (points / busy, "points/s"),
        "peak_rss_mb": (rss_kib / 1024.0, "MiB"),
    }
    n = len(lat_ms)
    print(f"# {workload}: {n} ops in {cycles} cycles of {len(ops)}, one client, closed loop")
    print(f"# setup_s = median of {SETUP_RUNS} fresh interpreters: "
          + ", ".join(f"{t:.4f}" for t in setups))
    print(f"# op_p50_ms over {n} samples; op_tail_ms is p{tail_pct:.1f} "
          f"({min(TAIL_BEYOND, n - 1)} samples beyond it)")
    for key in dict.fromkeys(op.key for op, _ in run.records):
        walls = [wall * 1e3 for op, wall in run.records if op.key == key]
        print(f"#   {key}: median {statistics.median(walls):.1f} ms, "
              f"min {min(walls):.1f}, max {max(walls):.1f} over {len(walls)} ops")
    print(f"# peak_rss_mb is the {'largest gcelab child' if workload == 'cli-band-edge' else 'benchmark process'}")
    print(f"# fail_frac = {len(run.failures)}/{run.attempted} = "
          f"{len(run.failures) / run.attempted:.6g} "
          "(the result line's failed/attempted)")
    print(f"# residual RMS bound: {workloads.RMS_PER_H2:g} * h**2 per grid spacing h")
    return run, metrics


def per_layer(workload, seconds, ops, env, work):
    import spans

    import workloads

    imports = []
    for _ in range(IMPORT_RUNS):
        code, out, _ = workloads.run_child(
            [sys.executable, "-c",
             "import time; t = time.perf_counter(); import gcelab; "
             "print(time.perf_counter() - t)"], env, work)
        if code != 0:
            raise RuntimeError(f"import gcelab failed: {out.strip()[-400:]}")
        imports.append(float(out.split()[-1]))

    run = Run()
    for op in ops:
        run.execute(op, inprocess=True, warm_up=True)
    tracer = spans.Tracer()
    start = time.perf_counter()
    op_id = 0
    untraced_wall = traced_wall = 0.0
    traced_ops = []
    pairs = 0
    while another_cycle(start, pairs, seconds, 1):
        for op in ops:
            untraced_wall += run.execute(op, inprocess=True)
        tracer.install()
        try:
            for op in ops:
                traced_wall += run.execute(op, inprocess=True, tracer=tracer, op_id=op_id)
                traced_ops.append(op)
                op_id += 1
        finally:
            tracer.uninstall()
        pairs += 1

    per_op = tracer.self_times()
    counts = tracer.counts
    n = len(per_op)
    mean = statistics.fmean
    metrics = {"cli.import_s": (statistics.median(imports), "s")}
    for metric, name in spans.SELF_TIME_METRICS.items():
        metrics[metric] = (mean(t.get(name, 0.0) for t, _ in per_op), "s")
    points = sum(c["evaluated_points"] for c in counts)
    metrics.update({
        "scenario.write_bytes": (mean(c["write_bytes"] for c in counts), "bytes"),
        "scenario.cells_written": (mean(c["cells_written"] for c in counts), "count"),
        "solvers.evaluate_calls": (mean(c["evaluate_calls"] for c in counts), "count"),
        "solvers.evaluated_points": (points / n, "count"),
        "solvers.evaluate_useful_ratio": (
            sum(c["distinct_points"] for c in counts) / points if points else 0.0, "ratio"),
        "sun.source_operator_calls": (
            mean(c.get("sun.source_operator", 0) for _, c in per_op), "count"),
        "trace.wall_ratio": (traced_wall / untraced_wall, "ratio"),
    })
    layer_sum = sum(t for times, _ in per_op for k, t in times.items() if k != spans.ROOT)
    glue = sum(times.get(spans.ROOT, 0.0) for times, _ in per_op)
    shares = {}
    eval_us = {}
    for kind in dict.fromkeys(op.kind for op in traced_ops):
        idx = [k for k, op in enumerate(traced_ops) if op.kind == kind]
        row = defaultdict(float)
        for k in idx:
            for name, t in per_op[k][0].items():
                row[name] += t / len(idx)
        shares[kind] = dict(row)
        kind_points = sum(counts[k]["evaluated_points"] for k in idx)
        if kind_points:
            eval_us[kind] = 1e6 * row[spans.EVALUATE] * len(idx) / kind_points

    print(f"# {workload} traced: {n} traced ops, {n} untraced in-process ops, "
          f"{pairs} alternating cycle pairs")
    print(f"# tracing overhead: traced/untraced wall = {traced_wall:.4f}/{untraced_wall:.4f} s"
          f" = {traced_wall / untraced_wall:.4f}")
    print(f"# self times add up: layers {layer_sum:.4f} s + op glue {glue:.4f} s = traced wall "
          f"{layer_sum + glue:.4f} s; untraced wall {untraced_wall:.4f} s")
    print("# wait time: none to report; every layer runs on one thread with no queue")
    for kind, row in shares.items():
        wall = sum(row.values())
        parts = sorted(((t, name) for name, t in row.items()), reverse=True)
        text = ", ".join(f"{name} {100 * t / wall:.1f}%" for t, name in parts if t / wall >= 0.005)
        print(f"# self-time shares, {kind} (mean wall {wall * 1e3:.2f} ms): {text}")
        if kind in eval_us:
            print(f"#   evaluate: {eval_us[kind]:.3f} us per point evaluated")
        if workload == "cli-band-edge":
            cold = metrics["cli.import_s"][0]
            print(f"#   cold process adds cli.import_s {cold * 1e3:.1f} ms: "
                  f"{100 * cold / (cold + wall):.1f}% of import + in-process wall")
    extra = {
        "imports_s": imports,
        "shares": shares,
        "ops": [
            {"key": op.key, "kind": op.kind, "self_s": times, "calls": calls, "counts": c}
            for op, (times, calls), c in zip(traced_ops, per_op, counts)
        ],
    }
    return run, metrics, tracer, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gcelab", "__init__.py")):
        print(f"bench: no gcelab sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    cap_threads()
    sys.path.insert(0, SRC)
    # numpy reads the thread caps when it is first imported, so the modules
    # that import it are imported only after cap_threads().
    import workloads

    env = workloads.child_env(SRC)
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        ops = workloads.prepare(args.workload, args.seed, work, SRC)
        print(f"# BLAS/OpenMP threads: 1; outputs under a throwaway {work}")
        if args.trace:
            run, metrics, tracer, extra = per_layer(args.workload, args.seconds, ops, env, work)
        else:
            run, metrics = end_to_end(args.workload, args.seed, args.seconds, ops, work, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    for line in run.failures[:20]:
        print(f"# FAILED {line}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    if args.trace:
        path = os.path.join(TRACE_DIR, f"{args.workload}-seed{args.seed}.json")
        tracer.dump(path, {"workload": args.workload, "seed": args.seed,
                           "metrics": {k: v for k, (v, _) in metrics.items()}, **extra})
        print(f"# spans written to {path}")
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not run.failures else 1


if __name__ == "__main__":
    sys.exit(main())
