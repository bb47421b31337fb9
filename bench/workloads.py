"""Seeded inputs, operations and correctness checks of the three workloads.

Every input is derived from the ``--seed`` argument alone; the program only
ever sees the generated profiles (in process) or scenario files (CLI).  An
operation ("op") is one closed-loop request: the runner starts the next op
only when the previous one has returned.  Each op carries a fixed weight of
grid points so that ``points_per_s`` is comparable between runs.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

# Accuracy bound of every continuity residual the workloads check: the exact
# per-segment solutions leave only the second-order stencil error, so the
# residual RMS must stay below RMS_PER_H2 * h**2 for grid spacing h.  Seeded
# stacks (seeds 0-99) and the builtins sit between 0.02 and 8 times h**2.
RMS_PER_H2 = 100.0
# Outputs that produce a CSV table; an op's weight counts one grid per table.
TABLE_OUTPUTS = ("currents", "residuals", "domains")

FINE_GRID = 40001
# (model, N, grid points) of the coupled stacks, one stack of each per cycle.
# Grids are sized so that every stack costs the same to within a few per cent
# (about 0.53 s on a 2-CPU x86-64 VM): the op latencies then form one cluster,
# not three, so their median does not jump between kinds from run to run.
COUPLED_KINDS = (("dirac", 4, 9001), ("dirac", 8, 501), ("schrodinger", 4, 25001))
COUPLED_BREAKS = (-4.0, -2.0, -1.0, 0.5, 2.0, 4.0)
COUPLED_GRID = (-3.5, 3.5)
# Band-edge scenario geometry: system 1 sits at E = |V| on the middle segment.
BAND_BREAKS = (-4.0, -1.5, -0.5, 0.5, 1.5, 4.0)
BAND_EDGE_SEGMENT = 2
BAND_GRID = (-3.0, 3.0)
BAND_SCAN_H = (0.004, 0.002, 0.001)


@dataclass
class Op:
    """One closed-loop operation.

    ``run`` is the timed call.  ``check`` runs after the clock stops and
    returns (error or None, digest of the op's outputs); two runs of the same
    ``key`` in one benchmark run must give the same digest.  ``run_inprocess``,
    when set, replaces ``run`` in the traced run (CLI ops call ``cli.main``).
    """

    key: str
    kind: str
    weight: int
    run: Callable[[], Any]
    check: Callable[[Any], tuple]
    run_inprocess: Callable[[], Any] | None = None


# ---------------------------------------------------------------------------
# Shared checks


def _rms_bound(h: float) -> float:
    return RMS_PER_H2 * h * h


def summary_errors(summary: dict) -> list[str]:
    """Verdict and residual-accuracy failures recorded in a summary."""
    errors = []
    if summary.get("passed") is not True:
        errors.append("verdict: fail")
    res = summary.get("residuals")
    if res is not None:
        h = summary["grid"]["spacing"]
        if not res["rms"] <= _rms_bound(h):
            errors.append(f"residual rms {res['rms']:.3e} > {_rms_bound(h):.3e}")
    scan = summary.get("scan")
    if scan is not None:
        for h, rms in zip(scan["spacings"], scan["rms"]):
            if not rms <= _rms_bound(h):
                errors.append(f"scan rms {rms:.3e} at h={h} > {_rms_bound(h):.3e}")
    return errors


def _n_tables(s) -> int:
    return sum(o in TABLE_OUTPUTS for o in s.requested_outputs)


def dir_digest(path: str) -> str:
    """sha256 over the names and bytes of every file in an output directory."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(path, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _read_summary(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "summary.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# builtins-40k: in-process run_scenario + write_reports of every builtin


def builtin_ops(work: str) -> list[Op]:
    from gcelab import scenario

    ops = []
    for name in scenario.builtin_scenario_names():
        out = os.path.join(work, name)
        n_tables = _n_tables(scenario.load_builtin(name))

        def run(name=name, out=out):
            s = scenario.load_builtin(name)
            bundle = scenario.run_scenario(s, n_points=FINE_GRID)
            scenario.write_reports(bundle, out)
            return bundle

        def check(bundle, out=out):
            errors = summary_errors(bundle.summary)
            return ("; ".join(errors) or None), dir_digest(out)

        ops.append(Op(name, "builtin", FINE_GRID * n_tables, run, check))
    return ops


# ---------------------------------------------------------------------------
# coupled-residuals: seeded SU(N) stacks, all-generator residual sweeps


def _hermitian(rng: np.random.Generator, n: int, scale: float) -> np.ndarray:
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * (x + x.conj().T) / 2.0


def coupled_stack(rng: np.random.Generator, model: str, n: int):
    """Random Hermitian interior segments between diagonal outer segments.

    The outer diagonal entries stay below the energy in magnitude, so every
    asymptotic channel propagates and the scattering boundary is valid.
    """
    from gcelab import solvers

    segs = []
    last = len(COUPLED_BREAKS) - 2
    for k, (lo, hi) in enumerate(zip(COUPLED_BREAKS[:-1], COUPLED_BREAKS[1:])):
        if k in (0, last):
            v = np.diag(rng.uniform(-0.5, 0.5, n)).astype(complex)
        else:
            v = _hermitian(rng, n, 0.4)
        segs.append(solvers.Segment(lo, hi, v))
    profile = solvers.PotentialProfile(segs)
    energy = (1.5 if model == "dirac" else 2.0) + 0.5 * rng.uniform()
    amps = rng.normal(size=n) + 1j * rng.normal(size=n)
    return profile, float(energy), solvers.Scattering(amps)


def coupled_ops(seed: int) -> list[Op]:
    from gcelab import engine, solvers, sun

    rng = np.random.default_rng(seed)
    ops = []
    for model, n, points in COUPLED_KINDS:
        profile, energy, boundary = coupled_stack(rng, model, n)
        grid = np.linspace(*COUPLED_GRID, points)
        bound = _rms_bound(float(grid[1] - grid[0]))
        dim = n * n - 1

        def run(model=model, n=n, profile=profile, energy=energy,
                boundary=boundary, grid=grid):
            if model == "dirac":
                sol = solvers.solve_dirac(profile, energy, boundary)
                residual = engine.gce_residual_dirac
            else:
                sol = solvers.solve_schrodinger(profile, energy, boundary)
                residual = engine.gce_residual_schrodinger
            basis = sun.build_basis(n)
            decomp = sun.decompose(profile, basis)
            return [residual(sol, basis, a, grid, decomp) for a in range(1, basis.dim + 1)]

        def check(reports, bound=bound, dim=dim):
            if len(reports) != dim:
                return f"{len(reports)} residuals for {dim} generators", None
            worst = max(r.residual_rms for r in reports)
            h = hashlib.sha256()
            for r in reports:
                h.update(np.ascontiguousarray(r.residual).tobytes())
            error = None if worst <= bound else f"residual rms {worst:.3e} > {bound:.3e}"
            return error, h.hexdigest()

        key = f"{model}-N{n}-{points}"
        ops.append(Op(key, key, points * dim, run, check))
    return ops


# ---------------------------------------------------------------------------
# cli-band-edge: one cold gcelab process per op


def band_edge_doc(rng: np.random.Generator, sign: float) -> dict:
    """Scalar-coupled Dirac pair with system 1 at E = |V| on one interior segment.

    The band-edge entry is the energy itself (times +-1), so E = |V| holds
    exactly in binary, and the segment generator is defective there.
    """
    energy = float(rng.uniform(0.8, 1.5))
    segments = []
    last = len(BAND_BREAKS) - 2
    for k, (lo, hi) in enumerate(zip(BAND_BREAKS[:-1], BAND_BREAKS[1:])):
        if k in (0, last):
            v11 = v22 = 0.0
        elif k == BAND_EDGE_SEGMENT:
            v11, v22 = sign * energy, float(rng.uniform(-0.5, 0.5)) * energy
        else:
            v11, v22 = (float(x) * energy for x in rng.uniform(-0.5, 0.5, 2))
        segments.append({"x_lo": lo, "x_hi": hi, "v": [[v11, 0.0], [0.0, v22]]})
    amps = rng.normal(size=(2, 2))
    return {
        "model": "dirac",
        "n_systems": 2,
        "profile": {"segments": segments},
        "energies": [energy, energy],
        "boundaries": [
            {"kind": "incoming", "amplitude": [float(a[0]), float(a[1])]} for a in amps
        ],
        "grid": {"x_min": BAND_GRID[0], "x_max": BAND_GRID[1], "n_points": 4001},
        "requested_outputs": ["currents", "residuals", "domains"],
        "pair": [1, 2],
        "generator_index": 1,
    }


def write_band_edge_files(seed: int, work: str) -> list[str]:
    """Write the seeded band-edge scenarios and check E = |V| survives the file."""
    from gcelab import scenario

    rng = np.random.default_rng(seed)
    paths = []
    for tag, sign in (("plus", 1.0), ("minus", -1.0)):
        path = os.path.join(work, f"band-edge-{tag}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(band_edge_doc(rng, sign), fh, indent=2)
        s = scenario.load_scenario(path)
        v11 = s.segments[BAND_EDGE_SEGMENT].v[0][0]
        if abs(v11) != s.energies[0]:
            raise RuntimeError(f"{path}: E = |V| does not hold exactly")
        paths.append(path)
    return paths


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_child(argv: list[str], env: dict, log_dir: str):
    """Run a child to completion; returns (exit code, stdout, peak RSS in KiB)."""
    out_path = os.path.join(log_dir, "child.out")
    with open(out_path, "wb") as out:
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=env)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "r", encoding="utf-8") as fh:
        return proc.returncode, fh.read(), usage.ru_maxrss


def _cli_main_inprocess(args: list[str]):
    from gcelab import cli

    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(sink):
        code = cli.main(args)
    return code, sink.getvalue(), 0


def cli_ops(seed: int, work: str, src: str) -> list[Op]:
    from gcelab import scenario

    env = child_env(src)
    band = write_band_edge_files(seed, work)
    span = BAND_GRID[1] - BAND_GRID[0]
    plans = []
    for name in scenario.builtin_scenario_names():
        s = scenario.load_builtin(name)
        plans.append((name, "builtin", ["run", "--scenario", name],
                      s.grid.n_points * _n_tables(s)))
    for path in band:
        tag = os.path.basename(path)[:-5]
        plans.append((f"{tag}-run", "band-edge-run",
                      ["run", "--scenario", path, "--grid", str(FINE_GRID)],
                      FINE_GRID * _n_tables(scenario.load_scenario(path))))
        plans.append((f"{tag}-scan", "band-edge-scan",
                      ["scan", "--scenario", path, "--h", ",".join(map(str, BAND_SCAN_H))],
                      sum(int(round(span / h)) + 1 for h in BAND_SCAN_H)))
    ops = []
    for key, kind, args, weight in plans:
        out = os.path.join(work, key)
        args = args + ["--out", out]
        argv = [sys.executable, "-m", "gcelab"] + args

        def check(result, out=out):
            code, stdout, _ = result
            errors = [] if code == 0 else [f"exit code {code}"]
            if "verdict: pass" not in stdout:
                errors.append("no 'verdict: pass' line")
            if os.path.isfile(os.path.join(out, "summary.json")):
                errors += summary_errors(_read_summary(out))
                digest = dir_digest(out)
            else:
                errors.append("no summary.json")
                digest = None
            return ("; ".join(errors) or None), digest

        ops.append(Op(
            key, kind, weight,
            run=lambda argv=argv: run_child(argv, env, work),
            check=check,
            run_inprocess=lambda args=args: _cli_main_inprocess(args),
        ))
    return ops


# ---------------------------------------------------------------------------
# Set-up


def prepare(workload: str, seed: int, work: str, src: str) -> list[Op]:
    """Import gcelab and generate one cycle of the workload's ops."""
    if workload == "builtins-40k":
        return builtin_ops(work)
    if workload == "coupled-residuals":
        return coupled_ops(seed)
    if workload == "cli-band-edge":
        return cli_ops(seed, work, src)
    raise ValueError(f"unknown workload {workload!r}")
