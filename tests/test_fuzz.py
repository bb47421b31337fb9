"""Seeded random scenarios through the CLI: the exit contract on inputs no
hand-written test picked.

Each scenario is drawn from its own seed.  It covers N = 2-4, both models,
every Dirac convention, coupled interior segments and deltas, energies at or
within 1e-9 of a segment's band edge, and barriers of kappa L up to 40, with a
few near 800, whose transfer overflows double precision.  ``run`` and
``solve`` must exit 0, 1 or 2 without a warning; exit 2 prints one error line
and writes nothing, and exit 0 or 1 writes no NaN and no infinity but for an
interval bound.  A rerun gives the same bytes.
"""

from __future__ import annotations

import json
import math
import warnings

import numpy as np
import pytest

from gcelab.cli import main
from gcelab.scenario import OUTPUT_KINDS, _BOUNDS
from gcelab.solvers import CONVENTIONS, Schrodinger

N_SCENARIOS = 40
N_POINTS = 501


def hermitian(rng, n: int, scale: float, coupled: bool) -> np.ndarray:
    m = np.diag(rng.uniform(-scale, scale, n)).astype(complex)
    if coupled:
        upper = 0.2 * scale * np.triu(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), 1)
        m += upper + upper.conj().T
    return m


def as_json(m: np.ndarray) -> list:
    return [[[z.real, z.imag] if z.imag else z.real for z in row] for row in m.tolist()]


def random_scenario(seed: int) -> dict:
    """A scenario document drawn from ``seed``; even seeds are Dirac."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    model = ("dirac", "schrodinger")[seed % 2]
    doc = {"model": model, "n_systems": n}
    if model == "dirac":
        doc["convention"] = list(CONVENTIONS)[seed // 2 % len(CONVENTIONS)]
        dynamics = CONVENTIONS[doc["convention"]]
    else:
        doc["mass"] = float(rng.uniform(0.5, 2.0))
        dynamics = Schrodinger(doc["mass"])
    coupled = bool(rng.random() < 0.5)
    energy = float(rng.uniform(0.6, 2.5))
    energies = [energy] * n if coupled else rng.uniform(0.6, 2.5, n).tolist()

    # Outer segments are diagonal and below the energies, so that scattering
    # channels can propagate; interior ones may couple, sit on a band edge or
    # form a barrier.
    n_inner = int(rng.integers(0, 4))
    vs = [hermitian(rng, n, 0.5, False)]
    lengths = [float(rng.uniform(0.5, 2.0))]
    for _ in range(n_inner):
        kind = rng.choice(["plain", "edge", "barrier"])
        v = hermitian(rng, n, 1.0, coupled)
        length = float(rng.uniform(0.3, 2.0))
        if kind == "edge":
            # E = |V| on the diagonal, exactly or within 1e-9.
            v[np.diag_indices(n)] = np.array(energies) + rng.choice([0.0, -1e-9, 1e-9])
        elif kind == "barrier":
            v[np.diag_indices(n)] = np.array(energies) + rng.uniform(0.5, 3.0, n)
            kappa = np.abs(np.linalg.eigvals(dynamics.generator(v, energies)).real).max()
            target = rng.uniform(780.0, 820.0) if rng.random() < 0.1 else rng.uniform(0.0, 40.0)
            if kappa > 1e-6:
                length = float(target / kappa)
        vs.append(v)
        lengths.append(max(length, 1e-3))
    vs.append(hermitian(rng, n, 0.5, False))
    lengths.append(float(rng.uniform(0.5, 2.0)))
    cuts = np.cumsum([-1.0, *lengths]).tolist()
    segments = [
        {"x_lo": lo, "x_hi": hi, "v": as_json(v)} for lo, hi, v in zip(cuts[:-1], cuts[1:], vs)
    ]
    deltas = [
        {"x0": x0, "strength": as_json(hermitian(rng, n, 0.8, coupled))}
        for x0 in cuts[1:-1] if rng.random() < 0.4
    ]
    doc["profile"] = {"segments": segments, "deltas": deltas}
    doc["energies"] = energies

    kinds = ["incoming"] * n if coupled and rng.random() < 0.6 else (
        ["initial"] * n if coupled else rng.choice(["incoming", "initial"], n).tolist()
    )
    doc["boundaries"] = [
        {"kind": "incoming", "amplitude": [float(rng.normal()), float(rng.normal())]}
        if kind == "incoming" else
        {"kind": "initial", "value": [float(rng.normal()), [0.0, float(rng.normal())]]}
        for kind in kinds
    ]
    x_min = cuts[0] + float(rng.uniform(-0.5, 0.5))
    x_max = cuts[-1] + float(rng.uniform(-0.5, 0.5))
    doc["grid"] = {"x_min": x_min, "x_max": x_max, "n_points": N_POINTS}
    # The two relations hold their own preconditions, so most requests of
    # them exit 2; they are asked for less often.
    odds = {"currents": 0.5, "residuals": 0.5, "domains": 0.5}
    doc["requested_outputs"] = [o for o in OUTPUT_KINDS if rng.random() < odds.get(o, 0.15)]
    doc["pair"] = rng.choice(np.arange(1, n + 1), 2, replace=False).tolist()
    doc["generator_index"] = int(rng.integers(1, n * n))
    width = x_max - x_min
    doc["charge_interval"] = [x_min + 0.2 * width, x_min + 0.7 * width]
    return doc


def run_cli(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def outputs(out_dir) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())} if out_dir.exists() else {}


def assert_finite_but_bounds(node, bound: bool = False):
    """No NaN anywhere under ``node``, and +-inf only under a ``_BOUNDS`` key."""
    if isinstance(node, dict):
        for key, value in node.items():
            assert_finite_but_bounds(value, bound or key in _BOUNDS)
    elif isinstance(node, list):
        for value in node:
            assert_finite_but_bounds(value, bound)
    elif isinstance(node, float):
        assert not math.isnan(node) and (bound or math.isfinite(node))


@pytest.mark.parametrize("seed", range(N_SCENARIOS))
def test_random_scenario_keeps_the_exit_contract(seed, tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(random_scenario(seed)))
    for command in ("run", "solve"):
        runs = []
        for rerun in ("first", "second"):
            out = tmp_path / f"{command}-{rerun}"
            code, stdout, err = run_cli([command, "--scenario", str(path), "--out", str(out)],
                                        capsys)
            runs.append((code, stdout.replace(str(out), "OUT"), err, outputs(out)))
        code, stdout, err, files = runs[0]
        assert runs[1] == runs[0]
        assert code in (0, 1, 2)
        if code == 2:
            assert stdout == "" and files == {}
            assert err.startswith("gcelab: error: ") and err.count("\n") == 1
            continue
        assert err == ""
        for name, data in files.items():
            if name.endswith(".csv"):
                header, *rows = data.decode().splitlines()
                keys = header.split(",")
                for row in rows:
                    assert_finite_but_bounds(dict(zip(keys, map(float, row.split(",")))))
            else:
                assert_finite_but_bounds(json.loads(data))
