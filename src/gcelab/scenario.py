"""Scenario files, orchestration, and report writing.

A scenario is a JSON document whose keys match the Scenario dataclass fields.
Complex numbers are written as plain reals or two-element [re, im] lists;
matrices are nested lists.  A parsed scenario holds the solver's own inputs:
segments, delta barriers in file order and one boundary per system.  Running
a scenario solves the stated systems in one solve, each at its own energy and
with its own boundary kind (the solver names the entry of a coupled profile
that needs one of each), evaluates the requested outputs in a fixed canonical
order, and returns a ReportBundle whose serialized form is byte-deterministic:
no timestamps, 17 significant digits in CSV cells, LF line endings, sorted
JSON keys.
"""

from __future__ import annotations

import contextlib
import errno
import functools
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass, field, replace
from importlib import resources

import numpy as np

from . import engine
from ._fmt17 import csv_block
from .engine import (
    charge_current_relation,
    delta_domain_relation,
    detect_domains,
    dirac_current,
    gce_residual_dirac,
    gce_residual_schrodinger,
    interval_stats,
    schrodinger_current,
    transform_from_sigma_rho,
    transformed_current,
)
from .solvers import (
    DeltaBarrier,
    InitialValue,
    PiecewiseSolution,
    PotentialProfile,
    Scattering,
    Segment,
    delta_junction,
    get_convention,
    solve_dirac,
    solve_schrodinger,
)
from .sun import build_basis

# The package version; gcelab/__init__.py re-exports it.
__version__ = "0.1.0"

_CHARGE_TOL = 1e-6
_SCAN_ORDER_TOL = 0.2


class ScenarioFormatError(ValueError):
    """Raised when a scenario document violates the schema; names the key."""


# ---------------------------------------------------------------------------
# Scenario model: GridSpec, TransformEntry and the solver's Segment,
# DeltaBarrier, Scattering and InitialValue, all with tuple payloads, so
# equality, hashing and the save/load round trip are exact.


@dataclass(frozen=True)
class GridSpec:
    x_min: float
    x_max: float
    n_points: int


@dataclass(frozen=True)
class TransformEntry:
    sigma: int
    rho: float


@dataclass(frozen=True)
class Scenario:
    model: str
    n_systems: int
    segments: tuple
    deltas: tuple
    energies: tuple
    boundaries: tuple
    grid: GridSpec
    requested_outputs: tuple
    convention: str | None = None
    mass: float | None = None
    transform: TransformEntry | None = None
    pair: tuple = (1, 2)
    generator_index: int = 1
    charge_interval: tuple | None = None
    quadrature_points: int = 10001

    @property
    def profile(self) -> PotentialProfile:
        return PotentialProfile(self.segments, self.deltas)

    def grid_array(self, n_points: int | None = None) -> np.ndarray:
        n = int(n_points) if n_points is not None else self.grid.n_points
        if n < 3:
            raise ScenarioFormatError("grid.n_points: need at least 3 points")
        return np.linspace(self.grid.x_min, self.grid.x_max, n)


# ---------------------------------------------------------------------------
# Parsing


def _fail(key: str, why: str):
    raise ScenarioFormatError(f"{key}: {why}")


def _is_real(value) -> bool:
    """A finite double: not a bool, NaN, an infinity or an int beyond range."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return number and abs(value) <= sys.float_info.max


def _as_float(value, key: str) -> float:
    if not _is_real(value):
        _fail(key, f"expected a finite real number, got {value!r}")
    return float(value)


def _as_int(value, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(key, f"expected an integer, got {value!r}")
    return int(value)


def _as_complex(value, key: str) -> complex:
    if _is_real(value):
        return complex(value)
    if isinstance(value, list) and len(value) == 2 and all(_is_real(p) for p in value):
        return complex(value[0], value[1])
    _fail(key, f"expected a finite real or an [re, im] pair, got {value!r}")


def _as_matrix(value, n: int, key: str) -> tuple:
    if not isinstance(value, list) or len(value) != n:
        _fail(key, f"expected an {n}x{n} matrix")
    rows = []
    for r, row in enumerate(value):
        if not isinstance(row, list) or len(row) != n:
            _fail(key, f"row {r} is not length {n}")
        rows.append(tuple(_as_complex(e, f"{key}[{r}][{c}]") for c, e in enumerate(row)))
    return tuple(rows)


def _known_keys(doc: dict, allowed, key: str):
    for k in doc:
        if k not in allowed:
            _fail(f"{key}.{k}" if key else k, "unknown key")


def scenario_from_dict(doc: dict) -> Scenario:
    """Validate a parsed scenario document; errors name the offending key."""
    if not isinstance(doc, dict):
        raise ScenarioFormatError("document: expected a JSON object at top level")
    _known_keys(
        doc,
        {
            "model", "n_systems", "profile", "energies", "boundaries", "convention",
            "mass", "transform", "grid", "requested_outputs", "pair",
            "generator_index", "charge_interval", "quadrature_points",
        },
        "",
    )
    for required in ("model", "n_systems", "profile", "energies", "boundaries", "grid"):
        if required not in doc:
            _fail(required, "missing required key")
    model = doc["model"]
    if model not in ("dirac", "schrodinger"):
        _fail("model", f"must be 'dirac' or 'schrodinger', got {model!r}")
    n = _as_int(doc["n_systems"], "n_systems")
    if n < 1:
        _fail("n_systems", "must be at least 1")

    prof = doc["profile"]
    if not isinstance(prof, dict):
        _fail("profile", "expected an object with 'segments' and optional 'deltas'")
    _known_keys(prof, {"segments", "deltas"}, "profile")
    raw_segments = prof.get("segments")
    if not isinstance(raw_segments, list) or not raw_segments:
        _fail("profile.segments", "expected a non-empty list")
    segments = []
    for s, seg in enumerate(raw_segments):
        key = f"profile.segments[{s}]"
        if not isinstance(seg, dict):
            _fail(key, "expected an object")
        _known_keys(seg, {"x_lo", "x_hi", "v"}, key)
        lo = _as_float(seg.get("x_lo"), f"{key}.x_lo")
        hi = _as_float(seg.get("x_hi"), f"{key}.x_hi")
        segments.append(Segment(lo, hi, _as_matrix(seg.get("v"), n, f"{key}.v")))
    deltas = []
    for d, delta in enumerate(prof.get("deltas", [])):
        key = f"profile.deltas[{d}]"
        if not isinstance(delta, dict):
            _fail(key, "expected an object")
        _known_keys(delta, {"x0", "strength"}, key)
        x0 = _as_float(delta.get("x0"), f"{key}.x0")
        deltas.append(DeltaBarrier(x0, _as_matrix(delta.get("strength"), n, f"{key}.strength")))

    energies = doc["energies"]
    if not isinstance(energies, list) or len(energies) != n:
        _fail("energies", f"expected a list of {n} energies")
    energies = tuple(_as_float(e, f"energies[{i}]") for i, e in enumerate(energies))

    raw_bounds = doc["boundaries"]
    if not isinstance(raw_bounds, list) or len(raw_bounds) != n:
        _fail("boundaries", f"expected a list of {n} boundary objects")
    boundaries = []
    for b, bound in enumerate(raw_bounds):
        key = f"boundaries[{b}]"
        if not isinstance(bound, dict) or "kind" not in bound:
            _fail(key, "expected an object with a 'kind'")
        kind = bound["kind"]
        if kind == "incoming":
            _known_keys(bound, {"kind", "amplitude"}, key)
            amplitude = _as_complex(bound.get("amplitude"), f"{key}.amplitude")
            boundaries.append(Scattering((amplitude,)))
        elif kind == "initial":
            _known_keys(bound, {"kind", "value"}, key)
            raw = bound.get("value")
            if not isinstance(raw, list) or len(raw) != 2:
                _fail(f"{key}.value", "expected a two-component state")
            boundaries.append(InitialValue(tuple(
                _as_complex(v, f"{key}.value[{i}]") for i, v in enumerate(raw)
            )))
        else:
            _fail(f"{key}.kind", f"must be 'incoming' or 'initial', got {kind!r}")

    convention = doc.get("convention")
    if convention is not None:
        if model != "dirac":
            _fail("convention", "only meaningful for the dirac model")
        if not isinstance(convention, str):
            _fail("convention", "expected a convention name")
    mass = doc.get("mass")
    if mass is not None:
        if model != "schrodinger":
            _fail("mass", "only meaningful for the schrodinger model")
        mass = _as_float(mass, "mass")

    transform = doc.get("transform")
    if transform is not None:
        if not isinstance(transform, dict):
            _fail("transform", "expected an object with 'sigma' and 'rho'")
        _known_keys(transform, {"sigma", "rho"}, "transform")
        sigma = _as_int(transform.get("sigma"), "transform.sigma")
        if sigma not in (-1, 1):
            _fail("transform.sigma", "must be -1 or +1")
        transform = TransformEntry(sigma, _as_float(transform.get("rho"), "transform.rho"))

    raw_grid = doc["grid"]
    if not isinstance(raw_grid, dict):
        _fail("grid", "expected an object with x_min, x_max, n_points")
    _known_keys(raw_grid, {"x_min", "x_max", "n_points"}, "grid")
    grid = GridSpec(
        _as_float(raw_grid.get("x_min"), "grid.x_min"),
        _as_float(raw_grid.get("x_max"), "grid.x_max"),
        _as_int(raw_grid.get("n_points"), "grid.n_points"),
    )
    if not grid.x_max > grid.x_min:
        _fail("grid.x_min", "x_min must be below x_max")
    if grid.n_points < 3:
        _fail("grid.n_points", "need at least 3 points")

    outputs = doc.get("requested_outputs", [])
    if not isinstance(outputs, list):
        _fail("requested_outputs", "expected a list")
    for o in outputs:
        if o not in OUTPUT_KINDS:
            _fail("requested_outputs", f"unknown output {o!r}; known: {OUTPUT_KINDS}")

    pair = doc.get("pair", [1, 2])
    if not isinstance(pair, list) or len(pair) != 2:
        _fail("pair", "expected a two-element system-index list")
    pair = tuple(_as_int(p, f"pair[{i}]") for i, p in enumerate(pair))
    for p in pair:
        if not 1 <= p <= n:
            _fail("pair", f"system index {p} outside 1..{n}")

    generator_index = _as_int(doc.get("generator_index", 1), "generator_index")
    if not 1 <= generator_index <= n * n - 1:
        _fail("generator_index", f"outside 1..{n * n - 1}")

    charge_interval = doc.get("charge_interval")
    if charge_interval is not None:
        if not isinstance(charge_interval, list) or len(charge_interval) != 2:
            _fail("charge_interval", "expected [x1, x2]")
        charge_interval = tuple(
            _as_float(v, f"charge_interval[{i}]") for i, v in enumerate(charge_interval)
        )
        if not charge_interval[1] > charge_interval[0]:
            _fail("charge_interval", "x1 must be below x2")
    quadrature_points = _as_int(doc.get("quadrature_points", 10001), "quadrature_points")
    if quadrature_points < 3:
        _fail("quadrature_points", "need at least 3 points")

    scenario = Scenario(
        model=model,
        n_systems=n,
        segments=tuple(segments),
        deltas=tuple(deltas),
        energies=energies,
        boundaries=tuple(boundaries),
        grid=grid,
        requested_outputs=tuple(outputs),
        convention=convention,
        mass=mass,
        transform=transform,
        pair=pair,
        generator_index=generator_index,
        charge_interval=charge_interval,
        quadrature_points=quadrature_points,
    )
    try:
        scenario.profile  # building the profile validates its geometry
    except ValueError as e:
        raise ScenarioFormatError(f"profile.segments: {e}") from None
    if scenario.convention is not None:
        try:
            get_convention(scenario.convention)
        except ValueError as e:
            raise ScenarioFormatError(f"convention: {e}") from None
    return scenario


def load_scenario(path) -> Scenario:
    """Read and validate a scenario file; parse errors carry line/column."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ScenarioFormatError(f"{path}: no such scenario file") from None
    except json.JSONDecodeError as e:
        raise ScenarioFormatError(
            f"{path}: parse error at line {e.lineno} column {e.colno}: {e.msg}"
        ) from None
    return scenario_from_dict(doc)


# ---------------------------------------------------------------------------
# Serialization


def _complex_out(z: complex):
    return z.real if z.imag == 0.0 else [z.real, z.imag]


def _matrix_out(m: tuple):
    return [[_complex_out(e) for e in row] for row in m]


def serialize_scenario(s: Scenario) -> dict:
    doc = {
        "model": s.model,
        "n_systems": s.n_systems,
        "profile": {
            "segments": [
                {"x_lo": seg.x_lo, "x_hi": seg.x_hi, "v": _matrix_out(seg.v)}
                for seg in s.segments
            ],
        },
        "energies": list(s.energies),
        "boundaries": [
            {"kind": "incoming", "amplitude": _complex_out(b.amplitudes[0])}
            if isinstance(b, Scattering)
            else {"kind": "initial", "value": [_complex_out(v) for v in b.values]}
            for b in s.boundaries
        ],
        "grid": {
            "x_min": s.grid.x_min,
            "x_max": s.grid.x_max,
            "n_points": s.grid.n_points,
        },
        "requested_outputs": list(s.requested_outputs),
        "pair": list(s.pair),
        "generator_index": s.generator_index,
        "quadrature_points": s.quadrature_points,
    }
    if s.deltas:
        doc["profile"]["deltas"] = [
            {"x0": d.x0, "strength": _matrix_out(d.strength)} for d in s.deltas
        ]
    if s.convention is not None:
        doc["convention"] = s.convention
    if s.mass is not None:
        doc["mass"] = s.mass
    if s.transform is not None:
        doc["transform"] = {"sigma": s.transform.sigma, "rho": s.transform.rho}
    if s.charge_interval is not None:
        doc["charge_interval"] = list(s.charge_interval)
    return doc


def save_scenario(s: Scenario, path) -> str:
    payload = json.dumps(serialize_scenario(s), indent=2, sort_keys=True) + "\n"
    _atomic_write([(path, [payload.encode("utf-8")])])
    return str(path)


# ---------------------------------------------------------------------------
# Built-in scenarios


def builtin_scenario_names() -> list[str]:
    root = resources.files("gcelab") / "scenarios"
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def load_builtin(name: str) -> Scenario:
    path = resources.files("gcelab") / "scenarios" / f"{name}.json"
    if not path.is_file():
        known = ", ".join(builtin_scenario_names())
        raise ScenarioFormatError(f"unknown builtin scenario {name!r}; known: {known}")
    return scenario_from_dict(json.loads(path.read_text(encoding="utf-8")))


def resolve_scenario(ref: str) -> Scenario:
    """A bare name picks a builtin scenario; anything path-like loads a file."""
    if os.sep not in ref and "." not in ref:
        return load_builtin(ref)
    return load_scenario(ref)


def set_delta_strength(s: Scenario, lam: float) -> Scenario:
    """New scenario with the (1, 1) strength entry of the first delta set to lam."""
    if not s.deltas:
        raise ScenarioFormatError(
            "scenario has no delta barrier to override with --lambda"
        )
    first = s.deltas[0]
    strength = [list(row) for row in first.strength]
    strength[0][0] = complex(lam)
    strength = tuple(tuple(row) for row in strength)
    new_first = replace(first, strength=strength)
    return replace(s, deltas=(new_first,) + s.deltas[1:])


# ---------------------------------------------------------------------------
# Orchestration


@dataclass
class ReportBundle:
    """Computed tables plus a machine-readable summary for one scenario run.

    Each table is a ``(header, columns)`` pair: a list of column names and a
    list of 1-D float64 arrays of one length, one per name.  A column may be a
    view of an array the engine already holds (the grid, a current, a row of
    the residual table), so a table costs no copy of its samples.  Flag
    columns hold 0.0/1.0.

    ``checks`` lists the run's verdicts as ``_check`` records; the read-only
    ``passed`` is true when all of them passed (so with none), and the
    summary carries both under the same keys.
    """

    scenario: Scenario
    grid: np.ndarray
    tables: dict = field(default_factory=dict)
    summary: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks)


def _check(name: str, value, tol: float, where=None, passed=None) -> dict:
    """One verdict of ``value`` against ``tol`` at ``where``, an interval or a
    point; passed when ``value <= tol`` unless ``passed`` is given."""
    if passed is None:
        passed = bool(value <= tol)
    return {"name": name, "value": value, "tol": tol, "passed": passed, "where": where}


def _finish(bundle: ReportBundle) -> ReportBundle:
    """Record the bundle's checks and its verdict in its summary."""
    bundle.summary["checks"] = bundle.checks
    bundle.summary["passed"] = bundle.passed
    return bundle


def _annotate(e: ValueError, what: str):
    raise type(e)(f"{what}: {e}") from None


def _solve_stack(s: Scenario) -> PiecewiseSolution:
    """The scenario's one solve.  The convention and mass defaults are
    resolved here only; the outputs read them from the solution."""
    try:
        if s.model == "dirac":
            return solve_dirac(s.profile, s.energies, s.boundaries, s.convention or "default")
        mass = s.mass if s.mass is not None else 1.0
        return solve_schrodinger(s.profile, s.energies, s.boundaries, mass=mass)
    except ValueError as e:
        _annotate(e, "solving the scenario systems")


def _transform_spec(s: Scenario, sol: PiecewiseSolution):
    if s.transform is None:
        return engine.identity_transform()
    return transform_from_sigma_rho(s.transform.sigma, s.transform.rho, sol.convention)


def _pair_current(s: Scenario, sol: PiecewiseSolution, grid: np.ndarray):
    """The current displayed by the scenario: transformed when a map is set."""
    spec = _transform_spec(s, sol)
    if s.model == "dirac" and not spec.is_identity:
        return transformed_current(sol, s.pair, spec, grid), True
    fn = dirac_current if s.model == "dirac" else schrodinger_current
    return fn(sol, None, tuple(s.pair), grid), False


def _summary_head(s: Scenario, grid=None) -> dict:
    """Summary keys shared by every command.

    The system count and grid block are given where the bundle samples one
    grid; a scan omits them, its grids being the scanned spacings.
    """
    head = {
        "tool": f"gcelab {__version__}",
        "model": s.model,
        "scenario": serialize_scenario(s),
    }
    if grid is not None:
        head["n_systems"] = s.n_systems
        head["grid"] = {
            "x_min": s.grid.x_min,
            "x_max": s.grid.x_max,
            "n_points": len(grid),
            "spacing": float(grid[1] - grid[0]),
        }
    return head


def _currents(s, sol, grid, tol, current):
    j, transformed = current()
    columns = [grid, j.j1.real, j.j1.imag, j.j0.real, j.j0.imag]
    block = {"pair": list(s.pair), "transformed": transformed}
    return (["x", "re_j1", "im_j1", "re_j0", "im_j0"], columns), block, []


def _residuals(s, sol, grid, tol, current):
    if s.n_systems < 2:
        raise ScenarioFormatError("residuals need at least two systems")
    fn = gce_residual_dirac if s.model == "dirac" else gce_residual_schrodinger
    try:
        report = fn(sol, build_basis(s.n_systems), s.generator_index, grid)
    except ValueError as e:
        _annotate(e, "evaluating the continuity residual")
    # The residual table is real: its imaginary column is exactly 0.
    columns = [grid, report.residual, np.broadcast_to(0.0, len(grid))]
    block = {
        "generator_index": s.generator_index,
        "rms": report.residual_rms,
        "max": report.residual_max,
    }
    return (["x", "re_residual", "im_residual"], columns), block, []


def _domains(s, sol, grid, tol, current):
    i, j = s.pair
    # A pair at unequal energies keeps the time term i(E_i - E_j) psi_i^dag psi_j
    # of its continuity law: its current is conserved nowhere.
    same = sol.energies[i - 1] == sol.energies[j - 1]
    domains = detect_domains(sol.profile, s.pair, _transform_spec(s, sol)) if same else []
    j1 = current()[0].j1
    snap = engine.grid_snap(grid)
    items, checks = [], []
    covered = np.zeros(len(grid), dtype=bool)
    for dom in domains:
        covered |= (grid >= dom.x_lo - snap) & (grid <= dom.x_hi + snap)
        items.append({"x_lo": dom.x_lo, "x_hi": dom.x_hi, "sampled": False})
        if not ((grid > dom.x_lo + snap) & (grid < dom.x_hi - snap)).any():
            continue  # detected but off-grid: listed without stats, not judged
        mean, max_dev, rel = interval_stats(grid, j1, dom.x_lo, dom.x_hi)
        checks.append(_check("domain_constancy", rel, tol, where=[dom.x_lo, dom.x_hi]))
        items[-1].update(
            sampled=True, re_mean=mean.real, im_mean=mean.imag, max_dev=max_dev,
            rel_dev=rel, passed=checks[-1]["passed"],
        )
    # Columns are the keys of the sampled items; `passed` becomes 0.0/1.0.
    header = ["x_lo", "x_hi", "re_mean", "im_mean", "max_dev", "rel_dev", "passed"]
    sampled = [it for it in items if it["sampled"]]
    table = (header, [np.array([it[k] for it in sampled], dtype=float) for k in header])
    all_passed = all(c["passed"] for c in checks)
    block = {"count": len(items), "tol": tol, "all_passed": all_passed, "items": items}
    # Locality guard: the current should actually vary off the domains.
    # Informational only; the verdict tracks domain constancy.
    if not covered.all():
        off = j1[~covered]
        off_mean = complex(off.mean())
        off_dev = float(np.abs(off - off_mean).max())
        block["outside"] = {
            "n_points": int((~covered).sum()),
            "rel_variation": off_dev / max(abs(off_mean), 1e-30),
            "guard": 0.1,
        }
    return table, block, checks


def _charge_relation(s, sol, grid, tol, current):
    if s.charge_interval is None:
        _fail("charge_interval", "required for the charge_relation output")
    x1, x2 = s.charge_interval
    try:
        rel = charge_current_relation(sol, s.pair, x1, x2, n_points=s.quadrature_points)
    except ValueError as e:
        _annotate(e, "evaluating the charge-current relation")
    check = _check("charge_relation", rel.discrepancy, _CHARGE_TOL, where=[x1, x2])
    block = {
        "x1": x1, "x2": x2,
        "quadrature_points": s.quadrature_points,
        "re_q": rel.q.real, "im_q": rel.q.imag,
        "re_boundary": rel.boundary_value.real, "im_boundary": rel.boundary_value.imag,
        "discrepancy": rel.discrepancy,
        "tol": _CHARGE_TOL,
        "passed": check["passed"],
    }
    return None, block, [check]


def _delta_relation(s, sol, grid, tol, current):
    if s.model != "dirac":
        _fail("requested_outputs", "delta_relation needs the dirac model")
    deltas = sol.profile.deltas
    if not len(deltas):
        _fail("profile.deltas", "delta_relation needs a delta barrier")
    i = s.pair[0]
    barrier = next((d for d in deltas if d.strength[i - 1, i - 1] != 0.0), deltas[0])
    x0 = float(barrier.x0)
    junction = delta_junction(np.array([[barrier.strength[i - 1, i - 1]]]), sol.convention)
    try:
        rel = delta_domain_relation(sol, s.pair, junction, x0=x0, spec=_transform_spec(s, sol))
    except ValueError as e:
        _annotate(e, "evaluating the delta-domain relation")
    checks = [
        _check(f"delta_relation.{key}", getattr(rel, key), tol, where=x0)
        for key in ("deviation", "rel_dev_minus", "rel_dev_plus")
    ]
    block = {
        "x0": x0,
        "re_c_minus": rel.c_minus.real, "im_c_minus": rel.c_minus.imag,
        "re_c_plus": rel.c_plus.real, "im_c_plus": rel.c_plus.imag,
        "re_predicted_c_plus": rel.predicted_c_plus.real,
        "im_predicted_c_plus": rel.predicted_c_plus.imag,
        "deviation": rel.deviation,
        "rel_dev_minus": rel.rel_dev_minus,
        "rel_dev_plus": rel.rel_dev_plus,
        "tol": tol,
        "passed": all(c["passed"] for c in checks),
    }
    return None, block, checks


# One function per output kind, in canonical order.  Each takes (scenario,
# solution, grid, tol, current), current() being the run's one pair current,
# and returns (table or None, summary block, checks).
OUTPUTS = {
    "currents": _currents,
    "residuals": _residuals,
    "domains": _domains,
    "charge_relation": _charge_relation,
    "delta_relation": _delta_relation,
}
OUTPUT_KINDS = tuple(OUTPUTS)


def run_scenario(s: Scenario, *, tol: float = 1e-8, outputs=None, n_points=None) -> ReportBundle:
    """Execute a scenario and collect the requested outputs in canonical order."""
    wanted = tuple(outputs) if outputs is not None else s.requested_outputs
    for o in wanted:
        if o not in OUTPUTS:
            _fail("requested_outputs", f"unknown output {o!r}")
    sol = _solve_stack(s)
    grid = s.grid_array(n_points)
    current = functools.cache(lambda: _pair_current(s, sol, grid))
    bundle = ReportBundle(scenario=s, grid=grid, summary=_summary_head(s, grid))
    summary = bundle.summary
    summary["convention"] = sol.convention.name if s.model == "dirac" else None
    summary["mass"] = sol.mass
    summary["outputs"] = [o for o in OUTPUT_KINDS if o in wanted]
    for kind in summary["outputs"]:
        table, summary[kind], checks = OUTPUTS[kind](s, sol, grid, tol, current)
        if table is not None:
            bundle.tables[kind] = table
        bundle.checks += checks
    return _finish(bundle)


def solution_bundle(s: Scenario, n_points=None) -> ReportBundle:
    """Solver stage only: sampled state components on the scenario grid."""
    grid = s.grid_array(n_points)
    sol = _solve_stack(s)
    # Sampled one block at a time, so the solver's work does not span the grid.
    samples = np.empty((len(grid), sol.dim), dtype=complex)
    for lo, hi in engine._spans(len(grid), sol.dim):
        samples[lo:hi] = sol.evaluate(grid[lo:hi])
    header = ["x"] + [f"{part}_u{c}" for c in range(1, sol.dim + 1) for part in ("re", "im")]
    bundle = ReportBundle(scenario=s, grid=grid, summary=_summary_head(s, grid))
    # The float view of the contiguous complex samples interleaves re, im.
    bundle.tables["solution"] = (header, [grid, *samples.view(float).T])
    bundle.summary["components"] = sol.dim
    return _finish(bundle)


# A residual RMS within this many rounding floors is rounding, not stencil
# truncation: the rounding residuals of free2's scan measure 0.11-0.12
# floors, the truncation residuals of the other builtins' scans at least 1e4.
ROUNDING_FACTOR = 10.0


def order_verdict(spacings, rms, floors) -> dict:
    """Convergence verdict of residual RMS values over a list of grid spacings.

    A pair of consecutive spacings is judged only when both RMS values clear
    ``ROUNDING_FACTOR`` times their rounding floors: below that the residual
    is rounding, which grows as 1/h, and an order fitted to it means nothing.
    When no RMS value clears its floor the scan passes at rounding.
    Otherwise the mean order of the judged pairs must be within
    ``_SCAN_ORDER_TOL`` of 2, and a scan with no judged pair fails.
    """
    clear = [r > ROUNDING_FACTOR * f for r, f in zip(rms, floors)]
    orders = [
        math.log(rms[k] / rms[k + 1]) / math.log(spacings[k] / spacings[k + 1])
        if clear[k] and clear[k + 1] else None
        for k in range(len(rms) - 1)
    ]
    judged = [o for o in orders if o is not None]
    mean_order = sum(judged) / len(judged) if judged else None
    at_rounding = not any(clear)
    passed = at_rounding or (
        mean_order is not None and abs(mean_order - 2.0) <= _SCAN_ORDER_TOL
    )
    return {
        "orders": orders,
        "mean_order": mean_order,
        "at_rounding": at_rounding,
        "passed": passed,
    }


def scan_scenario(s: Scenario, spacings) -> ReportBundle:
    """Continuity-residual norms over grid spacings plus the convergence order.

    The verdict follows ``order_verdict``: residuals above their rounding
    floors must converge at second order to within 0.2, and residuals that
    are rounding at every spacing pass as such.
    """
    spacings = [float(h) for h in spacings]
    if len(spacings) < 2:
        raise ScenarioFormatError("--h needs at least two spacings for an order")
    sol = _solve_stack(s)
    basis = build_basis(s.n_systems)
    fn = gce_residual_dirac if s.model == "dirac" else gce_residual_schrodinger
    span = s.grid.x_max - s.grid.x_min
    norms, floors, actual = [], [], []
    for h in spacings:
        n = max(3, int(round(span / h)) + 1)
        grid = s.grid_array(n)
        try:
            report = fn(sol, basis, s.generator_index, grid)
        except ValueError as e:
            _annotate(e, f"evaluating the residual at spacing {h}")
        actual.append(float(grid[1] - grid[0]))
        norms.append(report.residual_rms)
        floors.append(report.floor)
    verdict = order_verdict(actual, norms, floors)
    mean = verdict["mean_order"]
    value = None if mean is None else abs(mean - 2.0)
    check = _check("scan_order", value, _SCAN_ORDER_TOL, passed=verdict["passed"])
    bundle = ReportBundle(s, s.grid_array(), summary=_summary_head(s), checks=[check])
    bundle.tables["scan"] = (["h", "rms"], [np.array(actual), np.array(norms)])
    bundle.summary["generator_index"] = s.generator_index
    bundle.summary["scan"] = {
        "spacings": actual,
        "rms": norms,
        "orders": verdict["orders"],
        "mean_order": mean,
        "order_tol": _SCAN_ORDER_TOL,
        "floors": floors,
        "floor_factor": ROUNDING_FACTOR,
        "at_rounding": verdict["at_rounding"],
        "passed": check["passed"],
    }
    return _finish(bundle)


# ---------------------------------------------------------------------------
# Report writing


# Cells formatted per CSV block: a write holds one block's digits and
# character layout, whatever the table's size.
_BLOCK_CELLS = 4096


def _atomic_write(files) -> None:
    """Write each ``(path, chunks)`` pair's byte chunks to ``path`` through
    ``path.tmp``.

    Every ``.tmp`` file is written, and every target checked not to be a
    directory, before the first rename, and the renames follow the order of
    ``files``.  So a failure up to the renames removes every ``.tmp`` file
    and leaves every earlier file as it was, and a file listed last is
    replaced only after all the others.
    """
    tmps = []
    try:
        for path, chunks in files:
            tmps.append(f"{path}.tmp")
            with open(tmps[-1], "wb") as fh:
                for chunk in chunks:
                    fh.write(chunk)
        for path, _ in files:
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        for (path, _), tmp in zip(files, tmps):
            os.replace(tmp, path)
    except BaseException as e:
        for tmp in tmps:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        if isinstance(e, OSError):
            raise OSError(f"writing {path}: {e}") from None
        raise


def _csv_chunks(header, columns):
    """The CSV bytes of one table: the header line, then blocks of rows, each
    stacked from its slices of the columns.  A table whose columns do not
    match its names or differ in length raises before any byte is made."""
    lengths = {len(c) for c in columns}
    if len(columns) != len(header) or len(lengths) > 1:
        raise ValueError(
            f"a table needs one column per name ({len(header)}) of one length, "
            f"got {len(columns)} columns of lengths {sorted(lengths)}"
        )
    step = max(1, _BLOCK_CELLS // len(columns))
    blocks = (
        csv_block(np.column_stack([c[lo:lo + step] for c in columns]))
        for lo in range(0, len(columns[0]), step)
    )
    return itertools.chain([(",".join(header) + "\n").encode("utf-8")], blocks)


def write_reports(bundle: ReportBundle, out_dir) -> list[str]:
    """Write one CSV per table plus summary.json; returns the written paths.

    summary.json is replaced last, and only once every table has been.
    """
    os.makedirs(out_dir, exist_ok=True)
    files = [
        (os.path.join(out_dir, f"{name}.csv"), _csv_chunks(header, columns))
        for name, (header, columns) in bundle.tables.items()
    ]
    payload = json.dumps(bundle.summary, indent=2, sort_keys=True) + "\n"
    files.append((os.path.join(out_dir, "summary.json"), [payload.encode("utf-8")]))
    _atomic_write(files)
    return [path for path, _ in files]
