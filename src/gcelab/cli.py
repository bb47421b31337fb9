"""Command-line front end: basis inspection, solving, verification, scenario runs.

Exit status contract: 0 on success, 1 when a physics verdict fails (domain
constancy, the charge or delta-domain relation, or the convergence order), 2
on usage or input errors, on inputs too large for memory and on errors
writing the outputs.  Verdict failures still write the full summary so
results can be inspected, and print one line per failing check.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

import numpy as np

from .scenario import (
    Scenario,
    ScenarioFormatError,
    _as_matrix,
    _read_json,
    resolve_scenario,
    run_scenario,
    scan_scenario,
    set_delta_strength,
    solution_bundle,
    write_reports,
)
from .solvers import get_convention
from .sun import build_basis, decompose

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_USAGE = 2

_DEFAULT_TOL = 1e-8


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    value = _finite(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"a tolerance must be >= 0, got {text!r}")
    return value


def _parse_spacings(text: str) -> list[float]:
    try:
        vals = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"could not parse {text!r} as comma-separated grid spacings"
        ) from None
    if len(vals) < 2:
        raise argparse.ArgumentTypeError("need at least two spacings, e.g. 1e-2,5e-3")
    if not all(0 < h < math.inf for h in vals):
        raise argparse.ArgumentTypeError("grid spacings must be positive and finite")
    return vals


def _add_scenario_options(p: argparse.ArgumentParser, *, grid: bool = True,
                          tol: bool = False, spacings: bool = False) -> None:
    p.add_argument(
        "--scenario", required=True, metavar="PATH|NAME",
        help="scenario file, or a builtin name such as fig1a, fig1b, fig2",
    )
    p.add_argument(
        "--out", metavar="DIR",
        help="output directory (default: $GCE_LAB_OUT or ./gcelab_out)",
    )
    if grid:
        p.add_argument(
            "--grid", type=int, metavar="N",
            help="override the scenario grid point count (builtins use 4001)",
        )
    if spacings:
        p.add_argument(
            "--h", type=_parse_spacings, required=True, metavar="LIST",
            help="comma-separated grid spacings to scan, e.g. 1e-2,5e-3,2.5e-3",
        )
    p.add_argument(
        "--lambda", dest="lam", type=_finite, metavar="X",
        help="override the first delta-barrier strength (system 1 entry)",
    )
    p.add_argument(
        "--convention", metavar="NAME",
        help="override the Dirac matrix convention (default, vector, rotated)",
    )
    if tol:
        p.add_argument(
            "--tol", type=_tolerance, default=_DEFAULT_TOL, metavar="X",
            help="relative tolerance for constancy verdicts (default 1e-8)",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gcelab",
        description=(
            "Generalized continuity equations for SU(N)-coupled "
            "one-dimensional quantum systems: exact stationary solutions, "
            "generalized currents, and conservation-law verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser(
        "generators", help="print the su(N) generator basis and structure constants"
    )
    p.add_argument("n", type=int, help="number of coupled systems (N >= 2)")
    p.set_defaults(handler=_cmd_generators)

    p = sub.add_parser(
        "decompose",
        help="decompose a Hermitian matrix file into identity and generator parts",
    )
    p.add_argument("matrix", help="JSON file holding an NxN matrix ([re, im] entries)")
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("solve", help="solve a scenario and write the sampled states")
    _add_scenario_options(p)
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("currents", help="write the generalized pair current table")
    _add_scenario_options(p, tol=True)
    p.set_defaults(handler=_cmd_run, outputs=("currents",))

    p = sub.add_parser(
        "gce-verify",
        help="check continuity residuals and per-domain current constancy",
    )
    _add_scenario_options(p, tol=True)
    p.set_defaults(handler=_cmd_run, outputs=("residuals", "domains"))

    p = sub.add_parser(
        "scan", help="repeat the residual check over grid spacings, report the order"
    )
    _add_scenario_options(p, grid=False, spacings=True)
    p.set_defaults(handler=_cmd_scan)

    p = sub.add_parser("run", help="execute a full scenario with its requested outputs")
    _add_scenario_options(p, tol=True)
    p.set_defaults(handler=_cmd_run, outputs=None)
    return parser


# ---------------------------------------------------------------------------
# Shared plumbing


def _prepare_scenario(args) -> Scenario:
    s = resolve_scenario(args.scenario)
    if getattr(args, "lam", None) is not None:
        s = set_delta_strength(s, args.lam)
    name = getattr(args, "convention", None)
    if name is not None:
        if s.model != "dirac":
            raise ScenarioFormatError(
                "--convention applies to dirac scenarios only"
            )
        get_convention(name)
        s = replace(s, convention=name)
    return s


def _out_dir(args) -> str:
    if args.out:
        return args.out
    env = os.environ.get("GCE_LAB_OUT")
    return env if env else os.path.join(os.getcwd(), "gcelab_out")


def _emit(bundle, args) -> int:
    for path in write_reports(bundle, _out_dir(args)):
        print(f"wrote {path}")
    for c in bundle.checks:
        if not c["passed"]:
            print(
                f"failed check: {c['name']} value={_show(c['value'])} "
                f"tol={_show(c['tol'])} where={_show(c['where'])}"
            )
    print(f"verdict: {'pass' if bundle.passed else 'fail'}")
    return EXIT_OK if bundle.passed else EXIT_VERDICT


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _show(value) -> str:
    """A check field: a number, a list of numbers or none."""
    if value is None:
        return "none"
    if isinstance(value, list):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    return _fmt(value)


def _fmt_entry(z: complex) -> str:
    if z == 0:
        return "0"
    if z.imag == 0:
        return _fmt(z.real)
    if z.real == 0:
        return f"{_fmt(z.imag)}j"
    return f"{_fmt(z.real)}{z.imag:+.12g}j"


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_generators(args) -> int:
    basis = build_basis(args.n)
    # Formed before the first line, so a basis too large for memory prints nothing.
    f = basis.structure_constants
    print(
        f"su({basis.n}) generalized Gell-Mann basis: {basis.dim} generators, "
        "normalization Tr(T_a T_b) = delta_ab / 2"
    )
    width = 0
    cells = []
    for a in range(1, basis.dim + 1):
        t = basis.generator(a)
        rows = [[_fmt_entry(z) for z in row] for row in t]
        cells.append(rows)
        width = max(width, max(len(c) for row in rows for c in row))
    for a, rows in enumerate(cells, start=1):
        print(f"\nT_{a} =")
        for row in rows:
            print("  [ " + "  ".join(c.rjust(width) for c in row) + " ]")
    print("\nnonzero structure constants (a < b < c):")
    shown = 0
    for a in range(basis.dim):
        for b in range(a + 1, basis.dim):
            for c in range(b + 1, basis.dim):
                if abs(f[a, b, c]) > 1e-12:
                    print(f"  f({a + 1},{b + 1},{c + 1}) = {_fmt(f[a, b, c])}")
                    shown += 1
    if shown == 0:
        print("  none")
    return EXIT_OK


def _read_matrix(path: str) -> np.ndarray:
    doc = _read_json(path, "matrix")
    if not isinstance(doc, list) or not doc:
        raise ScenarioFormatError(f"{path}: expected a nested-list square matrix")
    return np.array(_as_matrix(doc, len(doc), path), dtype=complex)


def _cmd_decompose(args) -> int:
    v = _read_matrix(args.matrix)
    basis = build_basis(v.shape[0])
    dec = decompose(v, basis)
    print(f"n = {basis.n}")
    print(f"v0 = {_fmt(dec.v0[0])}")
    for k in range(basis.dim):
        print(f"C({k + 1}) = {_fmt(dec.c[0, k])}")
    return EXIT_OK


def _cmd_solve(args) -> int:
    s = _prepare_scenario(args)
    bundle = solution_bundle(s, n_points=args.grid)
    return _emit(bundle, args)


def _cmd_scan(args) -> int:
    s = _prepare_scenario(args)
    bundle = scan_scenario(s, args.h)
    scan = bundle.summary["scan"]
    order = "none" if scan["mean_order"] is None else _fmt(scan["mean_order"])
    print(f"order: {order}" + (" (residuals at rounding)" if scan["at_rounding"] else ""))
    return _emit(bundle, args)


def _cmd_run(args) -> int:
    s = _prepare_scenario(args)
    bundle = run_scenario(s, tol=args.tol, outputs=args.outputs, n_points=args.grid)
    return _emit(bundle, args)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as e:
        print(f"gcelab: error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as e:
        detail = f": {e}" if str(e) else ""
        print(f"gcelab: error: input too large for memory{detail}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
