"""Shared fixtures for the gcelab test suite."""

from __future__ import annotations

import numpy as np
import pytest

from gcelab import engine
from gcelab.solvers import (
    DeltaBarrier,
    PotentialProfile,
    Segment,
    solve_dirac,
    solve_schrodinger,
)
from gcelab.sun import SunBasis, build_basis


@pytest.fixture(scope="session")
def bases() -> dict[int, SunBasis]:
    """One basis per rank used across the suite; construction is cheap but cached."""
    return {n: build_basis(n) for n in (2, 3, 4, 5)}


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (a + a.conj().T)


def diagonal_profile(members) -> PotentialProfile:
    """Diagonal N-system profile of N single-system profiles: system i steps
    as members[i] does, on the union of their breakpoints and deltas."""
    cuts = np.unique(np.concatenate([p.breakpoints for p in members]))
    segments = [
        Segment(lo, hi, np.diag([p.matrix_at(0.5 * (lo + hi))[0, 0] for p in members]))
        for lo, hi in zip(cuts[:-1], cuts[1:])
    ]
    spots = np.unique(np.concatenate([p.delta_positions for p in members]))

    def strength(p, x0):
        d = p.delta_at(x0)
        return 0.0 if d is None else d.strength[0, 0]

    deltas = [DeltaBarrier(x0, np.diag([strength(p, x0) for p in members])) for x0 in spots]
    return PotentialProfile(segments, deltas)


def system_profile(profile: PotentialProfile, i: int) -> PotentialProfile:
    """The 1x1 profile of system i (1-based) of a diagonal profile, on its
    breakpoints, without the deltas that do not act on system i."""
    k = slice(i - 1, i)
    segments = [Segment(s.x_lo, s.x_hi, s.v[k, k]) for s in profile.segments]
    deltas = [
        DeltaBarrier(d.x0, d.strength[k, k]) for d in profile.deltas if d.strength[k, k] != 0
    ]
    return PotentialProfile(segments, deltas)


def piecewise_derivative(values: np.ndarray, xs: np.ndarray, cuts=()) -> np.ndarray:
    """Second-order d/dx of sampled values, one-sided at cuts and grid edges.

    ``cuts`` are positions where the sampled field or its derivative may jump;
    a grid point sitting exactly on a cut belongs to the right cell, matching
    the right-continuous evaluation convention.
    """
    values = np.asarray(values)
    xs = np.asarray(xs, dtype=float)
    h = engine.uniform_spacing(xs)
    out = np.empty_like(values, dtype=complex)
    for s, e in engine._cells(xs, cuts):
        out[s:e] = engine._diff(values[s:e]) / (2.0 * h)
    return out


def rms_of(values: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.abs(values) ** 2)))


def solve_model(model: str, profile, energy, boundary, convention: str = "default"):
    """``solve_dirac`` in ``convention``, or ``solve_schrodinger``."""
    if model == "dirac":
        return solve_dirac(profile, energy, boundary, convention)
    return solve_schrodinger(profile, energy, boundary)


def per_system(sol, xs, side: str = "right") -> np.ndarray:
    """Sampled states resolved per system, shape (len(xs), N, 2): spinors, or
    (value, derivative) pairs."""
    return sol.evaluate(xs, side).reshape(-1, sol.n_systems, 2)


EPS = np.finfo(float).eps

# A stack's rows repeat a single-system solve bit for bit when the stack's
# extra product terms are exact zeros and the BLAS kernels sum the other
# terms in the single system's order.  That order is the kernel's choice.
BITS_CHECKED_ON = "OpenBLAS 0.3.31 (DYNAMIC_ARCH, numpy 2.4.6) on x86-64 with AVX-512"


def assert_same_bits(stacked, single):
    """Assert that a stack's rows repeat a single-system solve bit for bit.

    A failure names the largest difference, in units of eps times the
    samples' size, and the platform where the equality was checked.
    """
    if not np.array_equal(stacked, single):
        worst = np.abs(stacked - single).max() / (EPS * np.abs(single).max())
        pytest.fail(
            f"stack rows differ from the single-system solve by {worst:.3g} eps of their "
            f"size; bit equality was checked with {BITS_CHECKED_ON}"
        )


def ladder_pair_current(sol, basis: SunBasis, i: int, j: int, grid):
    """Pair current rebuilt from generator currents via the ladder combination.

    T_sym(i,j) + i T_asym(i,j) = E_ij, so J_ij = j_sym + i j_asym: an
    independent cross-check of the direct bilinear path.
    """
    from gcelab.engine import CurrentProfile, dirac_current, schrodinger_current

    if i == j:
        raise ValueError("ladder combination needs two distinct systems")
    lo, hi = sorted((i, j))
    pos = (hi - 1) * (hi - 1) + 2 * (lo - 1)  # 1-based index of sym(lo, hi)
    fn = dirac_current if sol.dynamics.model == "dirac" else schrodinger_current
    sym = fn(sol, basis, pos, grid)
    asym = fn(sol, basis, pos + 1, grid)
    sign = 1.0 if i < j else -1.0
    return CurrentProfile(
        "pair", (i, j), sym.grid, sym.j1 + sign * 1j * asym.j1, sym.j0 + sign * 1j * asym.j0
    )
