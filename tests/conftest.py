"""Shared fixtures for the gcelab test suite."""

from __future__ import annotations

import numpy as np
import pytest

from gcelab.sun import SunBasis, build_basis


@pytest.fixture(scope="session")
def bases() -> dict[int, SunBasis]:
    """One basis per rank used across the suite; construction is cheap but cached."""
    return {n: build_basis(n) for n in (2, 3, 4, 5)}


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (a + a.conj().T)


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
    fn = dirac_current if sol.model == "dirac" else schrodinger_current
    sym = fn(sol, basis, pos, grid)
    asym = fn(sol, basis, pos + 1, grid)
    sign = 1.0 if i < j else -1.0
    return CurrentProfile(
        "pair", (i, j), sym.grid, sym.j1 + sign * 1j * asym.j1, sym.j0 + sign * 1j * asym.j0
    )
