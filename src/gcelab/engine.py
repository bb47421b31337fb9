"""Generalized currents and continuity-law verification for stacked solutions.

Every operation here consumes exact piecewise solutions and checks, rather
than assumes, the continuity structure: the stationary residual combines the
analytic i(E_i - E_j) time term, a second-order finite difference of the
spatial current (one-sided at delta barriers and grid edges), and the source
S_a = -i[T_a, V] of the potential decomposition (``sun.source_operator``).
Every form's 2x2 blocks come from the solution's ``dynamics.kernels``.
Currents and densities are reported at t = 0; the stationary phases enter
only through the energy-weighted time term.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass, field

import numpy as np

from .solvers import (
    Convention,
    PiecewiseSolution,
    PotentialProfile,
    ProfileError,
    system_columns,
)
from .sun import PotentialDecomposition, SunBasis, decompose, source_operator


_SNAP = 1e-9  # relative window within which two positions are one


def _merge_sorted(points: np.ndarray) -> np.ndarray:
    pts = np.sort(np.asarray(points, dtype=float))
    if len(pts) == 0:
        return pts
    keep = [pts[0]]
    for p in pts[1:]:
        if p - keep[-1] > _SNAP * max(1.0, abs(p)):
            keep.append(p)
    return np.array(keep)


class DegenerateEnergiesError(ValueError):
    """Raised when an operation needs two distinct stationary energies."""


# ---------------------------------------------------------------------------
# Finite differences on uniform grids


def uniform_spacing(xs: np.ndarray) -> float:
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1 or len(xs) < 5:
        raise ValueError("need a 1-D grid with at least 5 points")
    h = xs[1] - xs[0]
    if not h > 0:
        raise ValueError("difference stencils require a uniform ascending grid")
    worst = np.abs(np.diff(xs) - h).max()
    if worst > 1e-9 * h:
        # Far from x = 0 a linspace rounds its points by more than the bound.
        raise ValueError(
            "difference stencils require a uniform ascending grid: its spacings "
            f"differ from the first by up to {worst / h:.2g} of it, above the bound "
            f"1e-09, on a grid reaching |x| = {np.abs(xs).max():.6g}"
        )
    return float(h)


def residual_cuts(profile: PotentialProfile) -> np.ndarray:
    """Positions where a current loses smoothness: interior breakpoints and deltas.

    The current itself jumps only at delta barriers, but its derivative kinks
    wherever the potential steps, so difference stencils must not straddle
    either kind of point.
    """
    return _merge_sorted(
        np.concatenate([profile.interior_cuts, profile.delta_positions])
    )


def snap_to_cuts(xs, cuts) -> np.ndarray:
    """Copy of ``xs`` with points just left of a cut moved onto it.

    ``_cells`` assigns a point within its snap window below a cut to the
    right cell; evaluating potentials or states at the raw coordinate would
    pick the left side instead.  Snapping the evaluation coordinate keeps
    both choices, and hence the residual arithmetic, one-sided consistent
    when a grid point lands a rounding error short of a segment boundary.
    """
    out = np.atleast_1d(np.asarray(xs, dtype=float)).copy()
    for c in np.asarray(cuts, dtype=float):
        near = (out >= c - _SNAP * max(1.0, abs(c))) & (out < c)
        out[near] = c
    return out


def _cells(xs: np.ndarray, cuts) -> list[tuple[int, int]]:
    """(start, stop) indices of the smooth cells of a grid split at ``cuts``.

    A grid point on a cut, or within the snap window below it, starts the
    right cell.
    """
    ks = {int(np.searchsorted(xs, c - _SNAP * max(1.0, abs(c)))) for c in np.asarray(cuts, float)}
    bounds = [0, *sorted(k for k in ks if 0 < k < len(xs)), len(xs)]
    for s, e in zip(bounds[:-1], bounds[1:]):
        if e - s < 3:
            raise ValueError(
                f"need at least 3 grid points per smooth cell, got {e - s} "
                f"in [{xs[s]}, {xs[e - 1]}]"
            )
    return list(zip(bounds[:-1], bounds[1:]))


def _diff(v: np.ndarray) -> np.ndarray:
    """2h d/dx of samples along axis 0: central inside, one-sided at both ends."""
    out = np.empty_like(v)
    out[1:-1] = v[2:] - v[:-2]
    out[0] = -3.0 * v[0] + 4.0 * v[1] - v[2]
    out[-1] = 3.0 * v[-1] - 4.0 * v[-2] + v[-3]
    return out


# ---------------------------------------------------------------------------
# One quadratic form for every current, time term and source
#
# States are sampled flat in solver layout, shape (..., 2N): system-major,
# component c of system s at 2s + c (``system_columns``).  Every term of the
# continuity law is psi^dag K psi for a Hermitian kernel K = M (x) block, the
# Kronecker product of an N x N system matrix (T_a, the time weight
# i(E_s - E_t) T_a or a source S_a) and a 2x2 block of the solution's
# ``dynamics.kernels``.  A current of sampled states is the bilinear
# psi^dag K phi of ``_bilinear``: a generator's takes K = T_a (x) block on
# the whole state, a pair's the 2x2 block between the columns of systems i
# and j.  Only residual tables take a form's products instead: on real
# factors, through ``_outer_triangle`` and ``_piece_kernels``.

def _bilinear(psi: np.ndarray, kernel: np.ndarray, phi: np.ndarray):
    """psi^dag K phi per sample: one GEMM and one row-wise dot."""
    return np.einsum("...k,...k->...", psi.conj(), phi @ kernel.T)


def _outer_triangle(f: np.ndarray) -> np.ndarray:
    """Products f_r f_s, r <= s, in ``np.triu_indices`` order of real
    factors f (R, b), shape (R (R + 1) / 2, b) with samples last."""
    p = np.ascontiguousarray(f)
    m = len(p)
    out = np.empty((m * (m + 1) // 2, p.shape[1]))
    start = 0
    for k in range(m):
        np.multiply(p[k], p[k:], out=out[start:start + m - k])
        start += m - k
    return out


_BLOCK = 1 << 15  # products per block of samples; only results span the grid


def _spans(n: int, width: int):
    """(lo, hi) blocks covering range(n), _BLOCK // width samples each (at
    least 16) for ``width`` products per sample."""
    bounds = [*range(0, n, max(16, _BLOCK // width)), n]
    return zip(bounds[:-1], bounds[1:])


def _joint(sol) -> PiecewiseSolution:
    """``sol`` itself; a sequence of solutions is refused."""
    if not isinstance(sol, PiecewiseSolution):
        raise TypeError(
            f"expected one PiecewiseSolution, got {type(sol).__name__}; "
            "solve the stack once, with one energy per system"
        )
    return sol


def _pair_columns(sol: PiecewiseSolution, pair) -> tuple[slice, slice]:
    """Flat state columns of the systems i and j (1-based) of ``pair``."""
    if len(pair) != 2:
        raise ValueError(f"a pair names two systems (i, j), got {tuple(pair)}")
    for k in pair:
        if not 1 <= k <= sol.n_systems:
            raise ValueError(f"system index {k} outside 1..{sol.n_systems}")
    return tuple(system_columns(k - 1) for k in pair)


def _pair_forms(sol, columns, kernels, grid, mapped=None) -> np.ndarray:
    """``_bilinear`` psi(x)[ci]^dag K psi(F(x))[cj] of every kernel K on the
    grid, shape (len(kernels), len(grid)), F(x) ``mapped`` (x when None):
    2x2 kernels on the ``_pair_columns`` (ci, cj) of systems i and j, or
    2N x 2N kernels on the whole state, (slice(None), slice(None))."""
    ci, cj = columns
    out = np.empty((len(kernels), len(grid)), dtype=complex)
    for lo, hi in _spans(len(grid), sol.dim):
        vals = sol.evaluate(grid[lo:hi])
        other = vals if mapped is None else sol.evaluate(mapped[lo:hi])
        for k, kernel in enumerate(kernels):
            out[k, lo:hi] = _bilinear(vals[:, ci], kernel, other[:, cj])
    return out


def _decoupled_dirac(sol, pair, what: str) -> tuple[slice, slice]:
    """``_pair_columns`` of a Dirac solution whose profile couples no systems."""
    if _joint(sol).dynamics.model != "dirac":
        raise ValueError(f"{what} needs a Dirac solution, got {sol.dynamics.model}")
    if not sol.profile.is_diagonal:
        raise ProfileError(f"{what} needs a decoupled (diagonal) profile")
    return _pair_columns(sol, pair)


# ---------------------------------------------------------------------------
# Current profiles


@dataclass(frozen=True)
class CurrentProfile:
    """Sampled generalized current: spatial j1 and density j0 at t = 0."""

    kind: str
    index: object
    grid: np.ndarray
    j1: np.ndarray
    j0: np.ndarray


def grid_snap(grid) -> float:
    """Window within which a grid point counts as sitting on a position."""
    return _SNAP * max(1.0, float(np.abs(grid).max()))


def interval_stats(grid, values, x_lo: float, x_hi: float):
    """(mean, max deviation, relative deviation) over grid points strictly inside."""
    grid = np.asarray(grid, dtype=float)
    snap = grid_snap(grid)
    mask = (grid > x_lo + snap) & (grid < x_hi - snap)
    if not mask.any():
        raise ValueError(f"no grid points strictly inside ({x_lo}, {x_hi})")
    vals = np.asarray(values)[mask]
    mean = complex(vals.mean())
    max_dev = float(np.abs(vals - mean).max())
    return mean, max_dev, max_dev / max(abs(mean), 1e-30)


def _current(sol, basis, index, grid, model: str) -> CurrentProfile:
    if _joint(sol).dynamics.model != model:
        raise ValueError(f"expected a {model} stack, got {sol.dynamics.model}")
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    blocks = sol.dynamics.kernels[:2]
    if isinstance(index, (tuple, list)):
        kind, columns = "pair", _pair_columns(sol, index)
        index = tuple(int(k) for k in index)
    else:
        if basis is None or basis.n != sol.n_systems:
            raise ValueError("basis rank must match the number of systems")
        kind, columns = "generator", (slice(None), slice(None))
        t_a = basis.generator(int(index))
        index, blocks = int(index), [np.kron(t_a, b) for b in blocks]
    j1, j0 = _pair_forms(sol, columns, blocks, grid)
    if kind == "generator":  # the form of a Hermitian kernel is real
        j1, j0 = j1.real, j0.real
    return CurrentProfile(kind, index, grid, j1, j0)


def dirac_current(sol, basis: SunBasis | None, index, grid) -> CurrentProfile:
    """Generalized Dirac current for generator index a (int) or pair (i, j).

    The pair form is the conjugate bilinear psi_i^dag gamma0 gamma1 psi_j and
    shares its arithmetic with transformed_current, so the identity transform
    reproduces it bit for bit.  Pair indices are 1-based.
    """
    return _current(sol, basis, index, grid, "dirac")


def schrodinger_current(sol, basis: SunBasis | None, index, grid) -> CurrentProfile:
    """Generalized Schroedinger current; j1 uses the exact stored derivatives."""
    return _current(sol, basis, index, grid, "schrodinger")


# ---------------------------------------------------------------------------
# Symmetry transforms and domains


@dataclass(frozen=True)
class TransformSpec:
    """Affine coordinate map F(x) = sigma x + rho.

    The spinor factor P of a transformed bilinear comes from the solution's
    convention (``_spinor_factor``): gamma0 for a mirror, the identity for a
    translation.
    """

    sigma: int
    rho: float

    def __post_init__(self):
        if self.sigma not in (-1, 1):
            raise ValueError(f"sigma must be -1 or +1, got {self.sigma}")

    @property
    def is_identity(self) -> bool:
        return self.sigma == 1 and self.rho == 0.0

    def map(self, xs):
        xs = np.asarray(xs, dtype=float)
        if self.is_identity:
            return xs
        return self.sigma * xs + self.rho

    def inverse_map(self, ys):
        ys = np.asarray(ys, dtype=float)
        return self.sigma * ys - self.sigma * self.rho


def identity_transform() -> TransformSpec:
    return TransformSpec(1, 0.0)


def parity_transform(center: float = 0.0) -> TransformSpec:
    """Mirror about ``center``: F(x) = -x + 2 center."""
    return TransformSpec(-1, 2.0 * center)


def translation_transform(shift: float) -> TransformSpec:
    """F(x) = x + shift."""
    return TransformSpec(1, float(shift))


def _spinor_factor(spec: TransformSpec, conv: Convention) -> np.ndarray:
    """P of the transformed bilinears: gamma0 for a mirror, else the identity."""
    return conv.gamma0 if spec.sigma == -1 else np.eye(2, dtype=complex)


@dataclass(frozen=True)
class Domain:
    """Maximal interval on which V_i(x) matches V_j(F(x)), deltas included."""

    x_lo: float
    x_hi: float
    pair: tuple[int, int]
    transform: TransformSpec


_DOMAIN_TOL = 1e-8  # potential entries within this are one value


def detect_domains(profile: PotentialProfile, pair, spec: TransformSpec) -> list[Domain]:
    """Exact symmetry domains of a pair from segment breakpoints, not sampling.

    An interval belongs to a domain when |V_ii(x) - V_jj(F(x))| <= _DOMAIN_TOL
    on it, systems i and j are decoupled there (every off-diagonal entry in
    rows and columns i and j of V(x) and of V(F(x)) is within that tolerance,
    so the pair's source vanishes), and every delta barrier inside matches its
    mapped partner in position and strength and is decoupled in the same
    sense; an unmatched or coupling delta splits the domain at its position.
    """
    i, j = pair
    for k in (i, j):
        if not 1 <= k <= profile.n_systems:
            raise ValueError(f"system index {k} outside 1..{profile.n_systems}")
    pair_idx = [i - 1, j - 1]

    def matches(v_x: np.ndarray, v_f: np.ndarray) -> bool:
        """V_ii(x) = V_jj(F(x)) with systems i and j decoupled at x and F(x)."""
        for v in (v_x, v_f):
            off = np.abs(v - np.diag(np.diag(v)))
            if max(off[pair_idx].max(), off[:, pair_idx].max()) > _DOMAIN_TOL:
                return False
        return abs(v_x[i - 1, i - 1].real - v_f[j - 1, j - 1].real) <= _DOMAIN_TOL

    # The cuts hold the profile's breakpoints, so no interval is unbounded on
    # both sides.
    cuts = _merge_sorted(
        np.concatenate([profile.breakpoints, spec.inverse_map(profile.breakpoints)])
    )
    edges = np.concatenate([[-np.inf], cuts, [np.inf]])
    passing = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if np.isinf(lo):
            mid = hi - 1.0
        elif np.isinf(hi):
            mid = lo + 1.0
        else:
            mid = 0.5 * (lo + hi)
        passing.append(
            matches(profile.matrix_at(mid), profile.matrix_at(float(spec.map(mid))))
        )
    runs = []
    k = 0
    while k < len(passing):
        if passing[k]:
            start = k
            while k + 1 < len(passing) and passing[k + 1]:
                k += 1
            runs.append((float(edges[start]), float(edges[k + 1])))
        k += 1

    def strength(x: float) -> np.ndarray:
        d = profile.delta_at(x)
        return d.strength if d is not None else np.zeros((profile.n_systems,) * 2)

    candidates = set(profile.delta_positions)
    candidates.update(float(spec.inverse_map(x)) for x in profile.delta_positions)
    mismatches = sorted(
        x for x in candidates if not matches(strength(x), strength(float(spec.map(x))))
    )
    domains = []
    for lo, hi in runs:
        inner = [x for x in mismatches if lo + _SNAP < x < hi - _SNAP]
        for a, b in zip([lo] + inner, inner + [hi]):
            domains.append(Domain(a, b, (int(i), int(j)), spec))
    return domains


def transformed_current(sol, pair, spec: TransformSpec, grid) -> CurrentProfile:
    """Mixed current psibar_i(x) gamma1 P psi_j(F(x)) of a pair (i, j), 1-based,
    of a decoupled Dirac solution.

    Constant on every symmetry domain when the two energies coincide; the
    identity transform reduces to the plain pair current bit for bit.
    """
    columns = _decoupled_dirac(sol, pair, "a transformed current")
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    # The identity spinor factor leaves both kernels exactly equal to the pair
    # branch of dirac_current, so the two agree bit for bit.
    factor = _spinor_factor(spec, sol.dynamics)
    kernels = (sol.dynamics.current_matrix @ factor, factor)
    j1, j0 = _pair_forms(sol, columns, kernels, grid, spec.map(grid))
    return CurrentProfile("transformed", tuple(int(k) for k in pair), grid, j1, j0)


@dataclass(frozen=True)
class DeltaRelation:
    c_minus: complex
    c_plus: complex
    predicted_c_plus: complex
    deviation: float
    rel_dev_minus: float
    rel_dev_plus: float
    x0: float


# Each side's domain constant is the mean of _DELTA_SAMPLES samples strictly
# inside its domain, at most _DELTA_WINDOW from the delta.
_DELTA_WINDOW = 1.5
_DELTA_SAMPLES = 401


def delta_domain_relation(
    sol, pair, *, x0: float | None = None, spec: TransformSpec | None = None
) -> DeltaRelation:
    """Domain constants across an unmatched delta and their junction prediction.

    For the pair (i, j), 1-based, of a decoupled Dirac solution, the
    mirror-transformed current is constant on each side of the delta at x0;
    approaching from the left gives c_minus = psi_i(x0-)^dag K psi_j(x0+)
    with K = gamma0 gamma1 P, and inserting the junction matrix J that relates
    psi_i(x0+) = J psi_i(x0-) predicts c_plus = (J psi_i(x0-))^dag K psi_j(x0-).
    J comes from the (i, i) strength of the delta at x0 and the solution's
    convention, and is the identity where no delta sits.  Both constants are
    also measured as domain means next to the delta.  x0 defaults to the
    first delta with a nonzero (i, i) strength, else the first delta; a
    profile without deltas needs an explicit x0.  ``spec`` defaults to the
    mirror about x0.
    """
    ci, cj = _decoupled_dirac(sol, pair, "a delta-domain relation")
    i = pair[0] - 1
    deltas = sol.profile.deltas
    if x0 is None:
        if not deltas:
            raise ValueError("x0 is required for a profile without delta barriers")
        x0 = next((d.x0 for d in deltas if d.strength[i, i] != 0.0), deltas[0].x0)
    x0 = float(x0)
    if spec is None:
        spec = parity_transform(center=x0)
    barrier = sol.profile.delta_at(x0)
    if barrier is None:
        junction = np.eye(2, dtype=complex)
    else:
        junction = sol.dynamics.junction(barrier.strength[i:i + 1, i:i + 1])
    domains = detect_domains(sol.profile, pair, spec)
    # The domains just left and right of x0: one domain covering x0 when the
    # barrier is matched (or absent).
    left = next((d for d in domains if d.x_lo < x0 - _SNAP <= d.x_hi), None)
    right = next((d for d in domains if d.x_lo <= x0 + _SNAP < d.x_hi), None)
    if left is None or right is None:
        raise ValueError(f"no symmetry domains adjacent to the delta at {x0}")
    sides = []
    for lo, hi in (
        (max(left.x_lo, x0 - _DELTA_WINDOW), x0), (x0, min(right.x_hi, x0 + _DELTA_WINDOW))
    ):
        xs = np.linspace(lo, hi, _DELTA_SAMPLES + 2)[1:-1]
        sides.append(interval_stats(xs, transformed_current(sol, pair, spec, xs).j1, lo, hi))
    (c_minus, _, rel_minus), (c_plus, _, rel_plus) = sides
    kernel = sol.dynamics.current_matrix @ _spinor_factor(spec, sol.dynamics)
    psi_i_left = sol.evaluate([x0], side="left")[0, ci]
    psi_j_left = sol.evaluate([spec.map(x0)], side="left")[0, cj]
    predicted = complex((junction @ psi_i_left).conj() @ kernel @ psi_j_left)
    return DeltaRelation(
        c_minus, c_plus, predicted, abs(c_plus - predicted), rel_minus, rel_plus, x0
    )


# ---------------------------------------------------------------------------
# Charge / current relation


@dataclass(frozen=True)
class ChargeRelation:
    q: complex
    boundary_value: complex
    discrepancy: float
    nodes: int  # quadrature nodes the integral took


@functools.cache
def _gauss_rule() -> tuple[np.ndarray, np.ndarray]:
    """8 Gauss-Legendre nodes and weights on [-1, 1], built on first use: a
    cold start that never needs them skips numpy.polynomial's 3 ms import."""
    from numpy.polynomial.legendre import leggauss
    t, w = leggauss(8)
    t.flags.writeable = w.flags.writeable = False  # one copy serves every call
    return t, w


def charge_current_relation(sol, pair, x1: float, x2: float) -> ChargeRelation:
    """Integrated mixed density against the current difference at the ends.

    For the pair (i, j), 1-based, of a decoupled Dirac solution whose two
    systems share one potential (V_ii = V_jj on every segment and delta) at
    distinct energies, int_{x1}^{x2} psi_i^dag psi_j dx equals
    i (J_ij(x2) - J_ij(x1)) / (E_i - E_j) with J_ij the pair current.
    Inside each piece of [x1, x2] between ``residual_cuts`` the density is a
    sum of products of cos/sin/cosh/sinh factors of the piece's wavenumbers,
    so ceil(L k_max) equal panels (at least one) of 8 Gauss-Legendre nodes
    integrate it to rounding, k_max the largest wavenumber of the piece's
    propagator and L its length.  No node falls on a cut.
    """
    ci, cj = _decoupled_dirac(sol, pair, "a charge relation")
    if not x2 > x1:
        raise ValueError(f"need x2 > x1, got [{x1}, {x2}]")
    i, j = pair[0] - 1, pair[1] - 1
    de = sol.energies[i] - sol.energies[j]
    if abs(de) <= 1e-12 * max(1.0, abs(sol.energies[i])):
        raise DegenerateEnergiesError(
            "charge-current relation is singular at equal energies"
        )
    prof = sol.profile
    for v in [s.v for s in prof.segments] + [d.strength for d in prof.deltas]:
        if abs(v[i, i] - v[j, j]) > 1e-12:
            raise ValueError(f"systems {i + 1} and {j + 1} must share one potential")
    t, w = _gauss_rule()
    edges = [x1, *(c for c in residual_cuts(prof).tolist() if x1 < c < x2), x2]
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        piece = sol.pieces[int(np.searchsorted(sol.breakpoints, 0.5 * (a + b), "right"))]
        panels = max(1, int(np.ceil((b - a) * piece.propagator.k.max())))
        h = (b - a) / panels
        nodes.append((a + h * np.arange(panels)[:, None] + 0.5 * h * (t + 1.0)).ravel())
        weights.append(np.tile(0.5 * h * w, panels))
    xs = np.concatenate(nodes)
    dens = _pair_forms(sol, (ci, cj), [np.eye(2)], xs)[0]
    # numpy's pairwise sum, where a BLAS dot would add the terms in sequence.
    q = complex((dens * np.concatenate(weights)).sum())
    kernel = sol.dynamics.current_matrix
    ends = [complex(v[ci].conj() @ kernel @ v[cj]) for v in sol.evaluate([x1, x2])]
    boundary = 1j * (ends[1] - ends[0]) / de
    return ChargeRelation(q, boundary, abs(q - boundary), len(xs))


# ---------------------------------------------------------------------------
# Continuity residuals
#
# The residual is linear in the generator, so one pass over the grid gives
# all N**2 - 1 of them: each block of samples takes one GEMM of its products
# against every generator's current and time-minus-source coefficients.
#
# Every table is built from real factors: psi = sum_r f_r c_r with real
# f_r and fixed complex vectors c_r, so every form psi^dag K psi is
# sum_{r <= s} A_rs f_r f_s with real A, Re(c^* K c^T) folded onto the
# triangle, built once per key (``_piece_kernels``), and a block takes the
# real products of its factors and one real GEMM.  The table never samples
# the solution's state: inside piece p the f_r are the real cos/sin, cosh/sinh
# or (1, x) factors of the piece's propagator and c_r = basis[r] @ u0
# (``_Piece.coefficients``).


@dataclass(frozen=True)
class GceReport:
    """Sampled continuity residual for one generator index.

    ``residual`` is a read-only row of the solution's residual table and
    ``floor`` its rounding level (see ``_residual_rows``).
    """

    a: int
    grid: np.ndarray
    residual: np.ndarray
    residual_rms: float
    residual_max: float
    floor: float = 0.0


@dataclass(frozen=True)
class ResidualTable:
    """Residuals (N**2 - 1, len(grid)) of every generator on a copy of ``grid``,
    with their rounding floors; row a - 1 is generator a.  All read-only.

    ``rms`` and ``max`` hold each row's RMS and largest magnitude.
    """

    grid: np.ndarray
    residual: np.ndarray
    floor: np.ndarray
    rms: np.ndarray = field(init=False)
    max: np.ndarray = field(init=False)

    def __post_init__(self):
        # Bit for bit each row's sqrt(mean(|row|**2)) and np.abs(row).max(),
        # in fewer passes; the squares are taken a few rows at a time, as one
        # table's worth would double the peak memory of a sweep.
        r = self.residual
        step = max(1, _BLOCK // max(1, r.shape[1]))
        rms = np.sqrt(np.concatenate(
            [np.mean(r[i:i + step] ** 2, axis=1) for i in range(0, len(r), step)]
        ))
        top = np.maximum(r.max(axis=1), -r.min(axis=1))
        rms.flags.writeable = top.flags.writeable = False
        object.__setattr__(self, "rms", rms)
        object.__setattr__(self, "max", top)


def _piece_kernels(blocks, vectors, segments, generators, h, sources, energies) -> dict:
    """The real coefficients A (2G, T) of the factor products of each key of
    ``vectors``, T = R (R + 1) / 2 in ``_outer_triangle`` order: row a - 1
    holds generator a's j1 / (2h) form and row G + a - 1 its time term minus
    source, each as sum_{r <= s} A[i, rs] f_r f_s.

    ``vectors[key]`` holds the complex vectors c_r (R, dim) of a state
    psi = sum_r f_r c_r of R real factors f_r, and ``segments[key]`` the
    segment of ``sources`` (G, segments, N, N) it lies in.  Each form is a
    sum of terms psi^dag (M kron B) psi, M a Hermitian system matrix
    (T_a / 2h, i(E_s - E_t) T_a or -S_a) and B one of the 2x2 ``blocks``
    (current, density, potential).  With c_r,s the part of c_r on system
    s, a term is sum_{r,r'} f_r f_r' W_rr' for the Hermitian W_rr' =
    sum_{s,t} M_st F[st, rr'], F[st, rr'] = c_r,s^dag B c_r',t, so A_rr' =
    Re W_rr', doubled for r < r'.  A key gathers F of each block on r <= r'
    once, and Re(M F) = [Re M | -Im M] [Re F; Im F] is one real GEMM per
    row group.
    """
    current, density, potential = blocks
    keys, n = list(vectors), sources.shape[-1]
    e = np.asarray(energies, dtype=float)
    weights = 1j * (e[:, None] - e[None, :]) * generators
    # (system matrices (G, segments, N, N), block) of the terms of the j1 /
    # (2h) rows and of the time-minus-source rows.
    groups = [[(np.broadcast_to(generators[:, None] / (2.0 * h), sources.shape), current)],
              [(-sources, potential)]]
    if weights.any():  # equal energies leave no time term
        groups[1].append((np.broadcast_to(weights[:, None], sources.shape), density))
    where, fold = _fold_indices(n, len(vectors[keys[0]]))
    x = np.stack([vectors[k] for k in keys]).reshape(len(keys), -1, 2)
    gathered = {}  # [Re F; Im F] of each block, (keys, 2 N*N, T)
    for _, block in groups[0] + groups[1]:
        if id(block) not in gathered:
            f = np.take((x.conj() @ block @ x.swapaxes(1, 2)).reshape(len(x), -1), where, axis=1)
            gathered[id(block)] = np.concatenate([f.real, f.imag], axis=1)
    out = {k: [] for k in keys}
    for group in groups:
        # [Re M | -Im M] of the terms side by side, (segments, G, 2 N*N terms).
        m = np.concatenate(
            [np.concatenate([t.real, -t.imag], axis=-1) for t in
             (t.reshape(*t.shape[:2], -1) for t, _ in group)], axis=-1
        ).swapaxes(0, 1)
        f = np.concatenate([gathered[id(block)] for _, block in group], axis=1)
        for i, k in enumerate(keys):
            out[k].append(m[segments[k]] @ f[i])
    return {k: np.concatenate(rows) * fold for k, rows in out.items()}


@functools.cache
def _fold_indices(n: int, n_factors: int) -> tuple[np.ndarray, np.ndarray]:
    """Where ``_piece_kernels`` gathers F[st, (r, r')], r <= r', from the
    flattened bilinears of N systems' rows (r, s) of R = ``n_factors``
    vectors, which hold c_r,s^dag B c_r',t at (r n + s) R n + r' n + t; and
    the fold, 1 on the diagonal r = r' and 2 off it."""
    rn = n_factors * n
    st = (np.arange(n)[:, None] * rn + np.arange(n)).reshape(-1, 1)
    r, u = np.triu_indices(n_factors)
    where = st + r * n * rn + u * n
    fold = np.where(r < u, 2.0, 1.0)
    where.flags.writeable = fold.flags.writeable = False
    return where, fold


def _runs(keys: np.ndarray) -> tuple[list[int], list]:
    """(starts, keys) of the runs of equal values in ``keys``."""
    starts = [0, *(np.flatnonzero(np.diff(keys)) + 1).tolist()]
    return starts, keys[starts].tolist()


def _residual_rows(sample, grid, h, cuts, runs, coefficients):
    """The ``ResidualTable`` of every generator, built in blocks.

    ``runs`` = (starts, keys): the samples from starts[i] to the next start
    take ``coefficients[keys[i]]`` (``_piece_kernels``), shape (2G, T),
    whose rows are every generator's j1 / (2h) form (0..G-1) and
    time-minus-source form (G..2G-1) on the T products f_r f_s, r <= s, of
    the R real factors that ``sample(key, a, b)`` returns, shape (R, b - a),
    for samples a..b-1 of one run.  A block lies in one stencil cell and one
    run and samples up to two neighbours of its cell on each side, each with
    its own run's coefficients, so the stencil of j1 needs no other block.

    A form sum_t A_t p_t of products p_t of factors bounded by m rounds by
    up to eps m**2 sum|A_t|, whatever it cancels to.  A row's floor is that
    bound for its time-minus-source form plus eight times that for its
    j1 / (2h) form, the largest over the blocks and their own samples: the
    one-sided stencil at a cell edge weighs three j1 samples by 3, 4 and 1
    (the central one two samples by 1).
    """
    starts, keys = runs
    ends = [*starts[1:], len(grid)]
    g, width = coefficients[keys[0]].shape
    g //= 2
    block = max(16, _BLOCK // width)
    sums = {}
    for key in set(keys):
        s = np.abs(coefficients[key]).sum(axis=1)
        sums[key] = s[g:] + 8.0 * s[:g]
    # The grid's copy shares the table's allocation: kept as a block of its
    # own beside a memoised table, it raised the peak RSS of 40001-point
    # builtin reports by about 4 MiB (glibc could no longer trim the heap).
    grid_table = np.empty((g + 1, len(grid)))
    grid_table[0] = grid
    table = grid_table[1:]
    worst = np.zeros(g)
    for s, e in _cells(grid, cuts):
        bounds = sorted({*range(s, e, block), *(k for k in starts if s < k < e)})
        for lo, hi in zip(bounds, [*bounds[1:], e]):
            a, b = max(lo - 2, s), min(hi + 2, e)
            both = np.empty((2 * g, b - a))
            i = bisect.bisect_right(starts, a) - 1
            while i < len(starts) and starts[i] < b:
                u, v, key = max(starts[i], a), min(ends[i], b), keys[i]
                f = sample(key, u, v)
                if v - u == 1:
                    # One sample's products are formed as two, as _Piece.expand
                    # pads one offset: numpy rounds a lone GEMV differently.
                    f = np.repeat(f, 2, axis=1)
                both[:, u - a:v - a] = (coefficients[key] @ _outer_triangle(f))[:, :v - u]
                if u <= lo < v:
                    sq = (f * f).max(axis=0)[lo - u:hi - u]
                    worst = np.maximum(worst, sq.max() * sums[key])
                i += 1
            dj, out = both[:g], both[g:, lo - a:hi - a]
            # Own samples off the cell's edges sit inside the extended block,
            # so the block's one-sided ends fall only on cell edges.
            table[:, lo:hi] = out + _diff(dj.T)[lo - a:hi - a].T
    floor = np.finfo(float).eps * worst
    grid_table.flags.writeable = floor.flags.writeable = False
    return ResidualTable(grid_table[0], grid_table[1:], floor)


def _table_key(decomp, n: int) -> bytes:
    """The bits of what a solution's table depends on besides the solution
    and the grid: the decomposition's cuts and coefficients and the rank."""
    shape = np.array([n, len(decomp.cuts), *decomp.c.shape])
    return b"".join(np.ascontiguousarray(p).tobytes() for p in (shape, decomp.cuts, decomp.c))


def gce_residual_sweep(
    sol, basis: SunBasis, grid, decomp: PotentialDecomposition | None = None
) -> ResidualTable:
    """Stationary continuity residuals of every generator on a uniform grid.

    The solution keeps the table of the last grid it was swept on, keyed by
    the bits of the grid, of the decomposition's cuts and coefficients and
    of the basis rank, so the calls of a sweep build one table, also with
    ``decomp=None``.  A given ``decomp`` that misses the kept table must be
    the decomposition of ``sol.profile``: other cuts or coefficients raise
    ``ValueError``.  The table is built from the pieces' propagator factors
    (``_piece_kernels``); the state is never sampled.
    """
    sol, grid = _joint(sol), np.asarray(grid, dtype=float)
    if basis.n != sol.n_systems:
        raise ValueError("basis rank must match the number of systems")
    own = decomp is None
    decomp = decompose(sol.profile, basis) if own else decomp
    key = _table_key(decomp, basis.n)
    if sol.residual_table is not None:
        kept, table = sol.residual_table
        # The grid's bits are compared in place: a key holding them would
        # keep a second copy of the grid beside the table's.
        if kept == key and np.array_equal(table.grid.view(np.int64), grid.view(np.int64)):
            return table
    if not own:
        _check_decomposition(decomp, decompose(sol.profile, basis))
    cuts = residual_cuts(sol.profile)
    eval_xs = snap_to_cuts(grid, cuts)
    h = uniform_spacing(grid)
    runs = _runs(np.searchsorted(sol.breakpoints, eval_xs, side="right"))
    sources = source_operator(decomp)
    pieces = sorted(set(runs[1]))
    # Piece p lies in segment p - 1, the tails in the outer segments.
    coefficients = _piece_kernels(
        sol.dynamics.kernels, {p: sol.pieces[p].coefficients for p in pieces},
        {p: min(max(p - 1, 0), sources.shape[1] - 1) for p in pieces},
        basis.generators, h, sources, sol.energies,
    )

    def sample(p, a, b):
        piece = sol.pieces[p]
        return piece.propagator.factors(eval_xs[a:b] - piece.anchor)

    table = _residual_rows(sample, grid, h, cuts, runs, coefficients)
    sol.residual_table = (key, table)
    return table


def _check_decomposition(given: PotentialDecomposition, want: PotentialDecomposition):
    """Raise unless ``given`` has the cuts and coefficients of ``want``, the
    decomposition of the solution's profile."""
    if not np.array_equal(given.cuts, want.cuts) or given.c.shape != want.c.shape:
        raise ValueError(
            f"decomp has cuts {given.cuts.tolist()} and {given.c.shape[1]} generators, "
            f"the solution's profile {want.cuts.tolist()} and {want.c.shape[1]}"
        )
    diff = np.abs(given.c - want.c)
    if diff.max() > 1e-12 * max(1.0, float(np.abs(want.c).max())):
        s, a = np.unravel_index(int(diff.argmax()), diff.shape)
        raise ValueError(
            f"decomp coefficient C_{a + 1} of segment {s} is {float(given.c[s, a])!r}, "
            f"the solution's profile has {float(want.c[s, a])!r}"
        )


def _residual_report(sol, basis, a, grid, decomp, model):
    if _joint(sol).dynamics.model != model:
        raise ValueError(f"expected a {model} stack, got {sol.dynamics.model}")
    basis.generator(int(a))  # validates the index
    row, grid = int(a) - 1, np.asarray(grid, dtype=float)
    table = gce_residual_sweep(sol, basis, grid, decomp)
    return GceReport(
        int(a), grid, table.residual[row], float(table.rms[row]), float(table.max[row]),
        float(table.floor[row]),
    )


def gce_residual_dirac(
    sol, basis: SunBasis, a: int, grid, decomp: PotentialDecomposition | None = None
) -> GceReport:
    """Stationary Dirac continuity residual for generator a on a uniform grid.

    residual = i(E_i - E_j)-weighted density + d/dx j1_a - source_a; exact
    solutions leave only the second-order stencil truncation, so halving the
    spacing divides the norm by four.  The residual is row a - 1 of
    ``gce_residual_sweep``.
    """
    return _residual_report(sol, basis, a, grid, decomp, "dirac")


def gce_residual_schrodinger(
    sol, basis: SunBasis, a: int, grid, decomp: PotentialDecomposition | None = None
) -> GceReport:
    """Stationary Schroedinger continuity residual for generator a."""
    return _residual_report(sol, basis, a, grid, decomp, "schrodinger")
