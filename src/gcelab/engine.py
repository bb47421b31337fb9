"""Generalized currents and continuity-law verification for stacked solutions.

Every operation here consumes exact piecewise solutions and checks, rather
than assumes, the continuity structure: the stationary residual combines the
analytic i(E_i - E_j) time term, a second-order finite difference of the
spatial current (one-sided at delta barriers and grid edges), and the
structure-constant source built from the potential decomposition.  Currents
and densities are reported at t = 0; the stationary phases enter only through
the energy-weighted time term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .solvers import (
    Convention,
    PiecewiseSolution,
    PotentialProfile,
    ProfileError,
    get_convention,
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
    if h <= 0 or np.abs(np.diff(xs) - h).max() > 1e-9 * h:
        raise ValueError("difference stencils require a uniform ascending grid")
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

    ``piecewise_derivative`` assigns a point within its snap window below a
    cut to the right cell; evaluating potentials or states at the raw
    coordinate would pick the left side instead.  Snapping the evaluation
    coordinate keeps both choices, and hence the residual arithmetic,
    one-sided consistent when a grid point lands a rounding error short of a
    segment boundary.
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


def piecewise_derivative(values: np.ndarray, xs: np.ndarray, cuts=()) -> np.ndarray:
    """Second-order d/dx of sampled values, one-sided at cuts and grid edges.

    ``cuts`` are positions where the sampled field or its derivative may jump;
    a grid point sitting exactly on a cut belongs to the right cell, matching
    the right-continuous evaluation convention.
    """
    values = np.asarray(values)
    xs = np.asarray(xs, dtype=float)
    h = uniform_spacing(xs)
    out = np.empty_like(values, dtype=complex)
    for s, e in _cells(xs, cuts):
        out[s:e] = _diff(values[s:e]) / (2.0 * h)
    return out


# ---------------------------------------------------------------------------
# One quadratic form for every current, time term and source
#
# States are sampled flat in solver layout, shape (..., 2N): Dirac is
# system-major (component i of system s at 2s + i), Schroedinger holds the N
# values and then the N derivatives.  Every term of the continuity law is
# psi^dag K psi for a Hermitian kernel K, the Kronecker product of an N x N
# system matrix (T_a, the time weight i(E_s - E_t) T_a or a source S_a) and
# a 2x2 block of ``_blocks``: M (x) block for Dirac, block (x) M in
# (value, derivative) space for Schroedinger.  Hermitian K gives
# psi^dag K psi = Re sum_{k <= l} c_kl K_kl conj(psi_k) psi_l with c = 1 on
# the diagonal and 2 off it, so one GEMM of ``_triangle`` coefficients
# against ``_outer_triangle`` products evaluates any number of kernels.  A
# pair form is the bilinear psi_i^dag block psi_j of the columns of systems
# i and j (``system_columns``) of the same flat samples.

_VALUE_BLOCK = np.diag([1.0, 0.0])
_FLUX_BLOCK = np.array([[0.0, -1.0], [1.0, 0.0]])


def _bilinear(psi: np.ndarray, kernel: np.ndarray, phi: np.ndarray):
    """psi^dag K phi per sample: one GEMM and one row-wise dot."""
    return np.einsum("...k,...k->...", psi.conj(), phi @ kernel.T)


def _blocks(model: str, conv: Convention, mass: float):
    """2x2 blocks of the current, density and potential kernels."""
    if model == "dirac":
        return conv.current_matrix, np.eye(2), conv.gamma0 @ conv.coupling_matrix
    return (0.5j / mass) * _FLUX_BLOCK, _VALUE_BLOCK, _VALUE_BLOCK


def _triangle(model: str, m: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Coefficients c_kl K_kl on ``_outer_triangle`` of the kernel of system
    matrices m (..., N, N) and a block, gathered without forming K."""
    n = m.shape[-1]
    k, l = np.triu_indices(2 * n)
    if model == "dirac":
        (sk, ik), (sl, il) = divmod(k, 2), divmod(l, 2)
    else:  # no Schroedinger kernel pairs two derivatives
        keep = k < n
        k, l = k[keep], l[keep]
        (ik, sk), (il, sl) = divmod(k, n), divmod(l, n)
    return m[..., sk, sl] * (block[ik, il] * np.where(k == l, 1.0, 2.0))


def _outer_triangle(model: str, psi: np.ndarray) -> np.ndarray:
    """conj(psi_k) psi_l in ``_triangle`` order for flat samples (b, 2N),
    shape (P, b) with samples last."""
    p = np.ascontiguousarray(psi.T)
    pc = p.conj()
    m = len(p)
    rows = m if model == "dirac" else m // 2
    out = np.empty((sum(range(m - rows + 1, m + 1)), len(psi)), dtype=complex)
    start = 0
    for k in range(rows):
        np.multiply(pc[k], p[k:], out=out[start:start + m - k])
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
    for k in pair:
        if not 1 <= k <= sol.n_systems:
            raise ValueError(f"system index {k} outside 1..{sol.n_systems}")
    return tuple(system_columns(sol.model, sol.n_systems, k - 1) for k in pair)


def _pair_forms(sol, columns, kernels, grid, mapped=None) -> np.ndarray:
    """psi_i(x)^dag K psi_j(F(x)) of every 2x2 kernel K on the grid, shape
    (len(kernels), len(grid)), for the ``_pair_columns`` (ci, cj) of systems
    i and j; F(x) is ``mapped`` (x when None)."""
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
    if _joint(sol).model != "dirac":
        raise ValueError(f"{what} needs a Dirac solution, got {sol.model}")
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
    if _joint(sol).model != model:
        raise ValueError(f"expected a {model} stack, got {sol.model}")
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    blocks = _blocks(model, sol.convention, sol.mass)
    if isinstance(index, (tuple, list)):
        j1, j0 = _pair_forms(sol, _pair_columns(sol, index), blocks[:2], grid)
        return CurrentProfile("pair", tuple(int(k) for k in index), grid, j1, j0)
    if basis is None or basis.n != sol.n_systems:
        raise ValueError("basis rank must match the number of systems")
    t_a = basis.generator(int(index))
    coeffs = np.stack([_triangle(model, t_a, b) for b in blocks[:2]])
    out = np.empty((2, len(grid)))
    for lo, hi in _spans(len(grid), coeffs.shape[1]):
        psi = sol.evaluate(grid[lo:hi])
        if hi - lo == 1:
            # One sample's products are formed as two, as _Piece.expand pads
            # one offset: numpy rounds a lone complex product differently.
            psi = np.repeat(psi, 2, axis=0)
        out[:, lo:hi] = (coeffs @ _outer_triangle(model, psi))[:, :hi - lo].real
    return CurrentProfile("generator", int(index), grid, out[0], out[1])


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
    """Affine coordinate map F(x) = sigma x + rho with a spinor factor."""

    sigma: int
    rho: float
    spinor_factor: np.ndarray

    def __post_init__(self):
        if self.sigma not in (-1, 1):
            raise ValueError(f"sigma must be -1 or +1, got {self.sigma}")
        object.__setattr__(
            self, "spinor_factor", np.asarray(self.spinor_factor, dtype=complex)
        )
        if self.spinor_factor.shape != (2, 2):
            raise ValueError("spinor factor must be a 2x2 matrix")

    @property
    def is_identity(self) -> bool:
        return (
            self.sigma == 1
            and self.rho == 0.0
            and np.array_equal(self.spinor_factor, np.eye(2))
        )

    def map(self, xs):
        xs = np.asarray(xs, dtype=float)
        if self.sigma == 1 and self.rho == 0.0:
            return xs
        return self.sigma * xs + self.rho

    def inverse_map(self, ys):
        ys = np.asarray(ys, dtype=float)
        return self.sigma * ys - self.sigma * self.rho


def identity_transform() -> TransformSpec:
    return TransformSpec(1, 0.0, np.eye(2))


def parity_transform(convention: Convention | str, center: float = 0.0) -> TransformSpec:
    """Mirror about ``center``: F(x) = -x + 2 center, spinor factor gamma0."""
    conv = get_convention(convention) if isinstance(convention, str) else convention
    return TransformSpec(-1, 2.0 * center, conv.parity_matrix)


def translation_transform(shift: float) -> TransformSpec:
    """F(x) = x + shift with trivial spinor factor."""
    return TransformSpec(1, float(shift), np.eye(2))


def transform_from_sigma_rho(
    sigma: int, rho: float, convention: Convention | str | None = None
) -> TransformSpec:
    """Spec from the (sigma, rho) pair; mirrors pick up the parity spinor factor."""
    if sigma == 1 or convention is None:
        return TransformSpec(sigma, float(rho), np.eye(2))
    conv = get_convention(convention) if isinstance(convention, str) else convention
    return TransformSpec(sigma, float(rho), conv.parity_matrix)


@dataclass(frozen=True)
class Domain:
    """Maximal interval on which V_i(x) matches V_j(F(x)), deltas included."""

    x_lo: float
    x_hi: float
    pair: tuple[int, int]
    transform: TransformSpec


def detect_domains(
    profile: PotentialProfile, pair, spec: TransformSpec, tol: float = 1e-8
) -> list[Domain]:
    """Exact symmetry domains of a pair from segment breakpoints, not sampling.

    An interval belongs to a domain when |V_ii(x) - V_jj(F(x))| <= tol on it,
    systems i and j are decoupled there (every off-diagonal entry in rows and
    columns i and j of V(x) and of V(F(x)) is within tol, so the pair's source
    vanishes), and every delta barrier inside matches its mapped partner in
    position and strength and is decoupled in the same sense; an unmatched or
    coupling delta splits the domain at its position.
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
            if max(off[pair_idx].max(), off[:, pair_idx].max()) > tol:
                return False
        return abs(v_x[i - 1, i - 1].real - v_f[j - 1, j - 1].real) <= tol

    cuts = _merge_sorted(
        np.concatenate([profile.breakpoints, spec.inverse_map(profile.breakpoints)])
    )
    edges = np.concatenate([[-np.inf], cuts, [np.inf]])
    passing = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if np.isinf(lo) and np.isinf(hi):
            mid = 0.0
        elif np.isinf(lo):
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
    kernels = (sol.convention.current_matrix @ spec.spinor_factor, spec.spinor_factor)
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


def delta_domain_relation(
    sol,
    pair,
    junction: np.ndarray,
    *,
    x0: float | None = None,
    spec: TransformSpec | None = None,
    window: float = 1.5,
    samples: int = 401,
) -> DeltaRelation:
    """Domain constants across an unmatched delta and their junction prediction.

    For the pair (i, j), 1-based, of a decoupled Dirac solution, the
    mirror-transformed current is constant on each side of the delta at x0;
    approaching from the left gives c_minus = psi_i(x0-)^dag K psi_j(x0+)
    with K = gamma0 gamma1 P, and inserting the junction matrix J that relates
    psi_i(x0+) = J psi_i(x0-) predicts c_plus = (J psi_i(x0-))^dag K psi_j(x0-).
    Both constants are also measured as domain means next to the delta.  x0
    defaults to the one delta with a nonzero (i, i) strength.
    """
    ci, cj = _decoupled_dirac(sol, pair, "a delta-domain relation")
    if x0 is None:
        i = pair[0] - 1
        pos = [d.x0 for d in sol.profile.deltas if d.strength[i, i] != 0.0]
        if len(pos) != 1:
            raise ValueError(
                f"x0 is required unless system {i + 1} has exactly one delta barrier"
            )
        x0 = float(pos[0])
    if spec is None:
        spec = parity_transform(sol.convention, center=x0)
    domains = detect_domains(sol.profile, pair, spec)
    left_dom = next((d for d in domains if abs(d.x_hi - x0) <= _SNAP), None)
    right_dom = next((d for d in domains if abs(d.x_lo - x0) <= _SNAP), None)
    if left_dom is None or right_dom is None:
        # A matched (or absent) barrier leaves one domain covering x0; use it
        # for both one-sided means.
        spanning = next(
            (d for d in domains if d.x_lo < x0 - _SNAP and d.x_hi > x0 + _SNAP), None
        )
        if spanning is None:
            raise ValueError(f"no symmetry domains adjacent to the delta at {x0}")
        left_dom = left_dom or spanning
        right_dom = right_dom or spanning
    lo = max(left_dom.x_lo, x0 - window)
    hi = min(right_dom.x_hi, x0 + window)
    xs_minus = np.linspace(lo, x0, samples + 2)[1:-1]
    xs_plus = np.linspace(x0, hi, samples + 2)[1:-1]
    cur_minus = transformed_current(sol, pair, spec, xs_minus)
    cur_plus = transformed_current(sol, pair, spec, xs_plus)
    c_minus = complex(cur_minus.j1.mean())
    c_plus = complex(cur_plus.j1.mean())
    rel_minus = float(np.abs(cur_minus.j1 - c_minus).max()) / max(abs(c_minus), 1e-30)
    rel_plus = float(np.abs(cur_plus.j1 - c_plus).max()) / max(abs(c_plus), 1e-30)
    kernel = sol.convention.current_matrix @ spec.spinor_factor
    psi_i_left = sol.evaluate([x0], side="left")[0, ci]
    psi_j_left = sol.evaluate([spec.map(float(x0))], side="left")[0, cj]
    junction = np.asarray(junction, dtype=complex)
    predicted = complex((junction @ psi_i_left).conj() @ kernel @ psi_j_left)
    return DeltaRelation(
        c_minus, c_plus, predicted, abs(c_plus - predicted), rel_minus, rel_plus
    )


# ---------------------------------------------------------------------------
# Charge / current relation


@dataclass(frozen=True)
class ChargeRelation:
    q: complex
    boundary_value: complex
    discrepancy: float


def charge_current_relation(
    sol, pair, x1: float, x2: float, n_points: int = 10001
) -> ChargeRelation:
    """Integrated mixed density against the current difference at the ends.

    For the pair (i, j), 1-based, of a decoupled Dirac solution whose two
    systems share one potential (V_ii = V_jj on every segment and delta) at
    distinct energies, int_{x1}^{x2} psi_i^dag psi_j dx equals
    i (J_ij(x2) - J_ij(x1)) / (E_i - E_j) with J_ij the pair current.
    Quadrature is composite Simpson on a uniform grid (odd point count,
    rounded up when needed).
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
    n = int(n_points)
    if n < 3:
        raise ValueError("n_points must be at least 3")
    if n % 2 == 0:
        n += 1
    xs = np.linspace(float(x1), float(x2), n)
    dens = _pair_forms(sol, (ci, cj), [np.eye(2)], xs)[0]
    q = complex(_simpson(dens, (float(x2) - float(x1)) / (n - 1)))
    kernel = sol.convention.current_matrix
    ends = [complex(v[ci].conj() @ kernel @ v[cj]) for v in sol.evaluate([x1, x2])]
    boundary = 1j * (ends[1] - ends[0]) / de
    return ChargeRelation(q, boundary, abs(q - boundary))


def _simpson(y: np.ndarray, h: float):
    """Composite Simpson rule for an odd number of samples spaced h apart."""
    return h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum())


# ---------------------------------------------------------------------------
# Continuity residuals
#
# The residual is linear in the generator, so one pass over the samples gives
# all N**2 - 1 of them: each block of samples takes one GEMM of its products
# against every generator's current and time-minus-source coefficients.


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
    with their rounding floors; row a - 1 is generator a.  All read-only."""

    grid: np.ndarray
    residual: np.ndarray
    floor: np.ndarray


def _table_kernels(model, conv, mass, h, generators, energies, sources) -> np.ndarray:
    """Per segment, the coefficients of every generator's j1 / (2h) (rows
    0..G-1) and time term i(E_s - E_t) T_a minus source (rows G..2G-1), shape
    (n_seg, 2G, P), from sources (G, n_seg, N, N); no time term without
    ``energies``."""
    current, density, potential = _blocks(model, conv, mass)
    e = np.zeros(generators.shape[1]) if energies is None else np.asarray(energies, float)
    weights = 1j * (e[:, None] - e[None, :]) * generators[:, None]
    rest = _triangle(model, weights, density) - _triangle(model, sources, potential)
    dj = _triangle(model, generators[:, None] / (2.0 * h), current)
    return np.concatenate([np.broadcast_to(dj, rest.shape), rest]).swapaxes(0, 1)


def _residual_rows(model, sample, grid, h, cuts, segments, kernels, j1_shift=None):
    """The ``ResidualTable`` of every generator, built in blocks.

    ``sample(a, b)`` returns the flat samples a..b-1 of the grid snapped to
    the cuts and ``segments`` holds their segment indices.  A block lies in
    one stencil cell and one segment and samples up to two neighbours of its
    cell on each side, so the stencil of j1 (minus ``j1_shift``, (G,
    len(grid)), when given) needs no other block.  The kernels are
    Hermitian, so the table is real.

    A form psi^dag K psi rounds by up to eps max|psi_k|**2 sum|K_kl|,
    whatever it cancels to.  A row's floor is that bound for its
    time-minus-source kernel plus twice that for its j1 / (2h) kernel (the
    central stencil takes two j1 samples), the largest over the blocks.
    """
    g = kernels.shape[1] // 2
    block = max(16, _BLOCK // kernels.shape[2])
    sums = np.abs(kernels).sum(axis=2)
    kernel_sums = sums[:, g:] + 2.0 * sums[:, :g]  # (n_seg, G)
    # The grid's copy shares the table's allocation: kept as a block of its
    # own beside a memoised table, it raised the peak RSS of 40001-point
    # builtin reports by about 4 MiB (glibc could no longer trim the heap).
    full = np.empty((g + 1, len(grid)))
    full[0] = grid
    table = full[1:]
    worst = np.zeros(g)
    seg_starts = (np.flatnonzero(np.diff(segments)) + 1).tolist()
    for s, e in _cells(grid, cuts):
        bounds = sorted({*range(s, e, block), *(k for k in seg_starts if s < k < e)})
        for lo, hi in zip(bounds, [*bounds[1:], e]):
            a, b = max(lo - 2, s), min(hi + 2, e)
            psi = sample(a, b)
            both = (kernels[segments[lo]] @ _outer_triangle(model, psi)).real
            dj, out = both[:g], both[g:, lo - a:hi - a]
            if j1_shift is not None:
                dj -= j1_shift[:, a:b] / (2.0 * h)
            own = np.abs(psi[lo - a:hi - a]).max() ** 2
            worst = np.maximum(worst, own * kernel_sums[segments[lo]])
            # Own samples off the cell's edges sit inside the extended block,
            # so the block's one-sided ends fall only on cell edges.
            table[:, lo:hi] = out + _diff(dj.T)[lo - a:hi - a].T
    floor = np.finfo(float).eps * worst
    full.flags.writeable = floor.flags.writeable = False
    return ResidualTable(full[0], full[1:], floor)


def gce_residual_sweep(
    sol, basis: SunBasis, grid, decomp: PotentialDecomposition | None = None
) -> ResidualTable:
    """Stationary continuity residuals of every generator on a uniform grid.

    The solution keeps the table of the last grid it was swept on, keyed by
    values (the grid's bits, the decomposition's cuts and coefficients, the
    basis rank), so the calls of a sweep build one table, also with
    ``decomp=None``.
    """
    sol, grid = _joint(sol), np.asarray(grid, dtype=float)
    if basis.n != sol.n_systems:
        raise ValueError("basis rank must match the number of systems")
    decomp = decompose(sol.profile, basis) if decomp is None else decomp
    key = (decomp.cuts, decomp.c, basis.n)
    if sol.residual_table is not None:
        kept, table = sol.residual_table
        if np.array_equal(table.grid.view(np.int64), grid.view(np.int64)) and all(
            np.array_equal(p, q) for p, q in zip(kept, key)
        ):
            return table
    cuts = residual_cuts(sol.profile)
    eval_xs = snap_to_cuts(grid, cuts)
    h, t = uniform_spacing(grid), basis.generators
    kernels = _table_kernels(
        sol.model, sol.convention, sol.mass, h, t, sol.energies, source_operator(decomp)
    )
    table = _residual_rows(
        sol.model,
        lambda a, b: sol.evaluate(eval_xs[a:b]),
        grid, h, cuts, decomp.segment_of(eval_xs), kernels,
    )
    sol.residual_table = (tuple(np.copy(p) for p in key), table)
    return table


def _rms(values: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.abs(values) ** 2)))


def _residual_report(sol, basis, a, grid, decomp, model):
    if _joint(sol).model != model:
        raise ValueError(f"expected a {model} stack, got {sol.model}")
    basis.generator(int(a))  # validates the index
    row, grid = int(a) - 1, np.asarray(grid, dtype=float)
    table = gce_residual_sweep(sol, basis, grid, decomp)
    residual, floor = table.residual[row], float(table.floor[row])
    rmax = float(np.abs(residual).max())
    return GceReport(int(a), grid, residual, _rms(residual), rmax, floor)


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


# ---------------------------------------------------------------------------
# Gauge-field diagnostic


@dataclass(frozen=True)
class GaugeConfig:
    """Static gauge potentials A^a_mu sampled on a uniform x grid.

    ``a_fields`` has shape (N**2 - 1, 2, len(grid)) holding the lower-index
    components (A_0, A_1) per generator.  ``cuts`` lists the non-smooth
    positions of the sampled state, normally residual_cuts(profile), so the
    spatial stencil stays one-sided there.  ``t_grid`` switches the residual
    to a sampled-time path with centered differences in t.
    """

    grid: np.ndarray
    a_fields: np.ndarray
    cuts: tuple = ()
    t_grid: np.ndarray | None = None


def field_strength(config: GaugeConfig, basis: SunBasis) -> np.ndarray:
    """R_01^a = d_t A_1 - d_x A_0 - f_abc A^b_0 A^c_1 per sample (static d_t = 0)."""
    a0 = config.a_fields[:, 0, :]
    a1 = config.a_fields[:, 1, :]
    dx_a0 = np.stack(
        [piecewise_derivative(a0[d], config.grid, config.cuts).real
         for d in range(a0.shape[0])]
    )
    f = basis.structure_constants
    quad = sum(a0[b] * (f[:, b, :] @ a1) for b in range(len(a0)))
    return -dx_a0 - quad


def gauge_residual(
    psi: np.ndarray,
    config: GaugeConfig,
    basis: SunBasis,
    a: int,
    *,
    energies=None,
    decomp: PotentialDecomposition | None = None,
    convention: Convention | str = "default",
) -> GceReport:
    """Continuity residual with the gauge-corrected current, finite differences.

    Evaluates d_mu (jbar^mu_a - R^{mu nu d} f_abd A^b_nu) - source_a on the
    sampled super-spinor.  The correction uses the fixed index ordering
    f_{a b d}; raising with the metric diag(1, -1) gives the corrections
    K^0 = -R_01^d f_abd A^b_1 and K^1 = +R_01^d f_abd A^b_0.  With A = 0 both
    corrections vanish termwise and the arithmetic is identical to the
    ungauged residual path.  ``psi`` is (m, 2N) with per-system ``energies``
    (analytic time derivative), or (nt, m, 2N) with ``config.t_grid`` set
    (centered differences in t).
    """
    conv = get_convention(convention) if isinstance(convention, str) else convention
    t_a = basis.generator(int(a))
    grid = np.asarray(config.grid, dtype=float)
    psi = np.asarray(psi, dtype=complex)
    d = basis.dim
    if config.a_fields.shape != (d, 2, len(grid)):
        raise ValueError(
            f"a_fields must have shape ({d}, 2, {len(grid)}), got {config.a_fields.shape}"
        )
    if psi.ndim not in (2, 3) or psi.shape[-2:] != (len(grid), 2 * basis.n):
        raise ValueError("psi must be (m, 2N) or (nt, m, 2N)")
    r01 = field_strength(config, basis)
    f_a = basis.structure_constants[int(a) - 1]
    mixed = f_a @ r01  # sum_d f_abd R_01^d, shape (N**2 - 1, len(grid))
    k0 = -(mixed * config.a_fields[:, 1, :]).sum(axis=0)
    k1 = (mixed * config.a_fields[:, 0, :]).sum(axis=0)
    if psi.ndim == 2 and energies is None:
        raise ValueError("static psi needs per-system energies")
    if psi.ndim == 3 and config.t_grid is None:
        raise ValueError("sampled-time psi needs config.t_grid")
    t, row, h = basis.generators, int(a) - 1, uniform_spacing(grid)
    if decomp is None:
        sources, segments = np.zeros((d, 1, basis.n, basis.n)), np.zeros(len(grid), dtype=int)
    else:
        sources = source_operator(decomp)
        segments = decomp.segment_of(snap_to_cuts(grid, config.cuts))
    # Every generator's row goes through the table build, so A = 0 repeats
    # the ungauged arithmetic bit for bit; only row a is kept.  A sampled
    # time derivative leaves the rows without the analytic time term.
    shift = np.zeros((d, len(grid)))
    shift[row] = k1
    kernels = _table_kernels("dirac", conv, None, h, t, energies if psi.ndim == 2 else None, sources)
    tables = [
        _residual_rows(
            "dirac", lambda a, b, p=p: p[a:b], grid, h, config.cuts, segments, kernels, shift
        )
        for p in (psi[None] if psi.ndim == 2 else psi)
    ]
    residual = np.stack([tab.residual[row] for tab in tables])
    floor = max(tab.floor[row] for tab in tables)
    if psi.ndim == 2:
        residual = residual[0]
    else:
        flat = psi.reshape(-1, psi.shape[-1])
        j0s = (_triangle("dirac", t_a, np.eye(2)) @ _outer_triangle("dirac", flat)).real
        ts = np.asarray(config.t_grid, dtype=float)
        residual += piecewise_derivative(j0s.reshape(psi.shape[:2]) - k0, ts).real
    rms = _rms(residual)
    rmax = float(np.abs(residual).max())
    return GceReport(int(a), grid, residual, rms, rmax, floor=float(floor))
