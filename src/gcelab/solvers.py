"""Exact stationary solvers for stacked 1-D Dirac and Schroedinger systems.

Potentials are piecewise constant Hermitian N x N matrices with optional delta
barriers at segment boundaries.  Solutions are represented piecewise through
the exact propagator exp(M x) = C(x) + S(x) M of the constant first-order
generator M of each segment, where C and S are the cosine/sine (plane-wave) or
cosh/sinh (exponential) branches of the Hermitian square M^2 (see
``Propagator``).  Evaluation anywhere on the line, band edges included, is
exact up to floating-point rounding; there is no ODE stepping.

State layout (``system_columns``): both stacks order components system-major,
u[2i:2i+2] belongs to system i: its 2-spinor for Dirac, its value and
derivative for Schroedinger, u = (phi_1, phi_1', phi_2, phi_2', ...).  Every
generator and junction is therefore a sum of N x N system matrices Kronecker
2x2 blocks.  The leftmost/rightmost segment values extend to -inf/+inf, so
every solution covers the whole line.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .sun import _hermitian_or_raise

_BOUNDARY_ATOL = 1e-9


class EvanescentChannelError(ValueError):
    """Scattering requested at an energy with a non-propagating asymptotic channel."""


class ProfileError(ValueError):
    """Inconsistent potential profile geometry or matrices."""


# ---------------------------------------------------------------------------
# Dynamics: a solution's ``Convention`` (Dirac) or ``Schrodinger`` (mass).
# Both provide ``model``, ``generator``, ``junction``, ``channels`` and
# ``kernels``, so neither the solver nor the engine branches on the model.

_VALUE_BLOCK = np.diag([1.0, 0.0])
_FLUX_BLOCK = np.array([[0.0, -1.0], [1.0, 0.0]])
_LOWER = np.array([[0.0, 0.0], [1.0, 0.0]])
_SIDES = ("leftmost", "rightmost")


def _kron(a, b) -> np.ndarray:
    """np.kron(a, b) for a stack a of square blocks, by the same products."""
    *stack, n, _ = a.shape
    return np.multiply.outer(a, b).swapaxes(-3, -2).reshape(*stack, 2 * n, 2 * n)


def _as_block(m) -> np.ndarray:
    """A complex matrix, a scalar as a 1x1 one."""
    m = np.asarray(m, dtype=complex)
    return m.reshape(1, 1) if m.ndim == 0 else m


@dataclass(frozen=True)
class Convention:
    """Dirac dynamics: a 1+1 dimensional Clifford pair plus the potential
    coupling channel.

    ``gamma0`` must be Hermitian with square +1, ``gamma1`` anti-Hermitian with
    square -1, and the two must anticommute.  ``coupling`` selects whether the
    potential enters as V * identity ("scalar") or V * gamma0 ("vector").
    """

    name: str
    gamma0: np.ndarray
    gamma1: np.ndarray
    coupling: str = "scalar"
    model = "dirac"

    def __post_init__(self):
        g0 = np.asarray(self.gamma0, dtype=complex)
        g1 = np.asarray(self.gamma1, dtype=complex)
        object.__setattr__(self, "gamma0", g0)
        object.__setattr__(self, "gamma1", g1)
        eye = np.eye(2)
        checks = [
            (np.abs(g0 - g0.conj().T).max(), "gamma0 must be Hermitian"),
            (np.abs(g0 @ g0 - eye).max(), "gamma0 squared must be +1"),
            (np.abs(g1 + g1.conj().T).max(), "gamma1 must be anti-Hermitian"),
            (np.abs(g1 @ g1 + eye).max(), "gamma1 squared must be -1"),
            (np.abs(g0 @ g1 + g1 @ g0).max(), "gamma0 and gamma1 must anticommute"),
        ]
        for err, msg in checks:
            if err > 1e-13:
                raise ValueError(f"{msg} (violation {err:.2e})")
        if self.coupling not in ("scalar", "vector"):
            raise ValueError(f"coupling must be 'scalar' or 'vector', got {self.coupling!r}")

    @property
    def gamma1_inv(self) -> np.ndarray:
        """(gamma1)^-1 = -gamma1 because gamma1 squares to -1."""
        return -self.gamma1

    @property
    def coupling_matrix(self) -> np.ndarray:
        """Spinor-space factor K multiplying the potential."""
        return np.eye(2, dtype=complex) if self.coupling == "scalar" else self.gamma0

    @property
    def current_matrix(self) -> np.ndarray:
        """Hermitian bilinear kernel gamma0 gamma1 of the spatial current."""
        return self.gamma0 @ self.gamma1

    @property
    def kernels(self) -> tuple:
        """2x2 current (gamma0 gamma1), density and potential (gamma0 K) blocks."""
        return self.current_matrix, np.eye(2), self.gamma0 @ self.coupling_matrix

    def generator(self, v, energy) -> np.ndarray:
        """Generator M of psi' = M psi for a constant Hermitian potential block.

        M = -i (I_N kron gamma1^-1) (V kron K - diag(E) kron gamma0), so for a free
        single system at energy E the eigenvalues are +-iE and exp(M x) rotates the
        spinor with period 2 pi / |E|.  ``energy`` is one energy for every system
        or one per system along its last axis.  A stack of blocks v[..., :, :]
        gives the stack of their generators.
        """
        v = _as_block(v)
        n = v.shape[-1]
        g1inv = self.gamma1_inv
        # diag(E) kron G: the rows of I_N kron G scaled by their system's energy.
        e = np.asarray(energy, dtype=float)
        if e.ndim:
            e = np.repeat(e, 2, axis=-1)[..., None]
        return -1j * (_kron(v, g1inv @ self.coupling_matrix)
                      - e * _kron(np.eye(n), g1inv @ self.gamma0))

    def junction(self, strength) -> np.ndarray:
        """Transfer matrix across a delta barrier of Hermitian strength.

        J = exp(-i strength kron gamma1^-1 K).  With vector coupling and the
        default gammas this is the rotation [[cos s, sin s], [-sin s, cos s]] per
        unit strength; with scalar coupling it is the Hermitian exp(-s sigma_x)
        family instead.
        """
        lam = _as_block(strength)
        return Propagator(-1j * np.kron(lam, self.gamma1_inv @ self.coupling_matrix))(1.0)

    def channels(self, edges, energies, systems) -> np.ndarray:
        """Unit (right, left) movers of the asymptotic channels, at once.

        edges[c, s] is the potential of system systems[c] (0-based) in the
        leftmost (s = 0) or the rightmost (s = 1) segment, and energies[c] its
        energy.  Modes are eigenvectors of the 2x2 generators, diagonalised as
        one stack.  Propagating ones have purely imaginary eigenvalues and are
        labeled by the sign of their current u^dag kernels[0] u.  The phase
        makes the first significant component real positive, which keeps
        outputs platform-deterministic.

        Returns ``modes`` of shape (K, 2, 2, 2) for the K systems, where
        modes[c, s, 0] is the right mover and modes[c, s, 1] the left mover.
        """
        edges = np.asarray(edges, dtype=float)
        energy = np.asarray(energies, dtype=float)[:, None]
        mu, vecs = np.linalg.eig(self.generator(edges[..., None, None], energy[..., None]))
        u = vecs.swapaxes(-1, -2)  # u[c, s, col] is eigenvector col
        # One norm per vector: a stacked norm sums in another order.
        norms = np.array([np.linalg.norm(w) for w in u.reshape(-1, 2)]).reshape(mu.shape)
        u = u / norms[..., None]
        lead = np.take_along_axis(u, np.argmax(np.abs(u) > 1e-9, axis=-1)[..., None], -1)
        u = u * (np.abs(lead) / lead)
        currents = ((u.conj() @ self.current_matrix) * u).sum(axis=-1).real
        right = currents > 0.0
        scale = np.maximum(1.0, np.abs(mu).max(axis=-1))
        faults = (
            (np.abs(mu.real).max(axis=-1) > 1e-9 * scale, "is evanescent"),
            ((np.abs(currents) <= 1e-12).any(axis=-1), "has a zero-current mode"),
            (right[..., 0] == right[..., 1], "does not split into left/right movers"),
        )
        for fault, what in faults:
            if fault.any():
                i, side = np.unravel_index(np.argmax(fault), fault.shape)
                raise EvanescentChannelError(
                    f"system {systems[i] + 1} {what} in the {_SIDES[side]} segment "
                    f"(E = {energy[i, 0]}, V = {edges[i, side]}, eigenvalues {mu[i, side]}); "
                    "scattering boundaries need propagating channels"
                )
        order = np.where(right[..., :1], [0, 1], [1, 0])
        return np.take_along_axis(u, order[..., None], -2)


@dataclass(frozen=True)
class Schrodinger:
    """Schroedinger dynamics of one ``mass`` (positive) in the (value,
    derivative) layout, with the members of a ``Convention``."""

    mass: float = 1.0
    model = "schrodinger"

    def __post_init__(self):
        object.__setattr__(self, "mass", float(self.mass))
        if not self.mass > 0.0:
            raise ValueError(f"mass must be positive, got {self.mass}")

    @property
    def kernels(self) -> tuple:
        """2x2 current (i / 2m)(phi'^* phi - phi^* phi'), density and potential blocks."""
        return (0.5j / self.mass) * _FLUX_BLOCK, _VALUE_BLOCK, _VALUE_BLOCK

    def generator(self, v, energy) -> np.ndarray:
        """Generator M of u' = M u, u = (phi_1, phi_1', ...):
        M = 2m (V - diag(E)) kron [[0, 0], [1, 0]] + I_N kron [[0, 1], [0, 0]].
        ``energy`` is one energy for every system or one per system."""
        v = _as_block(v)
        n = v.shape[0]
        a = 2.0 * self.mass * (v - np.reshape(energy, (-1, 1)) * np.eye(n))
        return _kron(a, _LOWER) + _kron(np.eye(n), _LOWER.T)

    def junction(self, strength) -> np.ndarray:
        """Transfer across a delta: values continuous, derivative jump 2 m strength,
        J = I + 2m strength kron [[0, 0], [1, 0]]."""
        lam = _as_block(strength)
        return np.eye(2 * len(lam)) + _kron(2.0 * self.mass * lam, _LOWER)

    def channels(self, edges, energies, systems) -> np.ndarray:
        """(right, left) movers (value, derivative) = (1, +-ik) of the
        asymptotic channels, laid out as by ``Convention.channels``."""
        edges = np.asarray(edges, dtype=float)
        energy = np.asarray(energies, dtype=float)[:, None]
        fault = 2.0 * self.mass * (energy - edges) <= 1e-12 * np.maximum(1.0, np.abs(energy))
        if fault.any():
            i, s = np.unravel_index(np.argmax(fault), fault.shape)
            raise EvanescentChannelError(
                f"system {systems[i] + 1} is evanescent in the {_SIDES[s]} segment "
                f"(E = {energy[i, 0]}, V = {edges[i, s]})"
            )
        k = np.sqrt(2.0 * self.mass * (energy - edges))
        modes = np.ones((len(edges), 2, 2, 2), dtype=complex)
        modes[..., 0, 1] = 1j * k
        modes[..., 1, 1] = -1j * k
        return modes


_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)

CONVENTIONS: dict[str, Convention] = {
    "default": Convention("default", _SZ, 1j * _SX, "scalar"),
    "vector": Convention("vector", _SZ, 1j * _SX, "vector"),
    "rotated": Convention("rotated", _SX, 1j * _SY, "scalar"),
}


def get_convention(name: str) -> Convention:
    try:
        return CONVENTIONS[name]
    except KeyError:
        known = ", ".join(sorted(CONVENTIONS))
        raise ValueError(f"unknown convention {name!r}; known: {known}") from None


# ---------------------------------------------------------------------------
# Potential profiles


@dataclass(frozen=True)
class Segment:
    x_lo: float
    x_hi: float
    v: np.ndarray


@dataclass(frozen=True)
class DeltaBarrier:
    x0: float
    strength: np.ndarray


class PotentialProfile:
    """Ordered contiguous segments plus delta barriers at segment boundaries.

    The deltas keep the order given, so ``deltas[d]`` is the caller's delta d.
    """

    def __init__(self, segments, deltas=()):
        if not segments:
            raise ProfileError("profile needs at least one segment")
        segs = []
        # A scalar potential or strength is a 1x1 block, as for the generators.
        n = _as_block(segments[0].v).shape[0]
        prev_hi = None
        for s, seg in enumerate(segments):
            lo, hi = float(seg.x_lo), float(seg.x_hi)
            if not hi > lo:
                raise ProfileError(f"segment {s} has non-positive length [{lo}, {hi}]")
            if prev_hi is not None:
                if abs(lo - prev_hi) > _BOUNDARY_ATOL:
                    raise ProfileError(
                        f"segment {s} starts at {lo}, previous ends at {prev_hi}"
                    )
                lo = prev_hi
            v = _hermitian_or_raise(_as_block(seg.v), n, what=f"segment {s} potential")
            segs.append(Segment(lo, hi, v))
            prev_hi = hi
        self.segments: tuple[Segment, ...] = tuple(segs)
        self.n_systems = n
        self.breakpoints = np.array(
            [s.x_lo for s in segs] + [segs[-1].x_hi], dtype=float
        )
        snapped = []
        for d, delta in enumerate(deltas):
            x0 = float(delta.x0)
            k = int(np.argmin(np.abs(self.breakpoints - x0)))
            if abs(self.breakpoints[k] - x0) > _BOUNDARY_ATOL:
                raise ProfileError(
                    f"delta {d} at {x0} does not sit on a segment boundary"
                )
            lam = _hermitian_or_raise(_as_block(delta.strength), n, what=f"delta {d} strength")
            snapped.append(DeltaBarrier(float(self.breakpoints[k]), lam))
        positions = [d.x0 for d in snapped]
        for d, x0 in enumerate(positions):
            if x0 in positions[:d]:
                raise ProfileError(f"two delta barriers share position {x0}")
        self.deltas: tuple[DeltaBarrier, ...] = tuple(snapped)

    @property
    def extent(self) -> tuple[float, float]:
        return float(self.breakpoints[0]), float(self.breakpoints[-1])

    @property
    def interior_cuts(self) -> np.ndarray:
        return self.breakpoints[1:-1]

    @property
    def segment_matrices(self) -> np.ndarray:
        return np.array([s.v for s in self.segments])

    @property
    def delta_positions(self) -> np.ndarray:
        return np.array([d.x0 for d in self.deltas])

    def segment_index(self, x: float, side: str = "right") -> int:
        """Index of the segment ruling x, with asymptotic extension at the ends."""
        which = "right" if side == "right" else "left"
        k = int(np.searchsorted(self.interior_cuts, x, side=which))
        return k

    def matrix_at(self, x: float, side: str = "right") -> np.ndarray:
        return self.segments[self.segment_index(x, side)].v

    def delta_at(self, x: float) -> DeltaBarrier | None:
        for d in self.deltas:
            if abs(d.x0 - x) <= _BOUNDARY_ATOL:
                return d
        return None

    @cached_property
    def is_diagonal(self) -> bool:
        off = [s.v - np.diag(np.diag(s.v)) for s in self.segments]
        off += [d.strength - np.diag(np.diag(d.strength)) for d in self.deltas]
        return all(np.abs(o).max() == 0.0 for o in off)


def uniform_profile(v, x_lo: float = 0.0, x_hi: float = 1.0) -> PotentialProfile:
    """Single-segment profile; with the asymptotic extension, V is constant on R."""
    return PotentialProfile([Segment(x_lo, x_hi, np.asarray(v, dtype=complex))])


# ---------------------------------------------------------------------------
# Exact propagator


class Propagator:
    """Exact exp(M x) = C(x) + S(x) M of a constant generator M.

    Every generator here squares to A kron I_2 with A Hermitian: A = V^2 - E^2
    (scalar coupling) or -(V - E)^2 (vector coupling) for Dirac, 2m(V - E)
    for Schroedinger, and +-strength^2 for a Dirac delta junction.  Splitting
    the exponential series into even and odd powers gives
    C = cosh(sqrt(M^2) x) and S = sinh(sqrt(M^2) x) / sqrt(M^2), entire
    functions of M^2.  On the eigenvalues lam of eigh(M^2) they are
    cos(k x) and sin(k x) / k for lam = -k^2 < 0, cosh(k x) and sinh(k x) / k
    for lam = k^2 > 0, and exactly (1, x) for lam = 0, so a defective
    generator at a band edge takes the same path as any other.

    The spectrum of M^2 comes in equal pairs, so each pair shares one
    spectral projector P_j and exp(M x) = sum_j P_j c_j(x) + P_j M s_j(x):
    a 2N x 2N generator needs 2N scalar functions of x, not 4N.
    """

    __slots__ = ("generator", "basis", "k", "_bands")

    def __init__(self, generator):
        m = np.asarray(generator, dtype=complex)
        m2 = m @ m
        lam, vecs = np.linalg.eigh(m2)
        tol = 1e-12 * np.abs(m).max() ** 2
        if np.abs(m2 - m2.conj().T).max() > tol or np.abs(lam[::2] - lam[1::2]).max() > tol:
            # Structural property of every generator built here, so a bug.
            raise RuntimeError("generator square is not Hermitian with paired eigenvalues")
        lam = 0.5 * (lam[::2] + lam[1::2])
        k = np.sqrt(np.abs(lam))
        pairs = vecs.reshape(len(m), len(lam), 2)
        proj = np.einsum("ajs,bjs->jab", pairs, pairs.conj())
        sine = (proj @ m) / np.where(k > 0.0, k, 1.0)[:, None, None]
        self.generator = m
        # basis[j] multiplies c_j(x), basis[N + j] multiplies k_j s_j(x).
        self.basis = np.concatenate([proj, sine])
        self.k = k  # wavenumbers sqrt|lam| of the pairs, in basis order
        # lam is ascending: oscillating rows, then exact zeros, then growing.
        self._bands = (int(np.searchsorted(lam, 0.0, "left")),
                       int(np.searchsorted(lam, 0.0, "right")))

    def factors(self, x) -> np.ndarray:
        """Scalar functions multiplying ``basis`` at offsets x, shape (2N,) + x.shape."""
        x = np.asarray(x, dtype=float)
        t = np.multiply.outer(self.k, x)
        lo, hi = self._bands
        f = np.empty((2,) + t.shape)
        # Most generators use one branch; skipping the empty ones makes
        # single-point calls about 10% cheaper.
        if lo:
            np.cos(t[:lo], out=f[0, :lo])
            np.sin(t[:lo], out=f[1, :lo])
        if hi > lo:
            f[0, lo:hi] = 1.0
            f[1, lo:hi] = x
        if hi < len(t):
            np.cosh(t[hi:], out=f[0, hi:])
            np.sinh(t[hi:], out=f[1, hi:])
        return f.reshape((-1,) + x.shape)

    def __call__(self, x: float) -> np.ndarray:
        """The matrix exp(M x)."""
        return np.tensordot(self.factors(x), self.basis, 1)


# ---------------------------------------------------------------------------
# Boundary specifications


@dataclass(frozen=True)
class InitialValue:
    """Full stacked state at the left edge x_lo, before any junction there, in
    the ``system_columns`` layout."""

    values: np.ndarray


@dataclass(frozen=True)
class Scattering:
    """Per-system incoming plane-wave amplitudes from the left, no inflow from the right.

    The incoming wave of system i is amplitudes[i] times the unit right-moving
    mode referenced at the profile's left edge, i.e. its phase is
    exp(i k (x - x_lo)).  Dirac modes have unit spinor norm, Schroedinger modes
    unit value, so a free system with amplitude 1 has |phi| = 1 everywhere.
    """

    amplitudes: np.ndarray


BoundarySpec = InitialValue | Scattering


# ---------------------------------------------------------------------------
# Piecewise solutions


def system_columns(i: int) -> slice:
    """Columns of system i (0-based) in the flat state of a stack: its
    2-spinor for Dirac, its value and derivative for Schroedinger."""
    return slice(2 * i, 2 * i + 2)


class _Piece:
    """One segment's state u(anchor + dx) = C(dx) u0 + S(dx) M u0, u0 = value.

    The vectors basis[r] @ u0 do not depend on dx, so evaluating is one real
    product of the propagator's scalar factors with them, taken on their
    interleaved (real, imag) float view.
    """

    __slots__ = ("anchor", "propagator", "_coeff")

    def __init__(self, anchor: float, value: np.ndarray, propagator: Propagator):
        self.anchor = anchor
        self.propagator = propagator
        self._coeff = (propagator.basis @ np.asarray(value, dtype=complex)).view(np.float64)

    @property
    def coefficients(self) -> np.ndarray:
        """The vectors c_r = basis[r] @ u0, shape (2N, dim): the state at
        anchor + dx is sum_r factors(dx)[r] c_r."""
        return self._coeff.view(complex)

    def expand(self, dx: np.ndarray) -> np.ndarray:
        """State at anchor + dx for an array of offsets, shape (len(dx), dim).

        One offset is expanded as two: numpy sends a one-row product to its
        matrix-vector path, which rounds differently from the matrix product
        of a longer run, and a sample must not depend on how many points
        share its run.
        """
        n = len(dx)
        if n == 1:
            dx = np.repeat(dx, 2)
        return (self.propagator.factors(dx).T @ self._coeff)[:n].view(complex)


class PiecewiseSolution:
    """Piecewise-exponential solution of a stacked Dirac or Schroedinger system.

    ``pieces[j]`` rules [breakpoints[j-1], breakpoints[j]) for 1 <= j <= m, with
    pieces[0] the left tail and pieces[m+1] the right tail.  Values at a
    breakpoint follow the right-continuous convention; ``limits`` exposes both
    one-sided values, which differ exactly by the junction matrix at a delta.
    ``evaluate(xs).reshape(len(xs), N, 2)`` resolves the systems
    (``system_columns``).  ``dynamics`` is the ``Convention`` or
    ``Schrodinger`` the stack was solved with.
    """

    def __init__(self, profile, energies, pieces, breakpoints, dynamics):
        self.profile = profile
        self.energies = np.array(energies, dtype=float).reshape(profile.n_systems)
        self.energies.flags.writeable = False
        self.pieces: list[_Piece] = pieces
        self.breakpoints = np.asarray(breakpoints, dtype=float)
        self.dynamics = dynamics
        self.residual_table = None  # engine's (key, table) of the last grid swept

    @property
    def energy(self) -> float:
        """The energy shared by every system; ValueError when they differ."""
        if (self.energies != self.energies[0]).any():
            raise ValueError(f"the systems have different energies {self.energies.tolist()}")
        return float(self.energies[0])

    @property
    def n_systems(self) -> int:
        return self.profile.n_systems

    @property
    def dim(self) -> int:
        return 2 * self.n_systems

    @np.errstate(over="ignore", invalid="ignore")
    def evaluate(self, xs, side: str = "right") -> np.ndarray:
        """Sampled stacked state, shape (len(xs), 2N), a fresh array per call.

        At a delta the two sides give the two one-sided limits.  Each run of
        consecutive points in one piece is expanded as one slice, so a
        monotone grid costs one expansion per piece it crosses.  A sample
        that is not finite raises ValueError naming its x, without a warning.
        """
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        idx = np.searchsorted(self.breakpoints, xs, side="right" if side == "right" else "left")
        out = np.empty((len(xs), self.dim), dtype=complex)
        starts = [0, *(np.flatnonzero(idx[1:] != idx[:-1]) + 1).tolist()][:len(xs)]
        for lo, hi in zip(starts, [*starts[1:], len(xs)]):
            piece = self.pieces[idx[lo]]
            out[lo:hi] = piece.expand(xs[lo:hi] - piece.anchor)
        finite = np.isfinite(out.view(float))
        if not finite.all():
            x = xs[finite.all(axis=1).argmin()]
            raise ValueError(f"the state at x = {x} overflows double precision")
        return out

    def limits(self, x: float) -> tuple[np.ndarray, np.ndarray]:
        """(left limit, right limit) of the stacked state at x."""
        return self.evaluate([x], side="left")[0], self.evaluate([x], side="right")[0]


# ---------------------------------------------------------------------------
# Solver core


def _scattering_modes(profile, energies, dynamics, systems):
    """Asymptotic mode matrices (U_in, U_ref, U_out), value-normalized, with one
    column per scattering system listed (0-based) in ``systems``, each at its
    own one of the N ``energies``."""
    n = profile.n_systems
    edges = np.empty((n, 2))  # edges[i, s]: system i in the leftmost/rightmost segment
    for s, seg in enumerate((profile.segments[0], profile.segments[-1])):
        if np.abs(seg.v - np.diag(np.diag(seg.v))).max() > 0.0:
            raise ProfileError(
                f"scattering boundaries need a diagonal {_SIDES[s]} segment so that "
                "per-system channels are well defined"
            )
        edges[:, s] = seg.v.diagonal().real
    modes = dynamics.channels(edges[systems], energies[systems], systems)
    u_in, u_ref, u_out = np.zeros((3, 2 * n, len(systems)), dtype=complex)
    for c, i in enumerate(systems):
        rows = system_columns(i)
        u_in[rows, c] = modes[c, 0, 0]  # right movers from the left
        u_ref[rows, c] = modes[c, 0, 1]  # left movers back to the left
        u_out[rows, c] = modes[c, 1, 0]  # right movers out to the right
    return u_in, u_ref, u_out


def _boundary_rows(boundary, n: int):
    """(scatters, amplitudes, given) of a boundary: which systems scatter, the
    incoming amplitudes of those, and the left-edge state on the rows of the
    others.  A sequence of N single-system specs sets each system's kind."""
    if isinstance(boundary, Scattering):
        amps = np.asarray(boundary.amplitudes, dtype=complex)
        if amps.shape != (n,):
            raise ValueError(f"need {n} incoming amplitudes, got shape {amps.shape}")
        return np.ones(n, dtype=bool), amps, np.zeros(2 * n, dtype=complex)
    if isinstance(boundary, InitialValue):
        given = np.asarray(boundary.values, dtype=complex)
        if given.shape != (2 * n,):
            raise ValueError(f"initial values must have shape ({2 * n},), got {given.shape}")
        return np.zeros(n, dtype=bool), np.zeros(n, dtype=complex), given
    if not isinstance(boundary, (list, tuple)):
        raise TypeError(f"unsupported boundary spec {type(boundary).__name__}")
    if len(boundary) != n:
        raise ValueError(f"need one boundary spec per system ({n}), got {len(boundary)}")
    scatters, amps = np.zeros(n, dtype=bool), np.zeros(n, dtype=complex)
    given = np.zeros(2 * n, dtype=complex)
    for i, spec in enumerate(boundary):
        s, a, g = _boundary_rows(spec, 1)
        scatters[i], amps[i] = s[0], a[0]
        given[system_columns(i)] = g
    return scatters, amps, given


def _refuse_coupled(profile, energies) -> None:
    """Raise ProfileError naming the first segment or delta that couples two
    systems, preferring two systems at unequal energies."""
    entries = [(f"profile.segments[{k}]", s.v) for k, s in enumerate(profile.segments)]
    entries += [(f"profile.deltas[{k}]", d.strength) for k, d in enumerate(profile.deltas)]
    found = [
        (energies[i] == energies[j], key, i, j)
        for key, m in entries
        for i, j in np.argwhere(np.triu((m != 0.0) | (m.T != 0.0), 1))
    ]
    if found:
        _, key, i, j = min(found, key=lambda f: f[0])
        raise ProfileError(
            f"{key} couples systems {i + 1} and {j + 1} at energies {float(energies[i])} "
            f"and {float(energies[j])}; a coupled profile needs one energy and one "
            "boundary kind for all systems"
        )


def _refuse_overflow(profile, props, jumps, transfers) -> None:
    """Raise ValueError naming the first segment or delta whose propagator's
    eigenvalues, junction or transfer are not finite in double precision."""
    b = profile.breakpoints
    named = [(f"profile.segments[{k}]: the propagator", p.k) for k, p in enumerate(props)]
    named += [(f"profile.deltas[{d}] at {delta.x0}: the junction", jump)
              for d, (delta, jump) in enumerate(zip(profile.deltas, jumps))]
    named += [(f"profile.segments[{k}] on [{b[k]}, {b[k + 1]}]: the transfer (wavenumber "
               f"times length {props[k].k.max() * (b[k + 1] - b[k]):.6g})", t)
              for k, t in enumerate(transfers)]
    for what, value in named:
        if not np.isfinite(value).all():
            raise ValueError(f"{what} overflows double precision")


# Inputs beyond double precision leave inf or NaN behind, which the solve
# refuses by name (``_refuse_overflow``, then the state) without a warning.
@np.errstate(over="ignore", invalid="ignore")
def _solve(profile, energy, boundary, dynamics):
    n = profile.n_systems
    energy = np.asarray(energy, dtype=float)
    if energy.shape not in ((), (n,)):
        raise ValueError(f"need one energy or {n}, got shape {energy.shape}")
    energies = np.broadcast_to(energy, (n,))
    scatters, amps, given = _boundary_rows(boundary, n)
    if (energies != energies[0]).any() or 0 < scatters.sum() < n:
        _refuse_coupled(profile, energies)
    b = profile.breakpoints
    jumps = [dynamics.junction(d.strength) for d in profile.deltas]
    n_seg = len(profile.segments)
    props = [Propagator(dynamics.generator(s.v, energy)) for s in profile.segments]
    transfers = [props[k](b[k + 1] - b[k]) for k in range(n_seg)]
    _refuse_overflow(profile, props, jumps, transfers)
    junctions = {int(np.argmin(np.abs(b - d.x0))): j for d, j in zip(profile.deltas, jumps)}

    psi_left = given
    systems = np.flatnonzero(scatters)
    if len(systems):
        # Match only the rows and unknowns of the scattering systems; the
        # rows of the others hold their given values.
        u_in, u_ref, u_out = _scattering_modes(profile, energies, dynamics, systems)
        scattering_rows = np.repeat(scatters, 2)
        rows = np.flatnonzero(scattering_rows)
        total = np.eye(2 * n, dtype=complex)
        for k in range(n_seg):
            if k in junctions:
                total = junctions[k] @ total
            total = transfers[k] @ total
        if n_seg in junctions:
            total = junctions[n_seg] @ total
        incoming = np.where(scattering_rows, u_in @ amps[systems], given)
        lhs = np.hstack([total[rows] @ u_ref, -u_out[rows]])
        rhs = -total[rows] @ incoming
        try:
            sol = np.linalg.solve(lhs, rhs)
        except np.linalg.LinAlgError as exc:
            raise ValueError("scattering system is singular at this energy") from exc
        psi_left = np.where(scattering_rows, incoming + u_ref @ sol[:len(systems)], given)

    pieces = [_Piece(float(b[0]), psi_left, props[0])]
    val = junctions[0] @ psi_left if 0 in junctions else psi_left
    for k in range(n_seg):
        pieces.append(_Piece(float(b[k]), val, props[k]))
        val = transfers[k] @ val
        if (k + 1) in junctions:
            val = junctions[k + 1] @ val
    pieces.append(_Piece(float(b[-1]), val, props[-1]))
    for piece in pieces:
        if not np.isfinite(piece.coefficients).all():
            raise ValueError(f"the state at x = {piece.anchor} overflows double precision")

    return PiecewiseSolution(profile, energies, pieces, b, dynamics)


def solve_dirac(
    profile: PotentialProfile,
    energy,
    boundary: BoundarySpec | list[BoundarySpec],
    convention: Convention | str = "default",
) -> PiecewiseSolution:
    """Solve the stationary stacked Dirac problem, one energy per system.

    Parameters
    ----------
    profile : PotentialProfile
        Piecewise-constant Hermitian potential with optional delta barriers.
    energy : float or sequence of N floats
        Stationary energy of every system, or of each; the time dependence is
        the analytic phase exp(-i E t) and never enters the spatial solve.  A
        coupled profile needs one energy for all systems; otherwise a
        ProfileError names its first coupling entry, systems and energies.
    boundary : InitialValue or Scattering, or a sequence of N of them
        One spec for the whole stack, or one single-system spec per system
        (a coupled profile needs one kind for all).  Scattering requires
        diagonal leftmost/rightmost segments and energies at which every
        asymptotic channel of a scattering system propagates.  Every
        system's incoming amplitude is referenced at the profile's left
        edge, so a system padded to a wider stack carries its lead's
        plane-wave phase over the padding.
    convention : Convention or str
        Gamma-matrix pair and coupling channel; see CONVENTIONS.
    """
    if isinstance(convention, str):
        convention = get_convention(convention)
    return _solve(profile, energy, boundary, convention)


def solve_schrodinger(
    profile: PotentialProfile,
    energy,
    boundary: BoundarySpec | list[BoundarySpec],
    mass: float = 1.0,
) -> PiecewiseSolution:
    """Solve the stationary stacked Schroedinger problem, one energy per system.

    ``energy`` and ``boundary`` are as for ``solve_dirac``.  The state vector
    is system-major, u = (phi_1, phi_1', phi_2, phi_2', ...), for a
    whole-stack ``InitialValue`` too; delta barriers impose the derivative
    jump 2 * mass * strength * value across their position.
    """
    return _solve(profile, energy, boundary, Schrodinger(mass))
