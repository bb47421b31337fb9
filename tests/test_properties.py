"""Seeded property checks of the generator currents and continuity residuals.

Random Hermitian stacks (N = 2, 3, 4, 8) in every Dirac convention, the
Schroedinger model, and diagonal stacks whose systems step at their own
breakpoints and sit at distinct energies.  The oracle is the per-term einsum arithmetic that the
engine used before every bilinear went through one 2N x 2N kernel; it is kept
here, independent of the engine's kernels, so that each current, time term and
source is checked on its own formula.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import (
    diagonal_profile,
    piecewise_derivative,
    random_hermitian,
    rms_of,
    solve_model,
)
from gcelab import engine
from gcelab.engine import (
    _BLOCK,
    charge_current_relation,
    dirac_current,
    gce_residual_dirac,
    gce_residual_schrodinger,
    gce_residual_sweep,
    residual_cuts,
    schrodinger_current,
    snap_to_cuts,
    uniform_spacing,
)
from gcelab.scenario import order_verdict
from gcelab.solvers import (
    DeltaBarrier,
    PotentialProfile,
    Scattering,
    Segment,
    solve_dirac,
)
from gcelab.sun import build_basis, decompose, source_operator

BREAKS = (-4.0, -2.0, -1.0, 0.5, 2.0, 4.0)
GRID = (-3.5, 3.5)
COARSE, FINE = 201, 401
REL_TOL = 1e-12


# ---------------------------------------------------------------------------
# Oracle: the per-term einsum formulas, on the (x, N, 2) layout


def values(stack, xs):
    """Samples (x, N, 2): spinors, or (value, derivative) pairs."""
    return stack.evaluate(xs).reshape(len(xs), stack.n_systems, 2)


def oracle_currents(stack, t_a, vals):
    """(j0, j1) of generator matrix t_a."""
    if stack.dynamics.model == "dirac":
        kernel = stack.dynamics.current_matrix
        j0 = np.einsum("xsi,st,xti->x", vals.conj(), t_a, vals)
        j1 = np.einsum("xsi,ij,st,xtj->x", vals.conj(), kernel, t_a, vals)
        return j0, j1
    v, d = vals[..., 0], vals[..., 1]
    j0 = np.einsum("xs,st,xt->x", v.conj(), t_a, v)
    j1 = (0.5j / stack.dynamics.mass) * (
        np.einsum("xs,st,xt->x", d.conj(), t_a, v)
        - np.einsum("xs,st,xt->x", v.conj(), t_a, d)
    )
    return j0, j1


def oracle_terms(stack, basis, a, grid, decomp):
    """(time term, j1, d/dx j1, source) of the stationary residual for generator a."""
    t_a = basis.generator(a)
    cuts = residual_cuts(stack.profile)
    eval_xs = snap_to_cuts(grid, cuts)
    vals = values(stack, eval_xs)
    _, j1 = oracle_currents(stack, t_a, vals)
    w = 1j * (stack.energies[:, None] - stack.energies[None, :]) * t_a
    s_mats = source_operator(decomp, a)[decomp.segment_of(eval_xs)]
    if stack.dynamics.model == "dirac":
        conv = stack.dynamics
        spinor = conv.gamma0 @ conv.coupling_matrix
        time_term = np.einsum("xsi,st,xti->x", vals.conj(), w, vals)
        source = np.einsum("xsi,ij,xtj,xst->x", vals.conj(), spinor, vals, s_mats)
    else:
        v = vals[..., 0]
        time_term = np.einsum("xs,st,xt->x", v.conj(), w, v)
        source = np.einsum("xs,xst,xt->x", v.conj(), s_mats, v)
    return time_term, j1, piecewise_derivative(j1, grid, cuts), source


def oracle_floor(stack, basis, a, grid, decomp):
    """eps max_r f_r^2 (sum|A| of the time-minus-source form + 8 sum|A| of the
    j1 / (2h) form), the largest over the samples, f the factors of each
    sample's piece.

    A folds W = conj(C) K C^T of the piece's coefficient rows C onto r <= s
    (A_rr = W_rr, A_rs = 2 Re W_rs); the kernels K are formed whole here, as
    Kronecker products.
    """
    t_a, h = basis.generator(a), uniform_spacing(grid)
    current, density, potential = stack.dynamics.kernels
    w = 1j * (stack.energies[:, None] - stack.energies[None, :]) * t_a
    eval_xs = snap_to_cuts(grid, residual_cuts(stack.profile))
    pieces = np.searchsorted(stack.breakpoints, eval_xs, side="right")
    segments = decomp.segment_of(eval_xs)
    sources = source_operator(decomp, a)
    r, s = np.triu_indices(stack.dim)

    def abs_sum(c, kernel):
        fold = (c.conj() @ kernel @ c.T)[r, s].real * np.where(r == s, 1.0, 2.0)
        return np.abs(fold).sum()

    worst = 0.0
    for p, seg in set(zip(pieces.tolist(), segments.tolist())):
        piece = stack.pieces[p]
        c = piece.coefficients
        rest = np.kron(w, density) - np.kron(sources[seg], potential)
        bound = abs_sum(c, rest) + 8.0 * abs_sum(c, np.kron(t_a, current) / (2 * h))
        f = piece.propagator.factors(eval_xs[pieces == p] - piece.anchor)
        worst = max(worst, (f ** 2).max() * bound)
    return np.finfo(float).eps * worst


# ---------------------------------------------------------------------------
# Seeded stacks


def coupled_stack(seed: int, model: str, n: int, convention: str = "default"):
    """One joint solution: random Hermitian interior, diagonal outer segments."""
    rng = np.random.default_rng(seed)
    segs = []
    last = len(BREAKS) - 2
    for k, (lo, hi) in enumerate(zip(BREAKS[:-1], BREAKS[1:])):
        if k in (0, last):
            v = np.diag(rng.uniform(-0.5, 0.5, n)).astype(complex)
        else:
            v = 0.4 * random_hermitian(rng, n)
        segs.append(Segment(lo, hi, v))
    profile = PotentialProfile(segs)
    amps = Scattering(rng.normal(size=n) + 1j * rng.normal(size=n))
    energy = (1.5 if model == "dirac" else 2.0) + 0.5 * rng.uniform()
    return solve_model(model, profile, energy, amps, convention)


def sequence_stack(seed: int, model: str, n: int, convention: str = "default"):
    """N systems at distinct energies with their own steps, solved as one
    diagonal stack."""
    rng = np.random.default_rng(seed)
    profiles, amps, energies = [], [], []
    for _ in range(n):
        # Steps on a half-unit lattice keep every smooth cell wide enough for
        # the coarse stencil once the systems' breakpoints are merged.
        cuts = np.sort(rng.choice(np.arange(-3.0, 3.5, 0.5), 2, replace=False))
        edges = (-4.0, *cuts, 4.0)
        profiles.append(PotentialProfile([
            Segment(lo, hi, np.array([[rng.uniform(-0.5, 0.5)]], dtype=complex))
            for lo, hi in zip(edges[:-1], edges[1:])
        ]))
        amps.append(complex(rng.normal(), rng.normal()))
        energies.append((1.5 if model == "dirac" else 2.0) + rng.uniform())
    return solve_model(model, diagonal_profile(profiles), energies, Scattering(amps), convention)


CASES = [
    (build, model, n, conv)
    for build in ("joint", "sequence")
    for model, conv in (
        ("dirac", "default"), ("dirac", "vector"), ("dirac", "rotated"),
        ("schrodinger", None),
    )
    for n in (2, 3, 4, 8)
]


def case_id(case) -> str:
    build, model, n, conv = case
    return f"{build}-{model}{'-' + conv if conv else ''}-N{n}"


@pytest.fixture(scope="module", params=CASES, ids=case_id)
def case(request):
    build, model, n, conv = request.param
    seed = 1000 + CASES.index(request.param)
    maker = coupled_stack if build == "joint" else sequence_stack
    stack = maker(seed, model, n, conv)
    basis = build_basis(n)
    return stack, basis, decompose(stack.profile, basis)


def test_generator_currents_match_oracle(case):
    stack, basis, _ = case
    grid = np.linspace(*GRID, COARSE)
    current = dirac_current if stack.dynamics.model == "dirac" else schrodinger_current
    vals = values(stack, grid)
    for a in range(1, basis.dim + 1):
        j0, j1 = oracle_currents(stack, basis.generator(a), vals)
        prof = current(stack, basis, a, grid)
        scale = max(np.abs(j0).max(), np.abs(j1).max(), 1.0)
        assert np.abs(prof.j0 - j0).max() <= REL_TOL * scale
        assert np.abs(prof.j1 - j1).max() <= REL_TOL * scale


def test_all_residuals_match_oracle_and_converge_at_second_order(case):
    stack, basis, decomp = case
    grid = np.linspace(*GRID, COARSE)
    fine = np.linspace(*GRID, FINE)
    h = grid[1] - grid[0]
    residual = gce_residual_dirac if stack.dynamics.model == "dirac" else gce_residual_schrodinger
    reports = []
    for a in range(1, basis.dim + 1):
        rep = residual(stack, basis, a, grid, decomp)
        time_term, j1, dj1, source = oracle_terms(stack, basis, a, grid, decomp)
        # A difference quotient rounds at |j1| / h even where j1 is constant.
        scale = (np.abs(time_term) + np.abs(source)).max() + np.abs(j1).max() / h
        assert np.abs(rep.residual - (time_term + dj1 - source)).max() <= REL_TOL * scale
        reports.append(rep)
    # Residuals well above rounding are stencil truncation: halving the
    # spacing must divide them by four.  (Some generators leave only rounding,
    # e.g. Cartan ones on a stack of decoupled systems.)
    tables = [gce_residual_sweep(stack, basis, g, decomp) for g in (grid, fine)]
    worst = max(r.residual_rms for r in reports)
    for rep in reports:
        if rep.residual_rms >= 1e-3 * worst:
            rms = [rms_of(t.residual[rep.a - 1]) for t in tables]
            floors = [t.floor[rep.a - 1] for t in tables]
            verdict = order_verdict([h, fine[1] - fine[0]], rms, floors)
            assert verdict["orders"][0] == pytest.approx(2.0, abs=0.2), rep.a


def test_sweep_rows_match_oracle_and_per_generator_reports(case):
    stack, basis, decomp = case
    grid = np.linspace(*GRID, COARSE)
    h = grid[1] - grid[0]
    table = gce_residual_sweep(stack, basis, grid, decomp)
    assert table.residual.shape == (basis.dim, COARSE)
    residual = gce_residual_dirac if stack.dynamics.model == "dirac" else gce_residual_schrodinger
    for a in range(1, basis.dim + 1):
        row = table.residual[a - 1]
        time_term, j1, dj1, source = oracle_terms(stack, basis, a, grid, decomp)
        scale = (np.abs(time_term) + np.abs(source)).max() + np.abs(j1).max() / h
        assert np.abs(row - (time_term + dj1 - source)).max() <= REL_TOL * scale
        assert np.array_equal(residual(stack, basis, a, grid, decomp).residual, row)
        # The rounding floor bounds the rounding of every term, whatever the
        # terms cancel to.
        assert table.floor[a - 1] == pytest.approx(oracle_floor(stack, basis, a, grid, decomp),
                                                   rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# The rounding floor of the factor form
#
# Inside a piece each row of the table is sum_{r <= s} A_rs f_r f_s of the
# piece's propagator factors, then the j1 stencil.  The same factors and
# coefficients, multiplied, summed and differenced in np.longdouble, give
# the table without its float64 rounding, which the floor must bound.


def band_edge_stack(model: str):
    """A diagonal pair with system 1 at E = |V| on one interior segment and
    system 2 on another, where their generators are nilpotent."""
    e = 1.5 if model == "dirac" else 2.0
    diags = ([0.2, -0.3], [e, 0.4], [-0.1, 0.3], [0.5, e], [0.1, -0.2])
    profile = PotentialProfile([
        Segment(lo, hi, np.diag(d)) for lo, hi, d in zip(BREAKS[:-1], BREAKS[1:], diags)
    ])
    return solve_model(model, profile, e, Scattering([1.0, 0.6 - 0.3j]))


def longdouble_table(coefficients, keys, factors, grid, cuts):
    """The rows of the real ``factors`` (R, len(grid)) under the coefficients
    of each sample's key, with the products, forms and stencil taken in
    np.longdouble."""
    f = factors.astype(np.longdouble)
    r, s = np.triu_indices(len(f))
    g = len(next(iter(coefficients.values()))) // 2
    forms = np.empty((2 * g, len(grid)), dtype=np.longdouble)
    for key, a in coefficients.items():
        on = keys == key
        forms[:, on] = a.astype(np.longdouble) @ (f[r][:, on] * f[s][:, on])
    out = np.empty((g, len(grid)), dtype=np.longdouble)
    for lo, hi in engine._cells(grid, cuts):
        out[:, lo:hi] = forms[g:, lo:hi] + engine._diff(forms[:g, lo:hi].T).T
    return out


def longdouble_residuals(stack, basis, grid, decomp):
    """The table's residuals from its factors and piece coefficients, with
    the products, forms and stencil taken in np.longdouble."""
    cuts = residual_cuts(stack.profile)
    eval_xs = snap_to_cuts(grid, cuts)
    pieces = np.searchsorted(stack.breakpoints, eval_xs, side="right")
    keys = sorted(set(pieces.tolist()))
    last = len(stack.profile.segments) - 1
    coefficients = engine._piece_kernels(
        stack.dynamics.kernels, {p: stack.pieces[p].coefficients for p in keys},
        {p: min(max(p - 1, 0), last) for p in keys}, basis.generators,
        uniform_spacing(grid), source_operator(decomp), stack.energies,
    )
    factors = np.empty((stack.dim, len(grid)))
    for p in keys:
        piece, on = stack.pieces[p], pieces == p
        factors[:, on] = piece.propagator.factors(eval_xs[on] - piece.anchor)
    return longdouble_table(coefficients, pieces, factors, grid, cuts)


FLOOR_CASES = [
    (build, model, n) for build in ("joint", "sequence")
    for model in ("dirac", "schrodinger") for n in (2, 3, 4)
] + [("band-edge", "dirac", 2), ("band-edge", "schrodinger", 2)]


def floor_stack(build: str, model: str, n: int):
    if build == "band-edge":
        return band_edge_stack(model)
    return (coupled_stack if build == "joint" else sequence_stack)(300 + n, model, n)


needs_longdouble = pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps,
    reason="np.longdouble is no wider than float64 on this platform",
)


@needs_longdouble
@pytest.mark.parametrize("build, model, n", FLOOR_CASES, ids=lambda c: str(c))
def test_floor_bounds_the_rounding_of_the_factor_form(build, model, n):
    stack = floor_stack(build, model, n)
    if build == "band-edge":
        # Both systems take the exact (1, x) factors on one segment each.
        assert sum(p.propagator.k.min() == 0.0 for p in stack.pieces) >= 2
    basis = build_basis(n)
    decomp = decompose(stack.profile, basis)
    grid = np.linspace(*GRID, COARSE)
    table = gce_residual_sweep(stack, basis, grid, decomp)
    exact = longdouble_residuals(stack, basis, grid, decomp)
    err = np.abs(table.residual - exact).max(axis=1).astype(float)
    assert (err <= table.floor).all(), (err / table.floor).max()


def longdouble_currents(stack, t_a, psi):
    """(j1, j0) of generator matrix t_a: the bilinears psi^dag (t_a kron B) psi
    of the float64 samples psi (x, 2N), taken in np.clongdouble."""
    p, t = psi.astype(np.clongdouble), t_a.astype(np.clongdouble)
    return [
        (p.conj() * (p @ np.kron(t, b.astype(np.clongdouble)).T)).sum(axis=1).real
        for b in stack.dynamics.kernels[:2]
    ]


@needs_longdouble
@pytest.mark.parametrize("build", ["joint", "sequence"])
@pytest.mark.parametrize("model", ["dirac", "schrodinger"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_generator_currents_round_within_two_eps_of_their_scale(build, model, n):
    # A form psi^dag K psi of the samples rounds by a few eps of
    # sum_k |psi_k|^2 max|K|, whatever it cancels to; max|K| = max|T_a| max|B|.
    stack = (coupled_stack if build == "joint" else sequence_stack)(500 + n, model, n)
    basis = build_basis(n)
    grid = np.linspace(*GRID, COARSE)
    psi = stack.evaluate(grid)
    norm = (np.abs(psi) ** 2).sum(axis=1)
    current = dirac_current if model == "dirac" else schrodinger_current
    worst = 0.0
    for a in range(1, basis.dim + 1):
        t_a = basis.generator(a)
        prof = current(stack, basis, a, grid)
        for got, exact, b in zip((prof.j1, prof.j0), longdouble_currents(stack, t_a, psi),
                                 stack.dynamics.kernels[:2]):
            scale = np.finfo(float).eps * norm * np.abs(t_a).max() * np.abs(b).max()
            worst = max(worst, float((np.abs(got - exact) / scale).max()))
    assert worst <= 2.0, worst


def test_sweep_memory_is_the_table_and_one_block():
    """An unblocked build would hold the whole grid's samples, products or
    GEMM outputs."""
    stack = coupled_stack(7, "schrodinger", 4)
    basis = build_basis(4)
    decomp = decompose(stack.profile, basis)
    gce_residual_sweep(stack, basis, np.linspace(*GRID, COARSE), decomp)  # lazy imports
    grid = np.linspace(*GRID, 25001)
    tracemalloc.start()
    try:
        table = gce_residual_sweep(stack, basis, grid, decomp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Grid-length index arrays (the snapped grid, the piece indices and
    # their differences) take 3 x 8 bytes per point; one block's factors,
    # products, GEMM output and stencil temporaries stay within six blocks
    # of complex products.  The factors of the whole grid alone would take
    # 2N x 8 = 64 bytes per point, their products 36 x 8.
    allowance = 3 * 8 * len(grid) + 6 * _BLOCK * 16
    assert peak <= table.residual.nbytes + allowance


# ---------------------------------------------------------------------------
# Closed form: vector-coupled stacks are chiral
#
# With the default gammas the vector generator is M = i(V - E) kron sigma_y
# and a delta's transfer is exp(i lambda kron sigma_y): both commute with
# sigma_y.  The current kernel gamma0 gamma1 = -sigma_y makes the sigma_y = -1
# spinor (1, -i)/sqrt(2) the right mover, so any such stack, coupled or not,
# reflects nothing, and its right movers evolve by the ordered product of
# exp(-i(V_s - E) L_s) over segments and exp(-i lambda_d) over deltas.
# (Thaller, The Dirac Equation (1992), ch. 1, on the chiral decomposition.)

RIGHT = np.array([1.0, -1.0j]) / np.sqrt(2.0)
LEFT = np.array([1.0, 1.0j]) / np.sqrt(2.0)


def chiral_stack(seed: int, n: int):
    """Diagonal leads, coupled interior segments, one coupled delta."""
    rng = np.random.default_rng(seed)
    last = len(BREAKS) - 2
    segs = [
        Segment(lo, hi, np.diag(rng.uniform(-0.5, 0.5, n)).astype(complex)
                if k in (0, last) else 0.4 * random_hermitian(rng, n))
        for k, (lo, hi) in enumerate(zip(BREAKS[:-1], BREAKS[1:]))
    ]
    delta = DeltaBarrier(BREAKS[2], 0.5 * random_hermitian(rng, n))
    profile = PotentialProfile(segs, [delta])
    amps = rng.normal(size=n) + 1j * rng.normal(size=n)
    return profile, 1.5 + 0.5 * rng.uniform(), amps


@pytest.mark.parametrize("seed", range(12))
def test_vector_coupled_stack_matches_chiral_closed_form(seed):
    n = 2 + seed % 4
    profile, energy, amps = chiral_stack(seed, n)
    sol = solve_dirac(profile, energy, Scattering(amps), "vector")
    product = np.eye(n, dtype=complex)
    for k, seg in enumerate(profile.segments):
        delta = profile.delta_at(seg.x_lo)
        if delta is not None:
            product = expm(-1j * delta.strength) @ product
        product = expm(-1j * (seg.v - energy * np.eye(n)) * (seg.x_hi - seg.x_lo)) @ product
    x_lo, x_hi = profile.extent
    for x, right_movers in ((x_lo, amps), (x_hi, product @ amps)):
        psi = sol.evaluate([x])[0].reshape(n, 2)
        right, left = psi @ RIGHT.conj(), psi @ LEFT.conj()
        scale = np.abs(right_movers).max()
        assert np.abs(left).max() <= 1e-13 * scale
        assert np.abs(right - right_movers).max() <= 1e-12 * scale



# ---------------------------------------------------------------------------
# Closed form: rotation-decoupled stacks
#
# With V_s = a_s I + b_s Q on every segment (b = 0 in the leads) and deltas
# alpha I + beta Q for one Hermitian Q = W diag(q) W^dag, the constant W
# splits the stack into N single systems: eigen-channel k sees a_s + b_s q_k
# and alpha + beta q_k.  Every system meets the same leads, so W maps channel
# states to the joint ones at both edges.  The oracle solves each channel with
# 2 x 2 transfers exp(M L) from scipy's expm, built from the convention's
# gammas rather than the solver's generators.

KAPPA_L_CAP = 3.0  # past it the joint solve loses digits to e^{2 kappa L}


def channel_generator(model, conv, v, energy):
    """2 x 2 generator of one channel: Dirac -i gamma1^-1 (v - E gamma0) with
    scalar coupling, or Schroedinger (phi, phi')' = (phi', 2 (v - E) phi)."""
    if model == "dirac":
        return 1j * conv.gamma1 @ (v * np.eye(2) - energy * conv.gamma0)
    return np.array([[0.0, 1.0], [2.0 * (v - energy), 0.0]], dtype=complex)


def channel_movers(model, conv, v, energy):
    """Unit (right, left) movers of a propagating lead: Dirac spinors of unit
    norm with their first component real positive, labelled by the sign of
    u^dag gamma0 gamma1 u; Schroedinger (1, +-ik)."""
    if model == "schrodinger":
        k = np.sqrt(2.0 * (energy - v))
        return np.array([1.0, 1j * k]), np.array([1.0, -1j * k])
    _, vecs = np.linalg.eig(channel_generator(model, conv, v, energy))
    movers = [u / np.linalg.norm(u) * abs(u[0]) / u[0] for u in vecs.T]
    current = [(u.conj() @ conv.current_matrix @ u).real for u in movers]
    return tuple(movers) if current[0] > 0.0 else tuple(movers[::-1])


def decoupled_stack(seed: int, model: str, n: int):
    """Leads a I, interior segments a_s I + b_s Q, one delta alpha I + beta Q,
    with Q normalised to spectral radius 1."""
    rng = np.random.default_rng(seed)
    q = random_hermitian(rng, n)
    q /= np.abs(np.linalg.eigvalsh(q)).max()
    last = len(BREAKS) - 2
    coeffs = [
        (rng.uniform(-0.5, 0.5), 0.0) if k in (0, last)
        else (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        for k in range(last + 1)
    ]
    segs = [Segment(lo, hi, a * np.eye(n) + b * q)
            for (lo, hi), (a, b) in zip(zip(BREAKS[:-1], BREAKS[1:]), coeffs)]
    alpha, beta = rng.uniform(-0.5, 0.5, 2)
    delta = DeltaBarrier(BREAKS[2], alpha * np.eye(n) + beta * q)
    # |v| <= 2 inside, so kappa L stays below 2.9 for Dirac and 2.6 for
    # Schroedinger, and about a quarter of the interior channels are evanescent.
    energy = 0.6 + 0.4 * rng.uniform()
    amps = rng.normal(size=n) + 1j * rng.normal(size=n)
    return PotentialProfile(segs, [delta]), q, coeffs, (alpha, beta), energy, amps


@pytest.mark.parametrize("model, convention", [
    ("dirac", "default"), ("dirac", "rotated"), ("schrodinger", None),
])
@pytest.mark.parametrize("seed", range(6))
def test_rotation_decoupled_stack_matches_channel_closed_form(seed, model, convention):
    n = 2 + seed % 3
    profile, q, coeffs, (alpha, beta), energy, amps = decoupled_stack(seed, model, n)
    sol = solve_model(model, profile, energy, Scattering(amps), convention)
    conv = sol.dynamics
    qk, w = np.linalg.eigh(q)
    incoming = w.conj().T @ amps
    lengths = np.diff(BREAKS)
    left, right = [], []
    for k in range(n):
        v = [a + b * qk[k] for a, b in coeffs]
        u_in, u_ref = channel_movers(model, conv, v[0], energy)
        out, _ = channel_movers(model, conv, v[-1], energy)
        transfer = np.eye(2, dtype=complex)
        for s, length in enumerate(lengths):
            if BREAKS[s] == profile.deltas[0].x0:
                lam = alpha + beta * qk[k]
                jump = (expm(1j * lam * conv.gamma1) if model == "dirac"
                        else np.array([[1.0, 0.0], [2.0 * lam, 1.0]]))
                transfer = jump @ transfer
            m = channel_generator(model, conv, v[s], energy)
            if 0 < s < len(lengths) - 1:
                kappa = np.sqrt(max(np.linalg.eigvals(m @ m).real.max(), 0.0))
                assert kappa * length <= KAPPA_L_CAP
            transfer = expm(m * length) @ transfer
        # transfer (c u_in + r u_ref) = t out
        r, _ = np.linalg.solve(
            np.column_stack([transfer @ u_ref, -out]), -incoming[k] * (transfer @ u_in)
        )
        left.append(incoming[k] * u_in + r * u_ref)
        right.append(transfer @ left[-1])
    for x, channels in zip(profile.extent, (left, right)):
        joint = sol.evaluate([x])[0].reshape(n, 2)
        want = w @ np.array(channels)
        assert np.abs(joint - want).max() <= 1e-12 * np.abs(want).max()


# ---------------------------------------------------------------------------
# Charge relation on seeded decoupled Dirac stacks
#
# Systems i and j of the pair share one potential and the others step on
# their own, at distinct energies.  Interior segments reach |V| = 2 at
# energies 0.6-1.4 and are at most 1.5 long, so a scalar-coupled channel can
# be evanescent there with kappa L <= 3 (thicker barriers lose digits in the
# joint solve itself).


def charge_stack(seed: int):
    """(solution, pair, x1, x2, interior kappa L values, x2 on a cut)."""
    rng = np.random.default_rng(seed)
    n = 2 + seed % 3
    conv = ("default", "vector", "rotated")[(seed // 3) % 3]
    i, j = rng.choice(n, 2, replace=False)
    n_seg = 1 + int(rng.integers(4))
    edges = np.cumsum([0.0, *rng.uniform(0.5, 1.5, n_seg)]) - 1.0
    last = n_seg - 1
    diag = []
    for s in range(n_seg):
        width = 0.3 if s in (0, last) else 2.0
        v = rng.uniform(-width, width, n)
        v[j] = v[i]
        diag.append(v)
    segs = [Segment(lo, hi, np.diag(v)) for lo, hi, v in zip(edges[:-1], edges[1:], diag)]
    deltas = []
    if n_seg > 1 and rng.uniform() < 0.6:
        lam = rng.uniform(-1.0, 1.0, n)
        lam[j] = lam[i]
        deltas.append(DeltaBarrier(edges[1 + int(rng.integers(n_seg - 1))], np.diag(lam)))
    energies = rng.uniform(0.6, 1.4, n)
    energies[j] = energies[i] + np.sign(1.0 - energies[i]) * rng.uniform(0.1, 0.4)
    amps = rng.normal(size=n) + 1j * rng.normal(size=n)
    sol = solve_dirac(PotentialProfile(segs, deltas), energies, Scattering(amps), conv)
    x1 = rng.uniform(edges[0] - 1.0, 0.5 * (edges[0] + edges[-1]))
    cuts = [c for c in edges[1:] if c > x1]
    on_cut = rng.uniform() < 0.5
    x2 = rng.choice(cuts) if on_cut else edges[-1] + rng.uniform(0.0, 1.0)
    kappa_l = []
    for piece, length in zip(sol.pieces[2:-2], np.diff(edges)[1:-1]):
        m = piece.propagator.generator
        kappa_l.append(np.sqrt(max(np.linalg.eigvalsh(m @ m).max(), 0.0)) * length)
    return sol, (i + 1, j + 1), x1, float(x2), kappa_l, on_cut


def test_charge_relation_holds_on_seeded_decoupled_stacks():
    evanescent = on_cut = with_delta = 0
    for seed in range(40):
        sol, pair, x1, x2, kappa_l, cut = charge_stack(seed)
        assert max(kappa_l, default=0.0) <= KAPPA_L_CAP, seed
        rel = charge_current_relation(sol, pair, x1, x2)
        scale = max(abs(rel.q), abs(rel.boundary_value))
        assert rel.discrepancy <= 1e-12 * scale, (seed, rel)
        evanescent += max(kappa_l, default=0.0) > 0.0
        on_cut += cut
        with_delta += bool(sol.profile.deltas)
    # The seeds reach every feature the relation splits or scales on.
    assert min(evanescent, on_cut, with_delta) >= 5, (evanescent, on_cut, with_delta)
