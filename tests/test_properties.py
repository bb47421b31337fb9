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

from conftest import diagonal_profile, random_hermitian
from gcelab.engine import (
    _BLOCK,
    _blocks,
    _rms,
    dirac_current,
    gce_residual_dirac,
    gce_residual_schrodinger,
    gce_residual_sweep,
    piecewise_derivative,
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
    solve_schrodinger,
)
from gcelab.sun import build_basis, decompose, source_operator

BREAKS = (-4.0, -2.0, -1.0, 0.5, 2.0, 4.0)
GRID = (-3.5, 3.5)
COARSE, FINE = 201, 401
REL_TOL = 1e-12


# ---------------------------------------------------------------------------
# Oracle: the per-term einsum formulas, on the (x, N, 2) / (x, 2, N) layout


def values(stack, xs):
    """Samples (x, N, 2) Dirac or (x, 2, N) Schroedinger, (value, derivative)."""
    flat = stack.evaluate(xs)
    if stack.model == "dirac":
        return flat.reshape(len(xs), stack.n_systems, 2)
    return flat.reshape(len(xs), 2, stack.n_systems)


def oracle_currents(stack, t_a, vals):
    """(j0, j1) of generator matrix t_a."""
    if stack.model == "dirac":
        kernel = stack.convention.current_matrix
        j0 = np.einsum("xsi,st,xti->x", vals.conj(), t_a, vals)
        j1 = np.einsum("xsi,ij,st,xtj->x", vals.conj(), kernel, t_a, vals)
        return j0, j1
    v, d = vals[:, 0, :], vals[:, 1, :]
    j0 = np.einsum("xs,st,xt->x", v.conj(), t_a, v)
    j1 = (0.5j / stack.mass) * (
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
    if stack.model == "dirac":
        conv = stack.convention
        spinor = conv.gamma0 @ conv.coupling_matrix
        time_term = np.einsum("xsi,st,xti->x", vals.conj(), w, vals)
        source = np.einsum("xsi,ij,xtj,xst->x", vals.conj(), spinor, vals, s_mats)
    else:
        v = vals[:, 0, :]
        time_term = np.einsum("xs,st,xt->x", v.conj(), w, v)
        source = np.einsum("xs,xst,xt->x", v.conj(), s_mats, v)
    return time_term, j1, piecewise_derivative(j1, grid, cuts), source


def oracle_floor(stack, basis, a, grid, decomp):
    """eps max|psi_k|^2 (sum|time - source kernel| + 2 sum|j1 / (2h) kernel|).

    A sum of absolute kernel entries does not depend on the layout, so the
    kernels are plain Kronecker products here.
    """
    t_a, h = basis.generator(a), uniform_spacing(grid)
    current, density, potential = _blocks(stack.model, stack.convention, stack.mass)
    w = 1j * (stack.energies[:, None] - stack.energies[None, :]) * t_a
    eval_xs = snap_to_cuts(grid, residual_cuts(stack.profile))
    bounds = []
    for s_a in source_operator(decomp, a):
        rest = np.kron(w, density) - np.kron(s_a, potential)
        bounds.append(np.abs(rest).sum() + 2.0 * np.abs(np.kron(t_a, current)).sum() / (2 * h))
    psi2 = (np.abs(stack.evaluate(eval_xs)) ** 2).max(axis=1)
    return np.finfo(float).eps * (psi2 * np.array(bounds)[decomp.segment_of(eval_xs)]).max()


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
    if model == "dirac":
        return solve_dirac(profile, 1.5 + 0.5 * rng.uniform(), amps, convention)
    return solve_schrodinger(profile, 2.0 + 0.5 * rng.uniform(), amps)


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
    profile, boundary = diagonal_profile(profiles), Scattering(amps)
    if model == "dirac":
        return solve_dirac(profile, energies, boundary, convention)
    return solve_schrodinger(profile, energies, boundary)


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
    stack = maker(seed, model, n, conv) if model == "dirac" else maker(seed, model, n)
    basis = build_basis(n)
    return stack, basis, decompose(stack.profile, basis)


def test_generator_currents_match_oracle(case):
    stack, basis, _ = case
    grid = np.linspace(*GRID, COARSE)
    current = dirac_current if stack.model == "dirac" else schrodinger_current
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
    residual = gce_residual_dirac if stack.model == "dirac" else gce_residual_schrodinger
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
            rms = [_rms(t.residual[rep.a - 1]) for t in tables]
            floors = [t.floor[rep.a - 1] for t in tables]
            verdict = order_verdict([h, fine[1] - fine[0]], rms, floors)
            assert verdict["orders"][0] == pytest.approx(2.0, abs=0.2), rep.a


def test_sweep_rows_match_oracle_and_per_generator_reports(case):
    stack, basis, decomp = case
    grid = np.linspace(*GRID, COARSE)
    h = grid[1] - grid[0]
    table = gce_residual_sweep(stack, basis, grid, decomp)
    assert table.residual.shape == (basis.dim, COARSE)
    residual = gce_residual_dirac if stack.model == "dirac" else gce_residual_schrodinger
    for a in range(1, basis.dim + 1):
        row = table.residual[a - 1]
        time_term, j1, dj1, source = oracle_terms(stack, basis, a, grid, decomp)
        scale = (np.abs(time_term) + np.abs(source)).max() + np.abs(j1).max() / h
        assert np.abs(row - (time_term + dj1 - source)).max() <= REL_TOL * scale
        assert np.array_equal(residual(stack, basis, a, grid, decomp).residual, row)
        # The rounding floor bounds the rounding of every term, whatever the
        # terms cancel to.
        assert table.floor[a - 1] == pytest.approx(oracle_floor(stack, basis, a, grid, decomp),
                                                   rel=1e-12)


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
    # Grid-length index arrays (the snapped grid, the segment indices and
    # their differences) take 3 x 8 bytes per point; one block's samples,
    # products, GEMM output and stencil temporaries stay within six blocks
    # of complex products.  The samples of the whole grid alone would take
    # 2N x 16 = 128 bytes per point.
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
        psi = sol.psi([x])[0]
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
    if model == "dirac":
        sol = solve_dirac(profile, energy, Scattering(amps), convention)
        conv = sol.convention
    else:
        sol, conv = solve_schrodinger(profile, energy, Scattering(amps)), None
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
        joint = sol.evaluate([x])[0]
        joint = joint.reshape(n, 2) if model == "dirac" else joint.reshape(2, n).T
        want = w @ np.array(channels)
        assert np.abs(joint - want).max() <= 1e-12 * np.abs(want).max()
