"""Solver-layer tests: conventions, profiles, generators, junctions, exact solves."""

from __future__ import annotations

import re
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import per_system, random_hermitian, solve_model, system_profile
from gcelab.engine import gce_residual_dirac, gce_residual_schrodinger, gce_residual_sweep
from gcelab.solvers import (
    CONVENTIONS,
    Convention,
    DeltaBarrier,
    EvanescentChannelError,
    InitialValue,
    PotentialProfile,
    ProfileError,
    Propagator,
    Scattering,
    Schrodinger,
    Segment,
    _scattering_modes,
    get_convention,
    solve_dirac,
    solve_schrodinger,
    system_columns,
    uniform_profile,
)
from gcelab.sun import build_basis, decompose

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)


def ode_residual(sol, xs, h: float = 1e-4) -> float:
    """Max norm of phi'(x) - M(x) phi(x) with phi' from a 5-point stencil.

    The derivative comes from evaluated samples only, so this is an
    independent check that the represented field satisfies the first-order
    system, not a tautology of the representation.
    """
    xs = np.asarray(xs, dtype=float)
    stencil = [(-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0)]
    dphi = np.zeros((len(xs), sol.dim), dtype=complex)
    for off, w in stencil:
        dphi += w * sol.evaluate(xs + off * h)
    dphi /= 12.0 * h
    phi = sol.evaluate(xs)
    worst = 0.0
    for k, x in enumerate(xs):
        v = sol.profile.matrix_at(x)
        m = sol.dynamics.generator(v, sol.energy)
        worst = max(worst, float(np.abs(dphi[k] - m @ phi[k]).max()))
    return worst


def interior_points(profile, n_per=40, pad=0.05):
    """Sample points comfortably inside each segment (away from breakpoints)."""
    pts = []
    for s in profile.segments:
        w = s.x_hi - s.x_lo
        pts.append(np.linspace(s.x_lo + pad * w, s.x_hi - pad * w, n_per))
    return np.concatenate(pts)


def probability_current(sol, xs):
    if sol.dynamics.model == "dirac":
        block = sol.dynamics.current_matrix
    else:  # (i / 2m) (phi'^* phi - phi^* phi') on (value, derivative)
        block = 0.5j / sol.dynamics.mass * np.array([[0.0, -1.0], [1.0, 0.0]])
    kernel = np.kron(np.eye(sol.n_systems), block)
    vals = sol.evaluate(xs)
    return np.einsum("xi,ij,xj->x", vals.conj(), kernel, vals).real


# ---------------------------------------------------------------------------
# Conventions


def test_default_conventions_valid():
    for name, conv in CONVENTIONS.items():
        assert conv.name == name
        assert np.abs(conv.gamma1 @ conv.gamma1_inv - np.eye(2)).max() <= 1e-14
        kernel = conv.current_matrix
        assert np.abs(kernel - kernel.conj().T).max() <= 1e-14


def test_convention_validation_rejects_bad_cliffords():
    with pytest.raises(ValueError, match="anticommute"):
        Convention("bad", np.eye(2), 1j * SX)
    with pytest.raises(ValueError, match="squared"):
        Convention("bad", np.diag([1.0, -1.0]), 2j * SX)  # gamma1^2 = -4
    with pytest.raises(ValueError, match="coupling"):
        Convention("bad", np.diag([1.0, -1.0]), 1j * SX, coupling="axial")
    with pytest.raises(ValueError, match="unknown convention"):
        get_convention("nope")


# ---------------------------------------------------------------------------
# Profiles


def test_profile_validation():
    with pytest.raises(ProfileError, match="at least one"):
        PotentialProfile([])
    with pytest.raises(ProfileError, match="starts at"):
        PotentialProfile(
            [Segment(0, 1, np.eye(2)), Segment(1.5, 2, np.eye(2))]
        )
    with pytest.raises(ProfileError, match="non-positive"):
        PotentialProfile([Segment(1, 1, np.eye(2))])
    with pytest.raises(ValueError, match="Hermitian"):
        PotentialProfile([Segment(0, 1, np.array([[0, 1], [0, 0]]))])
    with pytest.raises(ProfileError, match="boundary"):
        PotentialProfile([Segment(0, 1, np.eye(2))], [DeltaBarrier(0.5, np.eye(2))])


def test_scalar_potentials_are_one_by_one_blocks():
    prof = uniform_profile(0.0)
    assert prof.n_systems == 1
    assert prof.segments[0].v.shape == (1, 1) and prof.segments[0].v[0, 0] == 0.0
    stepped = PotentialProfile([Segment(-1, 0, 0.5), Segment(0, 1, [[1.5]])], [DeltaBarrier(0.0, 0.3)])
    assert [seg.v[0, 0] for seg in stepped.segments] == [0.5, 1.5]
    assert stepped.deltas[0].strength.shape == (1, 1)
    sol = solve_schrodinger(prof, 1.0, Scattering([1.0]))
    assert np.array_equal(sol.evaluate([0.3]), solve_schrodinger(
        uniform_profile([[0.0]]), 1.0, Scattering([1.0])).evaluate([0.3]))


@pytest.mark.parametrize("v, shape", [([1.0, 2.0], (2,)), (np.ones((2, 3)), (2, 3))])
def test_first_segment_of_wrong_shape_is_refused_as_later_ones_are(v, shape):
    first = re.escape(f"segment 0 potential must have shape ({shape[0]}, {shape[0]}), got {shape}")
    with pytest.raises(ValueError, match=first):
        PotentialProfile([Segment(0, 1, v)])
    later = re.escape(f"segment 1 potential must have shape ({shape[0]}, {shape[0]}), got {shape}")
    with pytest.raises(ValueError, match=later):
        PotentialProfile([Segment(-1, 0, np.eye(shape[0])), Segment(0, 1, v)])


def test_profile_lookup():
    prof = PotentialProfile(
        [Segment(-1, 0, np.diag([1.0, 2.0])), Segment(0, 1, np.diag([3.0, 4.0]))],
        [DeltaBarrier(0.0, np.diag([0.5, 0.0]))],
    )
    assert prof.extent == (-1.0, 1.0)
    assert prof.matrix_at(-5.0)[0, 0] == 1.0  # asymptotic extension
    assert prof.matrix_at(5.0)[1, 1] == 4.0
    assert prof.matrix_at(0.0)[0, 0] == 3.0  # right-continuous
    assert prof.matrix_at(0.0, side="left")[0, 0] == 1.0
    assert prof.is_diagonal
    assert not uniform_profile(np.array([[0.0, 1.0], [1.0, 0.0]])).is_diagonal


# ---------------------------------------------------------------------------
# Generators: eigenvalue and dispersion oracles


def test_free_dirac_generator_eigenvalues():
    for e in (0.5, 1.0, 2.5):
        m = get_convention("default").generator(np.zeros((1, 1)), e)
        mu = np.linalg.eigvals(m)
        mu = mu[np.argsort(mu.imag)]
        np.testing.assert_allclose(mu, np.array([-1j * e, 1j * e]), atol=1e-14)


def test_free_dirac_full_rotation():
    m = get_convention("default").generator(np.zeros((1, 1)), 1.0)
    np.testing.assert_allclose(expm(m * np.pi), -np.eye(2), atol=1e-13)
    np.testing.assert_allclose(expm(m * 2 * np.pi), np.eye(2), atol=1e-13)


@pytest.mark.parametrize("v,e", [(0.7, 1.5), (1.2, 0.0), (2.0, 1.0)])
def test_scalar_dispersion_block(v, e):
    m = get_convention("default").generator(np.array([[v]]), e)
    np.testing.assert_allclose(m @ m, (v * v - e * e) * np.eye(2), atol=1e-13)


def test_vector_dispersion_block():
    v, e = 0.8, 1.7
    m = get_convention("vector").generator(np.array([[v]]), e)
    np.testing.assert_allclose(m @ m, -((e - v) ** 2) * np.eye(2), atol=1e-13)


def test_schrodinger_generator_matches_companion_form():
    m = Schrodinger(2.0).generator(np.array([[0.3]]), 1.1)
    np.testing.assert_allclose(
        m, np.array([[0.0, 1.0], [2 * 2.0 * (0.3 - 1.1), 0.0]]), atol=1e-15
    )


@pytest.mark.parametrize("mass", [0.0, -1.0])
def test_schrodinger_mass_must_be_positive(mass):
    with pytest.raises(ValueError, match="mass must be positive"):
        Schrodinger(mass)


def kron_dirac_generator(v, energy, convention):
    """Convention.generator in its np.kron form: the oracle of its stacked products."""
    v = np.asarray(v, dtype=complex)
    if v.ndim == 0:
        v = v.reshape(1, 1)
    g1inv = convention.gamma1_inv
    return -1j * (
        np.kron(v, g1inv @ convention.coupling_matrix)
        - energy * np.kron(np.eye(v.shape[0]), g1inv @ convention.gamma0)
    )


@pytest.mark.parametrize("name", sorted(CONVENTIONS))
def test_dirac_generator_matches_kron_form_bit_for_bit(name):
    conv = get_convention(name)
    rng = np.random.default_rng(7)
    for n in range(1, 9):
        for _ in range(5):
            v = random_hermitian(rng, n)
            e = float(rng.uniform(-3.0, 3.0))
            want = kron_dirac_generator(v, e, conv)
            assert conv.generator(v, e).tobytes() == want.tobytes()
        stack = np.array([random_hermitian(rng, n) for _ in range(4)])
        got = conv.generator(stack, e)
        for block, m in zip(stack, got, strict=True):
            assert m.tobytes() == kron_dirac_generator(block, e, conv).tobytes()
    for v in (0.0, -0.0, 0.7, -2.5):
        want = kron_dirac_generator(v, 1.3, conv)
        assert conv.generator(v, 1.3).tobytes() == want.tobytes()


def test_generators_take_one_energy_per_system():
    """diag(E) in place of E I: each diagonal block is its system's generator
    at its own energy, bit for bit, and the blocks do not couple."""
    v, energies = np.array([0.3, -0.2, 0.5]), np.array([1.1, -0.7, 2.0])
    generators = [c.generator for c in CONVENTIONS.values()]
    for generator in [*generators, Schrodinger(1.5).generator]:
        m = generator(np.diag(v), energies)
        for i in range(3):
            block = m[2 * i:2 * i + 2, 2 * i:2 * i + 2]
            assert block.tobytes() == generator(v[i], energies[i]).tobytes()
            m[2 * i:2 * i + 2, 2 * i:2 * i + 2] = 0.0
        assert not m.any()


# ---------------------------------------------------------------------------
# Delta junctions


def test_vector_delta_junction_is_rotation():
    lam = 0.77
    j = get_convention("vector").junction(np.array([[lam]]))
    rot = np.array([[np.cos(lam), np.sin(lam)], [-np.sin(lam), np.cos(lam)]])
    np.testing.assert_allclose(j, rot, atol=1e-14)
    j2pi = get_convention("vector").junction(np.array([[2 * np.pi]]))
    np.testing.assert_allclose(j2pi, np.eye(2), atol=1e-13)


def test_scalar_delta_junction_is_hermitian_boost():
    lam = 0.4
    j = get_convention("default").junction(np.array([[lam]]))
    np.testing.assert_allclose(j, expm(-lam * SX), atol=1e-14)
    assert np.abs(j - j.conj().T).max() <= 1e-14


def test_zero_strength_junction_is_identity():
    for name in ("default", "vector"):
        j = get_convention(name).junction(np.zeros((2, 2)))
        np.testing.assert_allclose(j, np.eye(4), atol=1e-15)


@pytest.mark.parametrize("name", ["default", "vector", "rotated"])
def test_junction_preserves_current_kernel(name):
    rng = np.random.default_rng(5)
    conv = get_convention(name)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    lam = 0.5 * (a + a.conj().T)
    j = conv.junction(lam)
    kernel = np.kron(np.eye(2), conv.current_matrix)
    np.testing.assert_allclose(j.conj().T @ kernel @ j, kernel, atol=1e-13)


def test_schrodinger_junction_jump_rule():
    lam = np.array([[0.9]])
    j = Schrodinger(1.5).junction(lam)
    np.testing.assert_allclose(j, np.array([[1.0, 0.0], [2 * 1.5 * 0.9, 1.0]]), atol=1e-15)


# ---------------------------------------------------------------------------
# Exact propagator against the scipy expm oracle

OFFSETS = (0.0, 1e-3, 1.7)  # zero, small, and one segment length


def assert_matches_expm(m, xs=OFFSETS):
    for x in xs:
        ref = expm(m * x)
        err = np.abs(Propagator(m)(x) - ref).max()
        assert err <= 1e-12 * max(1.0, np.abs(ref).max()), (x, err)


@pytest.mark.parametrize("name", ["default", "vector", "rotated"])
@pytest.mark.parametrize("offset", [0.0, 1e-9, -1e-9])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_dirac_propagator_at_band_edge(name, offset, sign):
    v = 1.3
    m = get_convention(name).generator(np.array([[v]]), sign * (v + offset))
    assert_matches_expm(m)


@pytest.mark.parametrize("offset", [0.0, 1e-9, -1e-9])
def test_schrodinger_propagator_at_turning_point(offset):
    m = Schrodinger(1.5).generator(np.array([[0.8]]), 0.8 + offset)
    assert_matches_expm(m)


@pytest.mark.parametrize("name", ["default", "vector"])
def test_coupled_propagator_with_zero_eigenvalue(name):
    # V = 0.5 d d^dag couples all three systems; its spectrum is {1.5, 0, 0},
    # so at E = 1.5 both V^2 - E^2 and -(V - E)^2 have an exact zero eigenvalue.
    d = np.array([1.0, 1j, -1.0])
    v = 0.5 * np.outer(d, d.conj())
    e = 1.5
    shifted = v - e * np.eye(3)
    a = v @ v - e * e * np.eye(3) if name == "default" else -shifted @ shifted
    assert np.abs(np.linalg.eigvalsh(a)).min() <= 1e-15
    m = get_convention(name).generator(v, e)
    assert_matches_expm(m)
    # The same generator drives evaluation inside a solved segment.
    start = np.arange(1.0, 7.0) * (1.0 - 0.5j)
    prof = PotentialProfile([Segment(0.0, 1.7, v)])
    sol = solve_dirac(prof, e, InitialValue(start), convention=name)
    xs = np.array(OFFSETS)
    ref = np.array([expm(m * x) @ start for x in xs])
    np.testing.assert_allclose(sol.evaluate(xs), ref, rtol=0, atol=1e-12 * np.abs(ref).max())


@pytest.mark.parametrize("name", ["default", "vector", "rotated"])
def test_delta_junction_matches_expm_for_random_strengths(name):
    rng = np.random.default_rng(11)
    conv = get_convention(name)
    for _ in range(5):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        lam = 0.5 * (a + a.conj().T)
        ref = expm(-1j * np.kron(lam, conv.gamma1_inv @ conv.coupling_matrix))
        err = np.abs(conv.junction(lam) - ref).max()
        assert err <= 1e-12 * max(1.0, np.abs(ref).max())


def test_band_edge_evaluation_is_exact():
    # E = |V| exactly on the middle segment of system 1: its generator is nilpotent.
    prof = PotentialProfile(
        [
            Segment(-1.0, 0.0, np.zeros((2, 2))),
            Segment(0.0, 1.0, np.diag([1.5, 0.2])),
            Segment(1.0, 2.0, np.zeros((2, 2))),
        ]
    )
    sol = solve_dirac(prof, 1.5, Scattering(np.array([1.0, 0.5])))
    m = get_convention("default").generator(np.diag([1.5, 0.2]), 1.5)
    xs = np.linspace(0.0, 1.0, 11)
    ref = np.array([expm(m * x) @ sol.evaluate([0.0])[0] for x in xs])
    np.testing.assert_allclose(sol.evaluate(xs), ref, rtol=0, atol=1e-12)
    assert ode_residual(sol, interior_points(prof)) <= 1e-10


@pytest.mark.parametrize(
    "m", [np.array([[1.0, 1.0], [0.0, 1.0]]), np.diag([1.0, 2.0])],
    ids=["non-hermitian-square", "unpaired-spectrum"],
)
def test_propagator_rejects_foreign_generators_as_internal_errors(m):
    with pytest.raises(RuntimeError, match="paired"):
        Propagator(m)


# ---------------------------------------------------------------------------
# Free solutions


def test_free_schrodinger_plane_wave():
    prof = uniform_profile(np.zeros((1, 1)), 0.0, 1.0)
    k = 1.3
    sol = solve_schrodinger(prof, k * k / 2.0, Scattering(np.array([1.0])), mass=1.0)
    xs = np.linspace(-3.0, 4.0, 41)
    vals, ders = sol.evaluate(xs).T
    np.testing.assert_allclose(vals, np.exp(1j * k * xs), atol=1e-12)
    np.testing.assert_allclose(ders, 1j * k * np.exp(1j * k * xs), atol=1e-12)
    assert np.abs(np.abs(vals) - 1.0).max() <= 1e-12


def test_free_dirac_plane_wave_periodicity():
    prof = uniform_profile(np.zeros((1, 1)), 0.0, 1.0)
    sol = solve_dirac(prof, 1.0, Scattering(np.array([1.0])))
    v0 = sol.evaluate([0.0])[0]
    v2pi = sol.evaluate([2.0 * np.pi])[0]
    np.testing.assert_allclose(v2pi, v0, atol=1e-12)
    # Pure right-mover: the spatial dependence is exp(+i E x) in each component.
    xs = np.linspace(-2.0, 2.0, 17)
    vals = sol.evaluate(xs)
    ratio = vals / vals[8]
    np.testing.assert_allclose(
        ratio, np.exp(1j * 1.0 * (xs - xs[8]))[:, None] * np.ones(2), atol=1e-12
    )
    assert np.abs(np.linalg.norm(vals, axis=1) - 1.0).max() <= 1e-12


# ---------------------------------------------------------------------------
# Scattering against closed-form oracles


def test_schrodinger_barrier_transmission_oracle():
    v0, length, e, m = 1.0, 1.2, 0.6, 1.0
    prof = PotentialProfile(
        [
            Segment(-1.0, 0.0, np.zeros((1, 1))),
            Segment(0.0, length, np.array([[v0]])),
            Segment(length, length + 1.0, np.zeros((1, 1))),
        ]
    )
    sol = solve_schrodinger(prof, e, Scattering(np.array([1.0])), mass=m)
    k = np.sqrt(2 * m * e)
    kappa = np.sqrt(2 * m * (v0 - e))
    t_prob = 1.0 / (1.0 + (v0 * np.sinh(kappa * length)) ** 2 / (4 * e * (v0 - e)))
    assert abs(abs(sol.evaluate([length + 0.5])[0, 0]) ** 2 - t_prob) <= 1e-12
    # Reflection from the left-edge state, then unitarity.
    vl, dl = sol.evaluate([-0.5])[0]
    a_plus = 0.5 * (vl + dl / (1j * k))
    a_minus = 0.5 * (vl - dl / (1j * k))
    # Incoming wave is exp(ik (x - x_lo)) with x_lo = -1, so at x = -0.5
    # the right-moving part carries phase exp(ik * 0.5).
    assert abs(a_plus - np.exp(1j * k * 0.5)) <= 1e-12
    assert abs(abs(a_minus) ** 2 + t_prob - 1.0) <= 1e-10


def test_schrodinger_delta_transmission_oracle():
    lam, e, m = 0.8, 1.3, 1.0
    k = np.sqrt(2 * m * e)
    prof = PotentialProfile(
        [Segment(-1.0, 0.0, np.zeros((1, 1))), Segment(0.0, 1.0, np.zeros((1, 1)))],
        [DeltaBarrier(0.0, np.array([[lam]]))],
    )
    sol = solve_schrodinger(prof, e, Scattering(np.array([1.0])), mass=m)
    t_std = 1.0 / (1.0 + 1j * m * lam / k)
    # Incoming wave referenced at the left edge x_lo = -1: phase exp(ik (x + 1)).
    np.testing.assert_allclose(sol.evaluate([0.7])[0, 0], t_std * np.exp(1j * k * 1.7), atol=1e-12)
    left, right = sol.limits(0.0)
    assert abs(right[0] - left[0]) <= 1e-13  # value continuous
    assert abs((right[1] - left[1]) - 2 * m * lam * left[0]) <= 1e-12


def test_limits_related_by_junction_dirac():
    lam = 0.6
    conv = get_convention("vector")
    prof = PotentialProfile(
        [Segment(-1.0, 0.0, np.zeros((1, 1))), Segment(0.0, 1.0, np.zeros((1, 1)))],
        [DeltaBarrier(0.0, np.array([[lam]]))],
    )
    sol = solve_dirac(prof, 1.1, Scattering(np.array([1.0])), convention=conv)
    left, right = sol.limits(0.0)
    np.testing.assert_allclose(right, conv.junction(np.array([[lam]])) @ left, atol=1e-13)
    # Continuity at a plain boundary.
    left1, right1 = sol.limits(-1.0)
    np.testing.assert_allclose(left1, right1, atol=1e-13)


# ---------------------------------------------------------------------------
# Batched channel analysis against the per-system reference


def reference_propagating_modes(m2, current_kernel):
    """(right, left) unit modes of one 2x2 generator, one column at a time."""
    mu, vecs = np.linalg.eig(m2)
    scale = max(1.0, float(np.abs(mu).max()))
    assert np.abs(mu.real).max() <= 1e-9 * scale
    right = left = None
    for col in range(2):
        u = vecs[:, col]
        u = u / np.linalg.norm(u)
        lead = np.flatnonzero(np.abs(u) > 1e-9)[0]
        u = u * (np.abs(u[lead]) / u[lead])
        j = (u.conj() @ current_kernel @ u).real
        assert abs(j) > 1e-12
        if j > 0:
            right = u
        else:
            left = u
    assert right is not None and left is not None
    return right, left


def reference_scattering_modes(edges, energy, convention):
    """Dirac (U_in, U_ref, U_out) built one system and one side at a time."""
    n = len(edges)
    u_in, u_ref, u_out = (np.zeros((2 * n, n), dtype=complex) for _ in range(3))
    for i in range(n):
        rows = [2 * i, 2 * i + 1]
        kernel = convention.current_matrix
        m_l = kron_dirac_generator(edges[i, 0], energy, convention)
        m_r = kron_dirac_generator(edges[i, 1], energy, convention)
        r_l, l_l = reference_propagating_modes(m_l, kernel)
        r_r, _ = reference_propagating_modes(m_r, kernel)
        u_in[rows, i] = r_l
        u_ref[rows, i] = l_l
        u_out[rows, i] = r_r
    return u_in, u_ref, u_out


def seeded_edges(rng, n, energy):
    """Diagonal edge potentials within 1e-6 of the band edge |V| = |E| on its
    propagating side, with a quarter of the channels anywhere in (-|E|, |E|)."""
    near = np.abs(energy) - rng.uniform(0.0, 1e-6, (n, 2))
    edges = rng.choice([-1.0, 1.0], (n, 2)) * near
    free = rng.uniform(size=(n, 2)) < 0.25
    edges[free] = rng.uniform(-abs(energy), abs(energy), free.sum())
    return edges


@pytest.mark.parametrize("name", sorted(CONVENTIONS))
def test_batched_channels_match_per_system_reference_bit_for_bit(name):
    conv = get_convention(name)
    rng = np.random.default_rng(11)
    for n in range(1, 9):
        for _ in range(6):
            energy = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 3.0))
            edges = seeded_edges(rng, n, energy)
            prof = PotentialProfile([
                Segment(-1.0, 0.0, np.diag(edges[:, 0]).astype(complex)),
                Segment(0.0, 1.0, random_hermitian(rng, n)),
                Segment(1.0, 2.0, np.diag(edges[:, 1]).astype(complex)),
            ])
            energies, systems = np.full(n, energy), np.arange(n)
            got = _scattering_modes(prof, energies, conv, systems)
            want = reference_scattering_modes(edges, energy, conv)
            for g, w in zip(got, want, strict=True):
                assert g.tobytes() == w.tobytes()
            modes = conv.channels(edges, energies, systems)
            currents = np.einsum("...a,ab,...b->...", modes.conj(), conv.kernels[0], modes).real
            assert (currents[..., 0] > 0.0).all() and (currents[..., 1] < 0.0).all()


# ---------------------------------------------------------------------------
# Exactness: ODE residual and current conservation


@pytest.mark.parametrize("name", ["default", "vector"])
def test_dirac_ode_residual(name):
    prof = PotentialProfile(
        [
            Segment(-2.0, 0.0, np.diag([0.0, 0.3])),
            Segment(0.0, 1.5, np.diag([0.5, -0.2])),
            Segment(1.5, 3.0, np.diag([0.1, 0.4])),
        ],
        [DeltaBarrier(0.0, np.diag([0.4, 0.0]))],
    )
    sol = solve_dirac(prof, 1.8, Scattering(np.array([1.0, 0.5 - 0.25j])), convention=name)
    assert ode_residual(sol, interior_points(prof)) <= 1e-10


def test_schrodinger_ode_residual():
    prof = PotentialProfile(
        [
            Segment(-2.0, 0.0, np.diag([0.0, 0.2])),
            Segment(0.0, 1.0, np.diag([0.8, 0.4])),
            Segment(1.0, 3.0, np.diag([0.1, 0.0])),
        ]
    )
    sol = solve_schrodinger(prof, 1.7, Scattering(np.array([1.0, 1.0])), mass=1.0)
    assert ode_residual(sol, interior_points(prof)) <= 1e-10


def test_coupled_hermitian_stack():
    v_mid = np.array([[0.4, 0.2 - 0.1j], [0.2 + 0.1j, -0.1]])
    prof = PotentialProfile(
        [
            Segment(-1.0, 0.0, np.zeros((2, 2))),
            Segment(0.0, 1.0, v_mid),
            Segment(1.0, 2.0, np.zeros((2, 2))),
        ]
    )
    sol = solve_dirac(prof, 1.4, Scattering(np.array([1.0, 0.3])))
    assert ode_residual(sol, interior_points(prof)) <= 1e-10
    xs = np.linspace(-3.0, 4.0, 301)
    j = probability_current(sol, xs)
    assert np.abs(j - j[0]).max() <= 1e-10


@pytest.mark.parametrize("model", ["dirac", "schrodinger"])
def test_probability_current_constant_across_delta(model):
    prof = PotentialProfile(
        [Segment(-2.0, 0.0, np.array([[0.2]])), Segment(0.0, 2.0, np.array([[0.5]]))],
        [DeltaBarrier(0.0, np.array([[0.7]]))],
    )
    sol = solve_model(model, prof, 1.6, Scattering(np.array([1.0])))
    xs = np.linspace(-4.0, 4.0, 401)
    j = probability_current(sol, xs)
    assert np.abs(j - j[0]).max() <= 1e-10


def test_identical_systems_give_identical_components():
    prof = PotentialProfile(
        [Segment(-1.0, 0.0, 0.3 * np.eye(2)), Segment(0.0, 1.0, 0.6 * np.eye(2))]
    )
    sol = solve_dirac(prof, 1.5, Scattering(np.array([1.0, 1.0])))
    xs = np.linspace(-2.0, 2.0, 101)
    psi = per_system(sol, xs)
    assert np.abs(psi[:, 0, :] - psi[:, 1, :]).max() <= 1e-13


def test_extracted_system_matches_direct_solve():
    prof = PotentialProfile(
        [Segment(-1.0, 0.0, np.diag([0.1, 0.4])), Segment(0.0, 1.0, np.diag([0.5, 0.2]))],
        [DeltaBarrier(0.0, np.diag([0.3, 0.0]))],
    )
    amps = np.array([1.0, 0.6 + 0.2j])
    joint = solve_dirac(prof, 1.7, Scattering(amps))
    xs = np.linspace(-2.0, 2.0, 101)
    for i in (1, 2):
        direct = solve_dirac(system_profile(prof, i), 1.7, Scattering(amps[[i - 1]]))
        np.testing.assert_allclose(
            joint.evaluate(xs)[:, system_columns(i - 1)],
            direct.evaluate(xs),
            atol=1e-12,
        )


def test_initial_value_boundary_round_trip():
    prof = PotentialProfile(
        [Segment(0.0, 1.0, np.array([[0.2]])), Segment(1.0, 2.0, np.array([[0.7]]))]
    )
    start = np.array([1.0 + 0.5j, -0.3j])
    sol = solve_dirac(prof, 1.3, InitialValue(start))
    np.testing.assert_allclose(sol.evaluate([0.0])[0], start, atol=1e-14)
    assert ode_residual(sol, interior_points(prof)) <= 1e-10


def test_whole_stack_schrodinger_initial_value_is_system_major():
    """InitialValue((phi_1, phi_1', phi_2, phi_2')): each system's pair of
    the joint solve is the single-system solve from its own pair."""
    prof = PotentialProfile(
        [Segment(0.0, 1.0, np.diag([0.2, -0.4])), Segment(1.0, 2.0, np.diag([0.7, 0.1]))]
    )
    pairs, energies = [(1.0 + 0.5j, -0.3j), (0.2, 0.8 - 0.1j)], [1.3, 0.6]
    joint = solve_schrodinger(prof, energies, InitialValue([*pairs[0], *pairs[1]]))
    xs = np.linspace(-0.5, 2.5, 31)
    for i, (pair, energy) in enumerate(zip(pairs, energies)):
        single = solve_schrodinger(system_profile(prof, i + 1), energy, InitialValue(pair))
        np.testing.assert_allclose(
            per_system(joint, xs)[:, i], single.evaluate(xs), rtol=0, atol=1e-13
        )


def test_rotated_convention_same_observables():
    prof = PotentialProfile(
        [Segment(-1.0, 0.0, np.array([[0.0]])), Segment(0.0, 1.0, np.array([[0.6]]))]
    )
    xs = np.linspace(-2.0, 2.0, 101)
    j_default = probability_current(solve_dirac(prof, 1.4, Scattering(np.array([1.0]))), xs)
    j_rotated = probability_current(
        solve_dirac(prof, 1.4, Scattering(np.array([1.0])), convention="rotated"), xs
    )
    np.testing.assert_allclose(j_default, j_rotated, atol=1e-11)


# ---------------------------------------------------------------------------
# Error paths


def test_evanescent_errors():
    prof = uniform_profile(np.array([[2.0]]), 0.0, 1.0)
    one = Scattering(np.array([1.0]))
    with pytest.raises(EvanescentChannelError, match=r"system 1 is evanescent in the "
                       r"leftmost segment \(E = 1.0, V = 2.0, eigenvalues"):
        solve_dirac(prof, 1.0, one)  # |E| < |V|
    with pytest.raises(EvanescentChannelError, match=r"system 1 is evanescent in the "
                       r"leftmost segment \(E = 1.0, V = 2.0\)"):
        solve_schrodinger(prof, 1.0, one)  # E < V
    with pytest.raises(EvanescentChannelError, match=r"system 1 has a zero-current mode "
                       r"in the leftmost segment \(E = 2.0, V = 2.0"):
        solve_dirac(prof, 2.0, one, convention="vector")  # E = V
    # Only system 2 on the right is evanescent: the error names that channel.
    prof = PotentialProfile([
        Segment(0.0, 1.0, np.diag([0.0, 0.0]).astype(complex)),
        Segment(1.0, 2.0, np.diag([0.5, 2.0]).astype(complex)),
    ])
    two = Scattering(np.array([1.0, 1.0]))
    with pytest.raises(EvanescentChannelError, match=r"system 2 is evanescent in the "
                       r"rightmost segment \(E = 1.0, V = 2.0, eigenvalues"):
        solve_dirac(prof, 1.0, two)
    with pytest.raises(EvanescentChannelError, match=r"system 2 is evanescent in the "
                       r"rightmost segment \(E = 1.0, V = 2.0\)"):
        solve_schrodinger(prof, 1.0, two)


def test_scattering_needs_diagonal_asymptotics():
    coupled = uniform_profile(np.array([[0.0, 0.3], [0.3, 0.0]]))
    with pytest.raises(ProfileError, match="diagonal"):
        solve_dirac(coupled, 2.0, Scattering(np.array([1.0, 1.0])))
    sol = solve_dirac(coupled, 2.0, InitialValue(np.array([1.0, 0.0, 0.5, 0.0])))
    assert sol.dim == 4  # initial-value path has no such restriction


# ---------------------------------------------------------------------------
# Coupled stacks that mix energies or boundary kinds are refused by name


def refusal(entry: str, i: int, j: int, e_i: float, e_j: float) -> str:
    return "^" + re.escape(
        f"profile.{entry} couples systems {i} and {j} at energies {e_i} and {e_j}; "
        "a coupled profile needs one energy and one boundary kind for all systems"
    ) + "$"


def four_segments(*interior, deltas=()):
    """Diagonal leads on [-2, -1] and [1, 2] around the interior matrices."""
    n = len(interior[0])
    mats = [np.eye(n) * 0.1, *interior, np.eye(n) * 0.2]
    edges = np.linspace(-2.0, 2.0, len(mats) + 1)
    segs = [Segment(lo, hi, np.asarray(m, dtype=complex))
            for lo, hi, m in zip(edges[:-1], edges[1:], mats)]
    return PotentialProfile(segs, deltas)


COUPLED = [[0.3, 0.2], [0.2, 0.4]]


@pytest.mark.parametrize("model", ["dirac", "schrodinger"])
def test_coupling_at_unequal_energies_is_named(model):
    prof = four_segments(np.diag([0.3, 0.4]), COUPLED)
    with pytest.raises(ProfileError, match=refusal("segments[2]", 1, 2, 1.5, 1.1)):
        solve_model(model, prof, [1.5, 1.1], Scattering([1.0, 0.8]))


@pytest.mark.parametrize("model", ["dirac", "schrodinger"])
def test_coupling_with_mixed_boundary_kinds_is_named(model):
    prof = four_segments(COUPLED, np.diag([0.3, 0.4]))
    mixed = [Scattering([1.0]), InitialValue([1.0, 0.0])]
    with pytest.raises(ProfileError, match=refusal("segments[1]", 1, 2, 1.5, 1.5)):
        solve_model(model, prof, 1.5, mixed)
    # The same stack with one kind solves.
    assert solve_model(model, prof, 1.5, Scattering([1.0, 0.5])).dim == 4


@pytest.mark.parametrize("model", ["dirac", "schrodinger"])
def test_coupling_at_unequal_energies_is_named_before_an_earlier_one(model):
    first = [[0.3, 0.2, 0.0], [0.2, 0.4, 0.0], [0.0, 0.0, 0.5]]  # systems 1, 2: equal E
    second = [[0.3, 0.0, 0.0], [0.0, 0.4, 0.1j], [0.0, -0.1j, 0.5]]  # systems 2, 3
    prof = four_segments(first, second)
    with pytest.raises(ProfileError, match=refusal("segments[2]", 2, 3, 1.2, 1.7)):
        solve_model(model, prof, [1.2, 1.2, 1.7], Scattering([1.0, 0.5, 0.2]))


@pytest.mark.parametrize("model", ["dirac", "schrodinger"])
def test_coupled_delta_listed_second_is_named_by_its_index(model):
    deltas = [DeltaBarrier(0.0, np.diag([0.3, 0.0])), DeltaBarrier(-1.0, COUPLED)]
    prof = four_segments(np.diag([0.3, 0.4]), np.diag([0.1, 0.2]), deltas=deltas)
    assert [d.x0 for d in prof.deltas] == [0.0, -1.0]  # the order given
    with pytest.raises(ProfileError, match=refusal("deltas[1]", 1, 2, 1.5, 1.1)):
        solve_model(model, prof, [1.5, 1.1], Scattering([1.0, 0.8]))


def test_deltas_at_one_position_are_refused_in_any_order():
    segs = [Segment(lo, lo + 1.0, np.eye(1)) for lo in (-1.0, 0.0)]
    at = [DeltaBarrier(x0, np.eye(1)) for x0 in (0.0, 1.0, 0.0)]
    with pytest.raises(ProfileError, match="two delta barriers share position 0.0"):
        PotentialProfile(segs, at)


def two_barriers(v: float, length: float) -> PotentialProfile:
    zero = np.zeros((2, 2))
    bounds = [-1.0, 0.0, length, 2.0 * length, 3.0 * length, 3.0 * length + 1.0]
    vs = [zero, v * np.eye(2), zero, v * np.eye(2), zero]
    return PotentialProfile([Segment(lo, hi, m) for lo, hi, m in zip(bounds[:-1], bounds[1:], vs)])


@pytest.mark.parametrize(
    "model, v, length, message",
    [
        # (1e155)^2 overflows the generator's square.
        ("dirac", 1e155, 1.0, r"profile.segments\[1\]: the propagator overflows"),
        # kappa L = sqrt(24) 200 = 980: cosh overflows.
        ("dirac", 5.0, 200.0, r"profile.segments\[1\] on \[0.0, 200.0\]: the transfer "
                              r"\(wavenumber times length 979.796\) overflows"),
    ],
)
def test_overflow_is_refused_by_name_without_a_warning(model, v, length, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            solve_model(model, two_barriers(v, length), 1.0, Scattering([1.0, 0.5]))


def test_overflowing_delta_is_refused_by_name():
    # The derivative jump 2 m strength = 2e308 overflows.
    prof = PotentialProfile(
        [Segment(-1.0, 0.0, np.zeros((1, 1))), Segment(0.0, 1.0, np.zeros((1, 1)))],
        [DeltaBarrier(0.0, np.eye(1)), DeltaBarrier(1.0, 1e308 * np.eye(1))],
    )
    with pytest.raises(ValueError, match=r"profile.deltas\[1\] at 1.0: the junction overflows"):
        solve_schrodinger(prof, 1.0, Scattering([1.0]))


def test_shape_errors():
    prof = uniform_profile(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="amplitudes"):
        solve_dirac(prof, 1.0, Scattering(np.array([1.0])))
    with pytest.raises(ValueError, match="initial values"):
        solve_dirac(prof, 1.0, InitialValue(np.array([1.0, 2.0])))
    with pytest.raises(TypeError):
        solve_dirac(prof, 1.0, boundary=None)
    with pytest.raises(ValueError, match="mass"):
        solve_schrodinger(prof, 1.0, InitialValue(np.zeros(4)), mass=-1.0)


def test_evaluate_helper_and_sides():
    prof = PotentialProfile(
        [Segment(-1.0, 0.0, np.array([[0.0]])), Segment(0.0, 1.0, np.array([[0.5]]))],
        [DeltaBarrier(0.0, np.array([[0.5]]))],
    )
    sol = solve_dirac(prof, 1.2, Scattering(np.array([1.0])))
    left, right = sol.limits(0.0)
    assert np.abs(left - right).max() > 1e-3  # junction acts at the delta
    np.testing.assert_allclose(sol.evaluate([0.0], side="right")[0], right, atol=0)
    np.testing.assert_allclose(sol.evaluate([0.0], side="left")[0], left, atol=0)


# ---------------------------------------------------------------------------
# Evaluation


def delta_stack(model: str):
    """Coupled three-system stack with a coupling delta barrier at x = 0."""
    rng = np.random.default_rng(17)
    prof = PotentialProfile(
        [
            Segment(-2.0, 0.0, np.diag([0.1, -0.2, 0.3])),
            Segment(0.0, 1.0, 0.4 * random_hermitian(rng, 3)),
            Segment(1.0, 2.5, np.diag([0.0, 0.2, -0.1])),
        ],
        [DeltaBarrier(0.0, 0.3 * random_hermitian(rng, 3))],
    )
    amps = Scattering(np.array([1.0, 0.5 - 0.2j, 0.3j]))
    return solve_model(model, prof, 1.6, amps)


# x = 0.0 (index 4) sits exactly on the delta, x = 1.0 (index 8) on a step.
MEMO_GRID = np.linspace(-1.0, 1.0, 9)


@pytest.mark.parametrize("model", ["dirac", "schrodinger"])
def test_evaluate_memo_keeps_sides_apart(model):
    sol = delta_stack(model)
    right = sol.evaluate(MEMO_GRID, side="right")
    left = sol.evaluate(MEMO_GRID, side="left")
    assert np.abs(right[4] - left[4]).max() > 1e-3
    assert np.array_equal(np.delete(right, [4, 8], 0), np.delete(left, [4, 8], 0))
    assert np.array_equal(sol.evaluate(MEMO_GRID, side="right"), right)
    assert np.array_equal(sol.evaluate(MEMO_GRID, side="left"), left)


@pytest.mark.parametrize("model", ["dirac", "schrodinger"])
def test_evaluate_memo_returns_fresh_values(model):
    """Every call returns exactly what a newly solved solution returns."""
    sol = delta_stack(model)
    calls = [
        (MEMO_GRID, "right"),
        (MEMO_GRID + 0.125, "right"),  # same shape, shifted
        (MEMO_GRID.copy(), "right"),
        (MEMO_GRID, "left"),
        (MEMO_GRID[::2], "left"),
        (MEMO_GRID, "left"),
    ]
    for xs, side in calls:
        expect = delta_stack(model).evaluate(xs, side=side)
        assert np.array_equal(sol.evaluate(xs, side=side), expect)


@pytest.mark.parametrize("model", ["dirac", "schrodinger"])
def test_delta_at_the_right_edge_acts_as_one_inside(model):
    """A delta on the last breakpoint joins the right tail as it would join
    a further segment of the tail's potential."""
    v = np.diag([0.3, -0.2])
    delta = DeltaBarrier(2.0, np.diag([0.7, -0.4]))
    segments = [Segment(-1.0, 0.0, np.zeros((2, 2))), Segment(0.0, 2.0, v)]
    amps = Scattering(np.array([1.0, 0.5]))
    edge = solve_model(model, PotentialProfile(segments, [delta]), 1.3, amps)
    inside = solve_model(
        model, PotentialProfile([*segments, Segment(2.0, 3.0, v)], [delta]), 1.3, amps
    )
    xs = np.array([-1.5, -0.5, 0.5, 1.0, 1.9, 2.0, 2.1, 2.5, 3.0, 4.0])
    for side in ("left", "right"):
        want = inside.evaluate(xs, side)
        got = edge.evaluate(xs, side)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def evaluate_by_piece(sol, xs, side):
    """Reference: every piece expands all of its points in one call."""
    idx = np.searchsorted(sol.breakpoints, xs, side=side)
    out = np.empty((len(xs), sol.dim), dtype=complex)
    for j in np.unique(idx):
        piece = sol.pieces[j]
        out[idx == j] = piece.expand(xs[idx == j] - piece.anchor)
    return out


@pytest.mark.parametrize("model", ["dirac", "schrodinger"])
@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_evaluate_any_order_matches_pointwise(model, side, order):
    """Runs of one piece are expanded as slices, whatever the order of xs."""
    sol = delta_stack(model)
    xs = np.linspace(-2.5, 3.0, 45)  # crosses every piece; 0.0, 1.0, 2.5 on cuts
    xs = {"ascending": xs, "descending": xs[::-1],
          "shuffled": np.random.default_rng(5).permutation(xs)}[order]
    vals = sol.evaluate(xs, side=side)
    pointwise = np.array([sol.evaluate([x], side=side)[0] for x in xs])
    # Batched and single-point expansions differ only in the last bits.
    np.testing.assert_allclose(vals, pointwise, rtol=0, atol=1e-14 * np.abs(vals).max())
    if order != "shuffled":  # a monotone grid keeps each piece's points in one run
        assert np.array_equal(vals, evaluate_by_piece(sol, xs, side))
    assert vals.flags.writeable and sol.evaluate(xs, side=side) is not vals


@pytest.mark.parametrize("model", ["dirac", "schrodinger"])
def test_residual_does_not_depend_on_evaluation_history(model):
    residual = gce_residual_dirac if model == "dirac" else gce_residual_schrodinger
    basis = build_basis(3)
    grid = np.linspace(-1.5, 2.0, 141)

    def run(sol, a):
        return residual(sol, basis, a, grid, decompose(sol.profile, basis)).residual

    fresh = run(delta_stack(model), 4)
    sol = delta_stack(model)
    for a in range(1, basis.dim + 1):
        if a != 4:
            run(sol, a)
    assert np.array_equal(run(sol, 4), fresh)
    sol.evaluate(np.linspace(-3.0, 3.0, 50))
    assert np.array_equal(run(sol, 4), fresh)


@pytest.mark.parametrize("model", ["dirac", "schrodinger"])
def test_residual_table_does_not_depend_on_evaluation_history(model):
    basis = build_basis(3)
    grid = np.linspace(-1.5, 2.0, 141)
    fresh = gce_residual_sweep(delta_stack(model), basis, grid)
    sol = delta_stack(model)
    residual = gce_residual_dirac if model == "dirac" else gce_residual_schrodinger
    for a in range(basis.dim, 0, -1):
        residual(sol, basis, a, grid)
    swept = gce_residual_sweep(sol, basis, grid)
    assert np.array_equal(swept.residual, fresh.residual)
    assert np.array_equal(swept.floor, fresh.floor)
    # Two more grids push this grid's table out; samples of a third come
    # between.  The rebuilt table repeats the fresh one exactly.
    for other in (np.linspace(-1.5, 2.0, 71), np.linspace(-1.4, 2.0, 69)):
        gce_residual_sweep(sol, basis, other)
    sol.evaluate(np.linspace(-3.0, 3.0, 50))
    rebuilt = gce_residual_sweep(sol, basis, grid)
    assert rebuilt is not swept
    assert np.array_equal(rebuilt.residual, fresh.residual)
    assert np.array_equal(rebuilt.floor, fresh.floor)
