"""Engine checks: currents, continuity residuals, domains, charge, gauge.

Closed-form oracles: free right-movers of the default Dirac convention carry
the spinor u = (1, -i)/sqrt(2) with wavenumber k = E, so the mixed current is
the pure phase exp(i (E2 - E1)(x - x_lo)); the free wave-model pair current is
(k1 + k2)/(2m) times the same phase with k_i = sqrt(2 m E_i).
"""

from __future__ import annotations

import dataclasses
import inspect
import re
import warnings

import numpy as np
import pytest
from scipy.special import roots_legendre

from conftest import (
    EPS,
    assert_same_bits,
    diagonal_profile,
    ladder_pair_current,
    per_system,
    solve_model,
    system_profile,
)
from test_properties import coupled_stack, sequence_stack
from test_solvers import delta_stack
from gcelab import engine, solvers
from gcelab.engine import (
    ChargeRelation,
    DegenerateEnergiesError,
    GaugeConfig,
    TransformSpec,
    charge_current_relation,
    delta_domain_relation,
    detect_domains,
    dirac_current,
    field_strength,
    gauge_residual,
    gce_residual_dirac,
    gce_residual_schrodinger,
    gce_residual_sweep,
    identity_transform,
    interval_stats,
    parity_transform,
    piecewise_derivative,
    residual_cuts,
    schrodinger_current,
    transformed_current,
    translation_transform,
    uniform_spacing,
    _gauss_rule,
    _rms,
)
from gcelab.scenario import _solve_stack, load_builtin, order_verdict
from gcelab.solvers import (
    DeltaBarrier,
    InitialValue,
    PiecewiseSolution,
    PotentialProfile,
    ProfileError,
    Scattering,
    Segment,
    get_convention,
    solve_dirac,
    solve_schrodinger,
    uniform_profile,
)
from gcelab.sun import build_basis, decompose


BUILTINS = ["fig1a", "fig1b", "fig2", "free2", "globalpair", "translate", "unequal"]


def free_dirac(energy, x_lo=-2.0, x_hi=2.0, amplitude=1.0):
    prof = uniform_profile(np.zeros((1, 1)), x_lo, x_hi)
    return solve_dirac(prof, energy, Scattering([amplitude]))


def free_stack(energies, amplitudes=None, x_lo=-2.0, x_hi=2.0):
    """Free Dirac systems at the given energies, solved as one stack."""
    n = len(energies)
    amps = np.ones(n) if amplitudes is None else amplitudes
    return solve_dirac(uniform_profile(np.zeros((n, n)), x_lo, x_hi), energies, Scattering(amps))


def coupled_dirac_solution(energy=1.4, amps=(1.0, 0.6)):
    h = np.array([[0.5, 0.2 - 0.1j], [0.2 + 0.1j, 0.1]])
    prof = PotentialProfile(
        [
            Segment(-2.0, 0.0, np.diag([0.0, 0.4])),
            Segment(0.0, 1.0, h),
            Segment(1.0, 3.0, np.diag([0.2, 0.05])),
        ]
    )
    return solve_dirac(prof, energy, Scattering(list(amps)))


def coupled_schrodinger_solution(energy=1.0, amps=(1.0, 0.8)):
    h = np.array([[0.4, 0.15], [0.15, 0.2]])
    prof = PotentialProfile(
        [
            Segment(-2.0, 0.0, np.diag([0.1, 0.3])),
            Segment(0.0, 1.0, h),
            Segment(1.0, 2.0, np.diag([0.0, 0.1])),
        ],
        [DeltaBarrier(1.0, np.diag([0.5, 0.2]))],
    )
    return solve_schrodinger(prof, energy, Scattering(list(amps)))


def bump_profile(bumps, x_lo, x_hi, deltas=()):
    """Single-system profile that is zero except on the listed (lo, hi, v) bumps."""
    edges = sorted(
        {x_lo, x_hi, *[b[0] for b in bumps], *[b[1] for b in bumps]}
        | {d.x0 for d in deltas}
    )
    segs = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (lo + hi)
        val = 0.0
        for blo, bhi, v in bumps:
            if blo < mid < bhi:
                val = v
        segs.append(Segment(lo, hi, np.array([[val]], dtype=complex)))
    return PotentialProfile(segs, deltas)


def domain_rel_devs(xs, j1, doms):
    """Relative deviation of j1 on every domain, as ``scenario`` judges it."""
    return [interval_stats(xs, j1, d.x_lo, d.x_hi)[2] for d in doms]


# ---------------------------------------------------------------------------
# One solve, one energy per system


def scenario_members(name):
    """A builtin's systems, each solved alone on its 1x1 profile."""
    s = load_builtin(name)
    return [
        solve_dirac(
            system_profile(s.profile, i), s.energies[i - 1],
            Scattering([s.boundaries[i - 1].amplitudes[0]]), s.convention,
        )
        for i in (1, 2)
    ]


class TestPerSystemSolve:
    @pytest.mark.parametrize("model", ["dirac", "schrodinger"])
    def test_layout_is_system_major(self, model):
        prof = PotentialProfile(
            [Segment(-1.0, 0.0, np.diag([0.1, 0.3])), Segment(0.0, 2.0, np.diag([0.2, 0.0]))]
        )
        xs = np.linspace(-0.8, 1.8, 40)
        flat = solve_model(model, prof, 1.5, Scattering([1.0, 0.5])).evaluate(xs)
        for i, a in enumerate((1.0, 0.5)):
            single = solve_model(model, system_profile(prof, i + 1), 1.5, Scattering([a]))
            assert_same_bits(flat[:, 2 * i:2 * i + 2], single.evaluate(xs))

    def test_coupled_profile_needs_one_energy_and_one_boundary_kind(self):
        coupled = PotentialProfile([
            Segment(-1.0, 0.0, np.zeros((2, 2))),
            Segment(0.0, 1.0, np.array([[0.2, 0.1], [0.1, 0.0]])),
            Segment(1.0, 2.0, np.zeros((2, 2))),
        ])
        with pytest.raises(ProfileError, match="one energy and one boundary kind"):
            solve_dirac(coupled, [1.5, 1.1], Scattering([1.0, 1.0]))
        with pytest.raises(ProfileError, match="one energy and one boundary kind"):
            solve_schrodinger(coupled, 1.5, [Scattering([1.0]), InitialValue([1.0, 0.0])])
        # One kind and one energy, given per system, is the joint solve.
        joint = solve_dirac(coupled, 1.5, Scattering([1.0, 0.5]))
        split = solve_dirac(coupled, [1.5, 1.5], [Scattering([1.0]), Scattering([0.5])])
        xs = np.linspace(-2.0, 2.0, 41)
        assert np.array_equal(split.evaluate(xs), joint.evaluate(xs))

    def test_energy_and_boundary_shapes_are_checked(self):
        prof = uniform_profile(np.zeros((2, 2)), -1.0, 1.0)
        with pytest.raises(ValueError, match="one energy or 2"):
            solve_dirac(prof, [1.0, 1.1, 1.2], Scattering([1.0, 1.0]))
        with pytest.raises(ValueError, match="one boundary spec per system"):
            solve_dirac(prof, 1.0, [Scattering([1.0])])
        with pytest.raises(ValueError, match="need 1 incoming amplitudes"):
            solve_dirac(prof, 1.0, [Scattering([1.0, 1.0]), Scattering([1.0])])
        with pytest.raises(TypeError, match="unsupported boundary spec"):
            solve_dirac(prof, 1.0, [1.0, 1.0])

    def test_solution_keeps_per_system_energies(self):
        sol = free_stack([1.3, 0.7])
        assert sol.energies.tolist() == [1.3, 0.7]
        with pytest.raises(ValueError, match="different energies"):
            sol.energy
        with pytest.raises(ValueError):
            sol.energies[0] = 1.0
        assert coupled_dirac_solution(energy=1.4).energies.tolist() == [1.4, 1.4]

    @pytest.mark.parametrize("name", ["unequal", "globalpair"])
    def test_stack_rows_equal_single_system_solves_bit_for_bit(self, name):
        members = scenario_members(name)
        s = load_builtin(name)
        stack = _solve_stack(s)
        for grid in (s.grid_array(), np.linspace(s.grid.x_min - 1.0, s.grid.x_max + 1.0, 501)):
            for side in ("left", "right"):
                psi = per_system(stack, grid, side)
                for i, member in enumerate(members, start=1):
                    assert_same_bits(psi[:, i - 1], member.evaluate(grid, side))

    @pytest.mark.parametrize("model", ["dirac", "schrodinger"])
    def test_members_repeat_bit_for_bit_across_a_delta(self, model):
        def steps(values, delta):
            edges = (-2.0, -1.0, 0.0, 1.0, 2.0)
            segs = [Segment(lo, hi, [[v]]) for lo, hi, v in zip(edges[:-1], edges[1:], values)]
            return PotentialProfile(segs, [delta])

        p1 = steps((0.0, 0.4, 0.0, 0.0), DeltaBarrier(0.0, [[0.7]]))
        p2 = steps((0.0, 0.0, 0.3, 0.0), DeltaBarrier(-1.0, [[0.2]]))
        prof, energies = diagonal_profile([p1, p2]), [1.6, 1.2]
        members = [solve_model(model, p, e, Scattering([1.0]), "vector")
                   for p, e in ((p1, 1.6), (p2, 1.2))]
        stack = solve_model(model, prof, energies, Scattering([1.0, 1.0]), "vector")
        grid = np.arange(-150, 151) * 0.01  # holds -1.0 and 0.0 exactly
        for side in ("left", "right"):
            psi = per_system(stack, grid, side)
            for i, member in enumerate(members):
                assert_same_bits(psi[:, i], member.evaluate(grid, side))
        left, right = stack.limits(0.0)
        assert not np.allclose(left[:2], right[:2])  # the delta's jump

    @pytest.mark.parametrize("seed", range(8))
    def test_members_at_one_energy_agree_to_rounding(self, seed):
        # Equal energies and potentials give the stack's generator a
        # degenerate square, whose eigenvectors may mix the systems' rows:
        # the samples then move by up to 6.0 eps of their size over these
        # seeds (OpenBLAS, x86-64).
        rng = np.random.default_rng(seed)
        edges = (-2.0, -0.5, 0.7, 2.0)
        segs = [Segment(lo, hi, [[rng.uniform(-0.5, 0.5)]]) for lo, hi in zip(edges[:-1], edges[1:])]
        energy = 1.2 + rng.uniform()
        profiles = [PotentialProfile(segs, d) for d in ([], [DeltaBarrier(0.7, [[0.3]])])]
        amps = [complex(*rng.normal(size=2)) for _ in profiles]
        members = [
            solve_dirac(p, energy, Scattering([a]), "rotated") for p, a in zip(profiles, amps)
        ]
        stack = solve_dirac(diagonal_profile(profiles), energy, Scattering(amps), "rotated")
        xs = np.linspace(-3.0, 3.0, 101)
        for side in ("left", "right"):
            for i, member in enumerate(members):
                direct = member.evaluate(xs, side)
                err = np.abs(per_system(stack, xs, side)[:, i] - direct).max()
                assert err <= 12 * EPS * np.abs(direct).max()

    @pytest.mark.parametrize("model", ["dirac", "schrodinger"])
    def test_members_with_their_own_breakpoints_agree_to_rounding(self, model):
        # The stack starts at system 2's left edge, x = -2.5.  Every incoming
        # amplitude is referenced there, so system 1, whose own solve starts
        # at -2.0, carries its free lead's phase exp(i k 0.5) over the padding.
        p1 = bump_profile([(0.0, 1.0, 0.6)], -2.0, 2.0, [DeltaBarrier(0.0, [[0.3]])])
        p2 = bump_profile([(-1.0, 0.5, 0.2)], -2.5, 1.5)
        prof = diagonal_profile([p1, p2])
        members = [solve_model(model, p1, 1.4, Scattering([1.0])),
                   solve_model(model, p2, 1.1, Scattering([0.7j]))]
        stack = solve_model(model, prof, [1.4, 1.1], Scattering([1.0, 0.7j]))
        assert prof.extent == (-2.5, 2.0)
        k1 = 1.4 if model == "dirac" else np.sqrt(2.0 * 1.4)
        phases = (np.exp(0.5j * k1), 1.0)
        grid = np.linspace(-3.0, 3.0, 1201)
        for side in ("left", "right"):
            psi = per_system(stack, grid, side)
            for i, (member, phase) in enumerate(zip(members, phases)):
                direct = member.evaluate(grid, side)
                scale = np.abs(direct).max()
                assert np.abs(psi[:, i] - phase * direct).max() <= 1e-14 * scale
            # Without its phase, system 1 is not its own solve.
            assert np.abs(psi[:, 0] - members[0].evaluate(grid, side)).max() > 0.5


# ---------------------------------------------------------------------------
# Currents


class TestCurrents:
    def test_free_dirac_pair_current_is_pure_phase(self, bases):
        e1, e2 = 1.3, 0.7
        xs = np.linspace(-1.5, 1.5, 301)
        cur = dirac_current(free_stack([e1, e2]), bases[2], (1, 2), xs)
        oracle = np.exp(1j * (e2 - e1) * (xs + 2.0))
        assert np.abs(cur.j1 - oracle).max() <= 1e-12
        assert np.abs(cur.j0 - oracle).max() <= 1e-12

    def test_free_wave_pair_current_oracle(self, bases):
        e1, e2, m = 0.9, 0.5, 1.0
        prof = uniform_profile(np.zeros((2, 2)), -2.0, 2.0)
        sol = solve_schrodinger(prof, [e1, e2], Scattering([1.0, 1.0]), mass=m)
        k1, k2 = np.sqrt(2 * m * e1), np.sqrt(2 * m * e2)
        xs = np.linspace(-1.5, 1.5, 301)
        cur = schrodinger_current(sol, bases[2], (1, 2), xs)
        phase = np.exp(1j * (k2 - k1) * (xs + 2.0))
        assert np.abs(cur.j1 - (k1 + k2) / (2 * m) * phase).max() <= 1e-12
        assert np.abs(cur.j0 - phase).max() <= 1e-12

    def test_identical_systems_have_no_antisymmetric_current(self, bases):
        prof = PotentialProfile([Segment(-2.0, 2.0, np.zeros((2, 2)))])
        sol = solve_dirac(prof, 1.1, Scattering([1.0, 1.0]))
        xs = np.linspace(-1.8, 1.8, 101)
        j_asym = dirac_current(sol, bases[2], 2, xs).j1
        j_cartan = dirac_current(sol, bases[2], 3, xs).j1
        j_sym = dirac_current(sol, bases[2], 1, xs).j1
        assert np.abs(j_asym).max() <= 1e-13
        assert np.abs(j_cartan).max() <= 1e-13
        assert np.abs(j_sym - 1.0).max() <= 1e-12

    def test_generator_currents_are_real(self, bases):
        sol = coupled_dirac_solution()
        xs = np.linspace(-1.5, 2.5, 201)
        for a in (1, 2, 3):
            cur = dirac_current(sol, bases[2], a, xs)
            assert np.abs(cur.j1.imag).max() <= 1e-13
            assert np.abs(cur.j0.imag).max() <= 1e-13

    def test_pair_currents_conjugate_under_index_swap(self, bases):
        sol = coupled_dirac_solution()
        xs = np.linspace(-1.5, 2.5, 201)
        fwd = dirac_current(sol, bases[2], (1, 2), xs)
        bwd = dirac_current(sol, bases[2], (2, 1), xs)
        assert np.abs(bwd.j1 - fwd.j1.conj()).max() <= 1e-13
        assert np.abs(bwd.j0 - fwd.j0.conj()).max() <= 1e-13

    def test_ladder_combination_matches_pair_current(self, bases):
        sol = coupled_dirac_solution()
        xs = np.linspace(-1.5, 2.5, 201)
        direct = dirac_current(sol, bases[2], (1, 2), xs)
        ladder = ladder_pair_current(sol, bases[2], 1, 2, xs)
        assert np.abs(direct.j1 - ladder.j1).max() <= 1e-13
        assert np.abs(direct.j0 - ladder.j0).max() <= 1e-13
        swapped = ladder_pair_current(sol, bases[2], 2, 1, xs)
        assert np.abs(swapped.j1 - direct.j1.conj()).max() <= 1e-13

    def test_ladder_identity_three_systems(self, bases):
        h = np.array(
            [
                [0.4, 0.1 + 0.05j, 0.02],
                [0.1 - 0.05j, 0.2, 0.08j],
                [0.02, -0.08j, 0.3],
            ]
        )
        prof = PotentialProfile(
            [
                Segment(-1.0, 0.0, np.diag([0.1, 0.2, 0.3])),
                Segment(0.0, 1.0, h),
                Segment(1.0, 2.0, np.diag([0.0, 0.05, 0.1])),
            ]
        )
        sol = solve_dirac(prof, 1.5, Scattering([1.0, 0.5, 0.25j]))
        xs = np.linspace(-0.8, 1.8, 151)
        for pair in ((1, 2), (1, 3), (2, 3), (3, 1)):
            direct = dirac_current(sol, bases[3], pair, xs)
            ladder = ladder_pair_current(sol, bases[3], *pair, xs)
            assert np.abs(direct.j1 - ladder.j1).max() <= 1e-13

    def test_ladder_identity_wave_model(self, bases):
        sol = coupled_schrodinger_solution()
        xs = np.linspace(-1.6, 1.8, 171)
        direct = schrodinger_current(sol, bases[2], (1, 2), xs)
        ladder = ladder_pair_current(sol, bases[2], 1, 2, xs)
        assert np.abs(direct.j1 - ladder.j1).max() <= 1e-13

    def test_current_argument_validation(self, bases):
        sol = coupled_dirac_solution()
        xs = np.linspace(-1.0, 1.0, 11)
        with pytest.raises(ValueError, match="expected a schrodinger stack"):
            schrodinger_current(sol, bases[2], 1, xs)
        with pytest.raises(ValueError, match="rank"):
            dirac_current(sol, bases[3], 1, xs)
        with pytest.raises(ValueError, match="outside"):
            dirac_current(sol, bases[2], (1, 3), xs)
        with pytest.raises(ValueError, match="distinct"):
            ladder_pair_current(sol, bases[2], 2, 2, xs)

    @pytest.mark.parametrize("pair", [(), (1,), [2], (1, 2, 1)])
    def test_a_pair_names_two_systems(self, bases, pair):
        xs = np.linspace(-1.0, 1.0, 11)
        want = re.escape(f"a pair names two systems (i, j), got {tuple(pair)}")
        with pytest.raises(ValueError, match=want):
            dirac_current(coupled_dirac_solution(), None, pair, xs)
        with pytest.raises(ValueError, match=want):
            schrodinger_current(coupled_schrodinger_solution(), None, pair, xs)


def count_evaluations(monkeypatch) -> list:
    """Record the solution of every ``PiecewiseSolution.evaluate`` call."""
    calls = []
    evaluate = PiecewiseSolution.evaluate

    def counted(sol, xs, side="right"):
        calls.append(sol)
        return evaluate(sol, xs, side)

    monkeypatch.setattr(PiecewiseSolution, "evaluate", counted)
    return calls


class TestPairSampling:
    @pytest.mark.parametrize("model", ["dirac", "schrodinger"])
    def test_joint_pair_current_samples_once(self, monkeypatch, model):
        sol = coupled_dirac_solution() if model == "dirac" else coupled_schrodinger_solution()
        current = dirac_current if model == "dirac" else schrodinger_current
        xs = np.linspace(-1.5, 1.8, 101)
        flat = sol.evaluate(xs)
        calls = count_evaluations(monkeypatch)
        cur = current(sol, None, (1, 2), xs)
        assert calls == [sol]
        if model == "dirac":
            density = np.einsum("xk,xk->x", flat[:, :2].conj(), flat[:, 2:])
        else:  # values only
            density = flat[:, 0].conj() * flat[:, 2]
        assert np.abs(cur.j0 - density).max() <= 1e-13

    def test_stacked_pair_current_samples_once(self, monkeypatch):
        stack = free_stack([1.3, 0.9, 0.7])
        xs = np.linspace(-1.5, 1.5, 61)
        calls = count_evaluations(monkeypatch)
        cur = dirac_current(stack, None, (1, 3), xs)
        assert calls == [stack] and stack.energies.tolist() == [1.3, 0.9, 0.7]
        oracle = np.exp(1j * (0.7 - 1.3) * (xs + 2.0))
        assert np.abs(cur.j1 - oracle).max() <= 1e-12


def test_entry_points_refuse_a_sequence(bases):
    sols = [free_dirac(1.3), free_dirac(0.7)]
    grid = np.linspace(-1.5, 1.5, 31)
    calls = [
        lambda: dirac_current(sols, None, (1, 2), grid),
        lambda: schrodinger_current(sols, bases[2], 1, grid),
        lambda: gce_residual_dirac(sols, bases[2], 1, grid),
        lambda: gce_residual_schrodinger(sols, bases[2], 1, grid),
        lambda: gce_residual_sweep(sols, bases[2], grid),
    ]
    for call in calls:
        with pytest.raises(TypeError, match="one energy per system"):
            call()


def test_public_names_resolve_and_removed_records_are_gone():
    import gcelab

    for name in gcelab.__all__:
        assert getattr(gcelab, name) is not None
    removed = (
        "DomainStat", "DomainVerdict", "_attach_stats", "SolutionStack", "as_stack",
        "ladder_pair_current", "join_solutions",
    )
    for name in removed:
        assert not hasattr(gcelab, name) and not hasattr(engine, name)
    assert not hasattr(solvers, "join_solutions") and not hasattr(solvers, "_combined_profile")
    # The dynamics value (sol.dynamics) owns generators, junctions, channels and kernels.
    for name in ("dirac_generator", "schrodinger_generator", "delta_junction",
                 "schrodinger_delta_junction", "_dirac_channels", "_junction_table"):
        assert not hasattr(solvers, name) and not hasattr(gcelab, name)
    assert not hasattr(engine, "_blocks")
    free = solvers.uniform_profile([[0.0]])
    sol = solvers.solve_schrodinger(free, 1.0, solvers.Scattering([1.0]))
    assert sol.dynamics == solvers.Schrodinger(1.0)
    assert not {"model", "convention", "mass"} & set(vars(sol))
    assert not hasattr(PotentialProfile, "system")
    assert not hasattr(solvers.Propagator, "block_diagonal")
    fields = {f.name for f in dataclasses.fields(engine.CurrentProfile)}
    fields |= {f.name for f in dataclasses.fields(engine.GceReport)}
    assert not fields & {"domain_stats", "domain_verdicts", "convergence_order"}
    for fn in vars(engine).values():
        if inspect.isfunction(fn) and fn.__module__ == engine.__name__:
            params = inspect.signature(fn).parameters
            assert not {"domains", "fine_grid"} & set(params), fn.__name__


# ---------------------------------------------------------------------------
# Blocked sampling
#
# Every consumer samples the solution one block of grid points at a time.
# The oracles below sample the whole grid in one ``evaluate`` call, as the
# consumers did before, and must agree bit for bit.  Block lengths are set
# through ``engine._BLOCK`` so that block edges fall next to piece edges.


def piece_starts(sol, xs, side="right") -> list[int]:
    """Indices in xs where a run of samples in one piece starts."""
    idx = np.searchsorted(sol.breakpoints, xs, side=side)
    return (np.flatnonzero(np.diff(idx)) + 1).tolist()


def lone_steps(sol, grid) -> tuple[list[int], list[int]]:
    """Block lengths (at least 16) whose block edges leave one sample of a
    run in a block: those of the currents, whose blocks start at 0, and
    those of the residual table, whose blocks start at each cell and sample
    two more samples on each side."""
    current = {k + d for k in piece_starts(sol, grid) for d in (-1, 1)}
    cuts = residual_cuts(sol.profile)
    cells = engine._cells(grid, cuts)
    table = {
        k - c + d
        for k in piece_starts(sol, engine.snap_to_cuts(grid, cuts))
        for c, e in cells if c < k < e
        for d in (-3, -1, 1, 3)
    }
    return sorted(t for t in current if t >= 16), sorted(t for t in table if t >= 16)


def set_block(monkeypatch, samples: int, width: int):
    """Make blocks of ``samples`` samples for ``width`` products per sample."""
    monkeypatch.setattr(engine, "_BLOCK", samples * width)


def n_products(sol) -> int:
    """Products per sample of a solution's residual table: those of the
    2N real factors of a piece."""
    return len(engine._outer_triangle(np.zeros((sol.dim, 1))))


def whole_grid_currents(sol, basis, grid):
    """(pair (1, 2), then every generator) currents from one sampling: the
    ``_bilinear`` of the pair's 2x2 blocks, and of T_a (x) block on the
    whole state."""
    flat = sol.evaluate(grid)
    current, density, _ = sol.dynamics.kernels
    a, b = flat[:, :2], flat[:, 2:4]
    out = [(engine._bilinear(a, current, b), engine._bilinear(a, density, b))]
    for t_a in basis.generators:
        out.append(tuple(
            engine._bilinear(flat, np.kron(t_a, k), flat).real for k in (current, density)
        ))
    return out


def blocked_currents(sol, basis, grid):
    fn = dirac_current if sol.dynamics.model == "dirac" else schrodinger_current
    return [
        (c.j1, c.j0)
        for c in [fn(sol, None, (1, 2), grid)]
        + [fn(sol, basis, a, grid) for a in range(1, basis.dim + 1)]
    ]


def table_kernels(sol, basis, h, decomp, vectors, segments, energies):
    """``_piece_kernels`` of the solution's blocks and generators."""
    return engine._piece_kernels(
        sol.dynamics.kernels, vectors, segments, basis.generators, h,
        engine.source_operator(decomp), energies,
    )


def whole_grid_table(sol, basis, grid):
    """The residual table built from one factor evaluation per piece of the
    snapped grid."""
    decomp = decompose(sol.profile, basis)
    cuts = residual_cuts(sol.profile)
    eval_xs = engine.snap_to_cuts(grid, cuts)
    h = uniform_spacing(grid)
    starts, pieces = engine._runs(np.searchsorted(sol.breakpoints, eval_xs, side="right"))
    runs = {}
    for a, b, p in zip(starts, [*starts[1:], len(grid)], pieces):
        piece = sol.pieces[p]
        runs[p] = (a, piece.propagator.factors(eval_xs[a:b] - piece.anchor))

    def sample(p, a, b):
        start, factors = runs[p]
        return factors[:, a - start:b - start]

    last = len(sol.profile.segments) - 1
    coefficients = table_kernels(
        sol, basis, h, decomp, {p: sol.pieces[p].coefficients for p in runs},
        {p: min(max(p - 1, 0), last) for p in runs}, sol.energies,
    )
    return engine._residual_rows(sample, grid, h, cuts, (starts, pieces), coefficients)


def unit_vectors(sol) -> np.ndarray:
    """The vectors kron(I_2N, [1, i]) of the real factors of a flat sample,
    its float view."""
    return np.kron(np.eye(sol.dim), [[1.0], [1j]])


def sampled_table(sol, basis, grid, decomp):
    """The residual table of one sampling of the snapped grid: the real
    factors of the states against ``_piece_kernels`` of one key per
    segment, as ``gauge_residual`` forms them."""
    cuts = residual_cuts(sol.profile)
    eval_xs = engine.snap_to_cuts(grid, cuts)
    h = uniform_spacing(grid)
    segments = range(len(decomp.cuts) + 1)
    coefficients = table_kernels(
        sol, basis, h, decomp, dict.fromkeys(segments, unit_vectors(sol)),
        {s: s for s in segments}, sol.energies,
    )
    factors = sol.evaluate(eval_xs).view(float)
    return engine._residual_rows(
        lambda s, a, b: factors[a:b].T, grid, h, cuts,
        engine._runs(decomp.segment_of(eval_xs)), coefficients,
    )


def blocked_table(sol, basis, grid):
    sol.residual_table = None  # a kept table was built with other blocks
    return gce_residual_sweep(sol, basis, grid)


def assert_arrays_same_bits(got, want):
    for g, w in zip(got, want, strict=True):
        g, w = np.asarray(g), np.asarray(w)
        assert (g.dtype, g.shape) == (w.dtype, w.shape)
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("model", ["dirac", "schrodinger"])
def test_n4_forms_take_every_product(model):
    # Both models' table forms weigh all 36 products f_r f_s, r <= s, of the
    # 8 propagator factors of an N = 4 piece and all 136 of the 16 real
    # factors of a sampled N = 4 state; a current takes no products, only
    # the _bilinear of its samples.
    sol = coupled_stack(3, model, 4)
    basis = build_basis(4)
    decomp = decompose(sol.profile, basis)
    for vectors, width in ((sol.pieces[2].coefficients, 36), (unit_vectors(sol), 136)):
        kernels = table_kernels(sol, basis, 0.1, decomp, {0: vectors}, {0: 1}, None)
        assert kernels[0].shape == (30, width)
    assert n_products(sol) == 36


class TestBlockedSampling:
    def test_evaluate_of_a_range_is_a_slice_of_evaluate(self):
        # With N = 4 a one-sample matrix-vector product would round
        # differently from a longer run's, so a range that cut a lone sample
        # off its run would show.
        sol = coupled_stack(3, "dirac", 4)
        xs = np.linspace(-4.4, 4.4, 43)
        full = sol.evaluate(xs)
        for lo in range(len(xs)):
            for hi in range(lo + 1, len(xs) + 1):
                assert_arrays_same_bits([sol.evaluate(xs[lo:hi])], [full[lo:hi]])

    @pytest.mark.parametrize("name", BUILTINS)
    def test_builtin_single_points_are_grid_samples(self, name):
        s = load_builtin(name)
        lo, hi = s.grid.x_min, s.grid.x_max
        self.check_single_points(_solve_stack(s), np.linspace(lo - 0.7, hi + 0.7, 301))

    @pytest.mark.parametrize("model", ["dirac", "schrodinger"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_stack_single_points_are_grid_samples(self, model, n):
        for sol in (coupled_stack(40 + n, model, n), sequence_stack(50 + n, model, n)):
            self.check_single_points(sol, np.linspace(-4.4, 4.4, 177))

    def check_single_points(self, sol, grid):
        for side in ("left", "right"):
            full = sol.evaluate(grid, side)
            for k, x in enumerate(grid):
                assert_arrays_same_bits([sol.evaluate([x], side)[0]], [full[k]])

    @pytest.mark.parametrize("name", BUILTINS)
    def test_builtin_currents_and_tables_match_whole_grid(self, monkeypatch, name):
        s = load_builtin(name)
        sol = _solve_stack(s)
        lo, hi = s.grid.x_min, s.grid.x_max
        # The second grid puts the tails' piece edges inside residual cells.
        for grid in (s.grid_array(401), np.linspace(lo - 0.7, hi + 0.7, 401)):
            self.check_blocks(monkeypatch, sol, build_basis(2), grid, *lone_steps(sol, grid))

    def check_blocks(self, monkeypatch, sol, basis, grid, current_steps, table_steps):
        want = whole_grid_currents(sol, basis, grid)
        for step in current_steps:
            set_block(monkeypatch, step, sol.dim)
            assert_arrays_same_bits(blocked_currents(sol, basis, grid), want)
        for step in table_steps:
            set_block(monkeypatch, step, n_products(sol))
            table, got = whole_grid_table(sol, basis, grid), blocked_table(sol, basis, grid)
            assert_arrays_same_bits([got.residual, got.floor], [table.residual, table.floor])

    @pytest.mark.parametrize("name", ["fig1b", "fig2", "translate"])
    def test_builtin_transformed_currents_match_whole_grid(self, monkeypatch, name):
        s = load_builtin(name)
        sol = _solve_stack(s)
        spec = s.transform
        grid = s.grid_array(401)
        mapped = spec.map(grid)
        factor = sol.dynamics.gamma0 if spec.sigma == -1 else np.eye(2, dtype=complex)
        kernel = sol.dynamics.current_matrix @ factor
        a, b = sol.evaluate(grid)[:, :2], sol.evaluate(mapped)[:, 2:]
        want = [engine._bilinear(a, kernel, b), engine._bilinear(a, factor, b)]
        starts = set(piece_starts(sol, grid)) | set(piece_starts(sol, mapped))
        for step in sorted({k + d for k in starts for d in (-1, 1) if k + d >= 16}):
            set_block(monkeypatch, step, sol.dim)
            cur = transformed_current(sol, (1, 2), spec, grid)
            assert_arrays_same_bits([cur.j1, cur.j0], want)

    def test_coupled_stack_currents_and_tables_match_whole_grid(self, monkeypatch):
        sol = coupled_stack(3, "dirac", 4)
        for n in (97, 113):  # 113 = 7 x 16 + 1: a last block of one sample
            grid = np.linspace(-4.4, 4.4, n)
            current, table = lone_steps(sol, grid)
            assert current and table
            self.check_blocks(
                monkeypatch, sol, build_basis(4), grid, [16, 31, *current], [16, 31, *table]
            )

    def test_one_point_currents_are_grid_samples(self):
        # N = 4: one sample's product with a kernel takes numpy's
        # matrix-vector path, a block's a GEMM.  They give the same bits only
        # because every row of T_a (x) block, and of a pair's 2x2 block,
        # holds at most one nonzero entry.
        sol = coupled_stack(3, "dirac", 4)
        basis = build_basis(4)
        grid = np.linspace(-4.4, 4.4, 113)
        for index in [(1, 2), (3, 1), *range(1, basis.dim + 1)]:
            full = dirac_current(sol, basis, index, grid)
            for k, x in enumerate(grid):
                one = dirac_current(sol, basis, index, [x])
                assert_arrays_same_bits([one.j1, one.j0], [full.j1[k:k + 1], full.j0[k:k + 1]])

    def test_globalpair_solution_on_seven_points(self):
        # globalpair's right tail holds one sample of this grid.
        sol = _solve_stack(load_builtin("globalpair"))
        grid = np.linspace(0.0, 6.0, 7)
        assert piece_starts(sol, grid)[-1] == 6
        assert_arrays_same_bits(
            [c for pair in blocked_currents(sol, build_basis(2), grid) for c in pair],
            [c for pair in whole_grid_currents(sol, build_basis(2), grid) for c in pair],
        )

    def test_charge_relation_matches_whole_grid(self, monkeypatch):
        # globalpair's 56 Gauss nodes in blocks of 16 and 33, then in one block.
        sol = _solve_stack(load_builtin("globalpair"))
        got = []
        for step in (16, 33, 999):
            set_block(monkeypatch, step, sol.dim)
            rel = charge_current_relation(sol, (1, 2), 0.0, 5.0)
            assert rel.nodes == 56
            got.append((rel.q.real, rel.q.imag))
        assert got[0] == got[1] == got[2]


# ---------------------------------------------------------------------------
# Continuity residuals


def two_grid_order(coarse, fine):
    """The order ``order_verdict`` reads off two residual reports."""
    spacings = [uniform_spacing(r.grid) for r in (coarse, fine)]
    verdict = order_verdict(
        spacings, [coarse.residual_rms, fine.residual_rms], [coarse.floor, fine.floor]
    )
    return verdict["orders"][0]


class TestResiduals:
    def test_dirac_residual_small_and_real_for_exact_solution(self, bases):
        sol = coupled_dirac_solution()
        grid = np.linspace(-1.5, 2.5, 1601)
        for a in (1, 2, 3):
            rep = gce_residual_dirac(sol, bases[2], a, grid)
            assert rep.residual_rms <= 5e-6
            assert np.abs(rep.residual.imag).max() <= 1e-12

    def test_dirac_residual_second_order_convergence(self, bases):
        sol = coupled_dirac_solution()
        coarse = np.linspace(-1.5, 2.5, 401)
        fine = np.linspace(-1.5, 2.5, 801)
        rep = gce_residual_dirac(sol, bases[2], 1, coarse)
        rep_f = gce_residual_dirac(sol, bases[2], 1, fine)
        assert two_grid_order(rep, rep_f) == pytest.approx(2.0, abs=0.15)
        ratio = rep.residual_rms / rep_f.residual_rms
        assert 3.6 <= ratio <= 4.4

    def test_schrodinger_residual_second_order_convergence(self, bases):
        sol = coupled_schrodinger_solution()
        coarse = np.linspace(-1.75, 1.75, 351)
        fine = np.linspace(-1.75, 1.75, 701)
        for a in (1, 3):
            rep_c = gce_residual_schrodinger(sol, bases[2], a, coarse)
            rep_f = gce_residual_schrodinger(sol, bases[2], a, fine)
            ratio = rep_c.residual_rms / rep_f.residual_rms
            assert 3.6 <= ratio <= 4.4
            assert np.abs(rep_c.residual.imag).max() <= 1e-12

    def test_residual_consistent_when_grid_point_rounds_below_cut(self, bases):
        profile = PotentialProfile(
            [
                Segment(-1.6, -0.4, np.diag([0.2, 0.5])),
                Segment(-0.4, 0.6, np.diag([0.6, 0.1])),
                Segment(0.6, 1.6, np.diag([0.35, 0.45])),
            ]
        )
        sol = solve_dirac(profile, [1.5, 1.1], Scattering([1.0, 0.8]))
        grid = np.linspace(-1.6, 1.6, 321)
        assert grid[120] < -0.4  # one rounding error short of the cut
        rep = gce_residual_dirac(sol, bases[2], 1, grid)
        # A left-segment source paired with a right-cell stencil would leave
        # an O(1) residual spike here.
        assert np.abs(rep.residual[120]) <= 1e-5
        assert rep.residual_rms <= 1e-5

    def test_residual_reports_give_the_two_grid_order(self, bases):
        sol = coupled_schrodinger_solution()
        rep_c, rep_f = (
            gce_residual_schrodinger(sol, bases[2], 2, np.linspace(-1.75, 1.75, n))
            for n in (351, 701)
        )
        assert two_grid_order(rep_c, rep_f) == pytest.approx(2.0, abs=0.15)

    def test_residual_accepts_explicit_decomposition(self, bases):
        sol = coupled_dirac_solution()
        grid = np.linspace(-1.5, 2.5, 401)
        dec = decompose(sol.profile, bases[2])
        a = gce_residual_dirac(sol, bases[2], 3, grid, dec)
        b = gce_residual_dirac(sol, bases[2], 3, grid)
        assert np.array_equal(a.residual, b.residual)

    def test_nonuniform_grid_rejected(self, bases):
        sol = coupled_dirac_solution()
        bad = np.concatenate([np.linspace(-1.0, 0.0, 50), np.linspace(0.01, 1.5, 80)])
        with pytest.raises(ValueError, match="uniform"):
            gce_residual_dirac(sol, bases[2], 1, bad)

    def test_too_few_points_between_cuts_rejected(self):
        xs = np.linspace(-1.0, 1.0, 21)
        with pytest.raises(ValueError, match="at least 3 grid points"):
            piecewise_derivative(np.ones(21), xs, cuts=[0.85])

    def test_piecewise_derivative_exact_on_quadratics(self):
        xs = np.linspace(-1.0, 1.0, 41)
        vals = 3.0 * xs ** 2 - 2.0 * xs + 1.0
        d = piecewise_derivative(vals, xs, cuts=[0.25])
        assert np.abs(d - (6.0 * xs - 2.0)).max() <= 1e-11


def gauge_free_residuals(sol, basis, grid, decomp):
    """Every generator's residual, and the largest floor, at A = 0 through
    ``gauge_residual``, which takes ``decomp`` as given: the residual sweep
    refuses the decomposition of another profile."""
    cuts = residual_cuts(sol.profile)
    config = GaugeConfig(grid, np.zeros((basis.dim, 2, len(grid))), tuple(cuts))
    psi = sol.evaluate(engine.snap_to_cuts(grid, cuts))
    reports = [
        gauge_residual(psi, config, basis, a, energies=sol.energies, decomp=decomp,
                       convention=sol.dynamics)
        for a in range(1, basis.dim + 1)
    ]
    return np.stack([r.residual for r in reports]), max(r.floor for r in reports)


class TestResidualTable:
    """One read-only residual table per solution and grid, keyed by values."""

    GRID = np.arange(-150, 251) * 0.01  # holds an exact 0.0 at index 150

    @pytest.mark.parametrize("model", ["dirac", "schrodinger"])
    def test_sweep_never_samples_the_state(self, monkeypatch, model):
        # The table comes from the pieces' propagator factors; the grid
        # reaches into both tails and onto a delta.
        sol = delta_stack(model)
        basis = build_basis(3)

        def refuse(*args, **kwargs):
            raise AssertionError("the residual sweep evaluated the state")

        monkeypatch.setattr(solvers.PiecewiseSolution, "evaluate", refuse)
        grid = np.linspace(-3.0, 3.5, 261)
        residual = gce_residual_dirac if model == "dirac" else gce_residual_schrodinger
        reports = [residual(sol, basis, a, grid) for a in range(1, basis.dim + 1)]
        assert len({id(r.residual.base) for r in reports}) == 1
        assert max(r.residual_rms for r in reports) > 0.0

    def test_row_statistics_repeat_the_per_row_formulas(self, bases):
        tables = [gce_residual_sweep(sol, bases[n], grid) for sol, n, grid in (
            (coupled_dirac_solution(), 2, self.GRID),
            (coupled_schrodinger_solution(), 2, np.linspace(-1.5, 2.5, 4001)),
            (coupled_stack(3, "dirac", 4), 4, np.linspace(-4.4, 4.4, 113)),
        )]
        for table in tables:
            for row, rms, top in zip(table.residual, table.rms, table.max):
                assert rms == _rms(row) and top == np.abs(row).max()
            for arr in (table.rms, table.max):
                with pytest.raises(ValueError):
                    arr[0] = 1.0

    def test_rows_are_read_only_views_of_the_table(self, bases):
        sol = coupled_dirac_solution()
        table = gce_residual_sweep(sol, bases[2], self.GRID)
        rep = gce_residual_dirac(sol, bases[2], 2, self.GRID)
        assert table.residual.shape == (3, len(self.GRID))
        assert np.shares_memory(rep.residual, table.residual)
        assert np.array_equal(rep.residual, table.residual[1])
        assert rep.floor == table.floor[1]
        assert np.array_equal(table.grid, self.GRID)
        for arr in (rep.residual, table.residual, table.floor, table.grid):
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_equal_values_share_the_table(self, bases):
        sol = coupled_dirac_solution()
        table = gce_residual_sweep(sol, bases[2], self.GRID)
        # A fresh decomposition on every call (decomp=None), an equal explicit
        # one, a copied grid and a new basis all hit.
        assert gce_residual_sweep(sol, bases[2], self.GRID) is table
        dec = decompose(sol.profile, bases[2])
        assert gce_residual_sweep(sol, bases[2], self.GRID.copy(), dec) is table
        assert gce_residual_sweep(sol, build_basis(2), self.GRID) is table
        # Samples of the other side or of another grid leave the table valid:
        # it is built from right-continuous samples only.
        sol.evaluate(self.GRID, side="left")
        sol.evaluate(np.linspace(-1.0, 1.0, 7))
        assert gce_residual_sweep(sol, bases[2], self.GRID) is table

    def test_changed_values_rebuild_the_table(self, bases):
        sol = coupled_dirac_solution()
        dec = decompose(sol.profile, bases[2])
        table = gce_residual_sweep(sol, bases[2], self.GRID, dec)
        signed = self.GRID.copy()
        signed[150] = -0.0  # equal value, other bits
        other = gce_residual_sweep(sol, bases[2], signed, dec)
        assert other is not table
        assert np.array_equal(other.residual, table.residual)
        with pytest.raises(ValueError, match="rank"):
            gce_residual_sweep(sol, bases[3], self.GRID)

    def test_another_profiles_decomposition_is_refused(self, bases):
        sol = coupled_dirac_solution()
        dec = decompose(sol.profile, bases[2])
        table = gce_residual_sweep(sol, bases[2], self.GRID, dec)
        scaled = dataclasses.replace(dec, c=1.5 * dec.c)
        moved = dataclasses.replace(dec, cuts=dec.cuts + 0.05)
        for other, what in ((scaled, "coefficient C_"), (moved, "cuts")):
            with pytest.raises(ValueError, match=what):
                gce_residual_sweep(sol, bases[2], self.GRID, other)
            with pytest.raises(ValueError, match=what):
                gce_residual_dirac(sol, bases[2], 1, self.GRID[:-1], other)
        assert sol.residual_table[1] is table
        # The solution's own decomposition, equal but not the same object.
        sol.residual_table = None
        again = gce_residual_sweep(sol, bases[2], self.GRID, decompose(sol.profile, bases[2]))
        assert_arrays_same_bits([again.residual, again.floor], [table.residual, table.floor])

    def test_another_stacks_decomposition_is_refused(self):
        # Two coupled N = 4 stacks on one set of breakpoints: only the
        # coefficients tell their decompositions apart.
        sol, other = coupled_stack(3, "dirac", 4), coupled_stack(4, "dirac", 4)
        basis, grid = build_basis(4), np.linspace(-3.5, 3.5, 2001)
        with pytest.raises(ValueError, match="coefficient C_.* of segment"):
            gce_residual_dirac(sol, basis, 5, grid, decompose(other.profile, basis))
        assert sol.residual_table is None
        own = gce_residual_dirac(sol, basis, 5, grid, decompose(sol.profile, basis))
        sol.residual_table = None
        fresh = gce_residual_dirac(sol, basis, 5, grid)
        assert_arrays_same_bits([own.residual], [fresh.residual])
        assert own.residual_rms <= 100 * uniform_spacing(grid) ** 2

    def test_blocks_split_at_foreign_segment_cuts(self, bases):
        """Cuts one grid step past the cell starts leave one-sample blocks."""
        sol = coupled_dirac_solution()
        dec = decompose(sol.profile, bases[2])
        moved = dataclasses.replace(dec, cuts=dec.cuts + 0.01)
        table = gce_residual_sweep(sol, bases[2], self.GRID, dec)
        base, floor = gauge_free_residuals(sol, bases[2], self.GRID, dec)
        # The gauge path forms the sampled states' products; the sweep the
        # factors' products, which round differently.
        assert_arrays_same_bits([base], [sampled_table(sol, bases[2], self.GRID, dec).residual])
        assert (np.abs(base - table.residual).max(axis=1) <= floor + table.floor).all()
        shifted, _ = gauge_free_residuals(sol, bases[2], self.GRID, moved)
        # Only the source moves with the cuts; elsewhere the stencil of j1
        # must not see how the samples were split into blocks.
        same = dec.segment_of(self.GRID) == moved.segment_of(self.GRID)
        assert not same.all()
        diff = np.abs(shifted - base)
        assert diff[:, same].max() <= 100 * floor
        assert diff[:, ~same].max() > 1e-3

    def test_stacked_solution_keeps_its_table(self, bases):
        stack = free_stack([1.5, 1.1])
        grid = np.linspace(-1.5, 1.5, 301)
        table = gce_residual_sweep(stack, bases[2], grid)
        assert gce_residual_sweep(stack, bases[2], grid) is table
        for a in (1, 2, 3):
            rep = gce_residual_dirac(stack, bases[2], a, grid)
            assert np.shares_memory(rep.residual, table.residual)
        # Solving again makes a new solution, and so a new table.
        fresh = gce_residual_sweep(free_stack([1.5, 1.1]), bases[2], grid)
        assert fresh is not table
        assert np.array_equal(fresh.residual, table.residual)

    def test_one_table_per_solution(self, bases):
        sol = coupled_dirac_solution()
        grid, fine = np.linspace(-1.5, 2.5, 201), np.linspace(-1.5, 2.5, 401)
        table = gce_residual_sweep(sol, bases[2], grid)
        fine_table = gce_residual_sweep(sol, bases[2], fine)
        assert sol.residual_table[1] is fine_table
        again = gce_residual_sweep(sol, bases[2], grid)
        assert again is not table
        assert np.array_equal(again.residual, table.residual)

    def test_a_table_beyond_double_precision_is_refused(self, bases):
        # cosh(kappa x), kappa = sqrt(8), passes the largest double at
        # x = 251 and its square at x = 126.
        prof = PotentialProfile([Segment(0.0, 1.0, 5.0 * np.eye(2))])
        sol = solve_schrodinger(prof, 1.0, [InitialValue([1.0, 0.0]), InitialValue([0.5, 0.2])])
        grid = np.linspace(0.0, 400.0, 4001)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^the residual at x = 126\.4 overflows"):
                gce_residual_sweep(sol, bases[2], grid)
            with pytest.raises(ValueError, match=r"^the state at x = 250\.9 overflows"):
                sol.evaluate(grid)
        assert sol.residual_table is None
        table = gce_residual_sweep(sol, bases[2], grid[:1201])
        assert np.isfinite(table.residual).all() and np.isfinite(table.floor).all()

    def test_a_floor_beyond_double_precision_is_refused(self, bases):
        # |c|^2 / (2h) ~ 1e308: the residuals stay finite, their floor does not.
        prof = PotentialProfile([Segment(0.0, 1.0, np.diag([0.3, -0.2]))])
        amp = 3e152
        values = [InitialValue([amp, 0.0]), InitialValue([0.5 * amp, 0.2 * amp])]
        sol = solve_dirac(prof, 1.3, values)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^the residual floor overflows"):
                gce_residual_sweep(sol, bases[2], np.linspace(0.0, 1.0, 1001))
        assert sol.residual_table is None

    def test_order_is_none_at_rounding(self, bases):
        # Free systems at equal energy carry constant currents, so every
        # residual is the stencil's rounding alone; T_2's current cancels to
        # about 1e-31 by structure, far below the rounding of its terms.
        sol = free_stack([1.3, 1.3], [1.0, 0.5])
        grids = [np.linspace(-1.5, 1.5, n) for n in (301, 601)]
        tables = [gce_residual_sweep(sol, bases[2], g) for g in grids]
        for a in (1, 2, 3):
            rms = [_rms(t.residual[a - 1]) for t in tables]
            floors = [t.floor[a - 1] for t in tables]
            verdict = order_verdict([uniform_spacing(g) for g in grids], rms, floors)
            assert verdict["orders"] == [None]
            assert verdict["at_rounding"] and verdict["passed"]


# ---------------------------------------------------------------------------
# Domains and transformed currents


class TestDomains:
    def fig_like_profile(self):
        return PotentialProfile(
            [
                Segment(-3.0, 0.0, np.diag([0.0, 0.7])),
                Segment(0.0, 2.0, np.diag([0.5, 0.5])),
                Segment(2.0, 4.0, np.diag([0.8, 0.1])),
            ]
        )

    def test_identity_domains_of_matching_window(self):
        doms = detect_domains(self.fig_like_profile(), (1, 2), identity_transform())
        assert len(doms) == 1
        assert doms[0].x_lo == 0.0 and doms[0].x_hi == 2.0
        same = detect_domains(self.fig_like_profile(), (1, 1), identity_transform())
        assert len(same) == 1
        assert np.isinf(same[0].x_lo) and np.isinf(same[0].x_hi)

    def test_domains_invariant_under_segment_refinement(self):
        prof = PotentialProfile(
            [
                Segment(-3.0, 0.0, np.diag([0.0, 0.7])),
                Segment(0.0, 1.0, np.diag([0.5, 0.5])),
                Segment(1.0, 2.0, np.diag([0.5, 0.5])),
                Segment(2.0, 4.0, np.diag([0.8, 0.1])),
            ]
        )
        doms = detect_domains(prof, (1, 2), identity_transform())
        assert [(d.x_lo, d.x_hi) for d in doms] == [(0.0, 2.0)]

    def test_translation_domains(self):
        segs = []
        edges = [-3.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.2, 7.0, 8.0]
        v1 = {(0.0, 1.0): 0.6, (4.0, 5.0): 0.5}
        v2 = {(2.0, 3.0): 0.6, (6.2, 7.0): 0.8}
        for lo, hi in zip(edges[:-1], edges[1:]):
            segs.append(
                Segment(lo, hi, np.diag([v1.get((lo, hi), 0.0), v2.get((lo, hi), 0.0)]))
            )
        doms = detect_domains(PotentialProfile(segs), (1, 2), translation_transform(2.0))
        assert len(doms) == 2
        assert np.isinf(doms[0].x_lo) and doms[0].x_hi == 4.0
        assert doms[1].x_lo == 5.0 and np.isinf(doms[1].x_hi)

    def test_matched_delta_does_not_split_parity_domain(self):
        segs = [Segment(-2.0, 0.0, np.zeros((2, 2))), Segment(0.0, 2.0, np.zeros((2, 2)))]
        matched = PotentialProfile(segs, [DeltaBarrier(0.0, np.diag([0.3, 0.3]))])
        doms = detect_domains(matched, (1, 2), parity_transform())
        assert len(doms) == 1
        unmatched = PotentialProfile(segs, [DeltaBarrier(0.0, np.diag([0.3, 0.1]))])
        doms = detect_domains(unmatched, (1, 2), parity_transform())
        assert [(d.x_lo, d.x_hi) for d in doms] == [(-np.inf, 0.0), (0.0, np.inf)]

    def test_off_diagonal_coupling_breaks_the_domain(self, bases):
        # Equal diagonals everywhere, but systems 1 and 2 couple on [0, 1]:
        # the pair current drifts across the coupled window, so the window
        # must not belong to any domain.
        coupled = np.array([[0.3, 0.2], [0.2, 0.3]])
        prof = PotentialProfile(
            [
                Segment(-2.0, 0.0, np.diag([0.1, 0.1])),
                Segment(0.0, 1.0, coupled),
                Segment(1.0, 3.0, np.diag([0.1, 0.1])),
            ]
        )
        doms = detect_domains(prof, (1, 2), identity_transform())
        assert [(d.x_lo, d.x_hi) for d in doms] == [(-np.inf, 0.0), (1.0, np.inf)]
        sol = solve_dirac(prof, 1.2, Scattering([1.0, 0.5]))
        xs = np.linspace(-1.9, 2.9, 961)
        cur = dirac_current(sol, bases[2], (1, 2), xs)
        assert all(rel <= 1e-8 for rel in domain_rel_devs(xs, cur.j1, doms))
        assert interval_stats(xs, cur.j1, -np.inf, np.inf)[2] >= 0.01

    def test_off_diagonal_delta_splits_the_domain(self):
        segs = [Segment(-2.0, 0.0, np.diag([0.1, 0.1])), Segment(0.0, 2.0, np.diag([0.1, 0.1]))]
        prof = PotentialProfile(segs, [DeltaBarrier(0.0, np.array([[0.3, 0.2], [0.2, 0.3]]))])
        for spec in (identity_transform(), parity_transform()):
            doms = detect_domains(prof, (1, 2), spec)
            assert [(d.x_lo, d.x_hi) for d in doms] == [(-np.inf, 0.0), (0.0, np.inf)]

    def test_coupling_to_a_third_system_breaks_the_domain(self):
        v = np.diag([0.2, 0.2, 0.5]).astype(complex)
        v[1, 2] = v[2, 1] = 0.1
        prof = PotentialProfile(
            [Segment(-1.0, 0.0, np.diag([0.2, 0.2, 0.5])), Segment(0.0, 1.0, v)]
        )
        doms = detect_domains(prof, (1, 2), identity_transform())
        assert [(d.x_lo, d.x_hi) for d in doms] == [(-np.inf, 0.0)]
        # System 1 stays decoupled, so its own pair keeps the whole line.
        doms = detect_domains(prof, (1, 1), identity_transform())
        assert [(d.x_lo, d.x_hi) for d in doms] == [(-np.inf, np.inf)]

    def test_fig_like_pair_current_constant_inside_window_only(self, bases):
        sol = solve_dirac(self.fig_like_profile(), 2.0, Scattering([1.0, 1.0]))
        doms = detect_domains(sol.profile, (1, 2), identity_transform())
        xs = np.linspace(-2.8, 3.8, 1321)
        cur = dirac_current(sol, bases[2], (1, 2), xs)
        assert len(doms) == 1
        assert domain_rel_devs(xs, cur.j1, doms)[0] <= 1e-8
        for lo, hi in ((-2.8, 0.0), (2.0, 3.8)):
            _, _, rel = interval_stats(xs, cur.j1, lo, hi)
            assert rel >= 0.1

    def test_generator_current_constant_on_the_domain(self, bases):
        sol = solve_dirac(self.fig_like_profile(), 2.0, Scattering([1.0, 1.0]))
        doms = detect_domains(sol.profile, (1, 2), identity_transform())
        grid = np.linspace(-2.8, 3.8, 1321)
        j1 = dirac_current(sol, bases[2], 1, grid).j1
        assert len(doms) == 1
        assert domain_rel_devs(grid, j1, doms)[0] <= 1e-8

    def test_interval_stats_requires_interior_points(self):
        xs = np.linspace(0.0, 1.0, 11)
        with pytest.raises(ValueError, match="strictly inside"):
            interval_stats(xs, np.ones(11), 2.0, 3.0)


class TestTransformedCurrents:
    def parity_pair(self, energy=1.6, convention="default"):
        p1 = bump_profile([(1.0, 2.0, 0.6), (3.0, 4.0, 0.9)], -6.0, 6.0)
        p2 = bump_profile([(-4.5, -3.5, 0.4), (-2.0, -1.0, 0.6)], -6.0, 6.0)
        return solve_dirac(diagonal_profile([p1, p2]), energy, Scattering([1.0, 1.0]), convention)

    def test_parity_transformed_current_constant_on_domains(self):
        sol = self.parity_pair()
        spec = parity_transform()
        doms = detect_domains(sol.profile, (1, 2), spec)
        assert [(d.x_lo, d.x_hi) for d in doms] == [(-np.inf, 3.0), (4.5, np.inf)]
        xs = np.linspace(-5.8, 5.8, 1161)
        cur = transformed_current(sol, (1, 2), spec, xs)
        for rel in domain_rel_devs(xs, cur.j1, doms):
            assert rel <= 1e-10
        _, _, rel = interval_stats(xs, cur.j1, 3.0, 4.5)
        assert rel > 1e-2

    def test_translation_transformed_current_constant_on_domains(self):
        p1 = bump_profile([(0.0, 1.0, 0.6), (4.0, 5.0, 0.5)], -3.0, 8.0)
        p2 = bump_profile([(2.0, 3.0, 0.6), (6.2, 7.0, 0.8)], -3.0, 8.0)
        sol = solve_dirac(diagonal_profile([p1, p2]), 1.9, Scattering([1.0, 1.0]))
        spec = translation_transform(2.0)
        doms = detect_domains(sol.profile, (1, 2), spec)
        xs = np.linspace(-2.8, 7.8, 1061)
        cur = transformed_current(sol, (1, 2), spec, xs)
        assert len(doms) == 2
        for rel in domain_rel_devs(xs, cur.j1, doms):
            assert rel <= 1e-10

    def test_identity_transform_is_bitwise_pair_current(self):
        sol = self.parity_pair()
        xs = np.linspace(-5.0, 5.0, 501)
        tc = transformed_current(sol, (1, 2), identity_transform(), xs)
        pc = dirac_current(sol, None, (1, 2), xs)
        assert np.array_equal(tc.j1, pc.j1)
        assert np.array_equal(tc.j0, pc.j0)

    @pytest.mark.parametrize("name", ["default", "vector", "rotated"])
    @pytest.mark.parametrize("spec", [parity_transform(0.25), translation_transform(0.5)])
    def test_spinor_factor_is_the_conventions_gamma0_for_a_mirror(self, name, spec):
        sol, conv = self.parity_pair(convention=name), get_convention(name)
        factor = conv.gamma0 if spec.sigma == -1 else np.eye(2, dtype=complex)
        xs = np.linspace(-5.0, 5.0, 501)
        a, b = sol.evaluate(xs)[:, :2], sol.evaluate(spec.map(xs))[:, 2:]
        want = [engine._bilinear(a, conv.current_matrix @ factor, b), engine._bilinear(a, factor, b)]
        cur = transformed_current(sol, (1, 2), spec, xs)
        assert_arrays_same_bits([cur.j1, cur.j0], want)

    def test_transform_spec_is_a_hashable_value(self):
        assert parity_transform(1.5) == TransformSpec(-1, 3.0)
        assert hash(translation_transform(2.0)) == hash(TransformSpec(1, 2.0))
        assert identity_transform().is_identity and not parity_transform().is_identity
        assert len({parity_transform(), TransformSpec(-1, 0.0), identity_transform()}) == 2

    def test_transform_validation(self):

        with pytest.raises(ValueError, match="sigma"):
            TransformSpec(2, 0.0)
        w = solve_schrodinger(uniform_profile(np.zeros((2, 2)), -1, 1), 0.5, Scattering([1, 1]))
        with pytest.raises(ValueError, match="Dirac"):
            transformed_current(w, (1, 2), identity_transform(), np.linspace(-1, 1, 5))


# ---------------------------------------------------------------------------
# Charge relation


class TestChargeRelation:
    def test_free_oracle(self):
        e1, e2 = 1.3, 0.7
        sol = free_stack([e1, e2], x_lo=-1.0, x_hi=1.0)
        x1, x2 = -0.4, 0.9
        rel = charge_current_relation(sol, (1, 2), x1, x2)
        assert isinstance(rel, ChargeRelation)
        u1, u2 = per_system(sol, [-1.0])[0]
        dk = e2 - e1
        oracle = (u1.conj() @ u2) * (
            np.exp(1j * dk * (x2 + 1.0)) - np.exp(1j * dk * (x1 + 1.0))
        ) / (1j * dk)
        assert abs(rel.q - oracle) <= 1e-14 * abs(oracle)
        assert rel.discrepancy <= 1e-14 * abs(oracle)

    def test_holds_through_a_barrier(self):
        prof = diagonal_profile([bump_profile([(-0.5, 0.5, 0.8)], -3.0, 3.0)] * 2)
        sol = solve_dirac(prof, [1.7, 1.2], Scattering([1.0, 0.5 + 0.5j]))
        rel = charge_current_relation(sol, (1, 2), -2.5, 2.5)
        assert rel.discrepancy <= 1e-12 * abs(rel.q)

    def test_gauss_rule_matches_scipy(self):
        t, w = _gauss_rule()
        ref_t, ref_w = roots_legendre(8)
        # numpy's weights sit a few ulps from scipy's.
        assert np.abs(t - ref_t).max() <= 16 * EPS
        assert np.abs(w - ref_w).max() <= 16 * EPS
        assert not (t.flags.writeable or w.flags.writeable)
        # Eight nodes: x^16 is the first power the rule misses.
        assert abs(w @ t**16 - 2.0 / 17.0) > 1e-6

    @pytest.mark.parametrize("degree", [0, 3, 8, 14, 15])
    def test_gauss_rule_is_exact_through_degree_15(self, degree):
        t, w = _gauss_rule()
        want = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
        assert abs(w @ t**degree - want) <= 16 * EPS

    def test_equal_energies_raise(self):
        sol = free_stack([1.0, 1.0], [1.0, 0.5], x_lo=-1.0, x_hi=1.0)
        with pytest.raises(DegenerateEnergiesError):
            charge_current_relation(sol, (1, 2), -1.0, 1.0)

    def test_profile_mismatch_and_bad_interval_raise(self):
        prof = diagonal_profile(
            [uniform_profile([[0.0]], -2.0, 2.0), bump_profile([(0.0, 0.5, 0.3)], -2.0, 2.0)]
        )
        sol = solve_dirac(prof, [1.2, 0.9], Scattering([1.0, 1.0]))
        with pytest.raises(ValueError, match="share one potential"):
            charge_current_relation(sol, (1, 2), -1.0, 1.0)
        with pytest.raises(ValueError, match="x2 > x1"):
            charge_current_relation(free_stack([1.2, 0.9]), (1, 2), 1.0, -1.0)


# ---------------------------------------------------------------------------
# Delta barriers inside symmetry domains


class TestDeltaDomainRelation:
    # Left-incident scattering states are single-mover under the reflectionless
    # vector coupling and carry a vanishing mixed parity current, so the
    # fig2-class states are built from mover-mixing initial values instead.
    FIG2_VALUES = ([0.9 + 0.2j, -0.4 + 0.55j], [0.74 + 0.3j, 0.21 - 0.62j])

    @staticmethod
    def fig2_profiles(lam):
        bumps = [(-1.5, -0.5, 0.25), (0.5, 1.5, 0.25)]
        deltas = [DeltaBarrier(0.0, [[lam]])] if lam != 0.0 else []
        return [bump_profile(bumps, -3.0, 3.0, deltas), bump_profile(bumps, -3.0, 3.0)]

    def fig2_pair(self, lam, energy=1.2):
        boundary = [InitialValue(v) for v in self.FIG2_VALUES]
        return solve_dirac(diagonal_profile(self.fig2_profiles(lam)), energy, boundary, "vector")

    def test_no_delta_means_equal_constants(self):
        sol = self.fig2_pair(0.0)
        rel = delta_domain_relation(sol, (1, 2), x0=0.0)
        assert abs(rel.c_minus - rel.c_plus) <= 1e-12
        assert rel.deviation <= 1e-12

    @pytest.mark.parametrize("lam", [np.pi / 6, np.pi / 3, np.pi / 2])
    def test_junction_predicts_jump_of_domain_constant(self, lam):
        sol = self.fig2_pair(lam)
        rel = delta_domain_relation(sol, (1, 2))
        assert rel.x0 == 0.0
        assert rel.rel_dev_minus <= 1e-10
        assert rel.rel_dev_plus <= 1e-10
        assert rel.deviation <= 1e-10
        assert abs(rel.c_minus - rel.c_plus) > 1e-3

    def test_full_turn_restores_continuity(self):
        lam = 2.0 * np.pi
        sol = self.fig2_pair(lam)
        rel = delta_domain_relation(sol, (1, 2))
        assert abs(rel.c_minus - rel.c_plus) <= 1e-10
        assert rel.deviation <= 1e-10

    def test_missing_delta_needs_explicit_position(self):
        sol = self.fig2_pair(0.0)
        with pytest.raises(ValueError, match="x0"):
            delta_domain_relation(sol, (1, 2))

    def test_default_barrier_is_the_first_delta_of_system_i(self):
        # System 1 has deltas at 0 and, listed second, at -1.5: the default
        # is the first in profile order, not the leftmost.
        lam = np.pi / 3
        base = diagonal_profile(self.fig2_profiles(lam))
        second = DeltaBarrier(-1.5, np.diag([0.4, 0.0]))
        prof = PotentialProfile(base.segments, [*base.deltas, second])
        boundary = [InitialValue(v) for v in self.FIG2_VALUES]
        sol = solve_dirac(prof, 1.2, boundary, "vector")
        rel = delta_domain_relation(sol, (1, 2))
        assert rel.x0 == 0.0
        assert rel == delta_domain_relation(sol, (1, 2), x0=0.0)
        assert rel.deviation <= 1e-10
        assert abs(rel.c_minus - rel.c_plus) > 1e-3

    def test_delta_on_system_j_only_has_identity_junction(self):
        sol = self.fig2_pair(np.pi / 3)
        rel = delta_domain_relation(sol, (2, 1))
        assert rel.x0 == 0.0
        spec = parity_transform(center=0.0)
        kernel = sol.dynamics.current_matrix @ sol.dynamics.gamma0
        psi_i = sol.evaluate([0.0], side="left")[0, 2:]
        psi_j = sol.evaluate([spec.map(0.0)], side="left")[0, :2]
        assert abs(rel.predicted_c_plus - psi_i.conj() @ kernel @ psi_j) <= 1e-14
        assert rel.deviation <= 1e-10


class TestPairOperationsOfAStack:
    """The pair operations read systems i and j of one joint solution."""

    def stack(self):
        # Systems 1 and 3 are free at distinct energies; system 2 sees a bump.
        free = uniform_profile(np.zeros((1, 1)), -2.0, 2.0)
        prof = diagonal_profile([free, bump_profile([(-0.5, 0.5, 0.8)], -2.0, 2.0), free])
        return solve_dirac(prof, [1.3, 1.1, 0.7], Scattering([1.0, 0.6, 1.0]))

    def test_free_oracles_of_pair_1_3(self):
        sol = self.stack()
        xs = np.linspace(-1.5, 1.5, 301)
        tc = transformed_current(sol, (1, 3), identity_transform(), xs)
        assert tc.index == (1, 3)
        assert np.abs(tc.j1 - np.exp(1j * (0.7 - 1.3) * (xs + 2.0))).max() <= 1e-12
        pc = dirac_current(sol, None, (1, 3), xs)
        assert np.array_equal(tc.j1, pc.j1)
        assert np.array_equal(tc.j0, pc.j0)
        x1, x2, dk = -0.4, 0.9, 0.7 - 1.3
        rel = charge_current_relation(sol, (1, 3), x1, x2)
        u = sol.evaluate([-2.0])[0]
        oracle = (u[:2].conj() @ u[4:]) * (
            np.exp(1j * dk * (x2 + 2.0)) - np.exp(1j * dk * (x1 + 2.0))
        ) / (1j * dk)
        assert abs(rel.q - oracle) <= 1e-12
        assert rel.discrepancy <= 1e-10

    def test_delta_relation_of_pair_1_3(self):
        lam = np.pi / 3
        fig2 = TestDeltaDomainRelation
        p1, p2 = fig2.fig2_profiles(lam)
        prof = diagonal_profile([p1, uniform_profile([[0.3]], -3.0, 3.0), p2])
        v1, v2 = fig2.FIG2_VALUES
        boundary = [InitialValue(v1), InitialValue([1.0, 0.5j]), InitialValue(v2)]
        rel = delta_domain_relation(solve_dirac(prof, 1.2, boundary, "vector"), (1, 3))
        assert rel.rel_dev_minus <= 1e-10
        assert rel.rel_dev_plus <= 1e-10
        assert rel.deviation <= 1e-10
        two = delta_domain_relation(fig2().fig2_pair(lam), (1, 2))
        for got, want in zip(dataclasses.astuple(rel), dataclasses.astuple(two)):
            assert abs(got - want) <= 1e-12

    def test_coupled_profiles_and_unequal_potentials_raise(self):
        coupled, xs = coupled_dirac_solution(), np.linspace(-1.0, 1.0, 11)
        with pytest.raises(ProfileError, match="decoupled"):
            transformed_current(coupled, (1, 2), identity_transform(), xs)
        with pytest.raises(ProfileError, match="decoupled"):
            charge_current_relation(coupled, (1, 2), -1.0, 1.0)
        with pytest.raises(ProfileError, match="decoupled"):
            delta_domain_relation(coupled, (1, 2), x0=0.0)
        with pytest.raises(ValueError, match="systems 1 and 2 must share one potential"):
            charge_current_relation(self.stack(), (1, 2), -1.0, 1.0)
        with pytest.raises(ValueError, match="outside"):
            transformed_current(self.stack(), (1, 4), identity_transform(), xs)


# ---------------------------------------------------------------------------
# Gauge diagnostic


class TestGauge:
    def test_field_strength_constant_fields_oracle(self, bases):
        xs = np.linspace(-1.0, 1.0, 9)
        p, q = 0.7, -0.35
        a_fields = np.zeros((3, 2, 9))
        a_fields[0, 0, :] = p
        a_fields[1, 1, :] = q
        r = field_strength(GaugeConfig(xs, a_fields), bases[2])
        assert np.abs(r[2] + p * q).max() <= 1e-14
        assert np.abs(r[:2]).max() <= 1e-14

    def test_zero_field_reproduces_ungauged_residual_exactly(self, bases):
        sol = coupled_dirac_solution()
        grid = np.linspace(-1.5, 2.5, 401)
        dec = decompose(sol.profile, bases[2])
        plain = gce_residual_dirac(sol, bases[2], 2, grid, dec)
        config = GaugeConfig(
            grid, np.zeros((3, 2, len(grid))), cuts=tuple(residual_cuts(sol.profile))
        )
        gauged = gauge_residual(
            sol.evaluate(grid),
            config,
            bases[2],
            2,
            energies=np.full(2, sol.energy),
            decomp=dec,
            convention=sol.dynamics,
        )
        # A = 0 repeats the ungauged arithmetic of the sampled states bit for
        # bit; the sweep forms its table from the factors, within both floors.
        assert np.array_equal(gauged.residual, sampled_table(sol, bases[2], grid, dec).residual[1])
        assert np.abs(gauged.residual - plain.residual).max() <= gauged.floor + plain.floor

    def test_constant_time_component_shifts_energies(self, bases):
        alpha = 0.4
        e1, e2 = 1.5, 0.9
        shifted = np.array([e1 - alpha / 2, e2 + alpha / 2])
        stack = free_stack(shifted)
        norms = {}
        for n_pts in (161, 321):
            grid = np.linspace(-2.0, 2.0, n_pts)
            a_fields = np.zeros((3, 2, n_pts))
            a_fields[2, 0, :] = alpha
            psi = stack.evaluate(grid)
            rep = gauge_residual(
                psi, GaugeConfig(grid, a_fields), bases[2], 1, energies=shifted
            )
            norms[n_pts] = rep.residual_rms
        assert 1e-9 <= norms[161] <= 1e-4
        assert 3.6 <= norms[161] / norms[321] <= 4.4

    def test_current_correction_enters_the_spatial_derivative(self, bases):
        """d_x of K^1 = R_01^d f_abd A^b_0 is taken from the gauged current."""
        rng = np.random.default_rng(11)
        sol = coupled_dirac_solution()
        grid = np.linspace(-1.5, 2.5, 401)
        cuts = tuple(residual_cuts(sol.profile))
        a_fields = 0.3 * np.sin(np.outer(rng.uniform(1, 3, 6), grid)).reshape(3, 2, -1)
        psi, energies = sol.evaluate(grid), np.full(2, sol.energy)
        basis = bases[2]
        r01 = field_strength(GaugeConfig(grid, a_fields, cuts), basis)
        for a in (1, 2, 3):
            k1 = np.einsum("bd,dx,bx->x", basis.structure_constants[a - 1], r01, a_fields[:, 0])
            assert np.abs(k1).max() > 1e-3
            gauged = gauge_residual(
                psi, GaugeConfig(grid, a_fields, cuts), basis, a, energies=energies
            ).residual
            plain = gauge_residual(
                psi, GaugeConfig(grid, 0.0 * a_fields, cuts), basis, a, energies=energies
            ).residual
            dk1 = piecewise_derivative(k1, grid, cuts).real
            assert np.abs(gauged - plain + dk1).max() <= 1e-12 * np.abs(dk1).max()

    def test_random_samples_fail_the_continuity_law(self, bases):
        rng = np.random.default_rng(7)
        grid = np.linspace(-2.0, 2.0, 161)
        psi = rng.normal(size=(161, 4)) + 1j * rng.normal(size=(161, 4))
        rep = gauge_residual(
            psi,
            GaugeConfig(grid, np.zeros((3, 2, 161))),
            bases[2],
            1,
            energies=[1.3, 1.1],
        )
        assert rep.residual_rms > 1e-2

    def test_sampled_time_path_matches_stationary_phases(self, bases):
        e = np.array([1.3, 0.7])
        stack = free_stack(e)
        grid = np.linspace(-2.0, 2.0, 161)
        ts = np.linspace(0.0, 0.8, 9)
        vals = per_system(stack, grid)
        psi = np.empty((len(ts), len(grid), 4), dtype=complex)
        for k, t in enumerate(ts):
            phases = np.exp(-1j * e * t)
            psi[k] = (vals * phases[None, :, None]).reshape(len(grid), 4)
        rep = gauge_residual(
            psi,
            GaugeConfig(grid, np.zeros((3, 2, len(grid))), t_grid=ts),
            bases[2],
            1,
        )
        assert rep.residual.shape == (len(ts), len(grid))
        assert rep.residual_rms <= 1e-2

    def test_gauge_argument_validation(self, bases):
        grid = np.linspace(-1.0, 1.0, 9)
        psi = np.zeros((9, 4), dtype=complex)
        with pytest.raises(ValueError, match="a_fields"):
            gauge_residual(
                psi, GaugeConfig(grid, np.zeros((3, 1, 9))), bases[2], 1, energies=[1, 1]
            )
        with pytest.raises(ValueError, match="energies"):
            gauge_residual(psi, GaugeConfig(grid, np.zeros((3, 2, 9))), bases[2], 1)
        with pytest.raises(ValueError, match="t_grid"):
            gauge_residual(
                np.zeros((3, 9, 4), dtype=complex),
                GaugeConfig(grid, np.zeros((3, 2, 9))),
                bases[2],
                1,
            )
