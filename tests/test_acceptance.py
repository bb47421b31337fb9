"""Acceptance checks: the library's advertised guarantees at full tolerance.

Each test pins one public guarantee end to end: su(N) algebra invariants,
decomposition round trips, solver exactness, window-local conservation, the
charge-current identity, delta-junction relations, residual convergence,
Hermitian pairing, symmetry-transformed currents, the gauge diagnostic, and
the tooling contracts (round trip, determinism, exit codes).
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from conftest import diagonal_profile, ladder_pair_current
from gcelab.cli import main as cli_main
from gcelab.engine import (
    DegenerateEnergiesError,
    GaugeConfig,
    charge_current_relation,
    dirac_current,
    gauge_residual,
    gce_residual_dirac,
    gce_residual_schrodinger,
    identity_transform,
    residual_cuts,
    transformed_current,
)
from gcelab.scenario import (
    builtin_scenario_names,
    load_builtin,
    run_scenario,
    scenario_from_dict,
    serialize_scenario,
    set_delta_strength,
    write_reports,
)
from gcelab.solvers import (
    DeltaBarrier,
    PotentialProfile,
    Scattering,
    Segment,
    solve_dirac,
    solve_schrodinger,
    uniform_profile,
)
from gcelab.sun import build_basis, decompose

DATA = Path(__file__).parent / "data"


# ---------------------------------------------------------------------------
# Helpers (self-contained so this module reads as one document)


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (a + a.conj().T)


def ode_residual(sol, xs, h: float = 1e-4) -> float:
    """Max norm of phi' - M phi with phi' from a five-point stencil."""
    xs = np.asarray(xs, dtype=float)
    dphi = np.zeros((len(xs), sol.dim), dtype=complex)
    for off, w in [(-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0)]:
        dphi += w * sol.evaluate(xs + off * h)
    dphi /= 12.0 * h
    phi = sol.evaluate(xs)
    worst = 0.0
    for k, x in enumerate(xs):
        v = sol.profile.matrix_at(x)
        m = sol.dynamics.generator(v, sol.energy)
        worst = max(worst, float(np.abs(dphi[k] - m @ phi[k]).max()))
    return worst


def interior_points(profile, n_per: int, pad: float = 0.05) -> np.ndarray:
    pts = []
    for s in profile.segments:
        w = s.x_hi - s.x_lo
        pts.append(np.linspace(s.x_lo + pad * w, s.x_hi - pad * w, n_per))
    return np.concatenate(pts)


def probability_current(sol, xs) -> np.ndarray:
    if sol.dynamics.model == "dirac":
        block = sol.dynamics.current_matrix
    else:  # (i / 2m) (phi'^* phi - phi^* phi') on (value, derivative)
        block = 0.5j / sol.dynamics.mass * np.array([[0.0, -1.0], [1.0, 0.0]])
    kernel = np.kron(np.eye(sol.n_systems), block)
    vals = sol.evaluate(xs)
    return np.einsum("xi,ij,xj->x", vals.conj(), kernel, vals).real


def free_stack(energies, x_lo: float = -2.0, x_hi: float = 2.0):
    """Free Dirac systems at the given energies, unit incoming amplitudes."""
    n = len(energies)
    profile = uniform_profile(np.zeros((n, n)), x_lo, x_hi)
    return solve_dirac(profile, energies, Scattering(np.ones(n)))


def coupled_dirac_solution():
    profile = PotentialProfile(
        [
            Segment(-2.0, 0.0, np.diag([0.0, 0.4])),
            Segment(0.0, 1.0, np.array([[0.5, 0.2 - 0.1j], [0.2 + 0.1j, 0.1]])),
            Segment(1.0, 3.0, np.diag([0.2, 0.05])),
        ]
    )
    return solve_dirac(profile, 1.4, Scattering([1.0, 0.6]))


def coupled_schrodinger_solution():
    profile = PotentialProfile(
        [
            Segment(-2.0, -0.5, np.diag([0.1, 0.3])),
            Segment(-0.5, 0.5, np.array([[0.4, 0.15], [0.15, 0.2]])),
            Segment(0.5, 2.0, np.diag([0.0, 0.1])),
        ],
        [DeltaBarrier(0.5, np.diag([0.5, 0.2]))],
    )
    return solve_schrodinger(profile, 1.0, Scattering([1.0, 0.8]))


# ---------------------------------------------------------------------------
# 1. Lie-algebra layer


def test_basis_invariants_across_ranks(bases):
    for n in (2, 3, 4, 5):
        basis = bases[n]
        t = basis.generators
        f = basis.structure_constants
        assert np.abs(t - np.conj(np.swapaxes(t, 1, 2))).max() <= 1e-14
        assert np.abs(np.einsum("aii->a", t)).max() <= 1e-14
        gram = 2.0 * np.einsum("aij,bji->ab", t, t)
        assert np.abs(gram - np.eye(basis.dim)).max() <= 1e-13
        comm = np.einsum("aij,bjk->abik", t, t) - np.einsum("bij,ajk->abik", t, t)
        assert np.abs(comm - 1j * np.einsum("abc,cik->abik", f, t)).max() <= 1e-12
        jacobi = (
            np.einsum("ade,bce->abcd", f, f)
            + np.einsum("bde,cae->abcd", f, f)
            + np.einsum("cde,abe->abcd", f, f)
        )
        assert np.abs(jacobi).max() <= 1e-11


def test_su2_structure_constants_are_levi_civita(bases):
    eps = np.zeros((3, 3, 3))
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[a, b, c] = 1.0
        eps[a, c, b] = -1.0
    assert np.abs(bases[2].structure_constants - eps).max() <= 1e-14


# ---------------------------------------------------------------------------
# 2. Decomposition


def test_decomposition_round_trip_random_hermitians(bases):
    rng = np.random.default_rng(20240817)
    for n in (2, 3, 4):
        basis = bases[n]
        for _ in range(100):
            v = random_hermitian(rng, n)
            dec = decompose(v, basis)
            assert np.abs(dec.reconstruct(0) - v).max() <= 1e-12


def test_su3_diagonal_closed_forms(bases):
    rng = np.random.default_rng(7)
    basis = bases[3]
    for _ in range(20):
        d = rng.normal(size=3)
        dec = decompose(np.diag(d), basis)
        assert dec.c[0, 2] == pytest.approx(d[0] - d[1], abs=1e-13)
        assert dec.c[0, 7] == pytest.approx(
            (d[0] + d[1] - 2.0 * d[2]) / math.sqrt(3.0), abs=1e-13
        )


# ---------------------------------------------------------------------------
# 3. Solver exactness


def test_exact_solutions_satisfy_the_stationary_equations():
    dirac_profile = PotentialProfile(
        [
            Segment(-2.0, 0.0, [[0.0]]),
            Segment(0.0, 1.0, [[0.45]]),
            Segment(1.0, 2.5, [[0.15]]),
        ],
        [DeltaBarrier(1.0, [[0.3]])],
    )
    wave_profile = PotentialProfile(
        [
            Segment(-2.0, 0.0, [[0.0]]),
            Segment(0.0, 1.0, [[0.45]]),
            Segment(1.0, 2.5, [[0.15]]),
        ],
        [DeltaBarrier(0.0, [[0.3]])],
    )
    for sol in (
        solve_dirac(dirac_profile, 1.3, Scattering([1.0])),
        solve_schrodinger(wave_profile, 1.0, Scattering([1.0])),
    ):
        pts = interior_points(sol.profile, n_per=334)
        assert len(pts) >= 1000
        assert ode_residual(sol, pts) <= 1e-10
        line = np.linspace(-1.9, 2.4, 997)
        j = probability_current(sol, line)
        assert float(np.ptp(j)) <= 1e-10


# ---------------------------------------------------------------------------
# 4. Window-local conservation


def test_common_window_confines_the_pair_current():
    bundle = run_scenario(load_builtin("fig1a"))
    assert bundle.passed
    doms = bundle.summary["domains"]
    sampled = [it for it in doms["items"] if it["sampled"]]
    assert len(sampled) == 1
    assert sampled[0]["rel_dev"] <= 1e-8
    assert doms["outside"]["rel_variation"] >= 0.1


# ---------------------------------------------------------------------------
# 5. Charge-current identity


def test_charge_current_identity_for_free_spinors():
    bundle = run_scenario(load_builtin("globalpair"))
    rel = bundle.summary["charge_relation"]
    assert rel["quadrature_points"] == 56  # 8 Gauss nodes on each of ceil(5 * 1.3) panels
    assert rel["discrepancy"] <= 1e-6


def test_equal_energies_raise_the_degenerate_error():
    sol = free_stack([1.1, 1.1])
    with pytest.raises(DegenerateEnergiesError):
        charge_current_relation(sol, (1, 2), -1.0, 1.0)


# ---------------------------------------------------------------------------
# 6. Delta-barrier junction relation


def test_delta_relation_zero_strength_continuity():
    b = run_scenario(set_delta_strength(load_builtin("fig2"), 0.0))
    d = b.summary["delta_relation"]
    c_minus = complex(d["re_c_minus"], d["im_c_minus"])
    c_plus = complex(d["re_c_plus"], d["im_c_plus"])
    assert abs(c_minus - c_plus) <= 1e-12


@pytest.mark.parametrize("lam", [math.pi / 6, math.pi / 3, math.pi / 2])
def test_delta_relation_junction_prediction(lam):
    b = run_scenario(set_delta_strength(load_builtin("fig2"), lam))
    for it in b.summary["domains"]["items"]:
        assert it["rel_dev"] <= 1e-10
    d = b.summary["delta_relation"]
    assert d["rel_dev_minus"] <= 1e-10
    assert d["rel_dev_plus"] <= 1e-10
    assert d["deviation"] <= 1e-10


def test_delta_relation_full_turn_restores_continuity():
    b = run_scenario(set_delta_strength(load_builtin("fig2"), 2.0 * math.pi))
    d = b.summary["delta_relation"]
    c_minus = complex(d["re_c_minus"], d["im_c_minus"])
    c_plus = complex(d["re_c_plus"], d["im_c_plus"])
    assert abs(c_minus - c_plus) <= 1e-10


# ---------------------------------------------------------------------------
# 7. Residual convergence


def test_residual_norms_quarter_under_grid_halving(bases):
    sol_d = coupled_dirac_solution()
    rms_d = {
        n: gce_residual_dirac(sol_d, bases[2], 1, np.linspace(-1.5, 2.5, n)).residual_rms
        for n in (401, 801)
    }
    assert 3.6 <= rms_d[401] / rms_d[801] <= 4.4
    sol_w = coupled_schrodinger_solution()
    rms_w = {
        n: gce_residual_schrodinger(
            sol_w, bases[2], 1, np.linspace(-1.75, 1.75, n)
        ).residual_rms
        for n in (351, 701)
    }
    assert 3.6 <= rms_w[351] / rms_w[701] <= 4.4


# ---------------------------------------------------------------------------
# 8. Hermitian pairing


def test_pair_swap_conjugates_currents_and_residuals(bases):
    sol = coupled_dirac_solution()
    xs = np.linspace(-1.8, 2.8, 701)
    j12 = ladder_pair_current(sol, bases[2], 1, 2, xs)
    j21 = ladder_pair_current(sol, bases[2], 2, 1, xs)
    assert np.abs(j21.j1 - j12.j1.conj()).max() <= 1e-13
    assert np.abs(j21.j0 - j12.j0.conj()).max() <= 1e-13
    grid = np.linspace(-1.5, 2.5, 801)
    r_sym = gce_residual_dirac(sol, bases[2], 1, grid).residual
    r_asym = gce_residual_dirac(sol, bases[2], 2, grid).residual
    r12 = r_sym + 1j * r_asym
    r21 = r_sym - 1j * r_asym
    assert np.abs(r21 - r12.conj()).max() <= 1e-13


# ---------------------------------------------------------------------------
# 9. Symmetry-transformed currents


def test_transformed_currents_constant_on_detected_domains():
    for name in ("fig1b", "translate"):
        bundle = run_scenario(load_builtin(name))
        items = [it for it in bundle.summary["domains"]["items"] if it["sampled"]]
        assert items, name
        for it in items:
            assert it["rel_dev"] <= 1e-8, name


def test_identity_transform_reproduces_pair_current_bitwise():
    p1 = PotentialProfile([Segment(-3.0, 0.5, [[0.0]]), Segment(0.5, 3.0, [[0.4]])])
    p2 = PotentialProfile([Segment(-3.0, -1.0, [[0.2]]), Segment(-1.0, 3.0, [[0.0]])])
    sol = solve_dirac(diagonal_profile([p1, p2]), 1.6, Scattering([1.0, 0.7]))
    xs = np.linspace(-2.5, 2.5, 501)
    tc = transformed_current(sol, (1, 2), identity_transform(), xs)
    pc = dirac_current(sol, None, (1, 2), xs)
    assert np.array_equal(tc.j1, pc.j1)
    assert np.array_equal(tc.j0, pc.j0)


# ---------------------------------------------------------------------------
# 10. Gauge diagnostic


def test_zero_gauge_field_matches_ungauged_residual(bases):
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
    assert np.abs(gauged.residual - plain.residual).max() <= 1e-13


def test_constant_abelian_field_converges_second_order(bases):
    alpha = 0.4
    shifted = np.array([1.5 - alpha / 2, 0.9 + alpha / 2])
    sol = free_stack(shifted)
    norms = {}
    for n_pts in (161, 321):
        grid = np.linspace(-2.0, 2.0, n_pts)
        a_fields = np.zeros((3, 2, n_pts))
        a_fields[2, 0, :] = alpha
        psi = sol.evaluate(grid)
        rep = gauge_residual(
            psi, GaugeConfig(grid, a_fields), bases[2], 1, energies=shifted
        )
        norms[n_pts] = rep.residual_rms
    assert 3.6 <= norms[161] / norms[321] <= 4.4


# ---------------------------------------------------------------------------
# 11. Tooling contracts


def test_scenarios_round_trip_exactly():
    for name in builtin_scenario_names():
        s = load_builtin(name)
        assert scenario_from_dict(serialize_scenario(s)) == s


def test_reruns_are_byte_identical(tmp_path):
    payloads = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        write_reports(run_scenario(load_builtin("fig2")), str(out))
        payloads.append(
            {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        )
    assert payloads[0] == payloads[1]


def test_cli_exit_status_contract(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")

    def run(argv):
        try:
            code = cli_main(argv)
        except SystemExit as e:
            code = int(e.code or 0)
        out, err = capsys.readouterr()
        return code, out, err

    ok = str(tmp_path / "ok")
    code, out, _ = run(["run", "--scenario", "fig2", "--lambda", "0", "--out", ok])
    assert code == 0 and "verdict: pass" in out
    assert json.loads(Path(ok, "summary.json").read_text())["domains"]["count"] == 1

    bad = str(tmp_path / "bad")
    code, out, _ = run(["run", "--scenario", "fig1a", "--tol", "1e-18", "--out", bad])
    assert code == 1 and "verdict: fail" in out
    assert os.path.exists(os.path.join(bad, "summary.json"))

    code, _, err = run(["run", "--scenario", "nope"])
    assert code == 2 and err

    code, out, _ = run(["--help"])
    assert code == 0
    assert out == (DATA / "help_main.txt").read_text()
