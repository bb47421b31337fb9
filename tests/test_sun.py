"""Algebra-layer tests: generator basis, structure constants, decomposition."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import random_hermitian
from gcelab.solvers import PotentialProfile, Segment
from gcelab.sun import (
    PotentialDecomposition,
    RankError,
    build_basis,
    decompose,
    source_operator,
    structure_constants,
)

PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# Canonical nonzero su(3) structure constants in the standard ordering,
# frozen from the brute-force trace formula (independent oracle below).
SU3_F = {
    (1, 2, 3): 1.0,
    (1, 4, 7): 0.5,
    (1, 5, 6): -0.5,
    (2, 4, 6): 0.5,
    (2, 5, 7): 0.5,
    (3, 4, 5): 0.5,
    (3, 6, 7): -0.5,
    (4, 5, 8): np.sqrt(3.0) / 2.0,
    (6, 7, 8): np.sqrt(3.0) / 2.0,
}


def brute_force_f(gens: np.ndarray) -> np.ndarray:
    """Loop-based -2i Tr([T_a, T_b] T_c), kept independent of the einsum path."""
    d = gens.shape[0]
    f = np.zeros((d, d, d))
    for a in range(d):
        for b in range(d):
            comm = gens[a] @ gens[b] - gens[b] @ gens[a]
            for c in range(d):
                f[a, b, c] = (-2j * np.trace(comm @ gens[c])).real
    return f


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_trace_orthonormality(bases, n):
    t = bases[n].generators
    gram = np.einsum("aij,bji->ab", t, t)
    assert np.abs(gram - 0.5 * np.eye(n * n - 1)).max() <= 1e-14
    traces = np.einsum("aii->a", t)
    assert np.abs(traces).max() <= 1e-14
    for mat in t:
        assert np.abs(mat - mat.conj().T).max() == 0.0


def test_n2_generators_are_half_pauli(bases):
    t = bases[2].generators
    np.testing.assert_allclose(t[0], PAULI["x"] / 2, atol=1e-15)
    np.testing.assert_allclose(t[1], PAULI["y"] / 2, atol=1e-15)
    np.testing.assert_allclose(t[2], PAULI["z"] / 2, atol=1e-15)


def test_cartan_positions(bases):
    for n in (2, 3, 4, 5):
        basis = bases[n]
        assert basis.cartan_indices == tuple(m * m - 1 for m in range(2, n + 1))
        for a in basis.cartan_indices:
            mat = basis.generator(a)
            assert np.abs(mat - np.diag(np.diag(mat))).max() == 0.0


def test_n2_structure_constants_are_levi_civita(bases):
    f = structure_constants(bases[2])
    eps = np.zeros((3, 3, 3))
    eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1.0
    eps[0, 2, 1] = eps[2, 1, 0] = eps[1, 0, 2] = -1.0
    assert np.abs(f - eps).max() <= 1e-14


def test_su3_table_and_brute_force_oracle(bases):
    basis = bases[3]
    f = structure_constants(basis)
    assert np.abs(f - brute_force_f(basis.generators)).max() <= 1e-14
    expect = np.zeros((8, 8, 8))
    for (a, b, c), val in SU3_F.items():
        for (i, j, k), sgn in (
            ((a, b, c), 1), ((b, c, a), 1), ((c, a, b), 1),
            ((b, a, c), -1), ((a, c, b), -1), ((c, b, a), -1),
        ):
            expect[i - 1, j - 1, k - 1] = sgn * val
    assert np.abs(f - expect).max() <= 1e-14


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_structure_constants_match_commutator_einsum_bitwise(n):
    """The one-GEMM 4 Im Tr(T_a T_b T_c) equals -2i Tr([T_a, T_b] T_c) exactly."""
    basis = build_basis(n)
    t = basis.generators
    comm = np.einsum("aij,bjk->abik", t, t) - np.einsum("bij,ajk->abik", t, t)
    ref = (-2j * np.einsum("abik,cki->abc", comm, t)).real.copy()
    ref[np.abs(ref) < 1e-14] = 0.0
    assert np.array_equal(basis.structure_constants, ref)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_antisymmetry_and_jacobi(bases, n):
    f = structure_constants(bases[n])
    assert np.abs(f + np.swapaxes(f, 0, 1)).max() <= 1e-13
    assert np.abs(f + np.swapaxes(f, 1, 2)).max() <= 1e-13
    jac = (
        np.einsum("abe,ecd->abcd", f, f)
        + np.einsum("bce,ead->abcd", f, f)
        + np.einsum("cae,ebd->abcd", f, f)
    )
    assert np.abs(jac).max() <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_commutator_closure(bases, n):
    basis = bases[n]
    t, f = basis.generators, basis.structure_constants
    comm = np.einsum("aij,bjk->abik", t, t) - np.einsum("bij,ajk->abik", t, t)
    rebuilt = 1j * np.einsum("abc,cij->abij", f, t)
    assert np.abs(comm - rebuilt).max() <= 1e-13


@pytest.mark.parametrize("n", [2, 3, 4])
def test_decompose_round_trip_random(bases, n):
    rng = np.random.default_rng(100 + n)
    basis = bases[n]
    for _ in range(30):
        v = random_hermitian(rng, n)
        d = decompose(v, basis)
        assert d.n_segments == 1
        assert np.abs(d.c.imag).max() == 0.0
        assert np.abs(d.reconstruct(0) - v).max() <= 1e-12


def test_closed_form_coefficients_n3(bases):
    rng = np.random.default_rng(7)
    basis = bases[3]
    v = random_hermitian(rng, 3)
    d = decompose(v, basis)
    c = d.c[0]
    assert abs(d.v0[0] - np.trace(v).real / 3) <= 1e-13
    assert abs(c[2] - (v[0, 0] - v[1, 1]).real) <= 1e-13
    assert abs(c[7] - (v[0, 0] + v[1, 1] - 2 * v[2, 2]).real / np.sqrt(3)) <= 1e-13
    # Adjacent off-diagonal pair (1,2): sym then asym coefficient.
    assert abs(c[0] - (v[0, 1] + v[1, 0]).real) <= 1e-13
    assert abs(c[1] - (1j * (v[0, 1] - v[1, 0])).real) <= 1e-13


@pytest.mark.parametrize("n", [3, 4, 5])
def test_closed_form_last_cartan(bases, n):
    rng = np.random.default_rng(40 + n)
    basis = bases[n]
    v = random_hermitian(rng, n)
    c = decompose(v, basis).c[0]
    diag = np.diag(v).real
    expect = (diag[:- 1].sum() - (n - 1) * diag[-1]) / np.sqrt(n * (n - 1) / 2.0)
    assert abs(c[-1] - expect) <= 1e-13


def test_frozen_diagonal_example(bases):
    d = decompose(np.diag([1.0, 2.0, 3.0]), bases[3])
    assert abs(d.v0[0] - 2.0) <= 1e-15
    assert abs(d.c[0][2] + 1.0) <= 1e-15
    assert abs(d.c[0][7] + np.sqrt(3.0)) <= 1e-14
    others = np.delete(d.c[0], [2, 7])
    assert np.abs(others).max() <= 1e-15


def test_single_pair_matches_adjacent_pattern(bases):
    p = 0.8 - 0.3j
    v = np.zeros((3, 3), dtype=complex)
    v[0, 1], v[1, 0] = p, np.conj(p)
    c = decompose(v, bases[3]).c[0]
    assert abs(c[0] - 2 * p.real) <= 1e-14
    assert abs(c[1] + 2 * p.imag) <= 1e-14
    assert np.abs(np.delete(c, [0, 1])).max() <= 1e-14


def test_source_operator_su2_example(bases):
    basis = bases[2]
    v = np.diag([0.7, 0.2])
    d = decompose(v, basis)
    c3 = 0.5
    s1 = source_operator(d, 1)[0]
    np.testing.assert_allclose(s1, -c3 * basis.generator(2), atol=1e-14)
    s2 = source_operator(d, 2)[0]
    np.testing.assert_allclose(s2, c3 * basis.generator(1), atol=1e-14)
    assert np.abs(source_operator(d, 3)[0]).max() <= 1e-15


@pytest.mark.parametrize("n", [2, 3])
def test_source_operator_hermitian(bases, n):
    rng = np.random.default_rng(60 + n)
    basis = bases[n]
    d = decompose(random_hermitian(rng, n), basis)
    for a in range(1, basis.dim + 1):
        s = source_operator(d, a)[0]
        assert np.abs(s - s.conj().T).max() <= 1e-13




def profile_of(mats) -> PotentialProfile:
    """Unit-length segments carrying the given matrices."""
    return PotentialProfile([Segment(k, k + 1.0, v) for k, v in enumerate(mats)])

@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_source_operator_matches_structure_constant_contraction(n):
    """S_a = -i [T_a, V] equals sum_bc f_abc c_b T_c for every generator a."""
    rng = np.random.default_rng(400 + n)
    basis = build_basis(n)
    d = decompose(profile_of([random_hermitian(rng, n) for _ in range(3)]), basis)
    f, t = basis.structure_constants, basis.generators
    scale = np.abs(d.c).max()
    for a in range(1, basis.dim + 1):
        ref = np.einsum("sb,bc,cij->sij", d.c, f[a - 1], t)
        s = source_operator(d, a)
        assert s.shape == (3, n, n)
        assert np.abs(s - ref).max() <= 1e-13 * scale, a


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_source_operator_vanishes_for_cartan_generators_of_diagonal_potentials(n):
    """A diagonal V commutes with every Cartan T_a, so S_a is exactly zero."""
    rng = np.random.default_rng(500 + n)
    basis = build_basis(n)
    d = decompose(profile_of([np.diag(rng.normal(size=n)) for _ in range(2)]), basis)
    for a in basis.cartan_indices:
        assert np.all(source_operator(d, a) == 0.0), a


def test_rank_and_hermiticity_errors(bases):
    for bad in (1, 0, -3):
        with pytest.raises(RankError):
            build_basis(bad)
    with pytest.raises(ValueError, match="Hermitian"):
        decompose(np.array([[0.0, 1.0], [0.0, 0.0]]), bases[2])
    with pytest.raises(ValueError):
        source_operator(decompose(np.eye(2), bases[2]), 4)
    with pytest.raises(ValueError):
        bases[2].generator(0)


def test_decomposition_step_evaluation(bases):
    basis = bases[2]
    d = PotentialDecomposition(
        basis=basis,
        cuts=np.array([0.0, 1.0]),
        v0=np.array([0.0, 0.5, 1.0]),
        c=np.zeros((3, 3)),
    )
    np.testing.assert_allclose(d.v0_at([-1.0, 0.5, 2.0]), [0.0, 0.5, 1.0])
    # Right-continuous at the cut, left limit picks the earlier segment.
    assert d.v0_at(0.0) == 0.5
    assert d.v0_at(0.0, side="left") == 0.0
