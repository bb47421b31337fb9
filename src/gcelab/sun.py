"""SU(N) generator basis, structure constants, and Hermitian potential decomposition.

The basis is the generalized Gell-Mann one: for each column index n = 2..N the
symmetric and antisymmetric off-diagonal pairs involving column n come first,
followed by the Cartan (diagonal) generator at position n**2 - 1.  Generators
are normalized to Tr(T_a T_b) = delta_ab / 2, so for N = 2 they are the Pauli
matrices over two and the structure constants reduce to the Levi-Civita symbol.

Generator indices ``a`` are 1-based throughout the public API (a = 1..N**2-1),
matching the conventional names T_3, T_8, C_8 and so on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


class RankError(ValueError):
    """Raised when an SU(N) rank outside n >= 2 is requested."""


def _hermitian_or_raise(v: np.ndarray, n: int, what: str = "matrix") -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    if v.shape != (n, n):
        raise ValueError(f"{what} must have shape ({n}, {n}), got {v.shape}")
    scale = max(1.0, float(np.abs(v).max()))
    if np.abs(v - v.conj().T).max() > 1e-12 * scale:
        raise ValueError(f"{what} is not Hermitian to 1e-12 relative tolerance")
    return v


class SunBasis:
    """Ordered su(N) generator basis with cached structure constants.

    Attributes
    ----------
    n : int
        Rank of the group, n >= 2.
    generators : ndarray, shape (n**2 - 1, n, n)
        Hermitian traceless generators T_a with Tr(T_a T_b) = delta_ab / 2,
        indexed 0-based internally; generator ``a`` (1-based) is
        ``generators[a - 1]``.
    """

    def __init__(self, n: int):
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 2:
            raise RankError(f"SU(N) rank must be an integer >= 2, got {n!r}")
        self.n = int(n)
        self.generators = _build_generators(self.n)

    @property
    def dim(self) -> int:
        """Number of generators, N**2 - 1."""
        return self.n * self.n - 1

    @property
    def cartan_indices(self) -> tuple[int, ...]:
        """1-based positions of the diagonal generators: n**2 - 1 for n = 2..N."""
        return tuple(m * m - 1 for m in range(2, self.n + 1))

    def generator(self, a: int) -> np.ndarray:
        """Return T_a for a 1-based generator index."""
        if not 1 <= a <= self.dim:
            raise ValueError(f"generator index a must be in 1..{self.dim}, got {a}")
        return self.generators[a - 1]

    @cached_property
    def structure_constants(self) -> np.ndarray:
        """Dense antisymmetric f_abc with [T_a, T_b] = i f_abc T_c (0-based axes).

        For Hermitian generators f_abc = -2i Tr([T_a, T_b] T_c) = 4 Im Tr(T_a T_b T_c),
        so all G**3 traces come from one GEMM of the G**2 products T_a T_b
        against the transposed generators.
        """
        t = self.generators
        g, n = t.shape[0], self.n
        prod = (t[:, None] @ t[None, :]).reshape(g * g, n * n)
        traces = prod @ t.transpose(0, 2, 1).reshape(g, n * n).T
        f = 4.0 * traces.imag.reshape(g, g, g)
        f[np.abs(f) < 1e-14] = 0.0
        return f


def _build_generators(n: int) -> np.ndarray:
    gens = np.zeros((n * n - 1, n, n), dtype=complex)
    pos = 0
    for col in range(2, n + 1):
        for row in range(1, col):
            i, j = row - 1, col - 1
            sym = np.zeros((n, n), dtype=complex)
            sym[i, j] = sym[j, i] = 0.5
            gens[pos] = sym
            pos += 1
            asym = np.zeros((n, n), dtype=complex)
            asym[i, j] = -0.5j
            asym[j, i] = 0.5j
            gens[pos] = asym
            pos += 1
        # Cartan generator lands at 1-based index col**2 - 1 by construction.
        diag = np.zeros(n, dtype=complex)
        diag[: col - 1] = 1.0
        diag[col - 1] = -(col - 1)
        gens[pos] = np.diag(diag * np.sqrt(0.5 / (col * (col - 1))))
        pos += 1
    return gens


def build_basis(n: int) -> SunBasis:
    """Construct the generalized Gell-Mann basis for su(n)."""
    return SunBasis(n)


def structure_constants(basis: SunBasis) -> np.ndarray:
    """Structure constants f_abc of the basis (dense, 0-based axes)."""
    return basis.structure_constants


@dataclass(frozen=True)
class PotentialDecomposition:
    """Step-function coefficients of V(x) = v0(x) I + sum_k c_k(x) T_k.

    ``cuts`` are the interior jump positions; segment s covers
    (cuts[s-1], cuts[s]) with the outer segments extending to -inf and +inf.
    Values at a cut follow the right-continuous convention.
    """

    basis: SunBasis
    cuts: np.ndarray
    v0: np.ndarray
    c: np.ndarray

    @property
    def n_segments(self) -> int:
        return len(self.v0)

    def segment_of(self, x: np.ndarray | float, side: str = "right") -> np.ndarray:
        """Segment index for each sample; ``side`` breaks ties at a cut."""
        which = "right" if side == "right" else "left"
        return np.searchsorted(self.cuts, np.asarray(x, dtype=float), side=which)

    def v0_at(self, x: np.ndarray | float, side: str = "right") -> np.ndarray:
        return self.v0[self.segment_of(x, side)]

    def reconstruct(self, s: int) -> np.ndarray:
        """Hermitian matrix of segment s rebuilt from its coefficients."""
        t = self.basis.generators
        return self.v0[s] * np.eye(self.basis.n) + np.tensordot(self.c[s], t, axes=1)


def decompose(v, basis: SunBasis) -> PotentialDecomposition:
    """Decompose a Hermitian matrix or a potential profile.

    Accepts a single (n, n) Hermitian matrix, or any object with
    ``segment_matrices`` and ``interior_cuts`` attributes (a PotentialProfile),
    whose segments are decomposed one each.  Coefficients are v0 = Tr(V)/n
    and c_k = 2 Tr(V T_k); both are real for Hermitian input and satisfy
    V = v0 I + sum_k c_k T_k exactly.
    """
    n = basis.n
    if hasattr(v, "segment_matrices") and hasattr(v, "interior_cuts"):
        mats = np.asarray(v.segment_matrices, dtype=complex)
        cuts = np.asarray(v.interior_cuts, dtype=float)
    else:
        mats = np.asarray(v, dtype=complex)[None]
        cuts = np.zeros(0)
    for s in range(mats.shape[0]):
        _hermitian_or_raise(mats[s], n, what=f"segment {s} potential")
    v0 = np.einsum("sii->s", mats).real / n
    c = 2.0 * np.einsum("sij,aji->sa", mats, basis.generators).real
    return PotentialDecomposition(basis=basis, cuts=cuts, v0=v0, c=c.copy())


def source_operator(decomp: PotentialDecomposition, a: int | None = None) -> np.ndarray:
    """Per-segment Hermitian source matrices S_a = sum_bc f_abc c_b T_c.

    ``a`` is 1-based.  The result has shape (n_segments, n, n) aligned with
    ``decomp.cuts``; the source term of the continuity equation for generator
    a is the bilinear of S_a(x) in the stacked state.  Without ``a`` every
    generator's stack comes at once, shape (n**2 - 1, n_segments, n, n).
    Since [T_a, T_b] = i f_abc T_c, the sum is the commutator S_a = -i [T_a, V]
    with the traceless part V = sum_b c_b T_b of each segment, so S_a vanishes
    wherever T_a commutes with V and the structure constants are never formed.
    """
    basis = decomp.basis
    t = basis.generators[:, None] if a is None else basis.generator(a)
    n = basis.n
    v = (decomp.c @ basis.generators.reshape(basis.dim, n * n)).reshape(-1, n, n)
    return -1j * (t @ v - v @ t)
