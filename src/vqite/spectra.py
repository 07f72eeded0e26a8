"""Exact diagonalization oracle, Gershgorin bounds, excited-state lift.

The lift rearranges a Hamiltonian's levels so its first excited state
becomes the new ground state: H' = H + (E_max - E_0) |g><g|, where E_max
is any upper bound on the spectrum (here the Gershgorin disc bound) and
|g><g| the measured ground state.  Ground-state solvers then find the old
first excited level.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .pauli import HERMITIAN_TOL, PauliHamiltonian, dense_matrices, pauli_decompose
from .simulator import DensityMatrix

DEGENERACY_GAP = 1e-9


class SpectrumResult(NamedTuple):
    """Ascending eigenvalues with matching orthonormal eigenvectors."""

    eigenvalues: np.ndarray
    eigenstates: np.ndarray          # column k belongs to eigenvalues[k]
    degeneracy_flags: tuple[bool, ...]

    @property
    def ground_energy(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def ground_state(self) -> np.ndarray:
        return self.eigenstates[:, 0]


class GershgorinBound(NamedTuple):
    """The upper bound on a Hermitian matrix's spectrum that its row discs give."""

    e_max: float                     # (B,) for a stack of matrices


def stacked_spectrum(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvectors of each Hermitian matrix in a
    (B, k, k) stack.  Each eigenvector is scaled so its largest-magnitude
    component is real and positive; gap_flags reads the values' degeneracies."""
    vals, vecs = np.linalg.eigh(m)
    pivot = vecs[np.arange(len(vecs))[:, None], np.abs(vecs).argmax(axis=-2),
                 np.arange(vecs.shape[-1])][:, None]
    # hypot is the scalar abs(pivot), which rounds unlike np.abs on an array;
    # the largest component of a unit vector is never 0
    return vals, vecs * (pivot.conj() / np.hypot(pivot.real, pivot.imag))


def gap_flags(vals: np.ndarray) -> np.ndarray:
    """Each level of ascending eigenvalues (..., k) that a neighbour lies
    within DEGENERACY_GAP of: a bool array of the same shape."""
    # np.minimum of floats, not | of bools: a bool loop faults in numpy code
    # pages nothing else here runs, which shows in peak RSS
    gaps = np.full((*vals.shape[:-1], vals.shape[-1] + 1), np.inf)
    np.subtract(vals[..., 1:], vals[..., :-1], out=gaps[..., 1:-1])
    return np.minimum(gaps[..., :-1], gaps[..., 1:]) < DEGENERACY_GAP


def exact_spectrum(h: PauliHamiltonian) -> SpectrumResult:
    """Full dense eigen-decomposition of a Hamiltonian, phase-normalized, ascending."""
    vals, vecs = stacked_spectrum(dense_matrices(h.words, h.one_row("stacked_spectrum"),
                                                 h.n_qubits))
    return SpectrumResult(vals[0], vecs[0], tuple(gap_flags(vals[0]).tolist()))


def gershgorin_emax(h_dense: np.ndarray) -> GershgorinBound:
    """Disc bound from matrix rows: center H_ii, radius sum_{j!=i} |H_ij|; of
    a Hermitian matrix, or one per matrix of a (B, k, k) stack (e_max (B,))."""
    m = np.asarray(h_dense, dtype=complex)
    if not np.max(np.abs(m - m.conj().swapaxes(-1, -2))) <= HERMITIAN_TOL:  # NaN fails too
        raise ValueError("Gershgorin bound expects a Hermitian matrix")
    a = np.abs(m)   # each row's |entries| summed as np.sum of the row, less |H_ii|
    e_max = (m.diagonal(0, -2, -1).real + (a.sum(axis=-1) - a.diagonal(0, -2, -1))).max(axis=-1)
    return GershgorinBound(e_max if e_max.ndim else float(e_max))


def lift_ground_state(h: PauliHamiltonian, ground: DensityMatrix,
                      e_max: float) -> PauliHamiltonian:
    """H' = H + (e_max - E_0) * ground, as a Pauli sum.

    With the exact ground projector and e_max >= lambda_max, the ground
    state of H' is the first excited state of H.  `ground` may be mixed
    (it typically comes out of a QITE run); E_0 = Tr(ground H).
    """
    dense = dense_matrices(h.words, h.one_row("_lift"), h.n_qubits)[0]
    return _lift(dense, ground.elements, e_max)


def _lift(h_dense: np.ndarray, ground: np.ndarray, e_max) -> PauliHamiltonian:
    """lift_ground_state of each dense matrix of `h_dense` (one, or a stack
    lifted to one stacked Hamiltonian) by its density array `ground`, valid as
    given (checked, or v v^dagger of a unit v)."""
    e0 = np.trace(ground @ h_dense, axis1=-2, axis2=-1).real
    if not np.all(e_max >= e0):  # NaN fails too
        raise ValueError(f"e_max {e_max} must be at least the current ground energy {e0}")
    return pauli_decompose(h_dense + (e_max - e0)[..., None, None] * ground)
