"""One-layer cluster-mean-field reduction of a 3-qubit Hamiltonian.

The Hamiltonian is split into subsystem a (q0, q1) and b (q2).
Starting from rho_b = (I + X)/2, the layered procedure alternates reduced
Hamiltonians:

    1. H_a = Tr_b((I_a x rho_b) H); keep its two lowest eigenstates.
    2. For each, H_b = Tr_a((rho_a x I_b) H); collect the four b
       eigenstates (ground and excited, conditioned on each a state).
    3. For each b state, H_a conditioned on it; keep the two lowest
       a eigenstates (eight in total).
    4. Pair each b state with the lowest a state of its own conditioned
       Hamiltonian, giving four product candidates; Gram-Schmidt them in
       ascending order of mean energy <psi|H|psi>.  If the candidates are
       rank-deficient, the next-lowest a states are appended in energy
       order until rank 4 is reached.
    5. Project H onto the orthonormal basis and expand in Pauli form.

The resulting 2-qubit effective Hamiltonian comes with the 8x4 isometry
whose columns are the basis vectors; lifting a reduced state through it
evaluates energies against the original Hamiltonian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli import (PAULI_MATRICES, PauliHamiltonian, pauli_decompose,
                    to_dense_matrix, weighted_partial_trace)
from .simulator import DensityMatrix
from .spectra import DEGENERACY_GAP, exact_spectrum

GRAM_RANK_TOL = 1e-8


# The one-layer split: subsystem a (kept), b (averaged), and b's seed state.
SUBSYSTEM_A = (0, 1)
SUBSYSTEM_B = (2,)
INITIAL_RHO_B = DensityMatrix(0.5 * (PAULI_MATRICES["I"] + PAULI_MATRICES["X"]))


@dataclass(frozen=True)
class EffectiveHamiltonian:
    """CMF-reduced Hamiltonian plus the basis back-map.

    `basis_isometry` columns are the orthonormal effective basis vectors
    in the original 8-dimensional space; `provenance` records the
    selection steps as plain key=value lines.
    """

    h_eff: PauliHamiltonian
    basis_isometry: np.ndarray
    provenance: tuple[str, ...]


def _two_lowest(h: PauliHamiltonian, notes: list[str], label: str):
    spec = exact_spectrum(h)
    if spec.degeneracy_flags[1]:
        notes.append(f"{label}.tie_break=eigh-order (gap below {DEGENERACY_GAP})")
    vals, vecs = spec.eigenvalues, spec.eigenstates
    return [vecs[:, 0], vecs[:, 1]], [float(vals[0]), float(vals[1])]


def _coeff_key(vec: np.ndarray) -> tuple:
    return tuple(np.round(np.concatenate([vec.real, vec.imag]), 12))


def cmf_reduce(h: PauliHamiltonian) -> EffectiveHamiltonian:
    """Run the layered reduction; deterministic for identical input."""
    if h.n_qubits != 3:
        raise ValueError("the one-layer reduction is defined for 3-qubit input")
    notes: list[str] = [
        f"partition.a={SUBSYSTEM_A}",
        f"partition.b={SUBSYSTEM_B}",
    ]

    h_dense = to_dense_matrix(h)

    # Step 1: seed reduction and the two lowest a states.
    h_a0 = weighted_partial_trace(h, SUBSYSTEM_A, INITIAL_RHO_B)
    a_states, a_vals = _two_lowest(h_a0, notes, "h_a0")
    notes.append(f"h_a0.lowest={a_vals[0]:.12g},{a_vals[1]:.12g}")

    # Step 2: b conditioned on each a state (ground, excited per a state).
    b_states: list[np.ndarray] = []
    for tag, av in zip(("a_g", "a_e"), a_states):
        rho_a = DensityMatrix(np.outer(av, av.conj()))
        spec = exact_spectrum(weighted_partial_trace(h, SUBSYSTEM_B, rho_a))
        if spec.degeneracy_flags[0]:
            notes.append(f"h_b({tag}).tie_break=eigh-order")
        vals, vecs = spec.eigenvalues, spec.eigenstates
        b_states += [vecs[:, 0], vecs[:, 1]]
        notes.append(f"h_b({tag}).eigenvalues={vals[0]:.12g},{vals[1]:.12g}")

    # Step 3: a conditioned on each b state; two lowest each.
    b_tags = ("b_g(a_g)", "b_e(a_g)", "b_g(a_e)", "b_e(a_e)")
    primary: list[np.ndarray] = []
    secondary: list[tuple[float, np.ndarray]] = []
    for tag, bv in zip(b_tags, b_states):
        rho_b = DensityMatrix(np.outer(bv, bv.conj()))
        h_a1 = weighted_partial_trace(h, SUBSYSTEM_A, rho_b)
        lo_states, lo_vals = _two_lowest(h_a1, notes, f"h_a1({tag})")
        notes.append(f"h_a1({tag}).lowest={lo_vals[0]:.12g},{lo_vals[1]:.12g}")
        primary.append(np.kron(lo_states[0], bv))
        secondary.append((lo_vals[1], np.kron(lo_states[1], bv)))

    def mean_energy(vec: np.ndarray) -> float:
        return float(np.vdot(vec, h_dense @ vec).real)

    ordered = sorted(primary, key=lambda v: (mean_energy(v), _coeff_key(v)))
    fallback = [v for _, v in sorted(secondary, key=lambda t: (t[0], _coeff_key(t[1])))]

    basis: list[np.ndarray] = []
    used, dropped = 0, 0
    for cand in ordered + fallback:
        if len(basis) == 4:
            break
        w = cand.copy()
        for u in basis:
            w = w - np.vdot(u, w) * u
        norm = float(np.linalg.norm(w))
        if norm < GRAM_RANK_TOL:
            dropped += 1
            continue
        # second projection pass keeps the basis orthonormal even when the
        # candidate was nearly dependent
        for u in basis:
            w = w - np.vdot(u, w) * u
        basis.append(w / np.linalg.norm(w))
        used += 1
    if len(basis) < 4:
        raise ValueError("candidate products span fewer than 4 dimensions")
    notes.append(f"gram_schmidt.candidates_used={used}")
    notes.append(f"gram_schmidt.rank_deficient_dropped={dropped}")

    iso = np.column_stack(basis)
    h_eff_dense = iso.conj().T @ h_dense @ iso
    h_eff = pauli_decompose(h_eff_dense)
    notes.append(f"h_eff.terms={h_eff.n_terms}")
    return EffectiveHamiltonian(h_eff, iso, tuple(notes))


def lift_amplitudes(eff: EffectiveHamiltonian, amplitudes: np.ndarray) -> np.ndarray:
    """Map reduced 2-qubit amplitudes into the original 3-qubit space."""
    return eff.basis_isometry @ np.asarray(amplitudes, dtype=complex)
