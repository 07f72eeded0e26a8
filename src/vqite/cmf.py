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

Steps 1-3 run batched over all rows of a scan, one pass per step over the
conditioning weights of every row (B, 2B and 4B): each partial trace one
gather through a compiled trace plan, each spectrum one eigh of a stack.
Steps 4-5 run per row.  Each row equals its reduction alone, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli import (PAULI_MATRICES, PauliHamiltonian, check_density, dense_matrices,
                    partial_traces, pauli_decompose, term_columns)
from .simulator import DensityMatrix
from .spectra import DEGENERACY_GAP, stacked_spectrum

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


def _coeff_key(vec: np.ndarray) -> tuple:
    return tuple(np.round(np.concatenate([vec.real, vec.imag]), 12))


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.outer of each row pair of two (B, d) stacks, as a (B, d, d) stack."""
    return a[:, :, None] * b[:, None, :]


def cmf_reduce_rows(hamiltonians) -> list[EffectiveHamiltonian]:
    """Run the layered reduction on every row; deterministic, and each row
    equals cmf_reduce of that row alone bit for bit."""
    hs = list(hamiltonians)
    finish = cmf_stages(hs)
    return [finish(b) for b in range(len(hs))]


def cmf_reduce(h: PauliHamiltonian) -> EffectiveHamiltonian:
    """Run the layered reduction on one Hamiltonian."""
    return cmf_reduce_rows([h])[0]


def cmf_stages(hs: list[PauliHamiltonian]):
    """finish(b) -> the reduction of hs[b], with steps 1-3 run once for all
    rows and steps 4-5 per call, so that a scan holds one row's Pauli terms
    at a time.  If the batch raises, finish(b) reduces row b alone, and only
    the rows that fail alone raise."""
    try:
        return _stages(hs)
    except Exception:  # any failing row fails the whole batch
        return lambda b: _stages(hs[b:b + 1])(0)


def _stages(hs: list[PauliHamiltonian]):
    """Steps 1-3 for all rows at once; returns finish(b) for steps 4-5."""
    if any(h.n_qubits != 3 for h in hs):
        raise ValueError("the one-layer reduction is defined for 3-qubit input")
    labels, coeffs, rows = *term_columns(hs), len(hs)
    stages = []         # (tag, eigenvalues, degeneracy flags, level noted)

    def conditioned(tags, keep, rho, level):  # one pass, a block of rows per tag
        words, reduced = partial_traces(labels, np.tile(coeffs, (len(tags), 1)), keep,
                                        check_density(rho), 3)
        vals, vecs, flags = stacked_spectrum(dense_matrices(words, reduced, len(keep)))
        cut = [slice(t * rows, (t + 1) * rows) for t in range(len(tags))]
        stages.extend([(tag, vals[c], flags[c], level) for tag, c in zip(tags, cut)])
        return [(vals[c], vecs[c]) for c in cut]

    # Step 1: seed reduction and the two lowest a states.
    seed = np.broadcast_to(INITIAL_RHO_B.elements, (rows, 2, 2))
    [(_, a_vecs)] = conditioned(["h_a0"], SUBSYSTEM_A, seed, 1)

    # Step 2: b conditioned on each a state (ground, excited per a state).
    av = np.concatenate([a_vecs[:, :, 0], a_vecs[:, :, 1]])
    b_states = [vecs[:, :, k] for _, vecs in conditioned(
        ["h_b(a_g)", "h_b(a_e)"], SUBSYSTEM_B, _outer(av, av.conj()), 0) for k in (0, 1)]

    # Step 3: a conditioned on each b state; (two lowest, b state, eigenvalues) each.
    b_all = np.concatenate(b_states)
    b_tags = ("b_g(a_g)", "b_e(a_g)", "b_g(a_e)", "b_e(a_e)")
    step3 = conditioned([f"h_a1({tag})" for tag in b_tags], SUBSYSTEM_A,
                        _outer(b_all, b_all.conj()), 1)
    pairs = [(vecs[:, :, :2].copy(), b, vals) for b, (vals, vecs) in zip(b_states, step3)]

    # The stage arrays stay alive for the whole scan; what finish needs of one
    # row beyond them (H dense, the product candidates) is built per row.
    def finish(b: int) -> EffectiveHamiltonian:
        notes = [f"partition.a={SUBSYSTEM_A}", f"partition.b={SUBSYSTEM_B}"]
        for tag, vals, flags, level in stages:  # steps 1 and 3 note level 1, step 2 level 0
            if flags[b, level]:
                notes.append(f"{tag}.tie_break=eigh-order"
                             + (f" (gap below {DEGENERACY_GAP})" if level else ""))
            notes.append(f"{tag}.{'lowest' if level else 'eigenvalues'}="
                         f"{float(vals[b, 0]):.12g},{float(vals[b, 1]):.12g}")
        return _select_basis(dense_matrices(labels, coeffs[b:b + 1], 3)[0],
                             [np.kron(a[b, :, 0], bv[b]) for a, bv, _ in pairs],
                             [(float(v[b, 1]), np.kron(a[b, :, 1], bv[b])) for a, bv, v in pairs],
                             notes)

    return finish


def _select_basis(h_dense: np.ndarray, primary: list[np.ndarray],
                  secondary: list[tuple[float, np.ndarray]],
                  notes: list[str]) -> EffectiveHamiltonian:
    """Steps 4 and 5 for one row: order, orthonormalize and project."""
    # ascending mean energy <v|H|v>
    ordered = sorted(primary, key=lambda v: (float(np.vdot(v, h_dense @ v).real),
                                             _coeff_key(v)))
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
