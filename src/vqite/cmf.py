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

All five steps run batched over the rows of a Hamiltonian stack, one pass
per step: steps 1-3 over the conditioning weights of every row (B, 2B and
4B: the checked seed, then v v^dagger of eigenvectors v whose norms each pass
checks, densities as built), each partial trace one gather through a compiled
trace plan and each spectrum one eigh of a stack; steps 4-5 over the
candidates of every row, one Gram-Schmidt sweep and one Pauli expansion.
cmf_reduce_rows is that batch, a stack in and a stacked reduction out; one
failing row fails it, and a scan then reduces each row alone (cli.run_scan).
A reduction keeps what the steps decide as arrays (its `selection` record);
selection_notes formats them as the key=value notes of cmf_selection.txt,
which only the writer of that file calls.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .pauli import (PAULI_MATRICES, PauliHamiltonian, dense_matrices, partial_traces,
                    pauli_decompose)
from .simulator import DensityMatrix, projectors
from .spectra import DEGENERACY_GAP, gap_flags, stacked_spectrum

GRAM_RANK_TOL = 1e-8


# The one-layer split: subsystem a (kept), b (averaged), and b's seed state.
SUBSYSTEM_A = (0, 1)
SUBSYSTEM_B = (2,)
INITIAL_RHO_B = DensityMatrix(0.5 * (PAULI_MATRICES["I"] + PAULI_MATRICES["X"]))


# Steps 1-3 as passes: the tags of each pass's conditioned Hamiltonians, and its kept side.
PASSES = ((("h_a0",), SUBSYSTEM_A),
          (("h_b(a_g)", "h_b(a_e)"), SUBSYSTEM_B),
          (("h_a1(b_g(a_g))", "h_a1(b_e(a_g))", "h_a1(b_g(a_e))", "h_a1(b_e(a_e))"), SUBSYSTEM_A))


class EffectiveHamiltonian(NamedTuple):
    """CMF-reduced Hamiltonian plus the basis back-map, of one row or of B.

    `basis_isometry` columns are the orthonormal effective basis vectors in
    the original 8-dimensional space, (8, 4) or (B, 8, 4); `selection`
    records what the steps decided, as arrays of the stack reduced (of one
    row for cmf_reduce): each pass of PASSES as its (tags, B, k) eigenvalue
    stack, and each row's count of candidates used (B,).  selection_notes
    formats it.
    """

    h_eff: PauliHamiltonian
    basis_isometry: np.ndarray
    selection: tuple[tuple[np.ndarray, ...], np.ndarray]


def cmf_reduce(h: PauliHamiltonian) -> EffectiveHamiltonian:
    """Run the layered reduction on one Hamiltonian: cmf_reduce_rows of its one row."""
    h.one_row("cmf_reduce_rows")
    h_eff, iso, record = cmf_reduce_rows(h)
    return EffectiveHamiltonian(PauliHamiltonian(h_eff.words, h_eff.coeffs[0], 2), iso[0], record)


def cmf_reduce_rows(h: PauliHamiltonian) -> EffectiveHamiltonian:
    """Steps 1-5 run once for every row of a stack (one Hamiltonian reads as
    one row); each row equals cmf_reduce of that row alone bit for bit."""
    if h.n_qubits != 3:
        raise ValueError("the one-layer reduction is defined for 3-qubit input")
    labels, coeffs = h.words, np.atleast_2d(h.coeffs)
    rows, eigenvalues = len(coeffs), []

    def conditioned(tags, keep, rho):  # one pass of PASSES; (tag, row, ...) spectra
        words, reduced = partial_traces(labels, np.concatenate([coeffs] * len(tags)), keep, rho)
        vals, vecs = (a.reshape(len(tags), rows, *a.shape[1:]) for a in
                      stacked_spectrum(dense_matrices(words, reduced, len(keep))))
        eigenvalues.append(vals)
        return vals, vecs

    # Step 1: seed reduction and the two lowest a states.
    a_vecs = conditioned(*PASSES[0], INITIAL_RHO_B.elements[None].repeat(rows, axis=0))[1][0]

    # Step 2: b conditioned on each a state (ground, excited per a state).
    av = np.concatenate([a_vecs[:, :, 0], a_vecs[:, :, 1]])
    _, b_vecs = conditioned(*PASSES[1], projectors(av))
    bs = b_vecs.transpose(0, 3, 1, 2).reshape(4 * rows, 2)   # b_g(a_g), b_e(a_g), ...

    # Step 3: a conditioned on each b state, and its two lowest states.
    a_vals, a_vecs = conditioned(*PASSES[2], projectors(bs))

    # Step 4 candidates: the np.kron of each b state with the lowest (primary)
    # and the second (secondary) a state of its own conditioned Hamiltonian.
    bs = bs.reshape(4, rows, 2).swapaxes(0, 1)[:, None, :, None]
    cands = (a_vecs[..., :2].transpose(1, 3, 0, 2)[..., None] * bs).reshape(rows, 2, 4, 8)
    return _select_basis(dense_matrices(labels, coeffs, 3), cands, a_vals[:, :, 1].T,
                         tuple(eigenvalues))


def selection_notes(eff: EffectiveHamiltonian) -> tuple[tuple[str, ...], ...]:
    """The selection steps of each row of a reduction as plain key=value lines,
    a tuple per row: each pass's two lowest eigenvalues, after a tie-break
    note where gap_flags marks the level read (an a spectrum's second, a b
    one's first), then the Gram-Schmidt counts and the row's own term count."""
    eigenvalues, used = eff.selection
    notes = [[f"partition.a={SUBSYSTEM_A}", f"partition.b={SUBSYSTEM_B}"] for _ in used]
    for (tags, keep), vals in zip(PASSES, eigenvalues):
        level = int(keep == SUBSYSTEM_A)   # a (steps 1 and 3) notes level 1, b (step 2) level 0
        key, tie = ("lowest", f" (gap below {DEGENERACY_GAP})") if level else ("eigenvalues", "")
        # the two lowest of every (tag, row) in one % and one tolist, a line each
        template = "".join(f"{tag}.{key}=%.12g,%.12g\n" * len(notes) for tag in tags)
        lines = iter((template % tuple(vals[..., :2].ravel().tolist())).split("\n"))
        for tag, ties in zip(tags, gap_flags(vals)[..., level].tolist()):
            for row, line, flag in zip(notes, lines, ties):   # notes first: takes B lines
                if flag:
                    row.append(f"{tag}.tie_break=eigh-order{tie}")
                row.append(line)
    terms = np.count_nonzero(np.atleast_2d(eff.h_eff.coeffs), axis=1).tolist()   # each row's own
    return tuple((*row, "gram_schmidt.candidates_used=4",
                  f"gram_schmidt.rank_deficient_dropped={n - 4}", f"h_eff.terms={t}")
                 for row, n, t in zip(notes, used.tolist(), terms))


def _select_basis(h_dense: np.ndarray, cands: np.ndarray, second: np.ndarray,
                  eigenvalues: tuple[np.ndarray, ...]) -> EffectiveHamiltonian:
    """Steps 4 and 5 for all rows: order, orthonormalize and project.

    `h_dense` stacks the (B, 8, 8) Hamiltonians, `cands` the (B, 2, 4, 8)
    primary and secondary candidates, taken by ascending mean energy <v|H|v>
    and (B, 4) `second` eigenvalue, ties broken as sorted() breaks them on
    the coefficients rounded to 12 decimals; the record keeps `eigenvalues`,
    each pass's stack, and each row's count of candidates used."""
    rows, each = len(cands), np.arange(len(cands))
    v = cands[:, 0, :, :, None]     # <v|H|v>: (8, 8) @ (8, 1), then (1, 8) @ (8, 1)
    energy = (v.conj().swapaxes(-1, -2) @ (h_dense[:, None] @ v))[..., 0, 0].real
    keys = np.round(np.concatenate([cands.real, cands.imag], axis=-1), 12)
    order = np.lexsort((*np.moveaxis(keys, -1, 0)[::-1], np.stack([energy, second], axis=1)))
    cands = cands[each[:, None, None], np.arange(2)[:, None], order].reshape(rows, 8, 8, 1)

    # Gram-Schmidt over the candidate slots of all rows until each row holds 4
    # columns, dropping a candidate whose residual norm is below the tolerance;
    # basis[j] views column j and its conjugate.  Each row writes its residual
    # at column size[b], unread until a kept one fills it (a full row's: 4, unread)
    iso = np.zeros((rows, 8, 5), dtype=complex)
    bras = np.zeros((rows, 5, 1, 8), dtype=complex)
    basis = [(bras[:, j], iso[:, :, j:j + 1]) for j in range(4)]
    size, used = np.zeros((2, rows), dtype=np.intp)
    lo = hi = 0                          # the fewest and most columns of a row
    for cand in cands.swapaxes(0, 1):    # (B, 8, 1) per slot
        if lo == 4:
            break
        open_ = size < 4
        # a second projection pass keeps the basis orthonormal even when the
        # candidate was nearly dependent; the first pass's norm decides the drop
        once = _project(basis[:hi], size, lo, cand)
        twice = _project(basis[:hi], size, lo, once)
        # np.linalg.norm of each, bit for bit: one strided dot of the real parts, one of the imag
        re, im = (both := np.concatenate([once, twice])).real, both.imag
        first, norms = np.sqrt(re.swapaxes(-1, -2) @ re + im.swapaxes(-1, -2) @ im).reshape(2, -1)
        keep = open_ & ~(first < GRAM_RANK_TOL)
        column = twice / (norms + ~keep)[:, None, None]   # 0/0 never divides
        iso[each, :, size], bras[each, size] = column[..., 0], column.conj().swapaxes(-1, -2)
        used += open_
        size += keep
        lo, hi = min(columns := size.tolist()), max(columns)
    if lo < 4:
        raise ValueError("candidate products span fewer than 4 dimensions")

    iso = iso[:, :, :4].copy()
    h_eff = pauli_decompose(iso.conj().swapaxes(-1, -2) @ h_dense @ iso)
    return EffectiveHamiltonian(h_eff, iso, (eigenvalues, used))


def _project(basis: list, size: np.ndarray, lo: int, w: np.ndarray) -> np.ndarray:
    """Each column w[b] minus np.vdot(u, w) * u for the first size[b] basis
    columns u of row b in turn, bit for bit (basis: (conjugate row, column)
    of each basis column, up to the most any row holds; lo: the fewest)."""
    for j, (bra, ket) in enumerate(basis):
        step = w - (bra @ w) * ket
        w = step if j < lo else np.where((j < size)[:, None, None], step, w)
    return w


def lift_amplitudes(eff: EffectiveHamiltonian, amplitudes: np.ndarray) -> np.ndarray:
    """Lift reduced 2-qubit amplitudes, (4,) or a stack's (B, 4) rows, into the 3-qubit space."""
    return (eff.basis_isometry @ np.asarray(amplitudes, dtype=complex)[..., None])[..., 0]
