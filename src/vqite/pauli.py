"""Exact algebra of Pauli strings and weighted Pauli sums.

Conventions used throughout the package:

    - A Pauli string is written with one letter per qubit, e.g. 'ZXI'.
    - The leftmost letter acts on qubit q0, and q0 occupies the MOST
      significant bit of the computational-basis index.  Equivalently,
      the dense matrix of a string is kron(P[s[0]], P[s[1]], ...).
    - Coefficients of a Hamiltonian are real (Hartree, for the molecular
      tables); the dense realization is therefore Hermitian.

Every cross-module identity (Hartree-Fock energies, reduced-Hamiltonian
traces, isometry back-maps) relies on this single ordering convention, so
it is defined here and nowhere else.

A Hamiltonian is one thing: n_qubits, a sorted tuple of distinct words and
a read-only float64 array of their coefficients, brought to that canonical
form by its constructor alone.  Every kernel reads words and (B, L)
coefficient rows; term_columns joins the rows of B Hamiltonians over the
union of their words, with 0.0 for a word a row lacks.

A word is a signed permutation (Aaronson & Gottesman, quant-ph/0406196),
memoized per word: row j of its matrix holds phase[j] = +-1 or +-i at column
src[j] = j ^ xmask, xmask marking the X and Y letters.  Products by it are
exact, so one gather and one multiply give the values of the Kronecker
product.  A word tuple is stacked once; H|psi> is one gather, multiply and
sum over the terms, and the dense matrices of B sums over one word tuple are
the stacked entries added into zeros, in the order and from the zero of a
term loop.  Traces read the one entry per row:
Tr(rho sigma) = sum_j rho[j, src[j]] phase[src[j]] and
Tr(sigma m) = sum_j phase[j] m[src[j], j], summed like the diagonal of the
matrix product, so they equal the dense forms bit for bit; partial traces
gather through a plan compiled once per word tuple and subsystem.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import chain, compress, product

import numpy as np

PAULI_LETTERS = "IXYZ"


def read_only(a: np.ndarray) -> np.ndarray:
    """`a`, marked read-only: for arrays that every circuit shares."""
    a.setflags(write=False)
    return a


PAULI_MATRICES = {
    "I": read_only(np.eye(2, dtype=complex)),
    "X": read_only(np.array([[0, 1], [1, 0]], dtype=complex)),
    "Y": read_only(np.array([[0, -1j], [1j, 0]], dtype=complex)),
    "Z": read_only(np.array([[1, 0], [0, -1]], dtype=complex)),
}

ROW_PHASES = {"I": (1, 1), "X": (1, 1), "Y": (-1j, 1j), "Z": (1, -1)}

DENSE_QUBIT_CAP = 12
COEFF_DROP_TOL = 1e-14
HERMITIAN_TOL = 1e-9
NORM_TOL = 1e-10


class DimensionCapError(ValueError):
    """Raised when a dense realization would exceed the qubit cap."""


@functools.lru_cache(maxsize=1024)
def _signed_permutation(letters: str) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (src, phase): row j of the matrix holds phase[j] at src[j]."""
    xmask = int("".join("1" if c in "XY" else "0" for c in letters), 2)
    src = np.arange(2 ** len(letters)) ^ xmask
    phase = functools.reduce(np.kron, map(ROW_PHASES.get, letters), np.ones(1, complex))
    return read_only(src), read_only(phase)


@functools.lru_cache(maxsize=256)
def _term_stack(labels: tuple[str, ...], n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (src, phase) of every word in `labels`, stacked to (L, 2^n)."""
    shape = (len(labels), 2 ** n_qubits)
    src, phase = zip(*map(_signed_permutation, labels)) if labels else ((), ())
    return (read_only(np.array(src, dtype=np.intp).reshape(shape)),
            read_only(np.array(phase, dtype=complex).reshape(shape)))


def _check_dense_cap(n_qubits: int) -> None:
    if n_qubits > DENSE_QUBIT_CAP:
        raise DimensionCapError(
            f"dense work is capped at {DENSE_QUBIT_CAP} qubits, got {n_qubits}"
        )


@dataclass(frozen=True, slots=True)
class PauliString:
    """A fixed-length word over {I, X, Y, Z}, one letter per qubit."""

    letters: str

    def __post_init__(self) -> None:
        if not self.letters:
            raise ValueError("Pauli string must have at least one letter")
        bad = set(self.letters) - set(PAULI_LETTERS)
        if bad:
            raise ValueError(f"invalid Pauli letters {sorted(bad)} in '{self.letters}'")

    @property
    def n_qubits(self) -> int:
        return len(self.letters)


@functools.lru_cache(maxsize=256)
def _merge_plan(words: tuple[str, ...], n_qubits: int) -> tuple[tuple[str, ...], np.ndarray]:
    """The sorted distinct words of `words`, each checked once, and the
    position among them of each input word."""
    for word in dict.fromkeys(words):
        if PauliString(word).n_qubits != n_qubits:
            raise ValueError(f"term '{word}' has {len(word)} qubits, expected {n_qubits}")
    position = {w: k for k, w in enumerate(sorted(set(words)))}
    return tuple(position), read_only(np.array([position[w] for w in words], dtype=np.intp))


class PauliHamiltonian:
    """Weighted sum of Pauli strings, H = sum_l coeffs[l] * words[l].

    Built in canonical form, by this constructor alone: every word checked,
    duplicate words merged by adding their coefficients from 0.0 in input
    order, terms with |coefficient| <= 1e-14 dropped, and the remaining
    words sorted (I < X < Y < Z), with a read-only float64 array of their
    coefficients.  n_qubits defaults to the width of the first word.
    """

    __slots__ = ("n_qubits", "words", "coeffs")

    def __init__(self, words, coeffs=(), n_qubits: int | None = None) -> None:
        words = tuple(words)
        self.n_qubits = n_qubits or (len(words[0]) if words else 0)
        if self.n_qubits <= 0:
            raise ValueError("empty Hamiltonian needs an explicit n_qubits")
        distinct, index = _merge_plan(words, self.n_qubits)
        c = np.asarray(coeffs, dtype=float).reshape(len(words))
        if not np.isfinite(c).all():
            k = int(np.isfinite(c).argmin())
            raise ValueError(f"term '{words[k]}' has non-finite coefficient {c[k]}")
        merged = np.bincount(index, weights=c, minlength=len(distinct))
        keep = np.abs(merged) > COEFF_DROP_TOL
        self.words, self.coeffs = tuple(compress(distinct, keep.tolist())), read_only(merged[keep])

    @classmethod
    def from_pairs(cls, pairs, n_qubits: int | None = None) -> "PauliHamiltonian":
        """Build from (coefficient, letters) pairs."""
        pairs = list(pairs)
        return cls([w for _, w in pairs], [c for c, _ in pairs], n_qubits)

    @property
    def n_terms(self) -> int:
        return len(self.words)


def term_columns(hamiltonians) -> tuple[tuple[str, ...], np.ndarray]:
    """The sorted union of the words of B Hamiltonians and their (B, L)
    coefficients, 0.0 where a Hamiltonian lacks the word: the merge plan of
    all their words gives each coefficient its column."""
    hs = list(hamiltonians)
    labels, column = _merge_plan(tuple(chain.from_iterable([h.words for h in hs])), hs[0].n_qubits)
    coeffs = np.zeros((len(hs), len(labels)))
    coeffs[np.arange(len(hs)).repeat([h.n_terms for h in hs]), column] = np.concatenate(
        [h.coeffs for h in hs])
    return labels, coeffs


def weighted_terms(labels: tuple[str, ...], coeffs: np.ndarray, n_qubits: int) -> tuple:
    """(src, coeffs[b, l] phase_l[j]) of the Pauli sums coeffs[b] over `labels`:
    the (L, 2^n) term stack with each row's (B, L) coefficients multiplied in."""
    src, phase = _term_stack(labels, n_qubits)
    return src, coeffs[:, :, None] * phase


def dense_matrices(labels: tuple[str, ...], coeffs: np.ndarray, n_qubits: int) -> np.ndarray:
    """(B, 2^n, 2^n) dense matrices of the Pauli sums coeffs[b] over `labels`
    (n <= 12): entry l of row j added at column src_l[j], in term order."""
    _check_dense_cap(n_qubits)
    src, terms = weighted_terms(labels, coeffs, n_qubits)
    out = np.zeros((len(coeffs), src.shape[1], src.shape[1]), dtype=complex)
    np.add.at(out, (slice(None), np.arange(src.shape[1]), src), terms)
    return out


def to_dense_matrix(h: PauliHamiltonian) -> np.ndarray:
    """Dense 2^n x 2^n matrix of the Hamiltonian (n <= 12)."""
    return dense_matrices(h.words, h.coeffs[None], h.n_qubits)[0]


def apply_sums(labels: tuple[str, ...], coeffs: np.ndarray, psi: np.ndarray,
               terms=None, out=None) -> np.ndarray:
    """H_b |psi_b> for the Pauli sums H_b = coeffs[b] over `labels` and the
    rows of a (B, 2^n) stack: one gather, multiply and sum, adding the terms
    in order from zero (into `out`); a word a row lacks weighs 0.0 and moves
    no bit.  A run passes the weighted_terms it made once as `terms`."""
    src, weighted = terms or weighted_terms(labels, coeffs, psi.shape[-1].bit_length() - 1)
    return np.multiply(weighted, psi[:, src], out=None if terms else weighted).sum(
        axis=1, initial=0, out=out)


def expectations(labels: tuple[str, ...], coeffs: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """real_part of <psi_b|H_b|psi_b> of each row (apply_sums), a (1, L) @ (L, 1) matmul each."""
    h_psi = apply_sums(labels, coeffs, psi)
    return real_part((psi.conj()[:, None, :] @ h_psi[:, :, None])[:, 0, 0])


def real_part(value: np.ndarray) -> np.ndarray:
    """The real part of expectation values; an imaginary residual above 1e-10 raises."""
    bad = np.abs(value.imag) > 1e-10
    if bad.any():
        raise ArithmeticError(f"expectation has imaginary residual {value.imag[bad][0]:.3e}")
    return value.real


def expectation(h: PauliHamiltonian, state) -> float:
    """<psi|H|psi> for a statevector, as expectations of one row."""
    amps = state.amplitudes
    if amps.size != 2 ** h.n_qubits:
        raise ValueError("state and Hamiltonian dimensions disagree")
    return float(expectations(h.words, h.coeffs[None], amps[None])[0])


def check_density(m) -> np.ndarray:
    """`m` as a complex array once every matrix of the stack (..., 2^n, 2^n)
    is Hermitian, of unit trace and has no eigenvalue below -1e-9: for the
    densities a caller gives (v v^dagger of a unit v is one as built)."""
    m = np.asarray(m, dtype=complex)
    dim = m.shape[-1]
    if m.shape[-2:] != (dim, dim) or dim & (dim - 1):
        raise ValueError(f"density matrix shape {m.shape} is not square 2^n")
    if not np.max(np.abs(m - m.conj().swapaxes(-1, -2))) <= NORM_TOL:  # NaN fails too
        raise ValueError("density matrix is not Hermitian within 1e-10")
    if not np.max(np.abs(np.trace(m, axis1=-2, axis2=-1).real - 1.0)) <= NORM_TOL:
        raise ValueError("density matrix trace deviates from 1 beyond 1e-10")
    if np.linalg.eigvalsh(m).min() < -1e-9:
        raise ValueError("density matrix has an eigenvalue below -1e-9")
    return m


@functools.lru_cache(maxsize=256)
def _trace_plan(labels: tuple[str, ...], keep: tuple[int, ...], n_qubits: int):
    """Per term the flat index of rho[j, src[j]] and the phase[src[j]] of its
    complement word, the sorted reduced words, and the one each term lands on."""
    comp = [q for q in range(n_qubits) if q not in keep]
    src, phase = _term_stack(tuple(["".join(w[q] for q in comp) for w in labels]), len(comp))
    reduced = tuple(["".join(w[q] for q in keep) for w in labels])
    return (read_only(src + src.shape[1] * np.arange(src.shape[1])),
            read_only(np.take_along_axis(phase, src, axis=-1)), *_merge_plan(reduced, len(keep)))


def _row_sum(p: np.ndarray) -> np.ndarray:
    """Sum over the last axis, 2^k long, in the pairwise order numpy sums one
    contiguous complex row in, whatever the layout of `p`."""
    n = p.shape[-1]
    if n > 64:
        return _row_sum(p[..., :n // 2]) + _row_sum(p[..., n // 2:])
    if n < 4:
        return functools.reduce(np.add, [p[..., k] for k in range(n)])
    acc = functools.reduce(np.add, [p[..., k:k + 4] for k in range(0, n, 4)])
    return (acc[..., 0] + acc[..., 1]) + (acc[..., 2] + acc[..., 3])


def partial_traces(labels: tuple[str, ...], coeffs: np.ndarray, keep: tuple[int, ...],
                   rho: np.ndarray, n_qubits: int) -> tuple[tuple[str, ...], np.ndarray]:
    """Reduced words and (B, L') coefficients of Tr_b((I_a x rho[b]) H_b) for
    the Pauli sums H_b = coeffs[b] over `labels` and a checked (B, d_b, d_b)
    weight stack.  Coefficients merge from 0.0 in term order, and those with
    |c| <= 1e-14, which a PauliHamiltonian drops, are exact zeros."""
    flat, phase, words, index = _trace_plan(labels, keep, n_qubits)
    # Tr(rho sigma) = sum_j rho[j, src[j]] phase[src[j]], real for Hermitian rho.
    scalars = _row_sum(rho.reshape(len(rho), -1)[:, flat] * phase).real
    out = np.zeros((len(rho), len(words)))
    np.add.at(out, (slice(None), index), coeffs * scalars)
    return words, np.where(np.abs(out) <= COEFF_DROP_TOL, 0.0, out)


def weighted_partial_trace(h: PauliHamiltonian, subsystem, weight) -> PauliHamiltonian:
    """Tr_b((I_a x rho_b) H): replace complement letters by Tr(rho_b sigma_b).

    `subsystem` is the set of qubit indices kept; the reduced Hamiltonian's
    qubit j corresponds to sorted(subsystem)[j].  `weight` must be a density
    matrix on the complement qubits (sorted order, same bit convention); a
    raw array gets the checks of a DensityMatrix.
    """
    keep = sorted(set(subsystem))
    if any(q < 0 or q >= h.n_qubits for q in keep) or not keep:
        raise ValueError(f"subsystem {subsystem} malformed for {h.n_qubits} qubits")
    comp = [q for q in range(h.n_qubits) if q not in keep]
    if not comp:
        raise ValueError("subsystem covers all qubits; nothing to trace out")
    rho = np.asarray(getattr(weight, "elements", weight), dtype=complex)
    if rho.shape != (2 ** len(comp),) * 2:
        raise ValueError(
            f"weight has shape {rho.shape}, expected dim {2 ** len(comp)} on complement"
        )
    words, coeffs = partial_traces(h.words, h.coeffs[None], tuple(keep),
                                   check_density(rho)[None], h.n_qubits)
    return PauliHamiltonian(words, coeffs[0], len(keep))


def pauli_decompose(m: np.ndarray) -> PauliHamiltonian | list[PauliHamiltonian]:
    """Expand a Hermitian 2^k x 2^k matrix, or a (B, 2^k, 2^k) stack, in the Pauli basis.

    Coefficients are h_l = Tr(sigma_l m) / 2^k, a list of B Hamiltonians for a
    stack; the round trip through to_dense_matrix reproduces m to the same tolerance.
    """
    m = np.asarray(m, dtype=complex)
    dim = m.shape[-1]
    if m.ndim not in (2, 3) or m.shape[-2] != dim or dim & (dim - 1):
        raise ValueError(f"matrix shape {m.shape} is not square power-of-two")
    if not np.max(np.abs(m - m.conj().swapaxes(-1, -2)), initial=0) <= HERMITIAN_TOL:  # NaN too
        raise ValueError("matrix is not Hermitian within tolerance")
    k = dim.bit_length() - 1
    _check_dense_cap(k)
    labels = tuple(map("".join, product(PAULI_LETTERS, repeat=k)))
    src, phase = _term_stack(labels, k)
    # h_l = Tr(sigma_l m) / 2^k = sum_j phase_l[j] m[src_l[j], j] / 2^k, one row per word
    coeffs = _row_sum(phase * m[..., src, np.arange(dim)]).real / dim
    hs = [PauliHamiltonian(labels, c, k) for c in np.atleast_2d(coeffs)]
    return hs if m.ndim == 3 else hs[0]
