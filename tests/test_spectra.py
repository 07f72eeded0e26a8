"""Exact-diagonalization oracle, Gershgorin bounds, level lifting."""

import numpy as np
import pytest

from conftest import (check_gershgorin, coefficient, from_pairs, gershgorin_oracle,
                      random_hamiltonian_pairs, spectrum_oracle)
from vqite import (DensityMatrix, cmf_reduce, exact_spectrum, gershgorin_emax, hamiltonian_at,
                   lift_ground_state, pauli_decompose, to_dense_matrix)
from vqite.mclachlan import McLachlanSystem, solve_update
from vqite.pauli import DimensionCapError
from vqite.spectra import gap_flags, stacked_spectrum

NAN = float("nan")


def projector(vec):
    return DensityMatrix(np.outer(vec, vec.conj()))


def test_spectrum_of_z():
    spec = exact_spectrum(from_pairs([(1.0, "Z")]))
    assert np.allclose(spec.eigenvalues, [-1.0, 1.0])


def test_spectrum_of_x_eigenstates():
    spec = exact_spectrum(from_pairs([(1.0, "X")]))
    assert np.allclose(spec.eigenvalues, [-1.0, 1.0])
    minus = np.array([1.0, -1.0]) / np.sqrt(2)
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    assert abs(abs(np.vdot(spec.eigenstates[:, 0], minus)) - 1.0) < 1e-12
    assert abs(abs(np.vdot(spec.eigenstates[:, 1], plus)) - 1.0) < 1e-12


def test_spectrum_residuals_and_lih_reference(lih_r15):
    spec = exact_spectrum(lih_r15)
    dense = to_dense_matrix(lih_r15)
    for k in range(8):
        residual = dense @ spec.eigenstates[:, k] - spec.eigenvalues[k] * spec.eigenstates[:, k]
        assert np.max(np.abs(residual)) < 1e-9
    # Frozen regression constant, recorded from this oracle.
    assert spec.ground_energy == pytest.approx(-7.954370067642636, abs=1e-12)
    assert not spec.degeneracy_flags[0]


def test_spectrum_size_cap():
    with pytest.raises(DimensionCapError):
        exact_spectrum(from_pairs([(1.0, "Z" * 13)]))


def test_stacked_spectrum_is_exact_spectrum_per_matrix(lih_table, rng):
    # ZI + IZ has the degenerate middle pair 0, 0; 11- and 13-term rows of the
    # table, their reductions and random sums fill the rest of the stacks.
    rows = [hamiltonian_at(lih_table, r) for r in (0.5, 1.5, 3.0, 4.9, 5.0)]
    stacks = [rows, [from_pairs([(1.0, "ZI"), (1.0, "IZ")])]
              + [cmf_reduce(h).h_eff for h in rows]
              + [from_pairs(random_hamiltonian_pairs(rng, 2, 6), n_qubits=2)
                 for _ in range(3)]]
    degenerate = 0
    for hs in stacks:
        vals, vecs = stacked_spectrum(np.stack([to_dense_matrix(h) for h in hs]))
        for h, v, w, f in zip(hs, vals, vecs, gap_flags(vals)):
            spec = exact_spectrum(h)
            assert (v.tobytes(), w.tobytes(), tuple(f.tolist())) == (
                spec.eigenvalues.tobytes(), spec.eigenstates.tobytes(), spec.degeneracy_flags)
            oracle = spectrum_oracle(to_dense_matrix(h))
            assert (v.tobytes(), w.tobytes(), tuple(f.tolist())) == (
                oracle[0].tobytes(), oracle[1].tobytes(), oracle[2])
            degenerate += any(spec.degeneracy_flags)
    assert degenerate == 1
    assert exact_spectrum(stacks[1][0]).degeneracy_flags == (False, True, True, False)


def test_gershgorin_diagonal():
    m = np.diag([1.0, 2.0, 3.0])
    bound = gershgorin_emax(m)
    check_gershgorin(m, bound)
    assert bound.e_max == pytest.approx(3.0)


def test_gershgorin_two_by_two():
    m = np.array([[0.0, 1.0], [1.0, 2.0]])
    bound = gershgorin_emax(m)
    assert bound.e_max == pytest.approx(3.0)
    assert bound.e_max >= np.linalg.eigvalsh(m)[-1]


def test_gershgorin_dominates_lambda_max(rng):
    for _ in range(100):
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        m = (m + m.conj().T) / 2
        bound = gershgorin_emax(m)
        top = np.linalg.eigvalsh(m)[-1]
        assert bound.e_max >= top - 1e-12
        check_gershgorin(m, bound)


def test_gershgorin_permutation_invariant(rng):
    m = rng.normal(size=(6, 6))
    m = (m + m.T) / 2
    perm = rng.permutation(6)
    p = np.eye(6)[perm]
    assert gershgorin_emax(m).e_max == pytest.approx(
        gershgorin_emax(p @ m @ p.T).e_max)


def test_gershgorin_is_row_loop_oracle_bitwise(rng, lih_table):
    # Seeded Hermitian matrices of every size 1-16, real and complex, at
    # scales 1e-6 to 1e4 overall and per row and column, then every LiH row
    # and its CMF h_eff: the one vectorized bound is the row loop's, bit for bit,
    # of each matrix alone and of each matrix in a stack of its size.
    cases = []
    for n in range(1, 17):
        for k in range(24):
            a = rng.normal(size=(n, n)) + (k % 2) * 1j * rng.normal(size=(n, n))
            s = 10.0 ** rng.uniform(-6, 4, size=n if k % 3 == 0 else 1)
            cases.append((a + a.conj().T) * np.outer(s, s))
    for r in lih_table.bond_distances:
        h = hamiltonian_at(lih_table, r)
        cases += [to_dense_matrix(h), to_dense_matrix(cmf_reduce(h).h_eff)]
    for m in cases:
        assert gershgorin_emax(m).e_max.hex() == gershgorin_oracle(m).hex()
    for n in {len(m) for m in cases}:
        stack = np.array([m for m in cases if len(m) == n], dtype=complex)
        assert ([v.hex() for v in gershgorin_emax(stack).e_max.tolist()]
                == [gershgorin_oracle(m).hex() for m in stack])


def test_gershgorin_rejects_non_hermitian():
    with pytest.raises(ValueError):
        gershgorin_emax(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):     # one such matrix in a stack
        gershgorin_emax(np.array([np.eye(2), [[0.0, 1.0], [2.0, 0.0]], np.eye(2)]))


def test_lift_z_collapses_to_identity():
    h = from_pairs([(1.0, "Z")])
    lifted = lift_ground_state(h, projector(np.array([0.0, 1.0])), e_max=1.0)
    assert len(lifted.words) == 1
    assert coefficient(lifted, "I") == pytest.approx(1.0)
    assert exact_spectrum(lifted).degeneracy_flags[0]


def test_lift_diagonal_bookkeeping():
    h = pauli_decompose(np.diag([0.0, 1.0, 2.0, 3.0]))
    ground = projector(np.array([1.0, 0.0, 0.0, 0.0]))
    lifted = lift_ground_state(h, ground, e_max=3.0)
    assert np.allclose(exact_spectrum(lifted).eigenvalues, [1.0, 2.0, 3.0, 3.0])


def test_lift_multiset_property(lih_r15):
    spec = exact_spectrum(lih_r15)
    bound = gershgorin_emax(to_dense_matrix(lih_r15))
    lifted = lift_ground_state(lih_r15, projector(spec.ground_state), bound.e_max)
    expected = np.sort(np.concatenate([spec.eigenvalues[1:], [bound.e_max]]))
    assert np.max(np.abs(exact_spectrum(lifted).eigenvalues - expected)) < 1e-9
    assert exact_spectrum(lifted).ground_energy == pytest.approx(
        spec.eigenvalues[1], abs=1e-9)


def test_lift_with_approximate_ground(lih_r15):
    # fidelity 1 - delta against the true ground; the lifted ground energy
    # may deviate from E_1 by O(delta * (e_max - E_0)), checked with a 10x
    # safety factor at delta = 0.01.
    spec = exact_spectrum(lih_r15)
    delta = 0.01
    mixed = (np.sqrt(1 - delta) * spec.ground_state
             + np.sqrt(delta) * spec.eigenstates[:, 1])
    bound = gershgorin_emax(to_dense_matrix(lih_r15))
    lifted = lift_ground_state(lih_r15, projector(mixed), bound.e_max)
    e0 = spec.ground_energy
    new_ground = exact_spectrum(lifted).ground_energy
    assert abs(new_ground - spec.eigenvalues[1]) < 10 * delta * (bound.e_max - e0)


def test_lift_rejects_low_e_max(lih_r15):
    spec = exact_spectrum(lih_r15)
    with pytest.raises(ValueError):
        lift_ground_state(lih_r15, projector(spec.ground_state),
                          e_max=spec.ground_energy - 1.0)


def test_lift_refuses_non_psd_density():
    # lift_ground_state keeps the full density check on what a caller gives.
    with pytest.raises(ValueError, match="eigenvalue below"):
        lift_ground_state(from_pairs([(1.0, "Z")]),
                          DensityMatrix(np.diag([1.5, -0.5])), e_max=2.0)


@pytest.mark.parametrize("call, match", [
    (lambda: gershgorin_emax(np.array([[NAN, 0.0], [0.0, 1.0]])), "Hermitian"),
    (lambda: pauli_decompose(np.array([[NAN, 0.0], [0.0, 1.0]])), "not Hermitian"),
    (lambda: solve_update(McLachlanSystem(np.eye(1), np.ones(1), route="exact"), NAN),
     "dtau"),
    (lambda: lift_ground_state(from_pairs([(1.0, "Z")]),
                               projector(np.array([0.0, 1.0])), e_max=NAN), "e_max"),
], ids=["gershgorin_emax", "pauli_decompose", "solve_update", "lift_ground_state"])
def test_numeric_guards_reject_nan(call, match):
    with pytest.raises(ValueError, match=match):
        call()
