"""QITE loop behavior: time-step rule, trajectories, scans."""

import os

import numpy as np
import pytest

from conftest import analytic_shot_route, from_pairs, stacked
from vqite import (PauliHamiltonian, QiteConfig,
                   average_z_coefficient, build_hardware_efficient,
                   build_ucc_h2, build_ucc_lih, cmf_reduce, exact_spectrum,
                   run_qite, theta_scan, to_dense_matrix)
from vqite.engine import EnergyMap, resolve_dtau, run_qite_rows
from vqite.mclachlan import ExactRun
from vqite.pauli import expectations, weighted_terms

H2_TABLE_ENV = "VQITE_H2_TABLE"


def config(theta0, **kwargs):
    return QiteConfig(initial_theta=tuple(np.atleast_1d(theta0)), **kwargs)


def test_average_z_two_qubit():
    h = from_pairs([(0.2, "ZI"), (0.4, "IZ"), (0.9, "XX")])
    assert average_z_coefficient(h) == pytest.approx(0.3)


def test_average_z_lih_row(lih_r15):
    assert average_z_coefficient(lih_r15) == pytest.approx(
        (0.0593 - 0.2916 - 0.3179) / 3, abs=1e-12)


def test_average_z_requires_single_z_terms():
    h = from_pairs([(1.0, "XX"), (0.5, "ZZ")])
    with pytest.raises(ValueError, match="fixed dtau"):
        average_z_coefficient(h)


def test_auto_dtau_rule(lih_r15):
    cfg = config([0.5] * 6, iterations=4)
    h_z = (0.0593 - 0.2916 - 0.3179) / 3
    assert resolve_dtau(cfg, lih_r15) == pytest.approx(0.8 / (abs(h_z) * 4))
    assert resolve_dtau(config([0.0], dtau=0.25), lih_r15) == 0.25


def test_auto_dtau_rejects_rounding_residue_mean():
    # 0.1 + 0.2 - 0.3 leaves 2.8e-17, no step scale: without the relative
    # floor the rule would give dtau = 2.16e16.
    h = PauliHamiltonian(["ZII", "IZI", "IIZ", "XXI"], [0.1, 0.2, -0.3, 0.5])
    assert 0 < abs(average_z_coefficient(h)) < 1e-16
    with pytest.raises(ValueError, match="average to 0; use a fixed dtau instead"):
        resolve_dtau(config([0.0], iterations=4), h)
    assert resolve_dtau(config([0.0], dtau=0.25), h) == 0.25


def test_h2_fidelity_rises(h2_r07):
    traj = run_qite(h2_r07, build_ucc_h2, config([2.0], iterations=4))
    fids = [r.fidelity for r in traj.records]
    assert fids[0] < 0.5
    assert fids[-1] >= 0.99
    assert traj.converged_energy == pytest.approx(
        exact_spectrum(h2_r07).ground_energy, abs=1e-2)


def test_trajectories_of_two_runs_compare_bit_for_bit(h2_r07):
    # == reads the summaries and records, not the runs' stacks, so it gives
    # a bool: True for a repeated run, False for another dtau or for one
    # trajectory's summary over another's records.
    def run(dtau):
        return run_qite(h2_r07, build_ucc_h2, config([2.0], iterations=4, dtau=dtau))
    a, again, other = run(0.3), run(0.3), run(0.31)
    assert a.run is not again.run
    assert (a == again) is True and (a != again) is False
    assert (a == other) is False and (a != other) is True
    assert a._replace(run=other.run) != a != a._replace(dtau=0.31)
    assert a != tuple(a)
    text, energy = repr(a), a.converged_energy
    assert text.startswith(f"QiteTrajectory(row 0: {{'converged_energy': {energy!r}, ")
    assert text.endswith(", 'iterations': 4})") and "array" not in text


def test_trajectory_shape(h2_r07):
    traj = run_qite(h2_r07, build_ucc_h2, config([2.0], iterations=4))
    assert len(traj.records) == 5
    for rec in traj.records[:-1]:
        assert rec.a_matrix is not None and rec.b_vector is not None
    last = traj.records[-1]
    assert last.a_matrix is None and last.b_vector is None
    assert not traj.stationary


def test_lih_ucc_converges(lih_r15):
    traj = run_qite(lih_r15, build_ucc_lih, config([1.0, 1.0], iterations=4))
    assert traj.final_fidelity >= 0.98
    assert traj.converged_energy == pytest.approx(
        exact_spectrum(lih_r15).ground_energy, abs=1e-2)


def test_cmf_he_converges_with_energy_map(lih_r15):
    eff = cmf_reduce(lih_r15)
    traj = run_qite(eff.h_eff, build_hardware_efficient,
                    config([0.5] * 6, iterations=4),
                    energy_map=EnergyMap.from_effective(eff, lih_r15))
    assert traj.final_fidelity >= 0.98
    assert abs(traj.converged_energy - exact_spectrum(lih_r15).ground_energy) < 1e-2
    # dtau comes from the original Hamiltonian's single-Z mean
    assert traj.dtau == pytest.approx(resolve_dtau(config([0.0]), lih_r15))


def test_energies_match_dense_route(lih_r15):
    traj = run_qite(lih_r15, build_ucc_lih, config([1.0, 1.0], iterations=4))
    dense = to_dense_matrix(lih_r15)
    for rec in traj.records:
        amps = build_ucc_lih(rec.theta).state().amplitudes
        e_dense = np.vdot(amps, dense @ amps).real
        assert rec.energy == pytest.approx(e_dense, abs=1e-10)


@pytest.mark.parametrize("case", ["he", "ucc-lih", "theta-scan"])
def test_record_energies_are_expectations_of_record_states(case, lih_r15, h2_r07):
    # The energies of iterations 0..l-1 come from ExactRun's pair product and
    # the last from expectations; each equals expectations of the state the
    # builder makes at the record's angles, bit for bit.
    builder, h, thetas = {
        "he": (build_hardware_efficient, cmf_reduce(lih_r15).h_eff,
               [[0.2, -0.1, 0.4, 0.3, 0.1, -0.2]]),
        "ucc-lih": (build_ucc_lih, lih_r15, [[1.0, 1.0]]),
        "theta-scan": (build_ucc_h2, h2_r07, [[t] for t in np.linspace(0.1, 6.0, 7)]),
    }[case]
    trajectories = run_qite_rows(stacked([h] * len(thetas)), builder,
                                 config(thetas[0], iterations=6, dtau=0.2),
                                 theta=np.array(thetas)).trajectories()
    for traj in trajectories:
        for rec in traj.records:
            state = builder(rec.theta).state().amplitudes[None]
            want = expectations(weighted_terms(h.words, h.coeffs[None], h.n_qubits), state)[0]
            assert rec.energy.hex() == want.hex(), (case, rec.iteration)


def test_euler_stability_halved_step(lih_r15):
    eff = cmf_reduce(lih_r15)
    emap = EnergyMap.from_effective(eff, lih_r15)
    base = run_qite(eff.h_eff, build_hardware_efficient,
                    config([0.5] * 6, iterations=4), energy_map=emap)
    halved = run_qite(eff.h_eff, build_hardware_efficient,
                      config([0.5] * 6, iterations=8, dtau=base.dtau / 2),
                      energy_map=emap)
    assert abs(base.converged_energy - halved.converged_energy) < 1e-3


def test_acceptance_runs_are_monotone(h2_r07, lih_r15):
    t1 = run_qite(h2_r07, build_ucc_h2, config([2.0], iterations=4))
    eff = cmf_reduce(lih_r15)
    t2 = run_qite(eff.h_eff, build_hardware_efficient,
                  config([0.5] * 6, iterations=4),
                  energy_map=EnergyMap.from_effective(eff, lih_r15))
    assert t1.monotonicity_violations == ()
    assert t2.monotonicity_violations == ()


def test_monotonicity_violation_warns(h2_r07):
    with pytest.warns(UserWarning, match="energy rose"):
        traj = run_qite(h2_r07, build_ucc_h2,
                        config([2.0], iterations=6, dtau=5.0))
    assert traj.monotonicity_violations != ()


def test_stationary_flag_at_pi(h2_r07):
    traj = run_qite(h2_r07, build_ucc_h2, config([np.pi], iterations=4))
    assert traj.stationary
    assert abs(traj.converged_energy - exact_spectrum(h2_r07).ground_energy) > 0.1


def test_hadamard_exact_mode_run_matches_exact_route(lih_r15, monkeypatch):
    # The shot-route loop, its SampledRun made at shots=None, takes the exact
    # loop's steps, on UCC-LiH and on CMF + HE: the loop wires its SampledRun
    # to the live angles.
    eff = cmf_reduce(lih_r15)
    cases = [(lih_r15, build_ucc_lih, [1.0, 1.0], None),
             (eff.h_eff, build_hardware_efficient, [0.5] * 6,
              EnergyMap.from_effective(eff, lih_r15))]
    exact = [run_qite(h, builder, config(theta0, iterations=3), energy_map)
             for h, builder, theta0, energy_map in cases]
    analytic_shot_route(monkeypatch)
    for a, (h, builder, theta0, energy_map) in zip(exact, cases):
        b = run_qite(h, builder, config(theta0, iterations=3, shots=1000, seed=1), energy_map)
        for ra, rb in zip(a.records, b.records):
            assert np.max(np.abs(ra.theta - rb.theta)) < 1e-9
        assert a.converged_energy == pytest.approx(b.converged_energy, abs=1e-9)


def test_shot_route_needs_seed(lih_r15):
    # Without a seed every run would draw from OS entropy; a shot count sets
    # the shot route, and the exact route stays seedless.
    with pytest.raises(ValueError, match="seed"):
        config([1.0, 1.0], shots=1000)
    config([1.0, 1.0])
    config([1.0, 1.0], shots=1000, seed=0)


@pytest.mark.parametrize("route,shots", [("exact", None), ("hadamard", None),
                                         ("hadamard", 1000)])
def test_builder_runs_once_per_run(lih_table, lih_r15, route, shots, monkeypatch):
    # A run builds its circuit once, at the initial angles, for one row or
    # fifty; its iterations rewrite that circuit's rotation stack.  So a
    # builder stuck at the initial angles (which the check at theta0 cannot
    # tell from the family build) runs as the family build, byte for byte,
    # without shots to the energies of the family's LiH R = 1.5 run.  The
    # hadamard route without shots is the shot-route loop with its SampledRun
    # made at shots=None.
    calls = []
    def counted(theta):
        calls.append(np.shape(theta))
        return build_ucc_lih(theta)
    if route == "hadamard" and shots is None:
        analytic_shot_route(monkeypatch)
    loop_shots = 1000 if route == "hadamard" else None
    for rows in (1, 50):
        calls.clear()
        run_qite_rows(lih_table.hamiltonians(range(rows)), counted,
                      QiteConfig((1.0, 1.0), shots=loop_shots, seed=0),
                      seeds=list(range(rows)))
        assert calls == [(rows, 2)]
    config = QiteConfig((1.0, 1.0), shots=loop_shots, seed=1)
    stuck = run_qite(lih_r15, lambda t: build_ucc_lih(np.ones_like(t)), config)
    assert stuck == run_qite(lih_r15, build_ucc_lih, config)
    if shots is None:
        assert [round(r.energy, 4) for r in stuck.records] == [-7.6025, -7.9480, -7.9541,
                                                               -7.9544, -7.9544]


@pytest.mark.parametrize("shots", [0, -3])
def test_shot_count_refused_before_the_loop(lih_r15, monkeypatch, shots):
    # run_qite and run_qite_rows check the shot count once, when they make
    # the run's SampledRun; the loop, whose first step is an ExactRun call,
    # never starts.
    def loop_started(*args):
        raise AssertionError("the loop started")
    monkeypatch.setattr(ExactRun, "__call__", loop_started)
    config = QiteConfig((1.0, 1.0), shots=shots, seed=1)
    with pytest.raises(ValueError, match="shots must be >= 1"):
        run_qite(lih_r15, build_ucc_lih, config)
    with pytest.raises(ValueError, match="shots must be >= 1"):
        run_qite_rows(stacked([lih_r15] * 2), build_ucc_lih, config)


def test_hadamard_route_reproducible(h2_r07):
    kwargs = dict(iterations=2, shots=2000, seed=5)
    a = run_qite(h2_r07, build_ucc_h2, config([2.0], **kwargs))
    b = run_qite(h2_r07, build_ucc_h2, config([2.0], **kwargs))
    assert a.converged_energy == b.converged_energy
    for ra, rb in zip(a.records, b.records):
        assert np.array_equal(ra.theta, rb.theta)


def test_degenerate_ground_disables_fidelity():
    # Z on q0 alone: both |1x> states share the ground energy.
    h = from_pairs([(1.0, "ZI")])
    assert exact_spectrum(h).degeneracy_flags[0]
    with pytest.warns(UserWarning, match="degenerate"):
        traj = run_qite(h, build_ucc_h2, config([1.0], iterations=2))
    assert traj.ground_degenerate
    assert traj.final_fidelity is None
    assert all(r.fidelity is None for r in traj.records)


def test_theta_scan_structure(h2_r07):
    grid = 2 * np.pi * np.arange(32) / 32
    points = theta_scan(h2_r07, build_ucc_h2, grid, config([0.0], iterations=4))
    assert len(points) == 32
    ground = exact_spectrum(h2_r07).ground_energy
    for p in points:
        if abs(p.theta0 - np.pi) > 0.2:
            assert p.final_energy - ground <= 1e-2
    pi_point = points[16]
    assert pi_point.theta0 == pytest.approx(np.pi)
    assert pi_point.stationary
    assert pi_point.final_energy - ground > 0.1


def test_theta_scan_single_point_matches_run(h2_r07):
    cfg = config([0.0], iterations=4)
    points = theta_scan(h2_r07, build_ucc_h2, [2.0], cfg)
    traj = run_qite(h2_r07, build_ucc_h2, config([2.0], iterations=4))
    assert points[0].final_energy == pytest.approx(traj.converged_energy, abs=1e-14)
    assert points[0].final_fidelity == pytest.approx(traj.final_fidelity, abs=1e-14)


def test_theta_scan_needs_one_parameter(lih_r15):
    with pytest.raises(ValueError):
        theta_scan(lih_r15, build_ucc_lih, [0.0], config([0.0, 0.0]))


def test_initial_theta_arity_checked(h2_r07):
    with pytest.raises(ValueError):
        run_qite(h2_r07, build_ucc_h2, config([1.0, 2.0]))


@pytest.mark.skipif(H2_TABLE_ENV not in os.environ,
                    reason=f"set {H2_TABLE_ENV} to a real H2 coefficient table")
def test_real_h2_table_run():
    # With real coefficients the published run starts near 39.2% fidelity
    # at theta0 = 2.0 and R = 0.7; any valid table must still converge.
    from vqite import hamiltonian_at, load_table
    table = load_table(os.environ[H2_TABLE_ENV])
    nearest = min(table.bond_distances, key=lambda r: abs(r - 0.7))
    h = hamiltonian_at(table, nearest)
    traj = run_qite(h, build_ucc_h2, config([2.0], iterations=4))
    print(f"initial fidelity {traj.records[0].fidelity:.3f} "
          f"(published hardware value: 0.392)")
    assert traj.final_fidelity >= 0.99
