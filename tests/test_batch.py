"""The QITE loop over B rows at once, held to the rows run one at a time.

Batching is bitwise only because of a few facts about numpy and BLAS: a
matmul over a stack runs one product per state, so each state is rounded
as it would be alone, and a (1, L) @ (L, 1) matmul rounds as np.vdot.  The
oracle tests compare every record byte for byte; the property tests pin
the facts themselves.
"""

import json
import pickle
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (analytic_shot_route, apply, apply_word, forward_then_branches, from_pairs,
                      golden_platform, per_state_gates, stacked, term_loop)
from vqite import (DensityMatrix, basis_state, build_hardware_efficient, build_ucc_h2,
                   build_ucc_lih, cmf_reduce, cmf_reduce_rows, compute_exact, compute_sampled,
                   exact_spectrum, expectation, gershgorin_emax, hamiltonian_at,
                   lift_ground_state, load_lih_table, run_qite, theta_scan, to_dense_matrix,
                   weighted_partial_trace)
from vqite import ansatz as ansatz_module, cmf, engine, mclachlan, pauli, spectra
from vqite.ansatz import DERIVATIVE_PREFACTOR, AnsatzCircuit
from vqite.engine import EnergyMap, QiteConfig, resolve_dtau, run_qite_rows
from vqite.mclachlan import ExactRun, McLachlanSystem, SampledRun, solve_update
from vqite.simulator import Gate, apply_gate, apply_planned, gate_plan, rotation_matrix

PROPERTY = settings(deadline=None, derandomize=True, max_examples=60)
AMPLITUDE = st.complex_numbers(max_magnitude=1.0)
THETA0 = {build_hardware_efficient: (0.5,) * 6, build_ucc_lih: (1.0, 1.0),
          build_ucc_h2: (2.0,)}
GOLDEN = Path(__file__).resolve().parent / "golden" / "exact" / "manifest.json"
RECORDED_PLATFORM = json.loads(GOLDEN.read_text())["platform"]


def scan_rows(table, builder, cmf, rows=slice(None)):
    """(h_system stack, config, energy map, seeds) of the table rows at
    indices `rows`, run as a scan runs them."""
    ks = range(len(table.rows))[rows]
    h = table.hamiltonians(ks)
    config = QiteConfig(THETA0[builder], seed=0)
    seeds = [(0, int(round(table.rows[k][0] * 1000))) for k in ks]
    if not cmf:
        return h, config, None, seeds
    eff = cmf_reduce_rows(h)
    return eff.h_eff, config, EnergyMap(eff, h), seeds


def one_row(table, k, cmf):
    """(h_system, energy map) of table row k alone, through the one-row views."""
    h = hamiltonian_at(table, table.rows[k][0])
    if not cmf:
        return h, None
    eff = cmf_reduce(h)
    return eff.h_eff, EnergyMap.from_effective(eff, h)


def final_state(builder, traj, energy_map):
    """The reported state at a trajectory's last angles, lifted as run_qite_rows
    lifts it (one (8, 4) @ (4, 1))."""
    psi = builder(traj.records[-1].theta).state().amplitudes
    if energy_map is None:
        return psi
    return (energy_map.effective.basis_isometry @ psi[:, None])[:, 0]


@pytest.mark.parametrize("table,builder,cmf", [
    ("lih", build_hardware_efficient, True),
    ("lih", build_ucc_lih, False),
    ("h2", build_ucc_h2, False),
], ids=["cmf-he", "ucc-lih", "h2-synthetic"])
def test_batched_rows_equal_one_row_runs(table, builder, cmf, lih_table, h2_table):
    table = lih_table if table == "lih" else h2_table
    h, config, energy_map, seeds = scan_rows(table, builder, cmf)
    batched = run_qite_rows(h, builder, config, energy_map, seeds=seeds).trajectories()
    assert len(batched) == len(table.rows)
    for k, (seed, traj) in enumerate(zip(seeds, batched)):
        h_row, row_map = one_row(table, k, cmf)
        alone = run_qite(h_row, builder, QiteConfig(**dict(vars(config), seed=seed)), row_map)
        assert traj == alone
        # the final energy and fidelity as one state's np.vdot forms give them
        h_report = h_row if row_map is None else row_map.h_original
        psi = final_state(builder, traj, row_map)
        assert traj.converged_energy == np.vdot(psi, term_loop(h_report, psi)).real
        ground = exact_spectrum(h_report).ground_state
        assert traj.final_fidelity == float(abs(np.vdot(ground, psi)) ** 2)


def test_batched_shot_rows_equal_one_row_runs(lih_table):
    # Each row draws from its own (seed, R) generator, in job order.
    rows = slice(0, 50, 7)
    h, config, _, seeds = scan_rows(lih_table, build_ucc_lih, False, rows)
    config = QiteConfig(**dict(vars(config), shots=1000))
    batched = run_qite_rows(h, build_ucc_lih, config, seeds=seeds).trajectories()
    for k, seed, traj in zip(range(50)[rows], seeds, batched):
        alone = run_qite(one_row(lih_table, k, False)[0], build_ucc_lih,
                         QiteConfig(**dict(vars(config), seed=seed)))
        assert traj == alone


def test_seed_arrays_draw_as_the_seeds_in_a_list(lih_table):
    # Per-row seeds may come as an array: each row draws from its own seed,
    # a 0 seed and (seed, R) pairs included, never from config.seed.
    for rows, seeds in ((slice(1), [0]), (slice(2), [[1, 2], [3, 4]])):
        h, config, _, _ = scan_rows(lih_table, build_ucc_lih, False, rows)
        config = QiteConfig(**dict(vars(config), shots=1000, seed=5))
        listed = run_qite_rows(h, build_ucc_lih, config, seeds=seeds).trajectories()
        assert run_qite_rows(h, build_ucc_lih, config, seeds=np.array(seeds)).trajectories() \
            == listed
        assert run_qite_rows(h, build_ucc_lih, config).trajectories() != listed


@pytest.mark.parametrize("builder,cmf,rows,shots", [
    (build_ucc_lih, False, slice(None), 10_000),
    (build_hardware_efficient, True, slice(0, 50, 17), 1000),
    (build_hardware_efficient, True, slice(0, 50, 17), None),
], ids=["ucc-lih-50-rows", "cmf-he-3-rows-shots", "cmf-he-3-rows-analytic"])
def test_shot_run_reads_the_live_rotation_stack(builder, cmf, rows, shots, lih_table,
                                                monkeypatch):
    # The run's one SampledRun reads the rotation stack as the iteration's
    # ExactRun call wrote it: at every iteration A and B are bitwise those of
    # compute_sampled on a build at that iteration's angles, drawn from twin
    # generators that each step leaves in the same state.  The analytic case
    # runs the shot-route loop with its SampledRun made at shots=None.
    h, config, energy_map, seeds = scan_rows(lih_table, builder, cmf, rows)
    if shots is None:
        analytic_shot_route(monkeypatch)
    config = QiteConfig(**dict(vars(config), shots=shots or 1000))
    trajs = run_qite_rows(h, builder, config, energy_map, seeds=seeds).trajectories()
    twins = [np.random.default_rng(s) for s in seeds]
    for it in range(config.iterations):
        theta = np.array([traj.records[it].theta for traj in trajs])
        want = compute_sampled(builder(theta), h, shots, twins)
        for b, traj in enumerate(trajs):
            assert traj.records[it].a_matrix.tobytes() == want.a_matrix[b].tobytes(), (it, b)
            assert traj.records[it].b_vector.tobytes() == want.b_vector[b].tobytes(), (it, b)


def unfused_records(h, builder, config, energy_map=None):
    """(iteration, theta, A, B, energy, fidelity) of one row's QITE run in the
    unfused form: each iteration builds the row's circuit alone, takes its
    states and derivatives from forward_then_branches, A and B as np.vdot
    loops, the energy and fidelity as np.vdot against the reporting
    Hamiltonian, then solve_update of that one system."""
    report = h if energy_map is None else energy_map.h_original
    ground, dtau = exact_spectrum(report).ground_state, resolve_dtau(config, report)
    theta, records = np.array(config.initial_theta), []
    for it in range(config.iterations + 1):
        states, derivs = forward_then_branches(builder(theta))
        psi = states[0]
        if energy_map is not None:    # the lift as run_qite_rows forms it, one (8, 4) @ (4, 1)
            psi = (energy_map.effective.basis_isometry @ psi[:, None])[:, 0]
        energy = np.vdot(psi, term_loop(report, psi)).real
        fid = float(abs(np.vdot(ground, psi)) ** 2)
        if it == config.iterations:
            records.append((it, theta, None, None, energy, fid))
            break
        gamma, h_psi = len(derivs), term_loop(h, states[0])
        a, b = np.zeros((gamma, gamma)), np.zeros(gamma)
        for i in range(gamma):
            for j in range(i, gamma):
                a[i, j] = a[j, i] = np.vdot(derivs[i, 0], derivs[j, 0]).real
            b[i] = -np.vdot(derivs[i, 0], h_psi).real
        records.append((it, theta, a, b, energy, fid))
        theta = theta + solve_update(McLachlanSystem(a, b), dtau)[0]
    return records


def lifted_row(table, r):
    """(lifted Hamiltonian, config) of one `vqite excited` call at R = r."""
    h = hamiltonian_at(table, r)
    h_base = cmf_reduce(h).h_eff
    ground = exact_spectrum(h_base).ground_state
    lifted = lift_ground_state(h_base, DensityMatrix(np.outer(ground, ground.conj())),
                               gershgorin_emax(to_dense_matrix(h_base)).e_max)
    dtau = resolve_dtau(QiteConfig((0.0,), iterations=4), h)
    return lifted, QiteConfig((0.5,) * 6, iterations=20, dtau=dtau)


@pytest.mark.parametrize("case", ["excited-R0.5", "excited-R1.5", "excited-R4.9",
                                  "cmf-he-50-rows", "ucc-lih-50-rows", "ucc-h2-theta-scan"])
def test_loop_is_unfused_reference(case, lih_table, h2_r07):
    # The compiled loop (one ExactRun per run, its sweep recorded once and
    # repeated, the energy from its H|psi>) gives every record byte of the
    # unfused form: on the lifted rows of `excited` (20 iterations) at R = 0.5
    # (its energy rises at iteration 5), at R = 1.5 (no rise) and at R = 4.9
    # (an 11-term row near the table's end), on the 50-row CMF + HE batch
    # (reported through the isometry), on the 50-row exact UCC-LiH batch (3
    # qubits, reported against its own Hamiltonian) and on a theta_scan grid
    # of the H2 UCC circuit that holds theta = pi, stationary at iteration 0.
    builder = {"ucc-lih-50-rows": build_ucc_lih, "ucc-h2-theta-scan": build_ucc_h2}.get(
        case, build_hardware_efficient)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if case.startswith("excited-R"):
            lifted, config = lifted_row(lih_table, float(case[len("excited-R"):]))
            trajectories = run_qite_rows(lifted, builder, config).trajectories()
            rows = [(lifted, None, config)]
        elif case == "ucc-h2-theta-scan":
            grid, config = [0.5, 2.0, np.pi, 4.5], QiteConfig((0.0,), iterations=4)
            trajectories = run_qite_rows(stacked([h2_r07] * len(grid)), builder, config,
                                         theta=np.array(grid)[:, None]).trajectories()
            rows = [(h2_r07, None, QiteConfig(**dict(vars(config), initial_theta=(t,))))
                    for t in grid]
        else:
            cmf = case == "cmf-he-50-rows"
            h, config, energy_map, seeds = scan_rows(lih_table, builder, cmf)
            trajectories = run_qite_rows(h, builder, config, energy_map,
                                         seeds=seeds).trajectories()
            rows = [(*one_row(lih_table, k, cmf), config) for k in range(len(seeds))]
    if case == "ucc-h2-theta-scan":
        assert [t.stationary for t in trajectories] == [False, False, True, False]
    for (h, energy_map, config), traj in zip(rows, trajectories, strict=True):
        want = unfused_records(h, builder, config, energy_map)
        got = [(r.iteration, r.theta, r.a_matrix, r.b_vector, r.energy, r.fidelity)
               for r in traj.records]
        assert len(got) == len(want) == config.iterations + 1
        for g, w in zip(got, want):
            assert [None if x is None else np.asarray(x).tobytes() for x in g] == \
                   [None if x is None else np.asarray(x).tobytes() for x in w], g[0]


def caught(function):
    """function()'s result and the text of each warning it raised, in order."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        result = function()
    return result, [str(w.message) for w in seen]


def test_row_views_equal_rows_run_alone(lih_table):
    # The stacked result read row by row: every record byte, the summary and
    # the warnings of each row equal run_qite of that row alone, and the run
    # warns for its rows in row order.  The rows are lifted `excited` rows
    # (their energies rise at iterations 5 to 12) and, between them, a
    # degenerate row whose energy also rises: its degeneracy warning comes
    # before its rises.
    rows = [lifted_row(lih_table, r) for r in (0.1, 0.4, 0.5)]
    rows.insert(1, (from_pairs([(1.0, "ZI"), (0.3, "XX")]),
                    QiteConfig(**dict(vars(rows[0][1]), dtau=1.5))))
    config = QiteConfig(**dict(vars(rows[0][1]), dtau=np.array([c.dtau for _, c in rows])))
    run, warned = caught(lambda: run_qite_rows(stacked([h for h, _ in rows]),
                                               build_hardware_efficient, config))
    alone = [caught(lambda: run_qite(h, build_hardware_efficient, c)) for h, c in rows]
    assert warned == [w for _, row_warned in alone for w in row_warned]
    degenerate = alone[1][1]
    assert degenerate[0] == "degenerate ground state: fidelity reporting disabled"
    assert len(degenerate) > 1 and warned.count(degenerate[0]) == 1
    assert sum(w.startswith("energy rose by") for w in warned) == len(warned) - 1 > 10
    for traj, (want, _) in zip(run.trajectories(), alone, strict=True):
        assert traj == want                # the summary and records, bit for bit
        assert [r.fidelity for r in traj.records] == [r.fidelity for r in want.records]


ONE = QiteConfig((1.0, 1.0), shots=100, seed=1)
TWO_ROWS = np.ones((2, 2))


def reduced_rows_with_one_row_map(h):
    """run_qite_rows on two reduced rows of h, reported through a map of one row."""
    eff = cmf_reduce(h)
    return run_qite_rows(stacked([eff.h_eff] * 2), build_hardware_efficient,
                         QiteConfig((0.5,) * 6), EnergyMap.from_effective(eff, h))


@pytest.mark.parametrize("call,message", [
    (lambda h: run_qite_rows(stacked([h, h]), build_ucc_lih, ONE, theta=np.ones((3, 2))),
     "3 angle rows but 2 Hamiltonians"),
    (lambda h: run_qite_rows(stacked([h, h]), build_ucc_lih, ONE, seeds=[1]),
     "a seed or generator for each of the 2 rows"),
    (lambda h: run_qite_rows(stacked([h, h]), build_ucc_lih, ONE, seeds=[]),
     "a seed or generator for each of the 2 rows"),
    (reduced_rows_with_one_row_map,
     "h_system has 2 rows, the energy map's reduction 1 and its original Hamiltonian 1"),
    (lambda h: map_rows([10], [10, 30]),
     "h_system has 2 rows, the energy map's reduction 1 and its original Hamiltonian 2"),
    (lambda h: map_rows([10, 30], [10]),
     "h_system has 2 rows, the energy map's reduction 2 and its original Hamiltonian 1"),
    (lambda h: compute_exact(build_ucc_lih(TWO_ROWS), h), "2 angle rows but 1 Hamiltonians"),
    (lambda h: compute_exact(build_ucc_lih(TWO_ROWS), stacked([h] * 3)),
     "2 angle rows but 3 Hamiltonians"),
    (lambda h: compute_sampled(build_ucc_lih(TWO_ROWS), h, None),
     "2 angle rows but 1 Hamiltonians"),
    (lambda h: compute_sampled(build_ucc_lih(TWO_ROWS), stacked([h] * 3), 100, [1, 2, 3]),
     "2 angle rows but 3 Hamiltonians"),
], ids=["run-hamiltonians", "run-seeds", "run-no-seeds", "run-energy-maps", "run-map-reduction",
        "run-map-original", "exact-1", "exact-3",
        "sampled-1", "sampled-3"])
def test_row_counts_must_agree(call, message, lih_r15):
    # One Hamiltonian row, initial angle row, seed and energy-map row per row
    # of the run, or a ValueError that names the counts before any work starts
    # (not a row dropped by zip, a numpy broadcast error deep inside, or every
    # row reported through row 0's isometry).
    with pytest.raises(ValueError, match=message):
        call(lih_r15)


def work_started(*args, **kwargs):
    raise AssertionError("work started")


GROUND_100 = DensityMatrix(np.outer(basis_state("100").amplitudes, basis_state("100").amplitudes))


@pytest.mark.parametrize("call,module,batched,table", [
    (cmf_reduce, cmf, "cmf_reduce_rows", "lih_table"),
    (lambda h: run_qite(h, build_ucc_lih, QiteConfig((1.0, 1.0))), engine, "run_qite_rows",
     "lih_table"),
    (lambda h: theta_scan(h, build_ucc_h2, [0.5, 2.0], QiteConfig((0.0,))), engine,
     "run_qite_rows", "h2_table"),
    (exact_spectrum, spectra, "stacked_spectrum", "lih_table"),
    (to_dense_matrix, pauli, "dense_matrices", "lih_table"),
    (lambda h: expectation(h, basis_state("100")), pauli, "expectations", "lih_table"),
    (lambda h: lift_ground_state(h, GROUND_100, 10.0), spectra, "_lift", "lih_table"),
    (lambda h: weighted_partial_trace(h, (0, 1), np.eye(2) / 2), pauli, "partial_traces",
     "lih_table"),
], ids=["cmf_reduce", "run_qite", "theta_scan", "exact_spectrum", "to_dense_matrix",
        "expectation", "lift_ground_state", "weighted_partial_trace"])
def test_one_row_functions_refuse_a_stack(call, module, batched, table, request, monkeypatch):
    # A function of one Hamiltonian takes a single sum, or a one-row stack to
    # the same bytes; a stack of two rows raises a ValueError that names the
    # batched function, before that function runs (not row 0's result, nor a
    # numpy broadcast error).
    table = request.getfixturevalue(table)
    one, row = table.hamiltonians([1]), hamiltonian_at(table, table.rows[1][0])
    assert pickle.dumps(call(one)) == pickle.dumps(call(row))
    monkeypatch.setattr(module, batched, work_started)
    with pytest.raises(ValueError, match=f"a stack of 2 Hamiltonians: use {batched} for a stack"):
        call(table.hamiltonians([1, 2]))


def map_rows(reduced, original):
    """run_qite_rows on the reductions of LiH rows 10 and 30, reported through
    a map that reduces the rows `reduced` of the rows `original`."""
    table = load_lih_table()
    return run_qite_rows(cmf_reduce_rows(table.hamiltonians([10, 30])).h_eff,
                         build_hardware_efficient, QiteConfig((0.5,) * 6),
                         EnergyMap(cmf_reduce_rows(table.hamiltonians(reduced)),
                                   table.hamiltonians(original)))


def constructor_copy(table, builder, rows, rng):
    """(Hamiltonian stack, build, copy): `rows` rows of a table, taken in
    turn, a build at `rows` rows of random angles and its copy made by the
    AnsatzCircuit constructor from the build's gates."""
    h = table.hamiltonians([b % len(table.rows) for b in range(rows)])
    build = builder(rng.uniform(-np.pi, np.pi, size=(rows, len(THETA0[builder]))))
    return h, build, AnsatzCircuit(
        build.gates, build.parameters, build.descriptors, build.reference_state)


def test_circuit_made_by_its_constructor(lih_table, h2_table, rng):
    # A circuit made by the AnsatzCircuit constructor takes its rotations
    # from the gates before its insertion points, so on both routes it gives
    # the bytes of the build it copies.  A run refuses a builder whose
    # rotation stack is not rotation_matrix of theta: a copy of a one-vector
    # build, whose stack has no axis for the run's row, and a build at twice
    # the angles.
    h = from_pairs([(1.0, "ZI"), (0.5, "XX")])
    build = build_hardware_efficient(np.full(6, 0.3))
    fixed = AnsatzCircuit(build.gates, build.parameters, build.descriptors,
                          build.reference_state)
    got, want = compute_exact(fixed, h), compute_exact(build, h)
    assert got.a_matrix.tobytes() == want.a_matrix.tobytes()
    assert got.b_vector.tobytes() == want.b_vector.tobytes()
    for builder, table in [(build_hardware_efficient, h2_table), (build_ucc_lih, lih_table)]:
        for rows, shots in [(1, None), (1, 1000), (50, None), (50, 1000)]:
            h_rows, built, copy = constructor_copy(table, builder, rows, rng)
            got, want = (compute_sampled(c, h_rows, shots, list(range(rows)))
                         for c in (copy, built))
            assert got.a_matrix.tobytes() == want.a_matrix.tobytes()
            assert got.b_vector.tobytes() == want.b_vector.tobytes()
    with pytest.raises(ValueError, match="rotated gate"):
        run_qite(h, lambda t: AnsatzCircuit(build.gates, t, build.descriptors,
                                            build.reference_state), QiteConfig((0.3,) * 6))
    with pytest.raises(ValueError, match="rotated gate"):
        run_qite(h, lambda t: build_hardware_efficient(2 * np.asarray(t)), QiteConfig((0.3,) * 6))


@pytest.mark.parametrize("rows", [1, 50])
@pytest.mark.parametrize("builder", [build_hardware_efficient, build_ucc_lih],
                         ids=["he", "ucc-lih"])
def test_constructor_copy_runs_at_new_angles(builder, rows, lih_table, h2_table, rng):
    # An ExactRun of a constructor-made copy rewrites the copy's rotation
    # stack, so at new angles it gives every byte of the build at those angles.
    table = lih_table if builder is build_ucc_lih else h2_table
    h, build, copy = constructor_copy(table, builder, rows, rng)
    theta = rng.uniform(-np.pi, np.pi, size=build.parameters.shape)
    got, want = ExactRun(copy, h)(theta), ExactRun(builder(theta), h)()
    assert [x.tobytes() for x in got] == [x.tobytes() for x in want]


def vdot_system(ansatz, h):
    """A and B of one circuit by np.vdot loops over its derivative states."""
    gamma = ansatz.n_parameters
    derivs = [ansatz.derivative_state(i) for i in range(gamma)]
    h_psi = apply(h, ansatz.state().amplitudes)
    a, b = np.zeros((gamma, gamma)), np.zeros(gamma)
    for i in range(gamma):
        for j in range(i, gamma):
            a[i, j] = a[j, i] = np.vdot(derivs[i], derivs[j]).real
        b[i] = -np.vdot(derivs[i], h_psi).real
    return a, b


@pytest.mark.parametrize("builder,cmf", [(build_hardware_efficient, True),
                                         (build_ucc_lih, False)], ids=["cmf-he", "ucc-lih"])
def test_batched_exact_system_is_vdot_loop(builder, cmf, lih_table, rng):
    h = scan_rows(lih_table, builder, cmf)[0]
    theta = rng.uniform(-np.pi, np.pi, size=(len(h.coeffs), len(THETA0[builder])))
    batch = builder(theta)
    system = compute_exact(batch, h)
    assert system.a_matrix.shape == (len(h.coeffs),) + (theta.shape[1],) * 2
    for b in range(len(h.coeffs)):
        one = builder(theta[b])
        assert batch.states()[b].tobytes() == one.state().amplitudes.tobytes()
        a, bv = vdot_system(one, one_row(lih_table, b, cmf)[0])
        assert system.a_matrix[b].tobytes() == a.tobytes()
        assert system.b_vector[b].tobytes() == bv.tobytes()


@pytest.mark.parametrize("rows", [None, 1, 50], ids=["vector", "1-row", "50-rows"])
@pytest.mark.parametrize("builder", list(THETA0), ids=["he", "ucc-lih", "ucc-h2"])
def test_sweep_is_forward_then_branches(builder, rows, rng):
    # One sweep of the forward rows and every branch gives the bytes of the
    # forward pass and the branch stack run one after the other, whether
    # the states or the derivatives are asked for first.
    gamma = len(THETA0[builder])
    theta = rng.uniform(-np.pi, np.pi, size=gamma if rows is None else (rows, gamma))
    states, derivatives = forward_then_branches(builder(theta))
    for states_first in (False, True):
        ansatz = builder(theta)
        if states_first:
            ansatz.states()
        got = (ansatz.derivatives, ansatz.states())
        assert [a.shape for a in got] == [derivatives.shape, states.shape]
        assert got[0].tobytes() == derivatives.tobytes()
        assert got[1].tobytes() == states.tobytes()


def per_gate_sweep(ansatz):
    """(states, derivatives) of a circuit in the per-gate form the compiled
    sweep replaced: one stack of the forward rows and the branches joined so
    far, each run of gates between two joins applied one gate at a time
    (per_state_gates), and written back into the stack."""
    ref, descs = ansatz.reference_state, ansatz.descriptors
    rows, shape = len(ansatz.parameters), (-1,) + (2,) * ref.n_qubits
    stack = np.empty((rows * (1 + len(descs)), ref.amplitudes.size), dtype=complex)
    stack[:rows], k, end = ref.amplitudes, 0, rows
    for d in descs:
        head = stack[:end].reshape(shape)
        head[...] = per_state_gates(head, ansatz.gates[k:d.insertion_point])
        stack[end:end + rows] = apply_word(d.sigma.letters, stack[:rows])
        k, end = d.insertion_point, end + rows
    stack = per_state_gates(stack.reshape(shape), ansatz.gates[k:]).reshape(end, -1)
    return stack[:rows], DERIVATIVE_PREFACTOR * stack[rows:].reshape(len(descs), rows, -1)


@PROPERTY
@given(st.sampled_from(list(THETA0)), st.integers(1, 5), st.data())
def test_compiled_sweep_is_per_gate_oracle(builder, rows, data):
    # The compiled sweep (planned steps, a rotation stack, joins and the
    # gates' results copied into one buffer) gives the bytes of the same
    # gates run one at a time through per_state_gates, whether the states or
    # the derivatives are asked for first.  The gates, made on demand, are the
    # family's fixed gates, shared, and one rotation stack per parameter.
    gamma = len(THETA0[builder])
    theta = data.draw(arrays(float, (rows, gamma), elements=st.floats(-np.pi, np.pi)))
    states, derivatives = per_gate_sweep(builder(theta))
    assert builder(theta).states().tobytes() == states.tobytes()
    ansatz = builder(theta)
    assert ansatz.derivatives.tobytes() == derivatives.tobytes()
    assert ansatz.states().tobytes() == states.tobytes()
    fixed = builder(np.zeros(gamma)).gates
    slots = {d.insertion_point - 1: (i, d.sigma.letters) for i, d in enumerate(ansatz.descriptors)}
    for k, (gate, zero) in enumerate(zip(ansatz.gates, fixed, strict=True)):
        if k not in slots:
            assert gate is zero
            continue
        i, letters = slots[k]
        want = rotation_matrix(letters[gate.target], theta[:, i])
        assert (gate.target, gate.control) == (zero.target, None)
        assert gate.matrix.tobytes() == want.tobytes()


def recorded_gates(monkeypatch, run):
    """(stack ndim, stack length, kind) of every gate the ansatz sweep applies
    in run(): each apply_planned call, and each later run of the numpy calls it
    recorded (a run repeats its first sweep's recorded numpy calls).  kind is
    "product" for a gate that calls np.matmul or np.dot, else "pauli"."""
    real, applied = ansatz_module.apply_planned, []

    def recording(t, m, plan, calls=None):
        calls = [] if calls is None else calls
        start = len(calls)
        result = real(t, m, plan, calls)
        product = any(f in (np.matmul, np.dot) for f, _ in calls[start:])
        gate = (t.ndim, len(t), "product" if product else "pauli")
        applied.append(gate)
        f, args = calls[start]   # the gate's first call counts it once per repeat
        calls[start] = ((lambda *a, f=f: applied.append(gate) or f(*a)), args)
        return result
    monkeypatch.setattr(ansatz_module, "apply_planned", recording)
    run()
    monkeypatch.undo()
    return applied


@pytest.mark.parametrize("rows", [1, 50])
def test_exact_iteration_applies_each_gate_once(rows, lih_table, monkeypatch):
    # An exact HE iteration applies each of the 7 gates once, to the B
    # forward rows and the branches joined before it, the CNOT as a signed
    # permutation and the 6 rotations as products; the final iteration, which
    # needs only the states, applies them to the B rows alone.
    h, config, energy_map, _ = scan_rows(lih_table, build_hardware_efficient, True, slice(rows))
    calls = recorded_gates(monkeypatch, lambda: run_qite_rows(
        h, build_hardware_efficient, config, energy_map))
    kinds = ["product"] * 2 + ["pauli"] + ["product"] * 4
    # branches join after gates 0, 1, 3, 4, 5 and 6 (none after the CNOT)
    sweep = [(3, rows * k, kind) for k, kind in zip((1, 2, 3, 3, 4, 5, 6), kinds)]
    assert calls == sweep * 4 + [(3, rows, kind) for kind in kinds]


def test_shot_route_sweeps_as_the_exact_route(lih_table, monkeypatch):
    # The shot route reads its job values from the ExactRun call's own psi and
    # d_i, so its iterations apply the gates the exact route applies: each of
    # the 14 once to the B forward rows and the branches joined before it,
    # and the final iteration to the B rows alone.  Before them the run marks
    # its known jobs from one sweep of three probe rows and their branches.
    # A UCC-LiH sweep makes 10 products (the rotations) and 4 Pauli steps
    # (the CNOTs).
    h, config, _, seeds = scan_rows(lih_table, build_ucc_lih, False, slice(7))
    exact = recorded_gates(monkeypatch, lambda: run_qite_rows(h, build_ucc_lih, config))
    config = QiteConfig(**dict(vars(config), shots=1000))
    calls = recorded_gates(monkeypatch, lambda: run_qite_rows(h, build_ucc_lih, config,
                                                              seeds=seeds))
    kinds = ["product", "product", "pauli", "product", "pauli", "product", "product"] * 2
    branches = (1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3)
    sweep = [(4, 7 * k, kind) for k, kind in zip(branches, kinds)]
    assert exact == sweep * 4 + [(4, 7, kind) for kind in kinds]
    assert calls == [(4, 3 * k, kind) for k, kind in zip(branches, kinds)] + exact
    assert [kinds.count("product"), kinds.count("pauli")] == [10, 4]


@pytest.mark.parametrize("builder,cmf,jobs,draws", [(build_ucc_lih, False, 1342, 794),
                                                     (build_hardware_efficient, True, 3750, 2050)],
                         ids=["ucc-lih", "cmf-he"])
def test_shot_route_draws_only_the_unknown_jobs(builder, cmf, jobs, draws, lih_table,
                                                monkeypatch):
    # Each iteration of a 50-row shot run hands sample_z the exact values of
    # its drawn jobs alone, in job order (794 of the 1,342 UCC-LiH jobs and
    # 2,050 of the 3,750 CMF + HE ones), so the last bit of a known job's
    # value (a zero, say, rounded to 1e-17) cannot move a count.  The values
    # are bitwise those of a shots=None run at the iteration's angles.
    h, config, energy_map, seeds = scan_rows(lih_table, builder, cmf)
    real, received = mclachlan.sample_z, []
    monkeypatch.setattr(mclachlan, "sample_z", lambda z, *args: received.append(z.copy())
                        or real(z, *args))
    config = QiteConfig(**dict(vars(config), shots=1000))
    trajs = run_qite_rows(h, builder, config, energy_map, seeds=seeds).trajectories()
    monkeypatch.undo()
    assert len(received) == config.iterations
    for it, z in enumerate(received):
        run = SampledRun(ExactRun(builder(np.array([t.records[it].theta for t in trajs])), h),
                         None, [None] * len(seeds))
        values, drawn = run()[0], run.table[3]
        assert (len(values), len(z)) == (jobs, draws)
        assert z.tobytes() == values[drawn].tobytes(), it


@st.composite
def per_state_cases(draw):
    """(stack, gate, matrix of each state): k * B states of 1-4 qubits,
    C-contiguous or a transposed view, and a gate whose matrix is shared
    (2, 2) or one per row (B, 2, 2), state s taking row s % B."""
    n, rows, k = draw(st.integers(1, 4)), draw(st.integers(1, 5)), draw(st.integers(1, 3))
    shape = (k * rows,) + (2,) * n
    order = draw(st.permutations(range(len(shape)))) if draw(st.booleans()) else range(n + 1)
    t = draw(arrays(complex, tuple([shape[i] for i in order]), elements=AMPLITUDE))
    t = t.transpose(np.argsort(order))
    shared = draw(st.booleans())
    m = draw(arrays(complex, (2, 2) if shared else (rows, 2, 2), elements=AMPLITUDE))
    target = draw(st.integers(0, n - 1))
    control = draw(st.sampled_from([None, *(c for c in range(n) if c != target)]))
    mats = [m if shared else m[s % rows] for s in range(len(t))]
    return t, Gate(m, target, control), mats


@PROPERTY
@given(per_state_cases())
def test_per_state_gate_is_each_state_alone(case):
    t, gate, mats = case
    out = per_state_gates(t, [gate])
    for s, m in enumerate(mats):
        alone = apply_gate(t[s:s + 1], Gate(m, gate.target, gate.control))
        assert out[s].tobytes() == alone[0].tobytes(), s


@st.composite
def four_wide_cases(draw):
    """(stack, gate): 1-64 states of 3 or 4 qubits, C-contiguous or a
    transposed view, and a shared gate whose operand in each state is a
    multiple of 4 amplitudes wide (2^(n-1), halved under a control)."""
    n, states = draw(st.integers(3, 4)), draw(st.integers(1, 64))
    order = draw(st.permutations(range(n + 1))) if draw(st.booleans()) else range(n + 1)
    shape = tuple([((states,) + (2,) * n)[i] for i in order])
    t = draw(arrays(complex, shape, elements=AMPLITUDE)).transpose(np.argsort(order))
    m = draw(arrays(complex, (2, 2), elements=AMPLITUDE))
    target = draw(st.integers(0, n - 1))
    control = draw(st.sampled_from([None, *(c for c in range(n) if c != target and n == 4)]))
    return t, Gate(m, target, control)


@pytest.mark.skipif(golden_platform() != RECORDED_PLATFORM,
                    reason="the width rule is a fact of the BLAS the goldens were recorded on")
@PROPERTY
@given(four_wide_cases())
def test_shared_gate_is_per_state_when_four_wide(case):
    # simulator's width rule: one np.dot over the stack gives each state the
    # bytes of its own matmul when the state's operand is a multiple of 4
    # wide.  OpenBLAS picks its zgemm kernels per CPU, so this holds for the
    # BLAS of the goldens, not for the code on any BLAS: the contract that runs
    # everywhere is test_compiled_sweep_is_per_gate_oracle.
    t, gate = case
    stacked = apply_planned(t, gate.matrix, gate_plan(gate, t.ndim - 1, per_state=False))
    assert stacked.shape == t.shape
    assert stacked.tobytes() == per_state_gates(t, [gate]).tobytes()


@pytest.mark.parametrize("builder,per_state", [
    (build_hardware_efficient, [True, True, None, True, True, True, True]),
    (build_ucc_h2, [True, True, None, True, None, True, True]),
    (build_ucc_lih, [False, False, None, True, None, False, False] * 2),
], ids=["he", "ucc-h2", "ucc-lih"])
def test_exact_program_stacks_four_wide_shared_gates(builder, per_state):
    # On one stack axis, the rotations and every product gate narrower than 4
    # amplitudes per state (all of 2 qubits) run per state, UCC-LiH's 8 fixed
    # one-qubit gates as one np.dot each, and every CNOT as a signed
    # permutation (per_state None), whatever its width.
    ansatz = builder(np.zeros(len(THETA0[builder])))
    assert [step[3] for source, step in ansatz._steps if source is not None] == per_state


@st.composite
def buffer_cases(draw):
    """(buffer, start, count, gates): a preallocated (S, 2^n) stack of 2 or 3
    qubits, the k * B of its states from `start` on that a run of 1-3 gates
    takes, each gate shared (2, 2) or one matrix per row (B, 2, 2), with or
    without a control."""
    n, rows, k = draw(st.integers(2, 3)), draw(st.integers(1, 5)), draw(st.integers(1, 3))
    start, after = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    buf = draw(arrays(complex, (start + k * rows + after, 2 ** n), elements=AMPLITUDE))
    gates = []
    for _ in range(draw(st.integers(1, 3))):
        m = draw(arrays(complex, draw(st.sampled_from([(2, 2), (rows, 2, 2)])),
                        elements=AMPLITUDE))
        target = draw(st.integers(0, n - 1))
        control = draw(st.sampled_from([None, *(c for c in range(n) if c != target)]))
        gates.append(Gate(m, target, control))
    return buf, start, k * rows, gates


@PROPERTY
@given(buffer_cases())
def test_gates_within_buffer_equal_fresh_copy(case):
    # The sweep runs each gate on a slice of its preallocated buffer and
    # copies the result back there: every state keeps the bytes the same
    # gates give a fresh contiguous copy, and the rest of the buffer is untouched.
    buf, start, count, gates = case
    before = buf.copy()
    view = buf[start:start + count].reshape((-1,) + (2,) * (buf.shape[1].bit_length() - 1))
    fresh = per_state_gates(view.copy(), gates)
    view[...] = per_state_gates(view, gates)
    assert buf[start:start + count].tobytes() == fresh.tobytes()
    outside = np.ones(len(buf), dtype=bool)
    outside[start:start + count] = False
    assert buf[outside].tobytes() == before[outside].tobytes()


@PROPERTY
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    arrays(complex, (3, 2 ** n), elements=AMPLITUDE),
    arrays(complex, (3, 2 ** n), elements=AMPLITUDE))))
def test_batched_inner_product_is_vdot(case):
    a, b = case
    batched = (a.conj()[:, None, :] @ b[:, :, None])[:, 0, 0]
    assert batched.tobytes() == np.array([np.vdot(x, y) for x, y in zip(a, b)]).tobytes()
    # a column of a matrix stack, strided, as each ground state is read
    cols = np.stack([a, b], axis=-1)
    strided = (cols.conj()[:, None, :, 0] @ b[:, :, None])[:, 0, 0]
    assert strided.tobytes() == np.array([np.vdot(c[:, 0], y)
                                          for c, y in zip(cols, b)]).tobytes()


@PROPERTY
@given(st.integers(1, 6).flatmap(lambda g: st.tuples(
    arrays(float, (4, g, g), elements=st.floats(-1, 1)),
    arrays(float, (4, g), elements=st.floats(-1, 1)))), st.sampled_from([None, 100]))
def test_stacked_solve_is_per_system(case, shots):
    m, b = case
    a = m @ m.swapaxes(-1, -2)
    a[0] = 0.0                               # one stationary system
    dtau = np.array([0.5, 1.0, 0.25, 2.0])
    route = "exact" if shots is None else "hadamard"
    lam, vec = np.linalg.eigh(a)
    deltas, flat = solve_update(McLachlanSystem(a, b, route, shots), dtau)
    for k in range(len(a)):
        one_lam, one_vec = np.linalg.eigh(a[k])
        assert lam[k].tobytes() == one_lam.tobytes() and vec[k].tobytes() == one_vec.tobytes()
        delta, stationary = solve_update(McLachlanSystem(a[k].copy(), b[k].copy(), route, shots),
                                         dtau[k])
        assert deltas[k].tobytes() == delta.tobytes()
        assert flat[k] == stationary
        if not stationary:                   # the pseudo-inverse as one system's gemv forms
            keep = one_lam > (1e-8 if shots is None else 1e-3) * one_lam.max()
            inv = np.where(keep, 1.0, 0.0) / np.where(keep, one_lam, 1.0)
            old = dtau[k] * (one_vec @ (inv * (one_vec.T @ b[k])))
            assert delta.tobytes() == old.tobytes()
    assert flat[0]
