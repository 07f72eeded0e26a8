"""A/B estimation: exact route, Hadamard-test route, and the solver."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (apply, apply_word, assemble_system, from_pairs, row_views, sampled_oracle,
                      scratch_z, stacked)
from vqite import (PauliHamiltonian, PauliString, build_hardware_efficient, build_ucc_h2,
                   build_ucc_lih, build_hadamard_circuits, cmf_reduce, cmf_reduce_rows,
                   compute_exact, compute_sampled, hamiltonian_at, solve_update)
from vqite.ansatz import DERIVATIVE_PREFACTOR, AnsatzCircuit
from vqite import mclachlan, simulator
from vqite.mclachlan import (PASS_ROWS, ExactRun, McLachlanSystem, SampledRun, _start,
                             evaluate_circuit)
from vqite.pauli import PAULI_MATRICES
from vqite.simulator import Gate, basis_state, controlled_pauli, hadamard, x


def fd_system(builder, theta, h, eps=1e-5):
    """Finite-difference oracle for A and B."""
    theta = np.asarray(theta, float)
    gamma = theta.size
    derivs = []
    for i in range(gamma):
        tp, tm = theta.copy(), theta.copy()
        tp[i] += eps
        tm[i] -= eps
        derivs.append((builder(tp).state().amplitudes
                       - builder(tm).state().amplitudes) / (2 * eps))
    psi = builder(theta).state().amplitudes
    h_psi = apply(h, psi)
    a = np.array([[np.vdot(di, dj).real for dj in derivs] for di in derivs])
    b = np.array([-np.vdot(di, h_psi).real for di in derivs])
    return a, b


def pooled_standard_errors(jobs, gamma, shots):
    """Per-entry standard error of the sampled estimate, from exact values."""
    var_a = np.zeros((gamma, gamma))
    var_b = np.zeros(gamma)
    for job in jobs:
        z = evaluate_circuit(job.circuit)
        v = job.weight ** 2 * (1.0 - z ** 2) / shots
        if job.destination[0] == "A":
            _, i, j = job.destination
            var_a[i, j] += v
            if i != j:
                var_a[j, i] += v
        else:
            var_b[job.destination[1]] += v
    return np.sqrt(var_a), np.sqrt(var_b)


def test_ucc_h2_a_is_quarter_everywhere(h2_r07):
    for theta in np.linspace(0.0, 2 * np.pi, 32, endpoint=False):
        system = compute_exact(build_ucc_h2(theta), h2_r07)
        assert abs(system.a_matrix[0, 0] - 0.25) < 1e-12


def test_ucc_lih_offdiagonal_a_vanishes(lih_r15, rng):
    thetas = [np.array([1.0, 1.0])]
    thetas += [rng.uniform(-np.pi, np.pi, size=2) for _ in range(10)]
    for theta in thetas:
        system = compute_exact(build_ucc_lih(theta), lih_r15)
        assert abs(system.a_matrix[0, 1]) < 1e-10
        assert abs(system.a_matrix[1, 0]) < 1e-10
        assert system.a_matrix[0, 0] == pytest.approx(0.25, abs=1e-12)


def test_he_system_matches_finite_differences(lih_r15):
    h_eff = cmf_reduce(lih_r15).h_eff
    theta = [0.5] * 6
    system = compute_exact(build_hardware_efficient(theta), h_eff)
    a_fd, b_fd = fd_system(build_hardware_efficient, theta, h_eff)
    assert np.max(np.abs(system.a_matrix - a_fd)) < 1e-6
    assert np.max(np.abs(system.b_vector - b_fd)) < 1e-6


def test_a_equals_jacobian_gram(rng, lih_r15):
    theta = rng.uniform(-np.pi, np.pi, size=2)
    system = compute_exact(build_ucc_lih(theta), lih_r15)
    a_fd, _ = fd_system(build_ucc_lih, theta, lih_r15)
    assert np.max(np.abs(system.a_matrix - a_fd)) < 1e-6


def test_a_positive_semidefinite(rng, lih_r15):
    h_eff = cmf_reduce(lih_r15).h_eff
    for _ in range(5):
        theta = rng.uniform(-np.pi, np.pi, size=6)
        system = compute_exact(build_hardware_efficient(theta), h_eff)
        assert np.linalg.eigvalsh(system.a_matrix).min() > -1e-9
        assert np.max(np.abs(system.a_matrix - system.a_matrix.T)) < 1e-9


def test_b_scales_with_hamiltonian(h2_r07):
    ansatz = build_ucc_h2(1.3)
    base = compute_exact(ansatz, h2_r07)
    pairs = [(2.5 * c, word) for c, word in zip(h2_r07.coeffs.tolist(), h2_r07.words)]
    scaled = compute_exact(ansatz, from_pairs(pairs))
    assert np.max(np.abs(scaled.b_vector - 2.5 * base.b_vector)) < 1e-10
    assert np.max(np.abs(scaled.a_matrix - base.a_matrix)) < 1e-10


def test_dimension_mismatch_rejected(lih_r15):
    with pytest.raises(ValueError):
        compute_exact(build_ucc_h2(0.5), lih_r15)


def test_exact_run_checks_angle_shape(lih_r15):
    # A run of B rows takes (B, gamma) angles, one row too: a (gamma,) vector
    # or any other shape is refused with both shapes named.
    run = mclachlan.ExactRun(build_ucc_lih([0.3, 0.4]), lih_r15)
    want = [a.copy() for a in mclachlan.ExactRun(build_ucc_lih([0.3, 0.3]), lih_r15)()]
    assert [a.tobytes() for a in run(np.array([[0.3, 0.3]]))] == [a.tobytes() for a in want]
    for theta in (np.array([0.3, 0.3]), np.array([0.3, 0.3, 0.3])):
        with pytest.raises(ValueError, match=rf"angles of shape \({len(theta)},\), not \(1, 2\)"):
            run(theta)
    rows = mclachlan.ExactRun(build_ucc_lih(np.full((2, 2), 0.3)), stacked([lih_r15] * 2))
    with pytest.raises(ValueError, match=r"angles of shape \(2,\), not \(2, 2\)"):
        rows(np.array([0.3, 0.3]))



@pytest.mark.parametrize("system", [True, False], ids=["system", "states"])
def test_exact_run_checks_each_norm(lih_r15, system):
    # Each call checks the norm of every forward state, a system call from
    # the <psi|psi> of its pair product and a states-only call as
    # np.linalg.norm, when it records its sweep and when it repeats it: a row
    # at a NaN angle, and a circuit whose CNOT is scaled by 1 + 1e-6, fail.
    theta = np.full((2, 6), 0.3)
    hs = cmf_reduce_rows(stacked([lih_r15] * 2)).h_eff
    good = build_hardware_efficient(theta)
    gates = list(good.gates)
    gates[2] = Gate(PAULI_MATRICES["X"] * (1 + 1e-6), gates[2].target, gates[2].control)
    scaled = AnsatzCircuit(tuple(gates), theta, good.descriptors, good.reference_state)
    nan = np.array([theta[0], [np.nan] + [0.3] * 5])
    for circuit, angles, message in ((good, nan, "state norm nan"),
                                     (scaled, theta, r"state norm 1\.00000")):
        fresh, repeated = mclachlan.ExactRun(circuit, hs), mclachlan.ExactRun(circuit, hs)
        if circuit is good:
            repeated(theta, system)
        for run in (fresh, repeated):
            with pytest.raises(ValueError, match=message):
                run(angles, system)

# --- Hadamard route ---

def test_ancilla_preparation():
    # A test starts as the reference state (x) (|0> + e^{i phi} |1>)/sqrt(2).
    for phi in (0.0, 0.7, -np.pi / 2):
        target = np.array([1.0, np.exp(1j * phi)]) / np.sqrt(2)
        start = _start(basis_state("01"), [phi, 0.0]).reshape(2, -1)[0]
        assert np.max(np.abs(start - np.kron([0, 1, 0, 0], target))) < 1e-12


def insertion_oracle(ansatz, h):
    """(gates, destination) of every test circuit, assembled by inserting
    gate lists before ansatz gate positions, for any descriptor order."""
    anc = ansatz.n_system_qubits
    descs = ansatz.descriptors

    def ctrl(sigma):
        return controlled_pauli(anc, range(sigma.n_qubits), sigma.letters)

    def assemble(insertions, tail):
        gates = []
        for pos, g in enumerate(ansatz.gates):
            gates += insertions.get(pos, []) + [g]
        return gates + insertions.get(len(ansatz.gates), []) + tail + [hadamard(anc)]

    out = []
    for i, di in enumerate(descs):
        for j in range(i, len(descs)):
            ins = {di.insertion_point: [x(anc), *ctrl(di.sigma), x(anc)]}
            ins.setdefault(descs[j].insertion_point, []).extend(ctrl(descs[j].sigma))
            out.append((assemble(ins, []), ("A", i, j)))
    for i, di in enumerate(descs):
        for sigma in map(PauliString, h.words):
            anti = {di.insertion_point: [x(anc), *ctrl(di.sigma), x(anc)]}
            out.append((assemble(anti, ctrl(sigma)), ("B", i)))
    return out


def test_circuits_match_insertion_oracle(lih_r15, h2_r07, rng):
    for ansatz, h in memo_cases(lih_r15, h2_r07, rng):
        jobs = build_hadamard_circuits(ansatz, h)
        oracle = insertion_oracle(ansatz, h)
        assert [job.destination for job in jobs] == [dest for _, dest in oracle]
        for job, (gates, _) in zip(jobs, oracle):
            assert len(job.circuit.gates) == len(gates)
            for got, want in zip(job.circuit.gates, gates):
                assert np.array_equal(got.matrix, want.matrix)
                assert (got.target, got.control) == (want.target, want.control)


def test_analytic_z_is_branch_overlap(lih_r15, h2_r07, rng):
    # With the ancilla in (|0> + e^{i phi}|1>)/sqrt(2), the analytic ancilla Z
    # of a test is Re(e^{i phi} <bra|ket>) (McArdle et al., npj QI 5, 75 (2019)):
    # bra the sigma_i branch, ket the sigma_j branch (A) or sigma_l |psi> (B).
    for ansatz, h in memo_cases(lih_r15, h2_r07, rng):
        gamma = ansatz.n_parameters
        branch = [ansatz.derivative_state(i) / DERIVATIVE_PREFACTOR for i in range(gamma)]
        psi = ansatz.state().amplitudes
        kets = [branch[j] for i in range(gamma) for j in range(i, gamma)]
        kets += [apply_word(w, psi) for _ in range(gamma) for w in h.words]
        jobs = build_hadamard_circuits(ansatz, h)
        assert len(jobs) == len(kets)
        for job, ket in zip(jobs, kets):
            bra = branch[job.destination[1]]
            expected = (np.exp(1j * job.circuit.ancilla_phase) * np.vdot(bra, ket)).real
            assert abs(evaluate_circuit(job.circuit) - expected) < 1e-12, job.destination


@pytest.mark.parametrize("family", ["ucc-h2", "ucc-lih", "he"])
def test_sweep_analytic_z_is_branch_overlap(table_cases, family):
    # The sweep's analytic ancilla Z of every job (shots=None), for one row
    # and for all rows of a table at once, is Re(e^{i phi} <bra|ket>) with
    # the branch states taken from the circuit's own derivative sweep.
    builder, _, gamma = FAMILIES[family]
    rows = [(a.parameters, h) for a, h in table_cases if a.n_parameters == gamma]
    for batch in (rows[:1], rows):
        ansatz = builder(np.array([theta for theta, _ in batch]))
        hs = [h for _, h in batch]
        values = SampledRun(ExactRun(ansatz, stacked(hs)), None, [None])()[0]
        branches, psi = ansatz.derivatives / DERIVATIVE_PREFACTOR, ansatz.states()
        expected = []
        for b, (theta, h) in enumerate(batch):
            branch = branches[:, b]
            kets = [branch[j] for i in range(gamma) for j in range(i, gamma)]
            kets += [apply_word(w, psi[b]) for _ in range(gamma) for w in h.words]
            jobs = build_hadamard_circuits(builder(theta), h)
            assert len(jobs) == len(kets)
            expected += [(np.exp(1j * job.circuit.ancilla_phase)
                          * np.vdot(branch[job.destination[1]], ket)).real
                         for job, ket in zip(jobs, kets)]
        assert len(values) == len(expected)
        assert np.max(np.abs(values - np.array(expected))) < 1e-12


def test_ucc_h2_circuit_counts(h2_r07):
    jobs = build_hadamard_circuits(build_ucc_h2(0.9), h2_r07)
    a_jobs = [j for j in jobs if j.destination[0] == "A"]
    b_jobs = [j for j in jobs if j.destination[0] == "B"]
    assert len(a_jobs) == 1
    assert len(b_jobs) == len(h2_r07.words)


@pytest.mark.parametrize("angle_shape", [(2,), (1, 2)])
def test_circuits_of_a_one_row_stack_are_its_sums(lih_table, angle_shape):
    # A one-row stack gives the jobs of its row's plain sum: the same weights,
    # destinations, ancilla phases and gate matrices, 29 jobs on UCC-LiH.
    ansatz = build_ucc_lih(np.full(angle_shape, 0.3))
    plain = build_hadamard_circuits(ansatz, hamiltonian_at(lih_table, lih_table.rows[10][0]))
    stacked = build_hadamard_circuits(ansatz, lih_table.hamiltonians([10]))
    assert len(plain) == len(stacked) == 29
    for a, b in zip(plain, stacked):
        assert (a.weight, a.destination, a.circuit.ancilla_phase) == (
            b.weight, b.destination, b.circuit.ancilla_phase)
        assert len(a.circuit.gates) == len(b.circuit.gates)
        for g, h in zip(a.circuit.gates, b.circuit.gates):
            assert (g.target, g.control) == (h.target, h.control)
            assert np.array_equal(g.matrix, h.matrix)


def test_circuits_refuse_a_stack_of_rows(lih_table):
    with pytest.raises(ValueError, match=r"^a stack of 2 Hamiltonians: "
                                         r"use compute_sampled for a stack$"):
        build_hadamard_circuits(build_ucc_lih(np.full((2, 2), 0.3)),
                                lih_table.hamiltonians([10, 20]))


def test_route_equivalence_exact_mode(h2_r07, lih_r15):
    cases = [
        (build_ucc_h2(0.9), h2_r07),
        (build_ucc_h2(2.0), h2_r07),
        (build_ucc_lih([1.0, 1.0]), lih_r15),
        (build_hardware_efficient([0.5] * 6), cmf_reduce(lih_r15).h_eff),
    ]
    for ansatz, h in cases:
        exact = compute_exact(ansatz, h)
        sampled = compute_sampled(ansatz, h, shots=None)
        assert np.max(np.abs(sampled.a_matrix - exact.a_matrix)) < 1e-10
        assert np.max(np.abs(sampled.b_vector - exact.b_vector)) < 1e-10
        assert sampled.route == "hadamard"


def test_sampled_a11_within_binomial_bound(h2_r07):
    system = compute_sampled(build_ucc_h2(0.9), h2_r07, shots=10 ** 5, seed=7)
    assert abs(system.a_matrix[0, 0] - 0.25) <= 3.0 / np.sqrt(10 ** 5)


def test_sampled_he_within_pooled_errors(lih_r15):
    h_eff = cmf_reduce(lih_r15).h_eff
    ansatz = build_hardware_efficient([0.5] * 6)
    shots = 10 ** 5
    exact = compute_exact(ansatz, h_eff)
    sampled = compute_sampled(ansatz, h_eff, shots=shots, seed=123)
    jobs = build_hadamard_circuits(ansatz, h_eff)
    se_a, se_b = pooled_standard_errors(jobs, 6, shots)
    dev_a = np.abs(sampled.a_matrix - exact.a_matrix)
    dev_b = np.abs(sampled.b_vector - exact.b_vector)
    assert np.all(dev_a <= 5.0 * se_a + 1e-15)
    assert np.all(dev_b <= 5.0 * se_b + 1e-15)


def memo_cases(lih_r15, h2_r07, rng):
    h_eff = cmf_reduce(lih_r15).h_eff
    return [
        (build_ucc_h2(rng.uniform(-np.pi, np.pi, 1)), h2_r07),
        (build_ucc_lih(rng.uniform(-np.pi, np.pi, 2)), lih_r15),
        (build_hardware_efficient(rng.uniform(-np.pi, np.pi, 6)), h_eff),
    ]


def test_prefix_memo_bitwise_equals_scratch(lih_r15, h2_r07, rng):
    # The sweep runs each ansatz gate once over all branches; each job's
    # value is still that of its circuit run alone.
    for ansatz, h in memo_cases(lih_r15, h2_r07, rng):
        values = SampledRun(ExactRun(ansatz, h), None, [None])()[0]
        circuits = build_hadamard_circuits(ansatz, h)
        assert len(values) == len(circuits)
        for z, job in zip(values, circuits):
            assert z == evaluate_circuit(job.circuit) == scratch_z(job.circuit)


@pytest.mark.parametrize("seed", [0, 5])
def test_sampled_bitwise_equals_scratch_loop(lih_r15, h2_r07, rng, seed):
    for ansatz, h in memo_cases(lih_r15, h2_r07, rng):
        sampled = compute_sampled(ansatz, h, shots=1000, seed=seed)
        draws = np.random.default_rng(seed)
        jobs = build_hadamard_circuits(ansatz, h)
        values = [scratch_z(job.circuit, 1000, draws) for job in jobs]
        ref = assemble_system(jobs, values, ansatz.n_parameters, "hadamard", 1000)
        assert np.array_equal(sampled.a_matrix, ref.a_matrix)
        assert np.array_equal(sampled.b_vector, ref.b_vector)


def same_system(got, want):
    return (got.a_matrix.tobytes() == want.a_matrix.tobytes()
            and got.b_vector.tobytes() == want.b_vector.tobytes())


def oracle_agrees(ansatz, h, shots_list, seed):
    """compute_sampled and sampled_oracle at each shot count, from twin
    generators: the same A and B bytes and generator state afterwards."""
    gens = [np.random.default_rng(seed) for _ in shots_list]
    twins = [np.random.default_rng(seed) for _ in shots_list]
    want = sampled_oracle(ansatz, h, list(zip(shots_list, twins)))
    for shots, gen, twin, ref in zip(shots_list, gens, twins, want):
        got = compute_sampled(ansatz, h, shots, gen)
        if not (same_system(got, ref) and gen.bit_generator.state == twin.bit_generator.state):
            return False
    return True


@pytest.fixture(scope="module")
def table_cases(lih_table, h2_table):
    """(ansatz, h) for every table row at random angles: UCC-LiH on the 50
    LiH rows, HE on their CMF-reduced h_eff, UCC-H2 on the H2 rows."""
    draw = np.random.default_rng(12)
    lih = [hamiltonian_at(lih_table, r) for r in lih_table.bond_distances]
    cases = [(build_ucc_lih(draw.uniform(-np.pi, np.pi, 2)), h) for h in lih]
    cases += [(build_hardware_efficient(draw.uniform(-np.pi, np.pi, 6)), h_eff)
              for h_eff in row_views(cmf_reduce_rows(stacked(lih)).h_eff)]
    cases += [(build_ucc_h2(draw.uniform(-np.pi, np.pi, 1)), hamiltonian_at(h2_table, r))
              for r in h2_table.bond_distances]
    return cases


def test_sampled_is_per_job_oracle_bitwise(table_cases):
    for k, (ansatz, h) in enumerate(table_cases):
        assert oracle_agrees(ansatz, h, [None, 1, 10_000], 1000 + k), k


FAMILIES = {"ucc-h2": (build_ucc_h2, 2, 1), "ucc-lih": (build_ucc_lih, 3, 2),
            "he": (build_hardware_efficient, 2, 6)}


@st.composite
def sampled_cases(draw):
    family = draw(st.sampled_from(sorted(FAMILIES)))
    _, n, gamma = FAMILIES[family]
    sign = draw(st.sampled_from([-1.0, 1.0, None]))   # None: mixed signs
    coeff = st.floats(0.01, 2.0) if sign else st.floats(-2.0, 2.0)
    pairs = draw(st.lists(st.tuples(coeff, st.text("IXYZ", min_size=n, max_size=n)),
                          min_size=1, max_size=6))
    pairs = [(c * (sign or 1.0), w) for c, w in pairs]
    theta = draw(st.lists(st.floats(-np.pi, np.pi), min_size=gamma, max_size=gamma))
    return (family, pairs, theta, draw(st.sampled_from([None, 1, 7, 10_000])),
            draw(st.integers(0, 2 ** 32 - 1)))


@settings(deadline=None, derandomize=True, max_examples=40)
@given(sampled_cases())
@example(("ucc-h2", [(0.4, "II")], [0.3], 10_000, 1))             # one term, identity word
@example(("ucc-lih", [(0.3, "ZII"), (0.2, "XXI"), (1.1, "III")], [0.3, -1.2], 7, 2))
@example(("he", [(-0.3, "ZZ"), (-0.5, "XI")], [0.1, 0.2, 0.3, 0.4, 0.5, 0.6], 1, 3))
def test_sampled_is_per_job_oracle_on_random_hamiltonians(case):
    # Single-sign coefficients give one B phase, mixed signs two.
    family, pairs, theta, shots, seed = case
    builder, n, _ = FAMILIES[family]
    h = from_pairs(pairs, n_qubits=n)
    assert oracle_agrees(builder(theta), h, [shots], seed)


def rows_agree(builder, theta, hs, shots_list, seeds):
    """compute_sampled of B rows as one batch and sampled_oracle of each row
    alone, from twin generators: at each shot count, every row's A and B
    bytes and its generator's state afterwards agree."""
    twins = [[np.random.default_rng(s) for s in seeds] for _ in shots_list]
    want = [sampled_oracle(builder(t), h, [(shots, tw[b]) for shots, tw in
                                           zip(shots_list, twins)])
            for b, (t, h) in enumerate(zip(theta, hs))]
    for k, shots in enumerate(shots_list):
        gens = [np.random.default_rng(s) for s in seeds]
        got = compute_sampled(builder(np.array(theta)), stacked(hs), shots, gens)
        for b, (gen, twin) in enumerate(zip(gens, twins[k])):
            if not (got.a_matrix[b].tobytes() == want[b][k].a_matrix.tobytes()
                    and got.b_vector[b].tobytes() == want[b][k].b_vector.tobytes()
                    and gen.bit_generator.state == twin.bit_generator.state):
                return False
    return True


@pytest.mark.parametrize("family", ["ucc-lih", "he", "ucc-h2"])
def test_batched_sampled_is_per_row_oracle_bitwise(table_cases, family):
    # Every row of a table in one batch: under UCC-LiH the 11-term LiH rows
    # (R = 4.9 and 5.0) sit beside 13-term rows; HE runs the CMF h_eff.
    builder, _, gamma = FAMILIES[family]
    rows = [(ansatz.parameters, h) for ansatz, h in table_cases if ansatz.n_parameters == gamma]
    theta, hs = zip(*rows)
    if family == "ucc-lih":
        assert {len(h.words) for h in hs} == {11, 13}
    assert rows_agree(builder, theta, hs, [None, 1, 10_000], range(2000, 2000 + len(hs)))


@st.composite
def batched_cases(draw):
    """Rows of random term subsets of one word pool, each with coefficients
    of one sign (one B phase) or of mixed signs (two)."""
    family = draw(st.sampled_from(sorted(FAMILIES)))
    _, n, gamma = FAMILIES[family]
    pool = draw(st.lists(st.text("IXYZ", min_size=n, max_size=n), min_size=1, max_size=5,
                         unique=True))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        words = draw(st.lists(st.sampled_from(pool), min_size=1, unique=True))
        sign = draw(st.sampled_from([-1.0, 1.0, None]))   # None: mixed signs
        rows.append([(draw(st.floats(0.01, 2.0)) * (sign or draw(st.sampled_from([-1.0, 1.0]))),
                      w) for w in words])
    angles = st.lists(st.floats(-np.pi, np.pi), min_size=gamma, max_size=gamma)
    theta = draw(st.lists(angles, min_size=len(rows), max_size=len(rows)))
    return (family, rows, theta, draw(st.sampled_from([None, 1, 7, 10_000])),
            draw(st.integers(0, 2 ** 32 - 1)))


@settings(deadline=None, derandomize=True, max_examples=40)
@given(batched_cases())
@example(("ucc-lih", [[(0.3, "ZII"), (0.2, "XXI")],
                      [(-0.3, "ZII"), (0.5, "XXI"), (1.1, "III")]],
          [[0.3, -1.2], [1.0, 0.5]], 7, 2))
@example(("he", [[(-0.3, "ZZ")], [(0.4, "XI"), (-0.5, "ZZ")], [(0.2, "II")]],
          [[0.1, 0.2, 0.3, 0.4, 0.5, 0.6], [0.6, 0.5, 0.4, 0.3, 0.2, 0.1], [0.0] * 6], 1, 3))
def test_batched_sampled_is_per_row_oracle_on_random_hamiltonians(case):
    family, rows, theta, shots, seed = case
    builder, n, _ = FAMILIES[family]
    hs = [from_pairs(pairs, n_qubits=n) for pairs in rows]
    assert rows_agree(builder, theta, hs, [shots], range(seed, seed + len(hs)))


GRID_WORDS = {2: ("XY", "ZZ", "IX", "YI", "II"), 3: ("XYZ", "ZII", "XXI", "IYY", "III")}


def grid_hamiltonians(n, phases, rows):
    """`rows` Hamiltonians on n qubits whose jobs take `phases` ancilla
    phases: 1, no terms (A jobs only); 2, negative coefficients; 3, mixed
    signs.  The first of 2 is -1.0 XY on 2 qubits."""
    hs = []
    for b in range(rows):
        terms = 0 if phases == 1 else 1 + (phases == 3) + b % 2
        pairs = [(-(1.0 + 0.5 * k) * (-1.0) ** (k * (phases == 3)), GRID_WORDS[n][(b + k) % 5])
                 for k in range(terms)]
        hs.append(from_pairs(pairs, n_qubits=n))
    return hs


@pytest.mark.parametrize("phases", [1, 2, 3])
@pytest.mark.parametrize("family", ["ucc-h2", "he", "ucc-lih"])
def test_sampled_is_per_job_oracle_on_grid(family, phases):
    # A fixed grid that always runs: each family at 1, 2 or 3 ancilla phases,
    # one row at 1-D theta, then B = 1..5 rows at 2-D theta, and B =
    # PASS_ROWS + 1 and 2 PASS_ROWS + 1, whose last measured pass holds one
    # row.  Its case ucc-h2, h = -1.0 XY, theta = 1.0 fails a sweep whose
    # products over the 2-qubit half-states of a row take an odd number of
    # them; so do the multi-pass batches at 2 phases.
    builder, n, gamma = FAMILIES[family]
    h = grid_hamiltonians(n, phases, 1)[0]
    assert len(SampledRun(ExactRun(builder(np.ones(gamma)), h), None, [None]).table[0]) == phases
    assert oracle_agrees(builder(np.ones(gamma)), h, [None, 10_000], 5)
    for rows in (*range(1, 6), PASS_ROWS + 1, 2 * PASS_ROWS + 1):
        theta = 1.0 - 0.6 * np.arange(rows)[:, None] + 0.3 * np.arange(gamma)
        hs = grid_hamiltonians(n, phases, rows)
        assert rows_agree(builder, theta, hs, [None, 1000, 10_000], range(7, 7 + rows)), rows


def test_sweep_runs_each_ansatz_gate_once(lih_table, monkeypatch):
    # One batched compute_sampled applies each gate of the batched build
    # once, whatever B is, to the stack of half-states; the joins B_j and C_j
    # are signed permutations, not gates, and the closing H runs once per
    # pass of PASS_ROWS rows.  The 50 LiH rows (3 ancilla phases, gamma = 2)
    # end with B (1 + 3 + 2 gamma) = 400 half-states of 8 amplitudes.
    planned, real = mclachlan.apply_planned, simulator.apply_gate
    for rows in (1, 50):
        swept, closing = [], []
        monkeypatch.setattr(mclachlan, "apply_planned", lambda t, m, *plan: swept.append(
            (m, t.shape)) or planned(t, m, *plan))
        monkeypatch.setattr(simulator, "apply_gate",
                            lambda t, g, *kernel: closing.append(g) or real(t, g, *kernel))
        ansatz = build_ucc_lih(np.ones((rows, 2)))
        compute_sampled(ansatz, lih_table.hamiltonians(range(rows)), 10_000, list(range(rows)))
        monkeypatch.undo()
        assert len(swept) == len(ansatz.gates) == 14
        assert all(np.array_equal(m, g.matrix) for (m, _), g in zip(swept, ansatz.gates))
        assert len(closing) == -(-rows // PASS_ROWS)
        assert all(g.matrix is hadamard(3).matrix and g.target == 3 for g in closing)
    assert swept[-1][1] == (50, 1 + 3 + 2 * 2, 2, 2, 2)     # 400 half-states


@pytest.fixture(scope="module")
def shot_batches(lih_table):
    """(ansatz, h, shots) of the 50-row UCC-LiH batch and of HE on the 50
    CMF h_eff rows, at random angles."""
    draw, hs = np.random.default_rng(35), lih_table.hamiltonians(range(50))
    return [(build_ucc_lih(draw.uniform(-np.pi, np.pi, (50, 2))), hs, 10_000),
            (build_hardware_efficient(draw.uniform(-np.pi, np.pi, (50, 6))),
             cmf_reduce_rows(hs).h_eff, 1000)]


def test_sampled_values_do_not_depend_on_the_pass_size(shot_batches, monkeypatch):
    # Each row draws from its own generator whichever pass measures its
    # jobs, so the values, A and B keep every byte when the passes hold 1,
    # 3, 8 or all 50 rows.
    for ansatz, h, shots in shot_batches:
        got = []
        for rows in (1, 3, 8, 64):
            monkeypatch.setattr(mclachlan, "PASS_ROWS", rows)
            got.append([x.tobytes() for x in SampledRun(ExactRun(ansatz, h), shots, range(50))()])
        assert got[1:] == got[:1] * 3


def test_sampled_norm_failure_draws_nothing(shot_batches):
    # The norms of all jobs are checked once, after the last pass and
    # before any row draws: a failing job of the last row leaves every
    # generator as it was, those of rows measured in earlier passes too.
    ansatz, h, shots = shot_batches[0]
    gens, twins = ([np.random.default_rng(s) for s in range(50)] for _ in range(2))
    run = SampledRun(ExactRun(ansatz, h), shots, gens)
    run.halves[-1] *= 1.001
    with pytest.raises(ValueError, match="norm"):
        run()
    assert [g.bit_generator.state for g in gens] == [t.bit_generator.state for t in twins]


def test_sampled_table_is_keyed_on_values(lih_table):
    # The compiled jobs of a batch are found again for equal Hamiltonians
    # built anew, as a repeated invocation in one process builds them (and a
    # one-point batch that fails, when it runs again alone), and not for a
    # coefficient one ulp away.  A run makes its table once.
    from vqite.mclachlan import _table

    def rows():
        return lih_table.hamiltonians(range(50))

    ansatz, first, second = build_ucc_lih(np.ones((50, 2))), rows(), rows()
    assert first is not second and first.coeffs is not second.coeffs
    _table.cache_clear()
    for h in (first, second):
        compute_sampled(ansatz, h, None)
    assert (_table.cache_info().misses, _table.cache_info().hits) == (1, 1)
    moved = second.coeffs.copy()
    moved[7, 3] = np.nextafter(moved[7, 3], np.inf)
    compute_sampled(ansatz, PauliHamiltonian(second.words, moved, 3), None)
    assert (_table.cache_info().misses, _table.cache_info().hits) == (2, 1)


def test_sampled_reproducible(h2_r07):
    a = compute_sampled(build_ucc_h2(0.9), h2_r07, shots=2000, seed=42)
    b = compute_sampled(build_ucc_h2(0.9), h2_r07, shots=2000, seed=42)
    assert np.array_equal(a.a_matrix, b.a_matrix)
    assert np.array_equal(a.b_vector, b.b_vector)


def test_sampled_rejects_bad_shots(h2_r07):
    with pytest.raises(ValueError):
        compute_sampled(build_ucc_h2(0.9), h2_r07, shots=0)


def test_sampled_rejects_missing_seed(h2_r07):
    # A seedless shot estimate would draw from OS entropy and not reproduce;
    # the analytic mode needs no seed.
    with pytest.raises(ValueError, match="seed"):
        compute_sampled(build_ucc_h2(0.9), h2_r07, shots=100)
    with pytest.raises(ValueError, match="seed"):
        compute_sampled(build_ucc_h2(np.full((2, 1), 0.9)), stacked([h2_r07] * 2), 100, [1, None])
    with pytest.raises(ValueError, match="seed"):
        compute_sampled(build_ucc_h2(np.full((2, 1), 0.9)), stacked([h2_r07] * 2), 100)
    compute_sampled(build_ucc_h2(0.9), h2_r07, shots=None)


def test_sampled_refuses_one_seed_for_a_batch(h2_r07):
    # A batch needs a seed or generator per row: one integer or Generator
    # for all rows is the documented ValueError, not a TypeError from len().
    ansatz, hs = build_ucc_h2(np.full((2, 1), 0.9)), stacked([h2_r07] * 2)
    for seed in (3, np.random.default_rng(3)):
        with pytest.raises(ValueError, match="a seed or generator for each of the 2 rows"):
            compute_sampled(ansatz, hs, 100, seed)
        with pytest.raises(ValueError, match="a seed or generator for each of the 2 rows"):
            SampledRun(ExactRun(ansatz, hs), 100, seed)


def test_sampled_counts_per_row_seeds_that_do_not_stack(shot_batches):
    # Per-row seeds of unequal lengths are counted, not stacked: row 0 draws
    # from default_rng((17,)) and row r from default_rng((1, r)), as a run on
    # those generators draws.  49 seeds for 50 rows are still refused.
    ansatz, h, shots = shot_batches[0]
    seeds = [(17,)] + [(1, r) for r in range(1, 50)]
    run = ExactRun(ansatz, h)
    got = SampledRun(run, shots, seeds)()
    want = SampledRun(run, shots, [np.random.default_rng(s) for s in seeds])()
    assert [x.tobytes() for x in got] == [x.tobytes() for x in want]
    with pytest.raises(ValueError, match="a seed or generator for each of the 50 rows"):
        SampledRun(run, shots, seeds[1:])


@pytest.mark.parametrize("shots", [2.5, True])
def test_sampled_refuses_shots_that_are_not_an_int(h2_r07, shots):
    with pytest.raises(ValueError, match="shots must be >= 1"):
        compute_sampled(build_ucc_h2(0.9), h2_r07, shots, 1)


def test_sampled_shot_count_ends_at_the_int64_count(h2_r07):
    # A binomial draw takes an int64 count: 2^63 shots are refused before
    # any draw, not failed by numpy's cast; 2^63 - 1 is drawn.
    with pytest.raises(ValueError, match=r"shots must be >= 1 and < 2\*\*63"):
        compute_sampled(build_ucc_h2(0.9), h2_r07, 2 ** 63, 1)
    system = compute_sampled(build_ucc_h2(0.9), h2_r07, 2 ** 63 - 1, 1)
    assert system.shots == 2 ** 63 - 1 and np.isfinite(system.b_vector).all()


# --- solver ---

def test_solve_scalar_case():
    system = McLachlanSystem(np.array([[0.25]]), np.array([0.1]))
    delta, stationary = solve_update(system, 1.0)
    assert delta[0] == pytest.approx(0.4)
    assert not stationary


def test_solve_zero_matrix_is_stationary():
    system = McLachlanSystem(np.zeros((3, 3)), np.array([1.0, 2.0, 3.0]))
    delta, stationary = solve_update(system, 0.5)
    assert np.array_equal(delta, np.zeros(3))
    assert stationary


def test_solve_matches_dense_solver(rng):
    m = rng.normal(size=(6, 6))
    a = m @ m.T + 0.5 * np.eye(6)
    b = rng.normal(size=6)
    system = McLachlanSystem(a, b)
    delta, _ = solve_update(system, 0.7)
    assert np.max(np.abs(delta - 0.7 * np.linalg.solve(a, b))) < 1e-9


def test_solve_shot_route_uses_looser_cutoff():
    a = np.diag([1.0, 1e-5])
    b = np.array([1.0, 1.0])
    exact, _ = solve_update(McLachlanSystem(a, b, route="exact"), 1.0)
    noisy, _ = solve_update(McLachlanSystem(a, b, route="hadamard", shots=100), 1.0)
    assert exact[1] == pytest.approx(1e5)
    assert noisy[1] == pytest.approx(0.0)  # dropped below 1e-3 cutoff


def test_solve_rejects_bad_dtau(h2_r07):
    system = compute_exact(build_ucc_h2(0.9), h2_r07)
    with pytest.raises(ValueError):
        solve_update(system, 0.0)
