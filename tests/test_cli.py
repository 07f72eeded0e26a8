"""CLI surface: manifests, outputs, determinism, exit codes."""

import argparse
import warnings

import numpy as np
import pytest

from conftest import run_cli, serialize_table, term_bytes
from vqite import (DensityMatrix, MoleculeTable, build_ucc_lih, cli, cmf_reduce, exact_spectrum,
                   gershgorin_emax, hamiltonian_at, lift_ground_state, load_lih_table,
                   run_qite, run_qite_rows, to_dense_matrix)
from vqite.cli import (ManifestError, RunManifest, build_parser, discontinuity_rs,
                       emit_outputs, main, run_scan, validate_manifest)
from vqite.engine import QiteConfig


def manifest(**kwargs):
    defaults = dict(table="lih", ansatz="he", cmf=True,
                    r_selection=(1.4, 1.5), iterations=4, seed=0)
    defaults.update(kwargs)
    return RunManifest(**defaults)


def read(path):
    return path.read_bytes()


def test_scan_writes_expected_files(tmp_path):
    m = manifest(trace=True, out_dir=str(tmp_path))
    points, trajectories, cmf_records = run_scan(m)
    emit_outputs(points, trajectories, tmp_path, m, cmf_records)
    curve = (tmp_path / "curve.csv").read_text().splitlines()
    assert curve[0] == "R,e_qite,e_exact,fidelity,iterations,flags"
    assert len(curve) == 3
    for r in (1.4, 1.5):
        trace = (tmp_path / f"trace_R{r:g}.csv").read_text().splitlines()
        assert trace[0].startswith("iter,theta_1")
        assert len(trace) == 6  # header + 5 records for l = 4
    assert (tmp_path / "manifest.echo").exists()
    assert (tmp_path / "cmf_selection.txt").exists()


def test_scan_deterministic_bytes(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        m = manifest(trace=True, out_dir=str(out),
                     route="hadamard", shots=500, seed=3)
        points, trajectories, cmf_records = run_scan(m)
        emit_outputs(points, trajectories, out, m, cmf_records)
    for name in ("curve.csv", "trace_R1.4.csv", "trace_R1.5.csv",
                 "manifest.echo", "cmf_selection.txt"):
        assert read(out_a / name) == read(out_b / name), name


def test_point_matches_engine(lih_r15):
    m = manifest(ansatz="ucc-lih", cmf=False, r_selection=(1.5,))
    points, trajectories, _ = run_scan(m)
    cfg = QiteConfig(initial_theta=(1.0, 1.0), iterations=4,
                     seed=(0, 1500))
    traj = run_qite(lih_r15, build_ucc_lih, cfg)
    assert points[0].e_qite == pytest.approx(traj.converged_energy, abs=1e-14)
    assert points[0].final_fidelity == pytest.approx(traj.final_fidelity, abs=1e-14)


def test_variational_bound_on_curve():
    points, _, _ = run_scan(manifest(r_selection=(0.5, 1.5, 3.0)))
    for p in points:
        assert p.e_qite >= p.e_exact - 1e-9
        assert "bound-violation" not in p.flags


def test_discontinuity_flags(lih_table, tmp_path):
    assert discontinuity_rs(lih_table) == {4.9, 5.0}
    points, _, _ = run_scan(manifest(r_selection=(4.9,)))
    assert "discontinuity" in points[0].flags
    points, _, _ = run_scan(manifest(r_selection=(1.5,)))
    assert "discontinuity" not in points[0].flags
    # an R typed within the row-match tolerance runs as its row, flag included
    runs = [run_cli(["scan", "--cmf", "--r", rs], tmp_path / rs)
            for rs in ("4.9,5.0", "4.9000000001,5.0000000001")]
    assert runs[0] == runs[1]
    assert runs[0][1].count("flags=discontinuity") == 2


def test_manifest_validation_errors():
    with pytest.raises(ManifestError, match="he acts on 2 qubits, the run's Hamiltonian on 3"):
        run_scan(manifest(ansatz="he", cmf=False))     # 3-qubit table, no CMF
    with pytest.raises(ManifestError):
        run_scan(manifest(ansatz="ucc-h2"))            # needs 2-qubit table
    with pytest.raises(ManifestError):
        run_scan(manifest(r_selection=()))             # empty selection
    with pytest.raises(ManifestError):
        run_scan(manifest(r_selection=(1.23,)))        # not a table row
    with pytest.raises(ManifestError):
        run_scan(manifest(r_selection=(1.5, 1.5 + 1e-10)))  # one row twice
    with pytest.raises(ManifestError):
        run_scan(manifest(theta0=(0.1, 0.2)))          # wrong arity for he
    with pytest.raises(ManifestError, match="ucc-lih acts on 3 qubits, the run's Hamiltonian on 2"):
        run_scan(manifest(ansatz="ucc-lih"))           # 3-qubit ansatz, 2-qubit CMF run


def test_h2_table_scan():
    m = manifest(table="h2-synthetic", ansatz="ucc-h2", cmf=False,
                 r_selection=(0.7,), theta0=(2.0,))
    points, _, _ = run_scan(m)
    assert points[0].e_qite == pytest.approx(points[0].e_exact, abs=1e-2)
    assert points[0].final_fidelity > 0.99


def test_main_scan_exit_zero(tmp_path, capsys):
    rc = main(["scan", "--table", "lih", "--ansatz", "he", "--cmf",
               "--r", "1.5", "--out", str(tmp_path), "--trace"])
    assert rc == 0
    assert "R=1.5" in capsys.readouterr().out
    assert (tmp_path / "curve.csv").exists()


def test_main_manifest_error_exit_two(capsys):
    rc = main(["scan", "--table", "lih", "--ansatz", "he", "--r", "1.5"])
    assert rc == 2
    assert "manifest error" in capsys.readouterr().err


@pytest.mark.parametrize("command,flag,value", [
    ("point", "--dtau", "nan"),
    ("point", "--dtau", "inf"),
    ("scan", "--theta0", "nan,1"),
    ("point", "--theta0", "inf,1"),
    ("excited", "--dtau", "nan"),
    ("excited", "--dtau", "inf"),
])
def test_main_non_finite_value_exit_two(tmp_path, capsys, command, flag, value):
    argv = [command, "--table", "lih", "--r", "1.5", flag, value]
    if command != "excited":
        argv += ["--ansatz", "ucc-lih", "--out", str(tmp_path / "d")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"manifest error: {flag}")
    assert not (tmp_path / "d").exists()


def test_main_negative_seed_exit_two(tmp_path, capsys):
    rc = main(["scan", "--table", "lih", "--ansatz", "ucc-lih", "--route", "shots:100",
               "--r", "1.5,2.0", "--seed", "-1", "--out", str(tmp_path / "d")])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("manifest error: --seed must be non-negative")
    assert captured.out == ""
    assert not (tmp_path / "d").exists()


RUN_FLAGS = {"--table", "--ansatz", "--cmf", "--r", "--iters", "--dtau", "--route", "--seed",
             "--theta0", "--out", "--trace"}


def test_subcommand_option_sets():
    # Each subcommand's option strings, as the one manifest path for scan,
    # point and excited must keep them: no flag added, none dropped.
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
               for name, p in sub.choices.items()}
    assert options == {"scan": RUN_FLAGS, "point": RUN_FLAGS, "spectrum": {"--table", "--r"},
                       "excited": {"--table", "--r", "--iters", "--dtau", "--seed"},
                       "validate": {"--table"}}


@pytest.mark.parametrize("command", ["point"])
@pytest.mark.parametrize("r", ["1.4,1.5", "all"])
def test_main_one_bond_distance_commands(command, r, capsys):
    assert main([command, "--table", "lih", "--r", r]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"manifest error: {command} takes exactly one bond distance via --r\n"
    assert captured.out == ""


@pytest.mark.filterwarnings("ignore:energy rose")
@pytest.mark.parametrize("r", ["all", "3.0,0.5,1.5"])
def test_excited_blocks_equal_one_row_calls(r, lih_table):
    # A multi-row excited call prints one block per row in R order, headed
    # [R=<r>], and each block is what the one-row call of that R prints.
    rs = lih_table.bond_distances if r == "all" else (0.5, 1.5, 3.0)
    one_row = [run_cli(["excited", "--table", "lih", "--r", f"{x:g}"]) for x in rs]
    assert {code for code, _, _ in one_row} == {0}
    assert run_cli(["excited", "--table", "lih", "--r", r]) == (
        0, "".join(f"[R={x:g}]\n{out}" for x, (_, out, _) in zip(rs, one_row)), {})


@pytest.mark.filterwarnings("ignore:energy rose")
def test_excited_flags_a_failing_row_and_prints_the_others(tmp_path, capsys):
    # The R=1 row's single-Z coefficients average to 0, so its auto dtau fails
    # and the batch with it; each row then runs alone, as in a scan, and only
    # R=1 is flagged, its message on stderr and exit 1.
    table = tmp_path / "mixed.csv"
    table.write_text("R,ZI,IZ,XX\n0.5,0.4,-0.1,0.3\n1.0,1.0,-1.0,0.3\n1.5,0.2,0.3,0.1\n")
    assert main(["excited", "--table", str(table), "--r", "all"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("R=1: ValueError: single-qubit Z coefficients average to 0; "
                            "use a fixed dtau instead\n")
    (code_a, out_a, _), (code_b, out_b, _) = (
        run_cli(["excited", "--table", str(table), "--r", x]) for x in ("0.5", "1.5"))
    assert code_a == code_b == 0 and "first excited (oracle) = " in out_a + out_b
    assert captured.out == f"[R=0.5]\n{out_a}[R=1]\nflags = error:ValueError\n[R=1.5]\n{out_b}"


def test_main_excited_negative_seed_exit_two(capsys):
    # excited ignores the seed on its exact route, but rejects a negative one
    # as scan does, before any work.
    assert main(["excited", "--table", "lih", "--r", "1.5", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("manifest error: --seed must be non-negative, got -1")
    assert captured.out == ""


@pytest.mark.filterwarnings("ignore:energy rose")
@pytest.mark.parametrize("r", [0.5, 1.5, 3.0, 4.9])
def test_excited_lift_equals_public_lift(r, lih_table, monkeypatch):
    # excited lifts through the projector of its norm-checked ground vector;
    # the Hamiltonian the scan step runs is lift_ground_state's with the
    # checked DensityMatrix of that projector, term for term.
    runs = []
    monkeypatch.setattr(cli, "run_qite_rows",
                        lambda hs, *args: runs.extend(hs) or run_qite_rows(hs, *args))
    run_cli(["excited", "--table", "lih", "--r", str(r)])
    h_base = cmf_reduce(hamiltonian_at(lih_table, r)).h_eff
    g = exact_spectrum(h_base).ground_state
    want = lift_ground_state(h_base, DensityMatrix(np.outer(g, g.conj())),
                             gershgorin_emax(to_dense_matrix(h_base)).e_max)
    assert [term_bytes(h) for h in runs] == [term_bytes(want)]


def test_excited_refuses_non_unit_ground_vector(monkeypatch, capsys):
    # The scan step's lift spectra give eigenvectors of norm 1 + 1e-6: the
    # norm check refuses the row, which is flagged as a failing scan row is.
    real = cli.stacked_spectrum

    def scaled(m):
        vals, vecs, flags = real(m)
        return vals, vecs * (1 + 1e-6), flags

    monkeypatch.setattr(cli, "stacked_spectrum", scaled)
    assert main(["excited", "--table", "lih", "--r", "1.5"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("R=1.5: ValueError: state norm ")
    assert captured.err.count("\n") == 1 and captured.out == "flags = error:ValueError\n"


@pytest.mark.parametrize("argv", [["--table", "one_qubit.csv"], ["--iters", "0"]])
def test_main_excited_argument_errors_are_manifest_errors(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "one_qubit.csv").write_text("R,Z\n1.5,1.0\n")
    assert main(["excited", "--r", "1.5", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("manifest error: ")
    assert captured.out == ""


def test_auto_dtau_rejects_zero_mean_single_z(tmp_path, capsys):
    # The single-Z coefficients sum to 0, so the auto rule has no step size.
    table = tmp_path / "zero.csv"
    table.write_text("R,ZI,IZ,XX\n0.5,1.0,-1.0,0.3\n")
    message = "single-qubit Z coefficients average to 0; use a fixed dtau instead"
    assert main(["excited", "--table", str(table), "--r", "0.5"]) == 1
    assert capsys.readouterr() == ("flags = error:ValueError\n", f"R=0.5: ValueError: {message}\n")
    assert main(["scan", "--table", str(table), "--ansatz", "he",
                 "--out", str(tmp_path / "d")]) == 1
    assert capsys.readouterr().err == f"R=0.5: ValueError: {message}\n"
    assert (tmp_path / "d" / "curve.csv").read_text().splitlines()[1].endswith(
        ",error:ValueError")


def test_main_builds_its_parser_once(capsys):
    from vqite import cli

    cli._parser.cache_clear()
    for _ in range(2):
        assert main(["spectrum", "--table", "lih", "--r", "1.5"]) == 0
    assert cli._parser.cache_info().misses == 1 and cli._parser.cache_info().hits == 1


def test_main_repeated_r_exit_two(tmp_path, capsys):
    rc = main(["scan", "--table", "lih", "--ansatz", "he", "--cmf",
               "--r", "1.5,1.5", "--out", str(tmp_path / "d")])
    assert rc == 2
    assert "manifest error: bond distances given more than once: [1.5]" in \
        capsys.readouterr().err
    assert not (tmp_path / "d" / "curve.csv").exists()


def test_main_shared_seed_key_exit_two(tmp_path, capsys):
    lih = load_lih_table()
    rows = tuple((r, dict(lih.rows)[1.0]) for r in (1.0001, 1.0004))
    table = tmp_path / "close.csv"
    table.write_text(serialize_table(MoleculeTable("", 3, lih.pauli_labels, rows)))
    rc = main(["scan", "--table", str(table), "--ansatz", "ucc-lih",
               "--r", "all", "--out", str(tmp_path / "d")])
    assert rc == 2
    assert "share one seed stream" in capsys.readouterr().err
    assert not (tmp_path / "d" / "curve.csv").exists()


def test_manifest_lists_each_repeated_and_shared_row():
    # A repeated R is listed once, in increasing order; R values that share a
    # seed stream are listed each time, in selection order.
    lih = load_lih_table()
    with pytest.raises(ManifestError, match=r"more than once: \[1\.5, 2\.0\]$"):
        validate_manifest(manifest(r_selection=(2.0, 1.5, 2.0, 1.5, 1.5, 0.5)), lih)
    rows = tuple((r, dict(lih.rows)[1.0]) for r in (1.0001, 1.0004, 2.0, 3.0001, 3.0003))
    with pytest.raises(ManifestError, match=r"\): \[1\.0001, 1\.0004, 3\.0001, 3\.0003\]$"):
        validate_manifest(manifest(ansatz="ucc-lih", cmf=False, r_selection="all"),
                          MoleculeTable("", 3, lih.pauli_labels, rows))


def test_non_monotone_flag_exact_route_only(tmp_path, capsys):
    with pytest.warns(UserWarning, match="energy rose"):
        rc = main(["point", "--table", "lih", "--ansatz", "ucc-lih", "--r", "1.5",
                   "--dtau", "5", "--out", str(tmp_path / "exact")])
    assert rc == 0
    assert (tmp_path / "exact" / "curve.csv").read_text().splitlines()[1] \
        .endswith(",non-monotone")
    assert "flags=non-monotone" in capsys.readouterr().out
    points, trajectories, _ = run_scan(manifest(route="hadamard", shots=1000,
                                                seed=7, r_selection=(1.5,)))
    assert trajectories[1.5].monotonicity_violations
    assert "non-monotone" not in points[0].flags


@pytest.mark.parametrize("r, flagged", [("0.5", True), ("1.5", False)])
def test_main_excited_non_monotone_line(r, flagged, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["excited", "--table", "lih", "--r", r]) == 0
    assert ("flags = non-monotone" in capsys.readouterr().out) is flagged
    assert any("energy rose" in str(w.message) for w in caught) is flagged


def test_main_point_requires_single_r(capsys):
    rc = main(["point", "--table", "lih", "--ansatz", "he", "--cmf",
               "--r", "1.4,1.5"])
    assert rc == 2


def test_main_spectrum(capsys):
    rc = main(["spectrum", "--table", "lih", "--r", "1.5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "eigenvalues:" in out
    assert "-7.954370068" in out


def test_main_excited(capsys):
    rc = main(["excited", "--table", "lih", "--r", "1.5", "--iters", "20"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "first excited (oracle)" in out
    lines = dict(l.split(" = ") for l in out.strip().splitlines())
    dev = float(lines["deviation"])
    assert dev < 1e-2


def test_main_validate(tmp_path, capsys):
    rc = main(["validate", "--table", "lih"])
    assert rc == 0
    assert "rows: 50" in capsys.readouterr().out
    bad = tmp_path / "bad.csv"
    for text in ("R,Q\n0.5,1.0\n", "R,ZI,IZ\n0.5,1.0,2.0\nnan,nan,inf\n",
                 "R,ZI,ZI\n0.5,1.0,2.0\n"):
        bad.write_text(text)
        rc = main(["validate", "--table", str(bad)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "invalid table: line" in captured.err


def test_per_point_error_sets_flag_and_exit(tmp_path, monkeypatch, capsys):
    import vqite.cli as cli_mod

    def boom(*args, **kwargs):
        raise ValueError("dims (2, 3) disagree")

    monkeypatch.setattr(cli_mod, "run_qite_rows", boom)
    rc = main(["scan", "--table", "lih", "--ansatz", "he", "--cmf",
               "--r", "1.4,1.5", "--out", str(tmp_path)])
    assert rc == 1
    rows = (tmp_path / "curve.csv").read_text().splitlines()
    assert [len(row.split(",")) for row in rows] == [6, 6, 6]
    assert rows[1].endswith(",error:ValueError")
    assert "R=1.4: ValueError: dims (2, 3) disagree" in capsys.readouterr().err


def _failing_reduction(stage, real, r=1.5, error=ArithmeticError):
    """`real`, raising `error` whenever it works on the row of R = r."""
    h = hamiltonian_at(load_lih_table(), r)
    if stage == "_select_basis":                 # batched: a matrix of the (B, 8, 8) H stack
        target = to_dense_matrix(h)
        hit = lambda args: any(np.array_equal(m, target) for m in args[0])
    else:                                        # batched: a row of the (B, L) coefficients
        target = h.coeffs
        hit = lambda args: any(np.array_equal(c, target) for c in args[1])

    def stage_fn(*args):
        if hit(args):
            raise error(f"injected at R={r:g}")
        return real(*args)
    return stage_fn


@pytest.mark.parametrize("stage", ["_select_basis", "partial_traces"])
def test_failing_reduction_flags_only_its_row(stage, tmp_path, monkeypatch, capsys):
    # Either stage fails the batch of all three rows, and then R = 1.5 alone
    # when each point reduces its own row.
    import vqite.cmf as cmf_mod
    args = ["scan", "--table", "lih", "--ansatz", "he", "--cmf", "--r", "1.0,1.5,3.0"]
    assert main(args + ["--out", str(tmp_path / "clean")]) == 0
    clean = (tmp_path / "clean" / "curve.csv").read_text().splitlines()
    capsys.readouterr()

    monkeypatch.setattr(cmf_mod, stage, _failing_reduction(stage, getattr(cmf_mod, stage)))
    assert main(args + ["--out", str(tmp_path / "failed")]) == 1
    rows = (tmp_path / "failed" / "curve.csv").read_text().splitlines()
    assert rows[1::2] == clean[1::2]      # the rows of R = 1.0 and 3.0 are unchanged
    assert rows[2] == "1.5,nan,nan,,4,error:ArithmeticError"
    captured = capsys.readouterr()
    assert [line for line in captured.out.splitlines() if "error" in line] == [
        "R=1.5 e_qite=nan e_exact=nan fidelity= flags=error:ArithmeticError"]
    assert captured.err.splitlines() == ["R=1.5: ArithmeticError: injected at R=1.5"]
    selection = (tmp_path / "failed" / "cmf_selection.txt").read_text()
    assert "[R=1]" in selection and "[R=3]" in selection and "[R=1.5]" not in selection


def _failing_qite(stage, real, r=1.5, error=ArithmeticError):
    """`real`, raising `error` whenever its batch holds the row of R = r."""
    h = hamiltonian_at(load_lih_table(), r)
    if stage == "ExactRun":                  # the rows' reduced Hamiltonians
        target = cmf_reduce(h).h_eff
        hit = lambda args: any(x.words == target.words and np.array_equal(x.coeffs, target.coeffs)
                               for x in args[1])
    elif stage == "SampledRun":              # the same, as its ExactRun's term columns
        target = cmf_reduce(h).h_eff
        terms = dict(zip(target.words, target.coeffs.tolist()))
        hit = lambda args: any({w: v for w, v in zip(args[0].columns[0], c.tolist()) if v} == terms
                               for c in args[0].columns[1])
    else:                                    # a row of the (B, L) report coefficients
        target = h.coeffs
        hit = lambda args: any(np.array_equal(c[c != 0], target) for c in args[1])

    def stage_fn(*args):
        if hit(args):
            raise error(f"injected at R={r:g}")
        return real(*args)
    return stage_fn


@pytest.mark.parametrize("stage", ["ExactRun", "expectations", "SampledRun"])
def test_failing_qite_row_flags_only_its_row(stage, tmp_path, monkeypatch, capsys):
    # The batch of all three rows fails; each row then runs alone, and only
    # R = 1.5 fails alone.  On the shot route the neighbours' rows and traces
    # stay byte-identical, so each still draws from its own (seed, R) generator.
    import vqite.engine as engine_mod
    args = ["scan", "--table", "lih", "--ansatz", "he", "--cmf", "--r", "1.0,1.5,3.0",
            "--trace"] + (["--route", "shots:1000"] if stage == "SampledRun" else [])
    assert main(args + ["--out", str(tmp_path / "clean")]) == 0
    clean = (tmp_path / "clean" / "curve.csv").read_text().splitlines()
    capsys.readouterr()

    monkeypatch.setattr(engine_mod, stage, _failing_qite(stage, getattr(engine_mod, stage)))
    assert main(args + ["--out", str(tmp_path / "failed")]) == 1
    rows = (tmp_path / "failed" / "curve.csv").read_text().splitlines()
    assert rows[1::2] == clean[1::2]      # the rows of R = 1.0 and 3.0 are unchanged
    assert rows[2] == "1.5,nan,nan,,4,error:ArithmeticError"
    assert capsys.readouterr().err.splitlines() == ["R=1.5: ArithmeticError: injected at R=1.5"]
    for r in ("1", "3"):
        assert (read(tmp_path / "failed" / f"trace_R{r}.csv")
                == read(tmp_path / "clean" / f"trace_R{r}.csv"))
    assert not (tmp_path / "failed" / "trace_R1.5.csv").exists()
    selection = (tmp_path / "failed" / "cmf_selection.txt").read_text()
    assert "[R=1]" in selection and "[R=1.5]" not in selection


def test_reduction_and_qite_failures_share_one_fallback(tmp_path, monkeypatch, capsys):
    # R = 1.5 fails its reduction and R = 3.0 its QITE run: the batch of all
    # three fails, each row reruns alone, and R = 1.0 keeps its clean bytes.
    import vqite.cmf as cmf_mod
    import vqite.engine as engine_mod
    args = ["scan", "--table", "lih", "--ansatz", "he", "--cmf", "--r", "1.0,1.5,3.0",
            "--trace"]
    clean, failed = tmp_path / "clean", tmp_path / "failed"
    assert main(args + ["--out", str(clean)]) == 0
    capsys.readouterr()

    monkeypatch.setattr(cmf_mod, "_select_basis",
                        _failing_reduction("_select_basis", cmf_mod._select_basis))
    monkeypatch.setattr(engine_mod, "ExactRun",
                        _failing_qite("ExactRun", engine_mod.ExactRun, 3.0,
                                      FloatingPointError))
    assert main(args + ["--out", str(failed)]) == 1
    rows = (failed / "curve.csv").read_text().splitlines()
    assert rows[:2] == (clean / "curve.csv").read_text().splitlines()[:2]
    assert rows[2:] == ["1.5,nan,nan,,4,error:ArithmeticError",
                        "3,nan,nan,,4,error:FloatingPointError"]
    assert capsys.readouterr().err.splitlines() == [
        "R=1.5: ArithmeticError: injected at R=1.5",
        "R=3: FloatingPointError: injected at R=3"]
    assert sorted(p.name for p in failed.glob("trace_*")) == ["trace_R1.csv"]
    assert read(failed / "trace_R1.csv") == read(clean / "trace_R1.csv")
    blocks = [(d / "cmf_selection.txt").read_text().strip().split("\n\n") for d in (clean, failed)]
    assert blocks[1] == blocks[0][:1] and blocks[0][0].startswith("[R=1]\n")


def test_scan_warnings_follow_row_order():
    # Each row's warnings come out together, in row order, as one row at a
    # time would emit them.
    def messages(*selections):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for rs in selections:
                run_scan(manifest(ansatz="ucc-lih", cmf=False, r_selection=rs, dtau=5.0))
        return [str(w.message) for w in caught]

    batched = messages((0.5, 1.5))
    assert batched == messages((0.5,), (1.5,))
    assert sum("energy rose" in text for text in batched) == 5


@pytest.mark.parametrize("command", ["spectrum", "excited"])
def test_main_missing_row_exit_two(command, capsys):
    # spectrum looks its one row up; excited resolves its selection as a scan does
    rc = main([command, "--table", "lih", "--r", "1.55"])
    assert rc == 2
    assert capsys.readouterr() == ("", {
        "spectrum": "error: no row at R=1.55\n",
        "excited": "manifest error: bond distances not in table: [1.55]\n"}[command])
