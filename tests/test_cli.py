"""CLI surface: manifests, outputs, determinism, exit codes."""

import argparse
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import golden_platform, row_views, run_cli, serialize_table, term_bytes
from vqite import (DensityMatrix, MoleculeTable, build_ucc_lih, cli, cmf_reduce, exact_spectrum,
                   gershgorin_emax, hamiltonian_at, lift_ground_state, load_lih_table,
                   run_qite, run_qite_rows, to_dense_matrix)
from vqite.cli import (ManifestError, RunManifest, build_parser, discontinuity_rs,
                       emit_outputs, main, run_scan, validate_manifest)
from vqite.engine import QiteConfig
from vqite.pauli import weighted_terms

GOLDEN = Path(__file__).resolve().parent / "golden" / "exact"


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


def test_scan_makes_records_only_for_traces(tmp_path, monkeypatch):
    # A scan without --trace makes no QiteRecord: its points read the run's
    # stacked result.  With --trace each row's 5 records are made for its
    # file, the curve is the same, and every file is the recorded golden's.
    import vqite.engine as engine_mod
    made, record = [], engine_mod.QiteRecord
    monkeypatch.setattr(engine_mod, "QiteRecord", lambda *args: made.append(1) or record(*args))
    argv = ["scan", "--table", "lih", "--ansatz", "he", "--cmf", "--r", "all"]
    plain = run_cli(argv, tmp_path / "plain")
    assert made == []
    traced = run_cli(argv + ["--trace"], tmp_path / "traced")
    assert len(made) == 50 * 5
    assert plain[:2] == traced[:2]
    for name in ("curve.csv", "cmf_selection.txt"):
        assert plain[2][name] == traced[2][name]
    golden = json.loads((GOLDEN / "manifest.json").read_text())
    if golden_platform() == golden["platform"]:
        files = next(run["files"] for run in golden["runs"] if run["name"] == "cmf-he-trace")
        assert {k: v for k, v in traced[2].items() if k != "curve.csv"} == files


def test_selection_text_is_made_only_where_written(tmp_path, monkeypatch):
    # excited and a CMF scan without --out never format the selection notes;
    # a scan with --out formats each reduction once, the batch's, or each
    # row's own when the batch fails and the rows run alone, to the same file.
    from vqite import cmf

    class Formatted(Exception):
        pass

    def refuse(eff):
        raise Formatted
    real, calls = cli.selection_notes, []
    monkeypatch.setattr(cmf, "selection_notes", refuse)
    monkeypatch.setattr(cli, "selection_notes", refuse)
    argv = ["--table", "lih", "--r", "1.4,1.5,3.0"]
    assert main(["excited", *argv]) == 0
    assert main(["scan", "--cmf", *argv]) == 0
    with pytest.raises(Formatted):
        main(["scan", "--cmf", *argv, "--out", str(tmp_path / "refused")])
    monkeypatch.setattr(cli, "selection_notes", lambda eff: calls.append(1) or real(eff))
    batch = run_cli(["scan", "--cmf", *argv], tmp_path / "batch")
    assert calls == [1]
    run_rows = cli.run_qite_rows

    def one_row_only(h, *args, **kwargs):
        if h.coeffs.ndim == 2 and len(h.coeffs) > 1:
            raise ArithmeticError("batch refused")
        return run_rows(h, *args, **kwargs)
    monkeypatch.setattr(cli, "run_qite_rows", one_row_only)
    alone = run_cli(["scan", "--cmf", *argv], tmp_path / "alone")
    assert calls == [1] * 4
    assert alone[2]["cmf_selection.txt"] == batch[2]["cmf_selection.txt"]
    assert (tmp_path / "alone" / "cmf_selection.txt").read_text().count("[R=") == 3


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


def refuse_work(monkeypatch):
    """Make run_scan, where a run's work begins, fail the test if reached."""
    def work_started(*args, **kwargs):
        raise AssertionError("the run started")
    monkeypatch.setattr(cli, "run_scan", work_started)


@pytest.mark.parametrize("command", ["scan", "point"])
@pytest.mark.parametrize("shots", [0, -3, 2 ** 63, 2 ** 64])
def test_main_shot_count_outside_int64_exit_two(tmp_path, capsys, monkeypatch, command, shots):
    # check_shots is the CLI's shot-count rule: a count below 1, or beyond
    # the int64 count that a binomial draw takes, is a manifest error before
    # any work, with nothing written.
    refuse_work(monkeypatch)
    assert main([command, "--table", "lih", "--ansatz", "ucc-lih", "--r", "1.5", "--route",
                 f"shots:{shots}", "--out", str(tmp_path / "d")]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"manifest error: bad --route value 'shots:{shots}': shots must be "
                            f">= 1 and < 2**63 and an int (or None), not {shots}\n")
    assert captured.out == ""
    assert not (tmp_path / "d").exists()


def test_largest_int64_shot_count_is_accepted():
    assert cli._parse_route(f"shots:{2 ** 63 - 1}") == ("hadamard", 2 ** 63 - 1)


@pytest.mark.parametrize("command", ["scan", "point"])
@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
def test_main_out_naming_a_file_exit_two(tmp_path, capsys, monkeypatch, command, under):
    # --out must name a directory: an existing file, or a path under one,
    # is a manifest error before any work, with no traceback and nothing
    # written; the file is left as it was.
    refuse_work(monkeypatch)
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    out = taken / "d" if under else taken
    assert main([command, "--table", "lih", "--ansatz", "ucc-lih", "--r", "1.5",
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"manifest error: --out {out} is a file or lies under one; "
                            "it must name a directory\n")
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == [taken] and taken.read_text() == "kept\n"


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


@pytest.mark.parametrize("argv,own", [
    (["scan"], {}),
    (["point"], {"r_selection": "1.5"}),
    (["excited", "--r", "all"], {"iterations": 20}),
])
def test_run_subcommand_defaults_are_the_manifests(argv, own):
    # scan, point and excited take every default from RunManifest, but for
    # point's bond distance and excited's iteration count.
    args = build_parser().parse_args(argv)
    assert {k: getattr(args, k) for k in RunManifest._fields} == {**RunManifest._field_defaults,
                                                                  **own}
    for command, iterations in (("point", 4), ("excited", 20)):
        args = build_parser().parse_args([command, "--r", "1.5"])
        assert cli._manifest_from_args(args) == RunManifest(r_selection=(1.5,),
                                                            iterations=iterations)


@pytest.mark.parametrize("route,shots", [("exact", 5), ("hadamard", None)])
def test_manifest_route_must_match_shots(route, shots, monkeypatch, capsys):
    # The shot count sets the route: a manifest whose route says otherwise is
    # refused before any work, not run on the route its shots imply.
    message = f"route '{route}' disagrees with shots={shots}"
    with pytest.raises(ManifestError, match=message):
        run_scan(RunManifest(ansatz="ucc-lih", r_selection=(1.5,), route=route, shots=shots))
    monkeypatch.setattr(cli, "_parse_route", lambda text: (route, shots))
    assert main(["point", "--ansatz", "ucc-lih", "--r", "1.5"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"manifest error: {message}\n")


@pytest.mark.parametrize("command", ["point"])
@pytest.mark.parametrize("r", ["1.4,1.5", "all"])
def test_main_one_bond_distance_commands(command, r, capsys):
    assert main([command, "--table", "lih", "--r", r]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"manifest error: {command} takes exactly one bond distance via --r\n"
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["--ansatz", "he", "--cmf"],
    ["--ansatz", "ucc-lih", "--route", "shots:10000", "--seed", "1"],
])
def test_scan_output_does_not_depend_on_the_r_order(argv, tmp_path):
    # Rows run, print and are written in R order whatever the order of --r:
    # stdout, curve.csv, the traces, manifest.echo and cmf_selection.txt match.
    unsorted, ascending = (run_cli(["scan", "--table", "lih", *argv, "--r", r, "--trace"],
                                   tmp_path / r) for r in ("3.0,0.5,1.5", "0.5,1.5,3.0"))
    assert unsorted == ascending
    assert ascending[0] == 0 and len(ascending[2]) == 5 + ("--cmf" in argv)


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
    monkeypatch.setattr(cli, "run_qite_rows", lambda h, *args, **kwargs:
                        runs.extend(row_views(h)) or run_qite_rows(h, *args, **kwargs))
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
        vals, vecs = real(m)
        return vals, vecs * (1 + 1e-6)

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
    # seed stream are listed each time, in R order.
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
    if stage in ("ExactRun", "SampledRun"):  # a row of the reduced Hamiltonians' stack, as
        target = cmf_reduce(h).h_eff          # ExactRun takes it or as its ExactRun's columns
        terms = dict(zip(target.words, target.coeffs.tolist()))
        columns = ((lambda args: (args[1].words, args[1].coeffs)) if stage == "ExactRun"
                   else (lambda args: args[0].columns))
        hit = lambda args: any({w: v for w, v in zip(columns(args)[0], c.tolist()) if v} == terms
                               for c in columns(args)[1])
    else:                                    # a row of the report's (B, L, 2^n) weighted terms
        target = weighted_terms(h.words, h.coeffs[None], h.n_qubits)[1][0]
        hit = lambda args: any(np.array_equal(w[w.any(axis=1)], target) for w in args[0][1])

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


def test_failure_lines_follow_r_order(tmp_path, monkeypatch, capsys):
    # Two rows that fail, given in descending order, print their lines in
    # ascending R order, each where its row fails.
    import vqite.cmf as cmf_mod
    import vqite.engine as engine_mod
    monkeypatch.setattr(cmf_mod, "_select_basis",
                        _failing_reduction("_select_basis", cmf_mod._select_basis))
    monkeypatch.setattr(engine_mod, "ExactRun",
                        _failing_qite("ExactRun", engine_mod.ExactRun, 3.0,
                                      FloatingPointError))
    assert main(["scan", "--table", "lih", "--ansatz", "he", "--cmf", "--r", "3.0,1.5,1.0",
                 "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "R=1.5: ArithmeticError: injected at R=1.5",
        "R=3: FloatingPointError: injected at R=3"]


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
