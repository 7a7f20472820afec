"""Command-line entry point: subcommands, exit codes, and error mapping."""

import pytest

from capmix import cli, solver
from capmix import entropy as ent
from capmix.errors import EntropyViolationError, LinearSolveError


def _write_config(tmp_path, out_dir, extra=""):
    path = tmp_path / "run.cfg"
    path.write_text(f"""
    [solver]
    t_end = 2e-3
    [mesh]
    num_cells = 8
    [initial]
    profile = sine_perturbation
    amplitude = 0.05
    [output]
    directory = {out_dir}
    {extra}
    """)
    return str(path)


def test_validate_accepts_reference_parameters(tmp_path, capsys):
    cfg = _write_config(tmp_path, tmp_path / "out")
    assert cli.main(["validate", cfg]) == 0
    out = capsys.readouterr().out
    assert "parameters accepted" in out
    assert "alpha1=-1.9" in out


def test_validate_rejects_bad_exponents(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("[model]\nbeta1 = 4.0\n")
    assert cli.main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "5 < beta1" in err


def test_missing_config_file(tmp_path, capsys):
    assert cli.main(["validate", str(tmp_path / "absent.cfg")]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_config_reports_line(tmp_path, capsys):
    path = tmp_path / "dup.cfg"
    path.write_text("[model]\nkappa = 1e-3\nkappa = 2e-3\n")
    assert cli.main(["run", str(path)]) == 2
    assert "line 3" in capsys.readouterr().err


def test_run_writes_outputs(tmp_path, capsys):
    out_dir = tmp_path / "out"
    cfg = _write_config(tmp_path, out_dir)
    assert cli.main(["run", cfg]) == 0
    stdout = capsys.readouterr().out
    assert "run complete: 2 recorded steps" in stdout
    assert "lyapunov" in stdout
    for name in ("diagnostics.csv", "snapshots.csv", "manifest.json"):
        assert (out_dir / name).exists()


def test_run_solver_failure_maps_to_exit_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(solver, "_FP_MAX_ITERS", 2)
    monkeypatch.setattr(solver, "_HOMOTOPY_STEPS", 2)
    path = tmp_path / "hard.cfg"
    path.write_text(f"""
    [model]
    kappa = 5e-2
    [solver]
    t_end = 0.1
    [mesh]
    num_cells = 8
    [initial]
    profile = sine_perturbation
    amplitude = 0.2
    [output]
    directory = {tmp_path / "hard_out"}
    """)
    code = cli.main(["run", str(path)])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_entropy_violation_maps_to_exit_4(tmp_path, capsys, monkeypatch):
    cfg = _write_config(tmp_path, tmp_path / "out")

    def explode(*args, **kwargs):
        raise EntropyViolationError("entropy inequality violated at step 1")

    monkeypatch.setattr(solver, "run_simulation", explode)
    assert cli.main(["run", cfg]) == 4
    assert "entropy inequality" in capsys.readouterr().err


def test_linear_solver_failure_maps_to_exit_3(tmp_path, capsys, monkeypatch):
    cfg = _write_config(tmp_path, tmp_path / "out")

    def explode(*args, **kwargs):
        raise LinearSolveError("sparse factorization failed: singular matrix")

    monkeypatch.setattr(solver, "run_simulation", explode)
    assert cli.main(["run", cfg]) == 3


def test_output_failure_maps_to_exit_3(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("a file where the output directory should go\n")
    cfg = _write_config(tmp_path, taken)
    assert cli.main(["run", cfg]) == 3
    assert "error:" in capsys.readouterr().err


def test_study_output_failure_maps_to_exit_3(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("a file where the output directory should go\n")
    cfg = _write_config(tmp_path, taken)
    assert cli.main(["study", cfg, "--kappas", "2e-3,1e-3"]) == 3
    assert "error:" in capsys.readouterr().err


def test_run_reports_the_failing_step(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(solver, "_FP_MAX_ITERS", 1)
    path = tmp_path / "stalls.cfg"
    path.write_text(f"""
    [solver]
    t_end = 5e-3
    [mesh]
    num_cells = 16
    [initial]
    profile = sine_perturbation
    amplitude = 0.1
    [output]
    directory = {tmp_path / "out"}
    """)
    assert cli.main(["run", str(path)]) == 3
    err = capsys.readouterr().err
    assert "error: step 1 (t = 0.001): fixed-point iteration failed" in err


def test_strict_entropy_flag_overrides_config(tmp_path, monkeypatch):
    path = tmp_path / "lenient.cfg"
    path.write_text(f"""
    [solver]
    t_end = 2e-3
    strict_entropy = false
    [mesh]
    num_cells = 8
    [initial]
    profile = sine_perturbation
    amplitude = 0.05
    [output]
    directory = {tmp_path / "out2"}
    """)
    seen = {}
    real = solver.run_simulation

    def capture(initial, params, spec, solver_cfg):
        seen["strict"] = solver_cfg.strict_entropy
        return real(initial, params, spec, solver_cfg)

    monkeypatch.setattr(solver, "run_simulation", capture)
    assert cli.main(["run", str(path)]) == 0
    assert seen["strict"] is False
    assert cli.main(["run", str(path), "--strict-entropy"]) == 0
    assert seen["strict"] is True


def test_study_writes_report(tmp_path, capsys):
    out_dir = tmp_path / "study_out"
    path = tmp_path / "study.cfg"
    path.write_text(f"""
    [model]
    kappa = 2e-3
    [solver]
    t_end = 8e-3
    [mesh]
    num_cells = 8
    [initial]
    profile = sine_perturbation
    amplitude = 0.05
    [output]
    directory = {out_dir}
    """)
    code = cli.main(["study", str(path), "--kappas", "4e-3,2e-3",
                     "--epsilons", ""])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "kappa ladder" in stdout
    assert (out_dir / "study.json").exists()


def test_study_reports_the_eps_ladder_and_its_flags(tmp_path, capsys):
    out_dir = tmp_path / "study_out"
    path = tmp_path / "study.cfg"
    path.write_text(f"""
    [model]
    kappa = 2e-3
    [solver]
    t_end = 8e-3
    [mesh]
    num_cells = 8
    [initial]
    profile = step_profile
    left_state = 0.3, 0.2, 0.1
    right_state = 0.1, 0.1, 0.1
    [output]
    directory = {out_dir}
    """)
    code = cli.main(["study", str(path), "--kappas", "",
                     "--epsilons", "1e-1,1e-3"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "kappa ladder" not in stdout
    assert "eps ladder [0.1, 0.001]: 1 flags" in stdout
    assert "bound-quantity flags: 1" in stdout
    assert "  mobility_inv_p_int: eps 0.1 -> 0.001 ratio 2.32" in stdout
    assert (out_dir / "study.json").exists()


def test_study_rejects_malformed_ladder(tmp_path, capsys):
    cfg = _write_config(tmp_path, tmp_path / "out")
    assert cli.main(["study", cfg, "--kappas", "fast,slow"]) == 2
    assert "error:" in capsys.readouterr().err


def test_selftest_passes(capsys):
    assert cli.main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "FAIL" not in out


def test_selftest_reports_a_failed_check(capsys, monkeypatch):
    monkeypatch.setattr(ent, "jmz_inequality_check", lambda *args: False)
    assert cli.main(["selftest"]) == 2
    out = capsys.readouterr().out
    assert "  FAIL  projected quadratic-form lower bound" in out
    assert out.count("FAIL") == 1
    assert out.endswith("1 check(s) failed\n")


def test_no_subcommand_is_usage_error():
    with pytest.raises(SystemExit):
        cli.main([])
