"""Command-line entry point: subcommands, exit codes, and error mapping."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from capmix import cli, solver
from capmix.errors import EntropyViolationError, LinearSolveError

SUBCOMMANDS = {"validate", "run", "study"}


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


@pytest.mark.parametrize("kappa, t_end, outcome", [
    ("1e-3", "1e-3", "accepted"),
    ("1e-6", "1.0", "accepted"),
    ("1e-3", "1e-4", "= 0.1 time steps; a run takes 1 to 1000000"),
    ("1e-6", "1.000001", "= 1000001 time steps"),
    ("1e-300", "3e-3", "= 3e+297 time steps"),
])
def test_validate_bounds_the_step_count(tmp_path, capsys, kappa, t_end,
                                        outcome):
    # validate refuses what run would refuse, and a count no run could
    # finish.
    path = tmp_path / "steps.cfg"
    path.write_text(f"[model]\nkappa = {kappa}\n[solver]\nt_end = {t_end}\n"
                    "[mesh]\nnum_cells = 8\n")
    code = cli.main(["validate", str(path)])
    out, err = capsys.readouterr()
    if outcome == "accepted":
        assert code == 0 and "parameters accepted" in out
    else:
        assert code == 2 and outcome in err, err


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


def test_no_subcommand_is_usage_error():
    with pytest.raises(SystemExit):
        cli.main([])


def test_help_lists_exactly_the_documented_subcommands(tmp_path):
    # Run as ``python -m capmix.cli`` so the module's __main__ guard runs.
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "capmix.cli", "--help"],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    listed = re.search(r"\{([a-z,]+)\}", done.stdout).group(1)
    assert set(listed.split(",")) == SUBCOMMANDS
    assert "--seed" not in done.stdout

    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    documented = {line.split()[1] for line in block.splitlines()
                  if line.startswith("capmix ")}
    assert documented == SUBCOMMANDS

    cfg = _write_config(tmp_path, tmp_path / "out")
    for argv in (["selftest"], ["--seed", "1", "validate", cfg]):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == 2


def test_cli_uses_only_public_capmix_names():
    tree = ast.parse(Path(cli.__file__).read_text())
    private = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").startswith("capmix")):
            names = [alias.name for alias in node.names]
        else:
            continue
        private.extend(f"line {node.lineno}: {name}" for name in names
                       if name.startswith("_") and not name.endswith("__"))
    assert private == []


def test_non_finite_config_number_exits_2_naming_its_line(tmp_path, capsys):
    path = tmp_path / "nan.cfg"
    path.write_text("[initial]\nprofile = sine_perturbation\n"
                    "amplitude = nan\n")
    assert cli.main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "error: line 3: value for 'amplitude' ('nan')" in err
