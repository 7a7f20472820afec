"""Configuration parsing/rendering round trips, line-precise error reporting,
problem materialization, and the on-disk output contract."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from capmix import constitutive as cst
from capmix import entropy as ent
from capmix import fem
from capmix import runio
from capmix import solver
from capmix.errors import (ArgumentError, ConfigParseError,
                           ConfigValidationError, OutputError)


def test_empty_text_gives_defaults():
    cfg = runio.parse_config("")
    assert cfg.params == cst.default_params()
    assert cfg.solver == solver.SolverConfig()
    assert cfg.num_cells == 64
    assert (cfg.x_left, cfg.x_right) == (0.0, 1.0)
    assert cfg.diffusion == ent.DiffusionMatrixSpec()
    assert cfg.initial_profile == "equilibrium"
    assert cfg.initial_args == {}
    assert cfg.output_dir == "out"


def test_full_document_parses():
    text = """
    # two-phase run
    [model]
    n_species = 3
    kappa = 5e-4        # time step
    eps = 2e-3
    [solver]
    t_end = 0.02
    fp_tol = 1e-8
    strict_entropy = false
    [mesh]
    num_cells = 32
    x_left = -1.0
    x_right = 1.0
    [diffusion]
    d0 = 0.5
    d1 = 2.0
    [initial]
    profile = sine_perturbation
    amplitude = 0.05
    species_index = 2
    [output]
    directory = results
    record_every = 4
    """
    cfg = runio.parse_config(text)
    assert cfg.params.kappa == 5e-4 and cfg.params.eps == 2e-3
    assert cfg.solver.t_end == 0.02 and cfg.solver.fp_tol == 1e-8
    assert cfg.solver.strict_entropy is False
    assert cfg.solver.record_every == 4
    assert cfg.num_cells == 32 and cfg.x_left == -1.0
    assert cfg.diffusion.d0 == 0.5 and cfg.diffusion.d1 == 2.0
    assert cfg.initial_profile == "sine_perturbation"
    assert cfg.initial_args == {"amplitude": 0.05, "species_index": 2}
    assert cfg.output_dir == "results"


@pytest.mark.parametrize("text, fragment", [
    ("[model]\nkappa = 1e-3\nkappa = 2e-3", "line 3: duplicate key 'kappa'"),
    ("[model]\nkappa = 1e-3\nkappa = 2e-3", "first set on line 2"),
    ("[engine]\nkappa = 1e-3", "line 1: unknown section"),
    ("kappa = 1e-3", "line 1: key outside of any section"),
    ("[model]\njust some words", "line 2: expected 'key = value'"),
    ("[model]\nkappa = fast", "not a valid float"),
    ("[mesh]\nnum_cells = 2.5", "not a valid int"),
    ("[solver]\nstrict_entropy = maybe", "not a valid bool"),
    ("[model]\n= 3", "line 2: empty key"),
    ("[model]\nviscosity = 1", "unknown key 'viscosity' in [model]"),
    ("[model]\nkappa = 1e-3\nquadrature_tol = 1e-10",
     "line 3: unknown key 'quadrature_tol' in [model]"),
    ("[solver]\ndamping = 1.0", "line 2: unknown key 'damping' in [solver]"),
    ("[solver]\nfp_max_iters = 100",
     "line 2: unknown key 'fp_max_iters' in [solver]"),
    ("[solver]\nt_end = 0.05\nhomotopy_steps = 4",
     "line 3: unknown key 'homotopy_steps' in [solver]"),
    ("[solver]\nlinear_tol = 1e-10",
     "line 2: unknown key 'linear_tol' in [solver]"),
    ("[model]\nrootfind_tol = 1e-12",
     "line 2: unknown key 'rootfind_tol' in [model]"),
    ("[model]\ns_gamma = ,", "line 2: value for 's_gamma' (',') is not a "
     "valid tuple: empty list"),
    ("[mesh]\nnum_cells = inf", "line 2: value for 'num_cells' ('inf') is "
     "not a valid int: not a finite number"),
    ("[output]\nrecord_every = inf", "line 2: value for 'record_every'"),
    ("[initial]\nprofile = sine_perturbation\nspecies_index = 1e400",
     "line 3: value for 'species_index' ('1e400') is not a valid int"),
    ("[model]\neps = nan", "line 2: value for 'eps' ('nan') is not a valid "
     "float: not a finite number"),
    ("[model]\nkappa = inf", "line 2: value for 'kappa'"),
    ("[diffusion]\nkind = state_weighted\nd1 = nan",
     "line 3: value for 'd1'"),
    ("[initial]\nprofile = sine_perturbation\namplitude = nan",
     "line 3: value for 'amplitude'"),
    ("[model]\ns_gamma = 0.15, -inf, 0.15", "line 2: value for 's_gamma' "
     "('0.15, -inf, 0.15') is not a valid tuple: not a finite number"),
])
def test_parse_errors_carry_line_numbers(text, fragment):
    with pytest.raises(ConfigParseError) as err:
        runio.parse_config(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "1e400"])
def test_every_numeric_key_refuses_non_finite_values(raw):
    for section, schema in runio._SCHEMA.items():
        for key, kind in schema.items():
            if kind not in (float, int, tuple):
                continue
            with pytest.raises(ConfigParseError) as err:
                runio.parse_config(f"[{section}]\n{key} = {raw}")
            assert f"line 2: value for '{key}'" in str(err.value)


def test_record_every_misplacement_hint():
    with pytest.raises(ConfigParseError) as err:
        runio.parse_config("[solver]\nrecord_every = 2")
    assert "record_every belongs in [output]" in str(err.value)


def test_inadmissible_exponents_are_validation_errors():
    with pytest.raises(ConfigValidationError) as err:
        runio.parse_config("[model]\nbeta1 = 4.0")
    assert "5 < beta1" in str(err.value)
    with pytest.raises(ConfigValidationError):
        runio.parse_config("[model]\nlam = 20.0")


def test_inadmissible_profile_state_caught_at_parse_time():
    text = ("[initial]\nprofile = step_profile\n"
            "left_state = 0.5, 0.4, 0.3\nright_state = 0.1, 0.1, 0.1")
    with pytest.raises(ConfigValidationError):
        runio.parse_config(text)
    with pytest.raises(ConfigValidationError) as err:
        runio.parse_config("[initial]\nprofile = shock")
    assert "unknown initial profile" in str(err.value)
    with pytest.raises(ConfigValidationError) as err:
        runio.parse_config("[initial]\nprofile = equilibrium\namplitude = 0.1")
    assert "does not take key" in str(err.value)


def test_species_count_redefaults_boundary_composition():
    cfg = runio.parse_config("[model]\nn_species = 2")
    assert cfg.params.n_species == 2
    assert cfg.params.s_gamma == (0.225, 0.225)
    # An explicit composition wins over the re-default.
    cfg = runio.parse_config("[model]\nn_species = 2\ns_gamma = 0.3, 0.1")
    assert cfg.params.s_gamma == (0.3, 0.1)
    # A width below 1 is refused, not re-defaulted (0 divided by zero).
    for width in (0, -2):
        with pytest.raises(ConfigValidationError, match="at least 1"):
            runio.parse_config(f"[model]\nn_species = {width}")


def test_render_parse_round_trip():
    default = runio.RunConfig()
    assert runio.parse_config(runio.render_config(default)) == default
    custom = runio.RunConfig(
        params=cst.default_params(kappa=2.5e-4, eps=5e-4),
        solver=solver.SolverConfig(t_end=0.01, fp_tol=1e-8, record_every=3,
                                   strict_entropy=False),
        num_cells=48, x_left=-0.5, x_right=2.0,
        diffusion=ent.DiffusionMatrixSpec(d0=0.7, d1=1.9),
        initial_profile="sine_perturbation",
        initial_args={"amplitude": 0.07, "species_index": 1},
        output_dir="runs/demo")
    assert runio.parse_config(runio.render_config(custom)) == custom
    step = runio.RunConfig(
        initial_profile="step_profile",
        initial_args={"left_state": (0.3, 0.2, 0.1),
                      "right_state": (0.1, 0.2, 0.3)})
    assert runio.parse_config(runio.render_config(step)) == step


def test_readme_config_block_lists_the_schema():
    # Every key of README's example config is a key of its section, so
    # parsing it succeeds, and its [solver] block lists every solver key:
    # a deleted knob cannot linger in the docs.
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    block = text.split("```ini\n", 1)[1].split("```", 1)[0]
    runio.parse_config(block)
    solver_keys = runio._collect_entries(block)["solver"]
    assert set(solver_keys) == set(runio._SCHEMA["solver"])


def test_build_problem_materializes_components():
    cfg = runio.parse_config("[mesh]\nnum_cells = 10")
    params, spec, mesh, initial, solver_cfg = runio.build_problem(cfg)
    assert params == cfg.params and spec == cfg.diffusion
    assert mesh.num_cells == 10
    assert np.array_equal(initial.values,
                          fem.constant_field(mesh, params).values)
    assert solver_cfg == cfg.solver
    with pytest.raises(ArgumentError):
        runio.build_problem(runio.RunConfig(initial_profile="step_profile"))


def test_diagnostics_header_is_frozen():
    assert runio.DIAGNOSTICS_HEADER == (
        "step,time,lyapunov,diss_dbeta_sq,diss_capillary,diss_grad_dbeta,"
        "diss_eps_w,diss_proj_mu,min_species,max_total,fp_iters")


def _tiny_config(out_dir):
    return runio.parse_config(f"""
    [solver]
    t_end = 2e-3
    [mesh]
    num_cells = 8
    [initial]
    profile = sine_perturbation
    amplitude = 0.05
    [output]
    directory = {out_dir}
    """)


def _run_and_write(cfg, directory):
    params, spec, mesh, initial, solver_cfg = runio.build_problem(cfg)
    traj = solver.run_simulation(initial, params, spec, solver_cfg)
    manifest = runio.write_outputs(traj, cfg, directory)
    return traj, manifest


def test_write_outputs_contract(tmp_path):
    out = tmp_path / "run1"
    cfg = _tiny_config(out)
    traj, manifest = _run_and_write(cfg, out)

    diag_text = (out / "diagnostics.csv").read_text()
    lines = diag_text.splitlines()
    assert lines[0] == runio.DIAGNOSTICS_HEADER
    assert len(lines) == 1 + len(traj.diagnostics) - 1  # header + steps

    snap_lines = (out / "snapshots.csv").read_text().splitlines()
    assert snap_lines[0].startswith("time,node_index,x,S_1")
    assert len(snap_lines) == 1 + len(traj.times) * traj.states[0].mesh.num_nodes

    on_disk = json.loads((out / "manifest.json").read_text())
    assert on_disk == json.loads(json.dumps(runio._jsonable(manifest)))
    assert set(manifest) == {
        "config", "num_steps_recorded", "final_time", "apriori_report",
        "entropy_margins", "entropy_check_constants", "lyapunov", "versions"}
    assert manifest["num_steps_recorded"] == 2
    assert manifest["final_time"] == pytest.approx(2e-3)
    assert all(m >= 0 for m in manifest["entropy_margins"])
    assert manifest["versions"]["numpy"] == np.__version__
    # The stored configuration reproduces the run.
    assert runio.parse_config(manifest["config"]).params == cfg.params


def test_outputs_are_byte_identical_across_reruns(tmp_path):
    cfg = _tiny_config(tmp_path / "a")
    _run_and_write(cfg, tmp_path / "a")
    _run_and_write(cfg, tmp_path / "b")
    for name in ("diagnostics.csv", "snapshots.csv", "manifest.json"):
        first = (tmp_path / "a" / name).read_bytes()
        second = (tmp_path / "b" / name).read_bytes()
        assert first == second, name


def test_manifest_names_scipy_on_a_run_without_a_factorisation(tmp_path):
    # From equilibrium every load is zero, so no step reaches splu and the
    # run never loads scipy.sparse; the manifest must still name scipy's
    # version, and a rerun in another fresh interpreter the same bytes.
    out = tmp_path / "out"
    config_path = tmp_path / "equilibrium.cfg"
    config_path.write_text("[solver]\nt_end = 3e-3\n[mesh]\nnum_cells = 8\n"
                           f"[output]\ndirectory = {out}\n")
    script = f"""
import sys
from capmix import cli
assert cli.main(["run", {str(config_path)!r}]) == 0
print("scipy.sparse" in sys.modules)
"""
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(runio.__file__)))
    names = ("diagnostics.csv", "snapshots.csv", "manifest.json")
    runs = []
    for _ in range(2):
        stdout = subprocess.run([sys.executable, "-c", script],
                                capture_output=True, text=True, check=True,
                                env=env).stdout
        assert stdout.splitlines()[-1] == "False"
        runs.append([(out / name).read_bytes() for name in names])
    assert runs[0] == runs[1]
    manifest = json.loads(runs[0][2])
    assert manifest["versions"]["scipy"] == scipy.__version__


def test_write_outputs_filesystem_error(tmp_path):
    blocker = tmp_path / "occupied"
    blocker.write_text("not a directory")
    cfg = _tiny_config(tmp_path / "unused")
    params, spec, mesh, initial, solver_cfg = runio.build_problem(cfg)
    traj = solver.run_simulation(initial, params, spec, solver_cfg)
    with pytest.raises(OutputError):
        runio.write_outputs(traj, cfg, blocker)


def test_reference_demo_outputs_are_byte_stable(tmp_path):
    # The problem of demos/03_reference_run.py.  Its committed outputs pin
    # every byte of a run, so a change to the numerics that moves any bit of
    # the reference run shows here, not only in a regenerated demo.
    demo_out = Path(__file__).resolve().parents[1] / "demos" / "out_reference"
    params = cst.default_params()
    mesh = fem.build_mesh(64, 0.0, 1.0)
    initial = solver.sine_perturbation_initial(mesh, params, amplitude=0.1,
                                               species_index=0)
    cfg = solver.SolverConfig(t_end=0.05)
    traj = solver.run_simulation(initial, params, ent.DiffusionMatrixSpec(),
                                 cfg)
    config = runio.RunConfig(params=params, solver=cfg,
                             initial_profile="sine_perturbation",
                             initial_args={"amplitude": 0.1,
                                           "species_index": 0})
    runio.write_outputs(traj, config, tmp_path)
    for name in ("diagnostics.csv", "snapshots.csv"):
        assert (tmp_path / name).read_bytes() == \
            (demo_out / name).read_bytes(), name
    # The manifest also records the output directory and the library
    # versions, which say where and with what the run was made, not what
    # it computed: compare everything else, rendered as the writer does.
    assert _computed_manifest(tmp_path / "manifest.json") == \
        _computed_manifest(demo_out / "manifest.json")


def _computed_manifest(path):
    manifest = json.loads(path.read_text())
    del manifest["versions"]
    manifest["config"] = "".join(
        line for line in manifest["config"].splitlines(keepends=True)
        if not line.startswith("directory = "))
    return json.dumps(manifest, indent=2, sort_keys=True)


def test_jsonable_spells_out_non_finite_floats():
    # JSON has no NaN or infinity: a study's undefined order and an
    # unbounded flag ratio are written as strings.
    report = {"orders": (math.nan, 1.0), "ratio": np.float64(math.inf),
              "low": -math.inf, "steps": 3}
    assert runio._jsonable(report) == {
        "orders": ["nan", 1.0], "ratio": "inf", "low": "-inf", "steps": 3}
