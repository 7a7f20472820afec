"""The benchmark's checks reject corrupted outputs.

A short run of the reference problem (16 cells, 4 steps) is written to disk
once; each test copies its files, corrupts one value, reads the files back
and shows that the check meant to catch that corruption fails.  Run with
``python3 -m pytest bench/tests``.
"""

import csv
import json
import os
import shutil

import numpy as np
import pytest

import checks
import tracing
import workloads
from capmix import entropy, runio, solver

SMALL_CONFIG = """\
[model]
kappa = 1e-3
eps = 1e-3
[solver]
t_end = 0.004
[mesh]
num_cells = 16
[initial]
profile = sine_perturbation
amplitude = 0.1
species_index = 0
[output]
directory = {directory}
"""


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("run") / "out")
    config = runio.parse_config(SMALL_CONFIG.format(directory=directory))
    params, dspec, _, initial, solver_cfg = runio.build_problem(config)
    traj = solver.run_simulation(initial, params, dspec, solver_cfg)
    runio.write_outputs(traj, config, directory)
    expected = dict(workloads.expected_problem("reference", 0), num_cells=16,
                    t_end=0.004, num_steps=4)
    integrals = [rec.apriori["entropy_integral"] for rec in traj.diagnostics]
    return directory, expected, integrals


@pytest.fixture
def run_copy(small_run, tmp_path):
    directory, expected, integrals = small_run
    copy = str(tmp_path / "copy")
    shutil.copytree(directory, copy)
    return copy, expected, list(integrals)


def _edit_snapshot(directory, record, node, species, value):
    path = os.path.join(directory, "snapshots.csv")
    with open(path, newline="", encoding="ascii") as fh:
        rows = list(csv.reader(fh))
    num_nodes = sum(1 for row in rows[1:] if float(row[0]) == 0.0)
    rows[1 + record * num_nodes + node][3 + species] = repr(float(value))
    with open(path, "w", newline="", encoding="ascii") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _snapshot_value(directory, record, node, species):
    return float(checks.read_run_files(directory)["states"][record, node,
                                                             species])


def _check_all(directory, expected, integrals):
    files = checks.read_run_files(directory)
    return checks.check_simulation(files, expected, integrals, mirror=True)


def test_untouched_run_passes(run_copy):
    deviations = _check_all(*run_copy)
    assert deviations["mirror"] <= 1e-8
    assert deviations["species"] <= 1e-8


def test_negative_species_fails(run_copy):
    directory, expected, integrals = run_copy
    _edit_snapshot(directory, 2, 5, 0, -1e-3)
    with pytest.raises(checks.CheckFailure, match="not positive"):
        checks.check_admissible(checks.read_run_files(directory)["states"],
                                expected["s_gamma"])
    with pytest.raises(checks.CheckFailure):
        _check_all(directory, expected, integrals)


def test_total_at_one_fails(run_copy):
    directory, expected, integrals = run_copy
    rest = (_snapshot_value(directory, 3, 8, 1)
            + _snapshot_value(directory, 3, 8, 2))
    _edit_snapshot(directory, 3, 8, 0, 1.0 - rest + 1e-12)
    with pytest.raises(checks.CheckFailure, match="total"):
        checks.check_admissible(checks.read_run_files(directory)["states"],
                                expected["s_gamma"])


def test_boundary_row_one_ulp_off_fails(run_copy):
    directory, expected, integrals = run_copy
    sg = expected["s_gamma"][1]
    _edit_snapshot(directory, 4, 16, 1, np.nextafter(sg, 1.0))
    with pytest.raises(checks.CheckFailure, match="right boundary"):
        _check_all(directory, expected, integrals)


def test_swapped_species_fails(run_copy):
    # S_2 and S_3 are equal at every node, so swapping them changes nothing;
    # swapping the perturbed S_1 with S_2 at one node breaks S_2 = S_3.
    directory, expected, integrals = run_copy
    s1 = _snapshot_value(directory, 2, 7, 0)
    s2 = _snapshot_value(directory, 2, 7, 1)
    _edit_snapshot(directory, 2, 7, 0, s2)
    _edit_snapshot(directory, 2, 7, 1, s1)
    states = checks.read_run_files(directory)["states"]
    with pytest.raises(checks.CheckFailure, match="species"):
        checks.check_equal_species(states, [1, 2], 1e-8)


def test_broken_mirror_fails(run_copy):
    directory, expected, integrals = run_copy
    value = _snapshot_value(directory, 1, 3, 0)
    _edit_snapshot(directory, 1, 3, 0, value + 1e-6)
    files = checks.read_run_files(directory)
    with pytest.raises(checks.CheckFailure, match="mirror"):
        checks.check_mirror(files["states"], files["x"], 1e-8)


def _edit_lyapunov(directory, step, value):
    path = os.path.join(directory, "manifest.json")
    with open(path, encoding="ascii") as fh:
        manifest = json.load(fh)
    manifest["lyapunov"][step] = value
    with open(path, "w", encoding="ascii") as fh:
        json.dump(manifest, fh)
    path = os.path.join(directory, "diagnostics.csv")
    with open(path, newline="", encoding="ascii") as fh:
        rows = list(csv.reader(fh))
    rows[step][rows[0].index("lyapunov")] = repr(value)
    with open(path, "w", newline="", encoding="ascii") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def test_lyapunov_increase_fails(run_copy):
    directory, expected, integrals = run_copy
    lyap = checks.read_run_files(directory)["manifest"]["lyapunov"]
    _edit_lyapunov(directory, 3, float(np.nextafter(lyap[2], 1.0)))
    with pytest.raises(checks.CheckFailure, match="increases at step 3"):
        checks.check_lyapunov(checks.read_run_files(directory))


def test_lyapunov_files_disagree_fails(run_copy):
    directory, expected, integrals = run_copy
    path = os.path.join(directory, "manifest.json")
    with open(path, encoding="ascii") as fh:
        manifest = json.load(fh)
    manifest["lyapunov"][2] *= 1.0 - 1e-15
    with open(path, "w", encoding="ascii") as fh:
        json.dump(manifest, fh)
    with pytest.raises(checks.CheckFailure, match="disagree"):
        checks.check_lyapunov(checks.read_run_files(directory))


@pytest.mark.parametrize("margin", [-1e-15, "nan"])
def test_bad_entropy_margin_fails(run_copy, margin):
    directory, expected, integrals = run_copy
    path = os.path.join(directory, "manifest.json")
    with open(path, encoding="ascii") as fh:
        manifest = json.load(fh)
    manifest["entropy_margins"][1] = margin
    with open(path, "w", encoding="ascii") as fh:
        json.dump(manifest, fh)
    with pytest.raises(checks.CheckFailure, match="margin at step 2"):
        checks.check_lyapunov(checks.read_run_files(directory))


def test_entropy_integral_mismatch_fails(run_copy):
    directory, expected, integrals = run_copy
    integrals[3] *= 1.0 + 1e-8
    with pytest.raises(checks.CheckFailure, match="entropy integral at "
                                                  "record 3"):
        checks.check_free_energy(checks.read_run_files(directory), expected,
                                 integrals)


def test_perturbed_state_breaks_free_energy(run_copy):
    # A state moved on disk no longer has the free energy the program
    # computed for it.
    directory, expected, integrals = run_copy
    value = _snapshot_value(directory, 2, 4, 2)
    _edit_snapshot(directory, 2, 4, 2, value * (1.0 + 1e-6))
    with pytest.raises(checks.CheckFailure, match="record 2"):
        checks.check_free_energy(checks.read_run_files(directory), expected,
                                 integrals)


def test_missing_record_fails(run_copy):
    directory, expected, integrals = run_copy
    with pytest.raises(checks.CheckFailure, match="steps"):
        checks.check_records(checks.read_run_files(directory),
                             dict(expected, num_steps=5))


def test_config_mismatch_fails(run_copy):
    directory, expected, integrals = run_copy
    config = runio.parse_config(SMALL_CONFIG.format(directory=directory))
    checks.check_config(config, expected)
    with pytest.raises(checks.CheckFailure, match="kappa"):
        checks.check_config(config, dict(expected, kappa=2e-3))


# ---------------------------------------------------------------------------
# Transform
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def round_trip():
    params = runio.parse_config("").params
    states, totals, prev = workloads.transform_batch(7, 0, 2000)
    w, _, _ = entropy.w_from_states(states, prev, params)
    back, totals_back, _, _ = entropy.states_from_w(w, prev, params)
    return states, totals, back, totals_back


def test_transform_round_trip_passes(round_trip):
    assert checks.check_transform(*round_trip) <= checks.TRANSFORM_TOL


def test_perturbed_recovered_total_fails(round_trip):
    states, totals, back, totals_back = round_trip
    totals_back = totals_back.copy()
    totals_back[123] += 1e-9
    with pytest.raises(checks.CheckFailure, match="round-trip"):
        checks.check_transform(states, totals, back, totals_back)


def test_perturbed_recovered_species_fails(round_trip):
    states, totals, back, totals_back = round_trip
    back = back.copy()
    back[1500, 2] *= 1.0 + 1e-8
    with pytest.raises(checks.CheckFailure, match="round-trip"):
        checks.check_transform(states, totals, back, totals_back)


def test_inadmissible_recovered_state_fails(round_trip):
    states, totals, back, totals_back = round_trip
    zero = back.copy()
    zero[10, 1] = 0.0
    with pytest.raises(checks.CheckFailure, match="not positive"):
        checks.check_transform(states, totals, zero, totals_back)
    full = totals_back.copy()
    full[10] = 1.0
    with pytest.raises(checks.CheckFailure, match="below 1"):
        checks.check_transform(states, totals, back, full)


# ---------------------------------------------------------------------------
# Traced-run cross-checks
# ---------------------------------------------------------------------------

def test_trace_counts_must_match_program_records(run_copy):
    directory, expected, integrals = run_copy
    files = checks.read_run_files(directory)
    fp_iters = sum(int(v) for v in files["diagnostics"]["fp_iters"])
    good = {"fem.assemble_calls": fp_iters, "solver.map_evals": fp_iters,
            "solver.steps": 4}
    checks.check_trace_simulation(good, files)
    for key, value in (("fem.assemble_calls", fp_iters + 1),
                       ("solver.map_evals", fp_iters - 1),
                       ("solver.steps", 5)):
        with pytest.raises(checks.CheckFailure, match=key):
            checks.check_trace_simulation(dict(good, **{key: value}), files)
    checks.check_trace_transform({"entropy.inverse_points": 10}, 10)
    with pytest.raises(checks.CheckFailure, match="inverse_points"):
        checks.check_trace_transform({"entropy.inverse_points": 9}, 10)


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    tracer.start_batch(0)
    # step [0, 10] > fixed_point [1, 9] > assemble [2, 6] > inverse [3, 5]
    tracer.spans = [
        ["solver.step", 0.0, 10.0, -1, 0, 1],
        ["solver.fixed_point", 1.0, 9.0, 0, 0, 1],
        ["fem.assemble", 2.0, 6.0, 1, 0, 1],
        ["entropy.inverse", 3.0, 5.0, 2, 0, 1],
        ["solver.linear", 6.0, 7.0, 1, 0, 1],
    ]
    metrics = tracer.batch_metrics(0)
    assert metrics["fem.assemble_self_s"] == 2.0
    assert metrics["entropy.inverse_s"] == 2.0
    assert metrics["solver.linear_s"] == 1.0
    # step self 2 + fixed_point self (8 - 4 - 1) = 5
    assert metrics["solver.step_self_s"] == 5.0
    assert metrics["solver.steps"] == 1
    assert tracer.batch_metrics(1)["solver.steps"] == 0


def test_each_round_parses_to_its_own_problem(tmp_path):
    for name, key in (("reference", "amplitude"), ("front", "left_state")):
        configs = [runio.parse_config(
            workloads.config_text(name, variant, str(tmp_path)))
            for variant in range(3)]
        for variant, config in enumerate(configs):
            checks.check_config(config,
                                workloads.expected_problem(name, variant))
        with pytest.raises(checks.CheckFailure, match=key):
            checks.check_config(configs[0],
                                workloads.expected_problem(name, 1))
