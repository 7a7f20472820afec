"""Correctness checks on what the program hands back.

Simulation results are checked on the files ``capmix run`` writes, read
back from disk.  Every check rests on a property the scheme must have, or on
a quantity the benchmark computes itself from the closed forms; none
compares against a stored copy of earlier output.  A failed check raises
``CheckFailure`` naming what is wrong and where.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

# Round-trip target of the entropy-variable transform on the transform
# workload's input range.
TRANSFORM_TOL = 1e-10
# Agreement of the lumped relative free energy with the program's value,
# relative to (1 + |value|).  The two evaluations agree to a few 1e-16 on
# both simulation workloads; the margin allows another summation order.
FREE_ENERGY_TOL = 1e-12


class CheckFailure(Exception):
    """An output of the program is wrong."""


def _fail_if(condition, message):
    if condition:
        raise CheckFailure(message)


# ---------------------------------------------------------------------------
# Reading the result files
# ---------------------------------------------------------------------------

def read_run_files(directory):
    """Read diagnostics.csv, snapshots.csv and manifest.json of one run.

    Returns a dict with ``diagnostics`` ({column: list}), ``times`` (k,),
    ``x`` (nodes,), ``states`` (k, nodes, n) and ``manifest``.
    """
    with open(os.path.join(directory, "diagnostics.csv"), newline="",
              encoding="ascii") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    diagnostics = {name: [row[j] for row in body]
                   for j, name in enumerate(header)}

    with open(os.path.join(directory, "snapshots.csv"), newline="",
              encoding="ascii") as fh:
        rows = list(csv.reader(fh))
    _fail_if(rows[0][:3] != ["time", "node_index", "x"],
             f"snapshots.csv: unexpected header {rows[0][:3]}")
    table = np.array([[float(v) for v in row] for row in rows[1:]])
    times = np.unique(table[:, 0])
    num_nodes = int(table[:, 1].max()) + 1
    _fail_if(table.shape[0] != times.size * num_nodes,
             "snapshots.csv: records do not all hold every node")
    # Rows are written time by time, node by node.
    states = table[:, 3:].reshape(times.size, num_nodes, -1)
    x = table[:num_nodes, 2]
    _fail_if(not np.array_equal(table[:, 1].reshape(times.size, num_nodes),
                                np.tile(np.arange(num_nodes), (times.size, 1))),
             "snapshots.csv: node rows out of order")

    with open(os.path.join(directory, "manifest.json"), encoding="ascii") as fh:
        manifest = json.load(fh)
    return {"diagnostics": diagnostics, "times": table[::num_nodes, 0],
            "x": x, "states": states, "manifest": manifest}


# ---------------------------------------------------------------------------
# Simulation checks
# ---------------------------------------------------------------------------

def check_config(config, expected):
    """The parsed configuration is the problem the workload describes."""
    p, s = config.params, config.solver
    got = {
        "n_species": p.n_species, "s_gamma": tuple(p.s_gamma),
        "kappa": p.kappa, "eps": p.eps, "lam": p.lam, "gamma1": p.gamma1,
        "fp_tol": s.fp_tol, "t_end": s.t_end, "record_every": s.record_every,
        "num_cells": config.num_cells, "x_left": config.x_left,
        "x_right": config.x_right, "kind": config.diffusion.kind,
        "profile": config.initial_profile,
    }
    if "amplitude" in expected:
        got["amplitude"] = config.initial_args.get("amplitude")
    for key in ("left_state", "right_state"):
        if key in expected:
            got[key] = tuple(config.initial_args.get(key, ()))
    for key, value in got.items():
        _fail_if(value != expected[key],
                 f"config: {key} parsed as {value!r}, expected "
                 f"{expected[key]!r}")


def check_records(files, expected):
    """One record per step at the right times; the files agree."""
    num_steps = expected["num_steps"]
    diag = files["diagnostics"]
    steps = [int(v) for v in diag["step"]]
    _fail_if(steps != list(range(1, num_steps + 1)),
             f"diagnostics.csv: steps {steps[:3]}... are not 1..{num_steps}")
    _fail_if(files["states"].shape[0] != num_steps + 1,
             f"snapshots.csv: {files['states'].shape[0]} records, expected "
             f"{num_steps + 1}")
    want = np.arange(num_steps + 1) * expected["kappa"]
    _fail_if(not np.allclose(files["times"], want, rtol=1e-12, atol=0.0),
             "snapshots.csv: record times are not multiples of kappa")
    _fail_if(files["manifest"]["num_steps_recorded"] != num_steps,
             "manifest.json: wrong num_steps_recorded")


def check_admissible(states, s_gamma):
    """Interior S_i > 0, every total < 1, boundary rows equal S^G bitwise."""
    sg = np.asarray(s_gamma, dtype=float)
    records = np.flatnonzero(~np.all(states[:, 1:-1, :] > 0.0, axis=(1, 2)))
    if records.size:
        raise CheckFailure(f"record {records[0]}: a species is not positive "
                           "at an interior node")
    records = np.flatnonzero(~np.all(states.sum(axis=2) < 1.0, axis=1))
    if records.size:
        raise CheckFailure(f"record {records[0]}: a total is not below 1")
    for side, rows in (("left", states[:, 0, :]), ("right", states[:, -1, :])):
        _fail_if(not np.array_equal(rows, np.broadcast_to(sg, rows.shape)),
                 f"the {side} boundary row differs from S^G")


def check_lyapunov(files):
    """The Lyapunov value never increases and every entropy margin is >= 0."""
    manifest = files["manifest"]
    lyap = manifest["lyapunov"]
    from_csv = [float(v) for v in files["diagnostics"]["lyapunov"]]
    _fail_if(lyap[1:] != from_csv,
             "manifest.json and diagnostics.csv disagree on the Lyapunov value")
    for k in range(1, len(lyap)):
        _fail_if(not lyap[k] <= lyap[k - 1],
                 f"Lyapunov value increases at step {k}: "
                 f"{lyap[k - 1]!r} -> {lyap[k]!r}")
    margins = manifest["entropy_margins"]
    _fail_if(len(margins) != len(lyap) - 1, "one entropy margin per step")
    for k, margin in enumerate(margins, start=1):
        _fail_if(not (isinstance(margin, float) and margin >= 0.0),
                 f"entropy margin at step {k} is {margin!r}")


def check_mirror(states, x, tol):
    """S(x) = S(x_left + x_right - x) within tol (a symmetric problem)."""
    _fail_if(not np.allclose(x + x[::-1], x[0] + x[-1], rtol=0.0, atol=1e-14),
             "mesh nodes are not symmetric")
    dev = float(np.max(np.abs(states - states[:, ::-1, :])))
    _fail_if(not dev <= tol,
             f"mirror symmetry broken by {dev:.3e} (allowed {tol:.1e})")
    return dev


def check_equal_species(states, species, tol):
    """The listed species (0-based) agree within tol at every node."""
    group = states[:, :, species]
    dev = float(np.max(np.abs(group - group[:, :, :1])))
    _fail_if(not dev <= tol,
             f"species {[i + 1 for i in species]} differ by {dev:.3e} "
             f"(allowed {tol:.1e})")
    return dev


def _kernel_terms(s, lam, gamma1):
    """A = B' and B of the convex free-energy kernel, in closed form."""
    a = ((1.0 - s) ** (1.0 - lam) / (lam - 1.0)
         - s ** (1.0 - gamma1) / (gamma1 - 1.0))
    b = ((1.0 - s) ** (2.0 - lam) / ((lam - 1.0) * (lam - 2.0))
         + s ** (2.0 - gamma1) / ((gamma1 - 1.0) * (gamma1 - 2.0)))
    return a, b


def lumped_relative_free_energy(states, x, s_gamma, lam, gamma1):
    """Mass-lumped integral of F(S) - F(S^G) - mu(S^G).(S - S^G) per record.

    F(S) = sum S_i log(S_i/S) + E(S) with E'' = tau/a, so the kernel share is
    the Bregman divergence B(S) - B(S^G) - A(S^G)(S - S^G) of the closed-form
    kernel primitive B.  states: (k, nodes, n), x: (nodes,).
    """
    sg = np.asarray(s_gamma, dtype=float)
    sgt = float(sg.sum())
    totals = states.sum(axis=2)
    mixing = np.sum(states * (np.log(states / totals[:, :, None])
                              - np.log(sg / sgt)), axis=2)
    a_g, b_g = _kernel_terms(sgt, lam, gamma1)
    _, b = _kernel_terms(totals, lam, gamma1)
    density = mixing + (b - b_g - a_g * (totals - sgt))
    h = np.diff(x)
    mass = np.zeros_like(x)
    mass[:-1] += 0.5 * h
    mass[1:] += 0.5 * h
    return density @ mass


def check_free_energy(files, expected, program_values):
    """The program's entropy integral at every record, and the manifest's
    supremum of it, equal the benchmark's closed-form value."""
    mine = lumped_relative_free_energy(files["states"], files["x"],
                                       expected["s_gamma"], expected["lam"],
                                       expected["gamma1"])
    theirs = np.asarray(program_values, dtype=float)
    _fail_if(theirs.shape != mine.shape,
             f"{theirs.size} entropy integrals for {mine.size} records")
    err = np.abs(mine - theirs) / (1.0 + np.abs(mine))
    k = int(np.argmax(err))
    _fail_if(not err[k] <= FREE_ENERGY_TOL,
             f"entropy integral at record {k}: program {theirs[k]!r}, "
             f"closed form {mine[k]!r}")
    sup = files["manifest"]["apriori_report"]["sup_entropy_integral"]
    _fail_if(not abs(sup - mine.max()) <= FREE_ENERGY_TOL * (1.0 + mine.max()),
             f"manifest sup_entropy_integral {sup!r}, closed form "
             f"{mine.max()!r}")
    return float(err.max())


def check_simulation(files, expected, program_entropy_integrals, mirror):
    """Every simulation check; returns the measured deviations."""
    check_records(files, expected)
    states = files["states"]
    check_admissible(states, expected["s_gamma"])
    check_lyapunov(files)
    tol = 10.0 * expected["fp_tol"]
    out = {}
    if mirror:
        out["mirror"] = check_mirror(states, files["x"], tol)
    out["species"] = check_equal_species(
        states, list(range(1, expected["n_species"])), tol)
    out["free_energy"] = check_free_energy(files, expected,
                                           program_entropy_integrals)
    return out


# ---------------------------------------------------------------------------
# Transform checks
# ---------------------------------------------------------------------------

def check_transform(states, totals, states_back, totals_back):
    """The round trip returns the generated states within TRANSFORM_TOL and
    every recovered state is admissible."""
    _fail_if(states_back.shape != states.shape
             or totals_back.shape != totals.shape,
             "recovered arrays have the wrong shape")
    _fail_if(not np.all(states_back > 0.0), "a recovered species is not "
             "positive")
    _fail_if(not (np.all(totals_back < 1.0)
                  and np.all(states_back.sum(axis=1) < 1.0)),
             "a recovered total is not below 1")
    err_s = float(np.max(np.abs(states_back - states)))
    err_t = float(np.max(np.abs(totals_back - totals)))
    err = max(err_s, err_t)
    _fail_if(not err <= TRANSFORM_TOL,
             f"round-trip error {err:.3e} exceeds {TRANSFORM_TOL:.0e}")
    return err


# ---------------------------------------------------------------------------
# Traced-run cross-checks
# ---------------------------------------------------------------------------

def check_trace_simulation(metrics, files):
    """Counts taken by the trace agree with what the program recorded."""
    fp_iters = sum(int(v) for v in files["diagnostics"]["fp_iters"])
    rows = len(files["diagnostics"]["step"])
    for key in ("fem.assemble_calls", "solver.map_evals"):
        _fail_if(metrics[key] != fp_iters,
                 f"trace: {key} = {metrics[key]} but the program records "
                 f"{fp_iters} fixed-point iterations")
    _fail_if(metrics["solver.steps"] != rows,
             f"trace: solver.steps = {metrics['solver.steps']} but "
             f"diagnostics.csv has {rows} rows")


def check_trace_transform(metrics, batch_size):
    _fail_if(metrics["entropy.inverse_points"] != batch_size,
             f"trace: entropy.inverse_points = "
             f"{metrics['entropy.inverse_points']}, batch size {batch_size}")
