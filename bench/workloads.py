"""Inputs of the benchmark workloads.

The two simulation workloads are fixed problems, and the seed has no effect
on them.  Round ``r`` of a run solves the problem with its perturbation
moved up by ``r`` ulps (the sine amplitude on ``reference``, the left value
of species 1 on ``front``), so no round repeats an earlier input bit for bit
and a result kept from an earlier round cannot be reused.  Every run solves
the same sequence of problems.  The transform workload draws a fresh batch
of states for each round from the seed and the round.
"""

from __future__ import annotations

import math

import numpy as np

REFERENCE_SPECIES = 3
REFERENCE_AMPLITUDE = 0.1
FRONT_SPECIES = 8
FRONT_BOUNDARY = 0.45 / FRONT_SPECIES


def _ulps_up(value, count):
    for _ in range(count):
        value = math.nextafter(value, math.inf)
    return value


def _reference_amplitude(variant):
    return _ulps_up(REFERENCE_AMPLITUDE, variant)


def _front_states(variant):
    sg = FRONT_BOUNDARY
    left = (_ulps_up(sg + 0.25, variant),) + (sg,) * (FRONT_SPECIES - 1)
    right = (0.3 * sg,) + (sg,) * (FRONT_SPECIES - 1)
    return left, right


def simulation_sections(name, variant):
    """Config entries of a simulation workload in round ``variant``:
    {section: {key: text}}.

    Keys left out take the program's documented defaults (the reference
    exponents, boundary composition 0.45/n per species, fp_tol = 1e-9, one
    record per step); ``expected_problem`` states them for the checks.
    """
    if name == "reference":
        return {
            "model": {"n_species": "3", "kappa": "1e-3", "eps": "1e-3"},
            "solver": {"t_end": "0.05", "strict_entropy": "true"},
            "mesh": {"num_cells": "64", "x_left": "0.0", "x_right": "1.0"},
            "diffusion": {"kind": "scaled_projection", "d0": "1.0"},
            "initial": {"profile": "sine_perturbation",
                        "amplitude": repr(_reference_amplitude(variant)),
                        "species_index": "0"},
            "output": {"record_every": "1"},
        }
    if name == "front":
        left, right = _front_states(variant)
        return {
            "model": {"n_species": str(FRONT_SPECIES), "kappa": "1e-3",
                      "eps": "1e-3"},
            "solver": {"t_end": "0.03", "strict_entropy": "true"},
            "mesh": {"num_cells": "64"},
            "diffusion": {"kind": "state_weighted", "d0": "1.0",
                          "d1": "2.0"},
            "initial": {"profile": "step_profile",
                        "left_state": ", ".join(map(repr, left)),
                        "right_state": ", ".join(map(repr, right))},
            "output": {"record_every": "1"},
        }
    raise ValueError(f"no simulation workload named {name!r}")


def expected_problem(name, variant):
    """What parsing the workload's document must give, stated independently
    of the program: the checks compare the parsed config against it and
    evaluate the closed-form free energy with these exponents."""
    common = {"kappa": 1e-3, "eps": 1e-3, "fp_tol": 1e-9, "num_cells": 64,
              "x_left": 0.0, "x_right": 1.0, "lam": 7.0, "gamma1": 6.0,
              "record_every": 1}
    if name == "reference":
        return dict(common, n_species=REFERENCE_SPECIES,
                    s_gamma=(0.15,) * REFERENCE_SPECIES, t_end=0.05,
                    num_steps=50, kind="scaled_projection",
                    profile="sine_perturbation",
                    amplitude=_reference_amplitude(variant))
    if name == "front":
        left, right = _front_states(variant)
        return dict(common, n_species=FRONT_SPECIES,
                    s_gamma=(FRONT_BOUNDARY,) * FRONT_SPECIES, t_end=0.03,
                    num_steps=30, kind="state_weighted",
                    profile="step_profile", left_state=left,
                    right_state=right)
    raise ValueError(f"no simulation workload named {name!r}")


def config_text(name, variant, output_dir):
    """The configuration document of a simulation workload in round
    ``variant``, writing its results to ``output_dir``."""
    sections = simulation_sections(name, variant)
    sections["output"] = dict(sections["output"], directory=output_dir)
    lines = [f"# capmix benchmark, workload {name}, round {variant}"]
    for section, entries in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in entries.items())
    return "\n".join(lines) + "\n"


def transform_batch(seed, batch, size):
    """``size`` admissible 3-species states and their previous totals, drawn
    for round ``batch`` of a run with ``seed``.

    Fractions are drawn U(0.05, 1) and normalised, totals U(0.05, 0.92), and
    previous totals U(0.05, 0.92) independently of the totals.  Returns
    (states (size, 3), totals (size,), previous totals (size,)).
    """
    rng = np.random.default_rng([seed, batch])
    frac = rng.uniform(0.05, 1.0, size=(size, REFERENCE_SPECIES))
    frac /= frac.sum(axis=1, keepdims=True)
    totals = rng.uniform(0.05, 0.92, size=size)
    prev = rng.uniform(0.05, 0.92, size=size)
    states = frac * totals[:, None]
    # The checks compare against the totals of the states as stored.
    return states, states.sum(axis=1), prev
