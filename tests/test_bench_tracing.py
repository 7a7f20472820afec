"""The benchmark's traced run wraps module-level names of the program; a
name it lists but the program no longer has, or a result slot it reads that
moved, would silently zero the per-layer metrics it feeds.  Check every
wrapped name exists and the slots the tracer reads hold what it counts."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from capmix import constitutive as cst
from capmix import entropy as ent
from capmix import fem, solver

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists_in_the_program():
    wrapped = _load_tracing().WRAPPED
    assert wrapped
    missing = [f"{mod}.{attr}" for mod, attr, _ in wrapped
               if not callable(getattr(importlib.import_module(f"capmix.{mod}"),
                                       attr, None))]
    assert missing == []


def test_traced_result_slots_hold_their_counts():
    params = cst.default_params()
    spec = ent.DiffusionMatrixSpec()
    mesh = fem.build_mesh(4)
    s_prev = solver.equilibrium_initial(mesh, params)
    grad_beta = fem.beta_gradient_field(s_prev, params)
    cfg = solver.SolverConfig()
    w0 = np.zeros((mesh.num_nodes, params.n_species))

    # (w, evals, residual, converged, refusals): the tracer reads evals.
    result = solver._fixed_point(s_prev, params, spec, cfg, 1.0, w0,
                                 grad_beta)
    assert type(result[1]) is int and result[1] == 1
    assert result[3] is True

    # (w, residual, converged, evals_used): the tracer reads evals_used.
    def apply_map(w):
        return np.zeros_like(w)

    w1 = np.full_like(w0, 1e-3)
    polished = solver._newton_polish(w1, np.zeros_like(w0), 1.0, apply_map,
                                     mesh, cfg, 5)
    assert len(polished) == 4
    assert type(polished[3]) is int and 1 <= polished[3] <= 5

    # The tracer counts recovered points by the length of result[1].
    m = 7
    recovered = ent._state_from_w_many(np.zeros((m, params.n_species)),
                                       np.full(m, params.total_gamma), params)
    assert len(recovered[1]) == m
    assert recovered[1].shape == (m,)


def test_traced_run_counts_agree(monkeypatch, capsys):
    # The benchmark's tracer on a short run: every name it wraps exists and
    # is reached, and its counts obey the identities its checks rely on.
    tracing = _load_tracing()
    modules = {name: importlib.import_module(f"capmix.{name}")
               for name in ("runio", "solver", "fem", "entropy",
                            "diagnostics")}
    for mod, attr, _ in tracing.WRAPPED:
        # Registered with monkeypatch so the original is restored afterwards.
        monkeypatch.setattr(modules[mod], attr, getattr(modules[mod], attr))
    tracer = tracing.Tracer()
    tracer.install(modules)
    assert "not wrapped" not in capsys.readouterr().err

    params = cst.default_params()
    mesh = fem.build_mesh(16)
    init = solver.sine_perturbation_initial(mesh, params, amplitude=0.1)
    tracer.start_batch(0)
    traj = solver.run_simulation(init, params, ent.DiffusionMatrixSpec(),
                                 solver.SolverConfig(t_end=5 * params.kappa))
    metrics = tracer.batch_metrics(0)
    fp_iters = sum(rec.fp_iters for rec in traj.diagnostics[1:])
    assert metrics["solver.steps"] == 5
    assert (metrics["fem.assemble_calls"] == metrics["solver.map_evals"]
            == metrics["solver.linear_calls"] == fp_iters > 0)
    assert metrics["entropy.rootfind_point_evals"] > 0


def test_tracer_counts_a_blocked_transform_once(monkeypatch, capsys):
    # The batch transforms walk their rows in blocks above the names the
    # tracer wraps: each block is one span, and the counts add up to those
    # of the same batch transformed as one block.
    tracing = _load_tracing()
    modules = {name: importlib.import_module(f"capmix.{name}")
               for name in ("runio", "solver", "fem", "entropy",
                            "diagnostics")}
    for mod, attr, _ in tracing.WRAPPED:
        monkeypatch.setattr(modules[mod], attr, getattr(modules[mod], attr))
    tracer = tracing.Tracer()
    tracer.install(modules)
    assert "not wrapped" not in capsys.readouterr().err

    params = cst.default_params()
    rng = np.random.default_rng(5)
    m = 50
    frac = rng.uniform(0.05, 1.0, size=(m, params.n_species))
    states = frac / frac.sum(axis=1, keepdims=True) * rng.uniform(
        0.05, 0.92, size=(m, 1))
    prev = rng.uniform(0.05, 0.92, size=m)
    for batch, rows in enumerate((m, 7)):
        monkeypatch.setattr(ent, "_BLOCK_ROWS", rows)
        tracer.start_batch(batch)
        w, _, _ = ent.w_from_states(states, prev, params)
        ent.states_from_w(w, prev, params)
    whole, blocked = tracer.batch_metrics(0), tracer.batch_metrics(1)
    assert whole["entropy.inverse_points"] == m
    assert blocked["entropy.inverse_points"] == m
    assert (blocked["entropy.rootfind_point_evals"]
            == whole["entropy.rootfind_point_evals"] > m)
    inverse_spans = [span[4] for span in tracer.spans
                     if span[0] == "entropy.inverse"]
    assert inverse_spans == [0] + [1] * 8
