"""Runtime verification surfaces: the Lyapunov functional, per-step
dissipation budgets, the entropy inequality check, a-priori bound
aggregation, the weak-form residual, and the pressure-consistency defect."""

import dataclasses
import math

import numpy as np
import pytest

from capmix import constitutive as cst
from capmix import diagnostics as diag
from capmix import entropy as ent
from capmix import fem
from capmix import solver
from capmix.errors import ArgumentError

P0 = cst.default_params()
SPEC = ent.DiffusionMatrixSpec()

APRIORI_KEYS = {
    "sup_entropy_integral", "sup_grad_beta", "dkbeta_L2L2", "capillary_L2L2",
    "grad_dkbeta_L2L2", "eps_w_L2H1", "proj_mu_L2L2", "sup_total_pow_gamma1",
    "sup_one_minus_total_pow_lam", "alpha1_L2L6", "alpha2_L2L6",
    "mobility_inv_p_int", "dt_Hminus1_L2", "grad_dkbeta_Lq", "exponents",
}


@pytest.fixture(scope="module")
def short_run():
    mesh = fem.build_mesh(16)
    init = solver.sine_perturbation_initial(mesh, P0, amplitude=0.1)
    cfg = solver.SolverConfig(t_end=5e-3)
    return solver.run_simulation(init, P0, SPEC, cfg)


def test_lyapunov_zero_at_boundary_composition():
    mesh = fem.build_mesh(12)
    eq = solver.equilibrium_initial(mesh, P0)
    assert diag.lyapunov_functional(eq, P0, mesh) == 0.0
    pert = solver.sine_perturbation_initial(mesh, P0, amplitude=0.05)
    assert diag.lyapunov_functional(pert, P0, mesh) > 0.0


def test_record_lyapunov_is_the_public_functional(short_run):
    # Every record's Lyapunov value comes from the same relative free
    # energy and gradient-memory sum as its a-priori trackers, and equals
    # the public functional bit for bit.
    traj = short_run
    assert len(traj.states) == len(traj.diagnostics) > 2
    for state, rec in zip(traj.states, traj.diagnostics):
        expected = diag.lyapunov_functional(state, P0, state.mesh,
                                            rec.grad_beta)
        assert rec.lyapunov == expected
        assert rec.apriori["entropy_integral"] == diag.lyapunov_functional(
            state, P0, state.mesh, np.zeros_like(rec.grad_beta))


def test_initial_record_contents():
    mesh = fem.build_mesh(12)
    eq = solver.equilibrium_initial(mesh, P0)
    rec = diag.initial_record(eq, P0, SPEC)
    assert rec.step == 0 and rec.time == 0.0
    assert rec.lyapunov == 0.0
    assert rec.diss_dbeta_sq == 0.0 and rec.diss_proj_mu == 0.0
    assert rec.min_species == pytest.approx(min(P0.s_gamma))
    assert rec.max_total == pytest.approx(sum(P0.s_gamma))
    assert set(rec.apriori) >= {"entropy_integral", "grad_beta_l2"}
    cc = rec.check_constants
    assert cc["c_mu"] == pytest.approx(0.5 * SPEC.d0, abs=0)
    assert cc["c_beta"] == pytest.approx(1.0 / cst.sup_beta_prime(P0), abs=0)
    length = mesh.x_right - mesh.x_left
    h_max = float(mesh.widths.max())
    cp_sq = (length / math.pi) ** 2 + h_max**2 / 6.0
    expected_cw = (min(P0.eps, 0.5 * SPEC.d0)
                   / (4.0 * P0.n_species**2 * (1.0 + cp_sq) * P0.eps))
    assert cc["c_w"] == pytest.approx(expected_cw, rel=1e-15)


def test_check_constants_without_regularisation():
    mesh = fem.build_mesh(8)
    params0 = cst.default_params(eps=0.0)
    rec = diag.initial_record(fem.constant_field(mesh, params0), params0, SPEC)
    assert rec.check_constants["c_w"] == 0.0


def test_dissipation_budget_on_a_real_step(short_run):
    traj = short_run
    rec = traj.diagnostics[1]
    for name in ("diss_dbeta_sq", "diss_capillary", "diss_grad_dbeta",
                 "diss_eps_w", "diss_proj_mu"):
        assert getattr(rec, name) >= 0.0
    # The perturbed run actually dissipates through every channel.
    assert rec.diss_dbeta_sq > 0.0
    assert rec.diss_proj_mu > 0.0
    assert rec.grad_beta.shape == (16, 2)
    assert set(rec.apriori) == {
        "entropy_integral", "grad_beta_l2", "total_pow_gamma1_int",
        "one_minus_total_pow_lam_int", "alpha1_l6", "alpha2_l6",
        "mobility_inv_p_int", "grad_dkbeta_lq_int", "dt_hminus1_sq"}


def test_entropy_check_recomputation(short_run):
    traj = short_run
    prev, new = traj.diagnostics[0], traj.diagnostics[1]
    tol = 10.0 * traj.config.fp_tol
    res = diag.check_entropy_step(prev.lyapunov, new.lyapunov, new,
                                  P0.kappa, tol)
    assert res.passed
    cc = new.check_constants
    weighted = (cc["c_beta"] * new.diss_dbeta_sq
                + (2.0 / 3.0) * new.diss_capillary
                + 0.25 * new.diss_grad_dbeta
                + cc["c_w"] * new.diss_eps_w
                + cc["c_mu"] * new.diss_proj_mu)
    assert res.weighted_dissipation == pytest.approx(weighted, rel=1e-15)
    margin = (prev.lyapunov + tol) - (new.lyapunov + P0.kappa * weighted)
    assert res.margin == pytest.approx(margin, abs=1e-18)
    assert res.margin == pytest.approx(new.entropy_margin, abs=1e-18)
    # An impossible claim of entropy growth must fail the check.
    bad = diag.check_entropy_step(new.lyapunov - 1.0, new.lyapunov, new,
                                  P0.kappa, tol)
    assert not bad.passed and bad.margin < 0.0


def test_record_rejects_negative_dissipation():
    mesh = fem.build_mesh(8)
    eq = solver.equilibrium_initial(mesh, P0)
    rec = diag.initial_record(eq, P0, SPEC)
    with pytest.raises(ArgumentError):
        dataclasses.replace(rec, diss_capillary=-1e-6)
    with pytest.raises(ArgumentError):
        dataclasses.replace(rec, lyapunov=-1e-6)
    # Rounding-level negatives are tolerated (they arise from cancellation).
    ok = dataclasses.replace(rec, diss_capillary=-1e-13)
    assert ok.diss_capillary == -1e-13


def test_apriori_report_aggregates(short_run):
    report = diag.apriori_report(short_run, P0)
    assert set(report) == APRIORI_KEYS
    for key, value in report.items():
        if key == "exponents":
            assert set(value) == {"alpha1", "alpha2", "p", "q"}
            continue
        assert np.isfinite(value) and value >= 0.0
    assert report["sup_entropy_integral"] > 0.0
    assert report["dkbeta_L2L2"] > 0.0
    assert report["exponents"]["q"] == pytest.approx(1.0210526315789474,
                                                     abs=1e-12)


def test_weak_residual_shrinks_under_refinement():
    results = {}
    for num_cells in (16, 32):
        mesh = fem.build_mesh(num_cells)
        init = solver.sine_perturbation_initial(mesh, P0, amplitude=0.1)
        cfg = solver.SolverConfig(t_end=5e-3)
        traj = solver.run_simulation(init, P0, SPEC, cfg)
        results[num_cells] = diag.weak_residual(traj, P0, SPEC, 3)
    assert results[16] > 0.0
    assert results[32] < results[16]


def test_weak_residual_detects_corruption(short_run):
    base = diag.weak_residual(short_run, P0, SPEC, 3)
    corrupted = dataclasses.replace(short_run)
    states = list(corrupted.states)
    mid = len(states) // 2
    vals = states[mid].values.copy()
    vals[1:-1] *= 0.8
    states[mid] = fem.NodalField(vals, states[mid].mesh)
    corrupted.states = states
    assert diag.weak_residual(corrupted, P0, SPEC, 3) > 100.0 * base


def test_weak_residual_argument_validation(short_run):
    stub = dataclasses.replace(short_run)
    stub.states = short_run.states[:1]
    stub.times = short_run.times[:1]
    with pytest.raises(ArgumentError):
        diag.weak_residual(stub, P0, SPEC, 3)
    with pytest.raises(ArgumentError):
        diag.weak_residual(short_run, P0, SPEC, 0)


def test_gibbs_duhem_zero_at_constant_state():
    mesh = fem.build_mesh(24)
    vals = np.tile((0.2, 0.25, 0.3), (mesh.num_nodes, 1))
    state = fem.NodalField(vals, mesh)
    assert diag.gibbs_duhem_check(state, P0, mesh) == 0.0


def _smooth_state(mesh):
    x = mesh.nodes
    vals = np.column_stack([
        0.15 + 0.08 * np.sin(np.pi * x),
        0.15 + 0.05 * np.sin(2 * np.pi * x),
        0.15 - 0.04 * np.sin(np.pi * x) ** 2,
    ])
    return fem.NodalField(vals, mesh)


def test_gibbs_duhem_converges_under_refinement():
    values = []
    for num_cells in (32, 64, 128):
        mesh = fem.build_mesh(num_cells)
        values.append(diag.gibbs_duhem_check(_smooth_state(mesh), P0, mesh))
    assert values[0] > values[1] > values[2] > 0.0
    # Chord-gradient consistency is first order or better.
    assert values[0] / values[1] > 1.5
    assert values[1] / values[2] > 1.5
