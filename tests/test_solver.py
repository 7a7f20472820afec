"""Time stepping: linear solve accuracy, stationarity at the boundary
composition, Lyapunov monotonicity on a perturbed run, trajectory recording,
initial-profile builders, and the refinement-study report."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse.linalg

from capmix import constitutive as cst
from capmix import entropy as ent
from capmix import fem
from capmix import solver
from capmix.errors import (ArgumentError, AssemblyError,
                           EntropyViolationError, FixedPointError,
                           LinearSolveError, PreconditionError)

P0 = cst.default_params()
SPEC = ent.DiffusionMatrixSpec()


def _assembled(num_cells=16, seed=11):
    mesh = fem.build_mesh(num_cells)
    s_prev = solver.sine_perturbation_initial(mesh, P0, amplitude=0.1)
    rng = np.random.default_rng(seed)
    w = fem.NodalField(0.05 * rng.standard_normal((mesh.num_nodes, 3)), mesh)
    return fem.assemble_system(w, s_prev, P0, SPEC, 1.0,
                               fem.beta_gradient_field(s_prev, P0))


def _block_matvec(blocks, x):
    """Product of a block-tridiagonal node-block stack with x, in NumPy."""
    ni, _, n, _ = blocks.shape
    padded = np.zeros((ni + 2, n))
    padded[1:-1] = x.reshape(ni, n)
    return sum(np.einsum("pij,pj->pi", blocks[:, b], padded[b:b + ni])
               for b in range(3)).ravel()


def test_solve_linear_matches_dense_factorisation():
    system = _assembled()
    x = solver.solve_linear(system)
    mat = solver._csc_operator(system)
    dense = np.linalg.solve(mat.toarray(), system.rhs)
    assert np.allclose(x, dense, rtol=1e-10, atol=1e-14)
    resid = np.linalg.norm(mat @ x - system.rhs)
    assert resid <= 1e-12 * np.linalg.norm(system.rhs)
    assert np.allclose(_block_matvec(system.blocks, x), mat @ x,
                       rtol=0.0, atol=1e-12)


def test_solve_linear_large_system_meets_its_residual():
    # 1700 interior nodes of 3 species: 5100 unknowns, block tridiagonal
    # like the assembled operator (the 1d Laplacian times the identity plus
    # the identity), with spectrum in [1, 5].
    n, nodes = 3, 1700
    eye = np.eye(n)
    blocks = np.zeros((nodes, 3, n, n))
    blocks[:, 0] = blocks[:, 2] = -eye
    blocks[:, 1] = 3.0 * eye
    blocks[0, 0] = blocks[-1, 2] = 0.0
    rhs = np.random.default_rng(12).standard_normal(n * nodes)
    system = fem.LinearSystem(blocks, rhs)
    x = solver.solve_linear(system)
    resid = np.linalg.norm(_block_matvec(blocks, x) - rhs)
    assert resid <= 1e-10 * np.linalg.norm(rhs)


def test_solve_linear_zero_load_is_exact_zero():
    mesh = fem.build_mesh(16)
    eq = fem.constant_field(mesh, P0)
    w0 = fem.NodalField(np.zeros((mesh.num_nodes, 3)), mesh)
    system = fem.assemble_system(w0, eq, P0, SPEC, 1.0)
    x = solver.solve_linear(system)
    assert np.array_equal(x, np.zeros_like(x))


def test_solve_linear_refuses_a_singular_system():
    # The middle node's diagonal block is zero: no pivot exists.
    n, nodes = 3, 3
    blocks = np.zeros((nodes, 3, n, n))
    blocks[0, 1] = blocks[2, 1] = np.eye(n)
    system = fem.LinearSystem(blocks, np.ones(n * nodes))
    with pytest.raises(LinearSolveError, match="factorization failed"):
        solver.solve_linear(system)


def test_solve_linear_refuses_a_non_finite_load():
    system = _assembled()
    rhs = system.rhs.copy()
    rhs[4] = np.nan
    with pytest.raises(LinearSolveError, match="non-finite values"):
        solver.solve_linear(dataclasses.replace(system, rhs=rhs))


@pytest.mark.parametrize("field, value, fragment", [
    ("fp_tol", 0.0, "must be positive"),
    ("t_end", 0.0, "must be positive"),
    ("record_every", 0, "at least 1"),
    ("record_every", float("nan"), "at least 1"),
    ("record_every", 1.5, "integer"),
])
def test_solver_config_validation(field, value, fragment):
    with pytest.raises(ArgumentError, match=fragment):
        solver.SolverConfig(**{field: value})


def _perturbed_splu(monkeypatch, perturb):
    """Patch splu so that the solve of factorisation k (counted from 0) is
    off by a seeded random vector of relative size 1e-8 when perturb(k).
    Returns the lists that count factorisations and solves."""
    # solve_linear imports splu at call time, so the patch goes on its module.
    factorisations, solves = [], []
    splu = scipy.sparse.linalg.splu
    rng = np.random.default_rng(3)

    def patched(mat):
        call = len(factorisations)
        factorisations.append(call)
        lu = splu(mat)

        class Perturbed:
            def solve(self, rhs):
                solves.append(call)
                x = lu.solve(rhs)
                if perturb(call):
                    d = rng.standard_normal(x.shape)
                    x = x + 1e-8 * np.linalg.norm(x) / np.linalg.norm(d) * d
                return x

        return Perturbed()

    monkeypatch.setattr(scipy.sparse.linalg, "splu", patched)
    return factorisations, solves


def test_solve_linear_refuses_an_unreachable_residual(monkeypatch):
    # A solution off by 1e-8 relative has a backward error far above the
    # allowed 1e-12.
    factorisations, solves = _perturbed_splu(monkeypatch, lambda call: True)
    with pytest.raises(LinearSolveError, match="residual .* exceeds"):
        solver.solve_linear(_assembled())
    # One factorisation, one solve, one residual check: no refinement.
    assert (len(factorisations), len(solves)) == (1, 1)


def test_run_errors_name_their_step(monkeypatch):
    monkeypatch.setattr(solver, "_FP_MAX_ITERS", 1)
    mesh = fem.build_mesh(16)
    init = solver.sine_perturbation_initial(mesh, P0, amplitude=0.1)
    cfg = solver.SolverConfig(t_end=0.005)
    with pytest.raises(FixedPointError) as info:
        solver.run_simulation(init, P0, SPEC, cfg)
    message = str(info.value)
    assert message.startswith("step 1 (t = 0.001): fixed-point iteration "
                              "failed"), message
    assert type(info.value.__cause__) is FixedPointError


def test_failed_step_names_its_refused_linear_solves(monkeypatch):
    # Every second linear solve is refused: the trials are refused, the
    # full-load solve and the ladder stall, the last at sigma 0.25 with 8
    # refusals in all.  The error alone must say so.
    _perturbed_splu(monkeypatch, lambda call: call % 2 == 1)
    mesh = fem.build_mesh(16)
    init = solver.sine_perturbation_initial(mesh, P0, amplitude=0.1)
    with pytest.raises(FixedPointError) as info:
        solver.run_simulation(init, P0, SPEC, solver.SolverConfig(t_end=2e-3))
    message = str(info.value)
    assert message.startswith("step 1 (t = 0.001): fixed-point iteration "
                              "failed (last sigma 0.250, residual "), message
    assert ("8 trial evaluations refused, last: linear solve residual"
            in message)
    assert "exceeds 1e-12 * (||A|| ||x|| + ||rhs||)" in message
    refusal = info.value.__cause__.__cause__
    assert type(refusal) is LinearSolveError
    assert str(refusal) in message


def test_ladder_reports_a_rung_refused_on_its_first_evaluation(monkeypatch):
    # Every linear solve after the first is refused: the full-load solve
    # fails with 4 of its trials refused, and the ladder's first rung is
    # refused on its first evaluation, from w = 0, before any iterate is
    # accepted.  The step still ends in the ladder's error, naming the rung
    # and the refusals.
    _perturbed_splu(monkeypatch, lambda call: call >= 1)
    mesh = fem.build_mesh(16)
    init = solver.sine_perturbation_initial(mesh, P0, amplitude=0.1)
    with pytest.raises(FixedPointError) as info:
        solver.run_simulation(init, P0, SPEC, solver.SolverConfig(t_end=2e-3))
    message = str(info.value)
    assert message.startswith(
        "step 1 (t = 0.001): fixed-point iteration failed (last sigma 0.250, "
        "no evaluation accepted); 5 trial evaluations refused, last: linear "
        "solve residual "), message
    refusal = info.value.__cause__.__cause__
    assert type(refusal) is LinearSolveError
    assert str(refusal) in message
    error, step_error = info.value, info.value.__cause__
    for err in (error, step_error):
        assert (err.sigma, err.residual, err.refused) == (0.25, math.inf, 5)


def test_a_failed_step_carries_its_context_as_attributes():
    # A 3-species step profile at 256 cells stalls just above fp_tol on the
    # ladder's first rung, with no solve refused.  The attributes say what
    # its message says.
    mesh = fem.build_mesh(256)
    init = solver.step_profile_initial(mesh, P0, (0.4, 0.15, 0.15),
                                       (0.045, 0.15, 0.15))
    with pytest.raises(FixedPointError) as info:
        solver.run_simulation(init, P0, SPEC, solver.SolverConfig(t_end=2e-3))
    error, step_error = info.value, info.value.__cause__
    assert (error.step, error.time) == (1, 1e-3)
    for err in (error, step_error):
        assert (err.sigma, err.refused) == (0.25, 0)
        assert solver.SolverConfig().fp_tol < err.residual < 2e-9
    assert f"residual {error.residual:.3e} > fp_tol" in str(error)
    assert not hasattr(step_error, "step")


@pytest.mark.parametrize("num_species, num_cells, spec", [
    # The reference problem at 1024 cells.
    (3, 1024, SPEC),
    (6, 256, ent.DiffusionMatrixSpec(kind="state_weighted", d0=1.0, d1=2.0)),
], ids=["reference-1024-cells", "6-species-state-weighted-256-cells"])
def test_fine_meshes_run_under_strict_entropy(num_species, num_cells, spec):
    # Each linear solve is accepted by its backward error, which does not
    # fall below the rounding floor as the mesh is refined.
    params = cst.default_params(n_species=num_species,
                                s_gamma=(0.45 / num_species,) * num_species)
    mesh = fem.build_mesh(num_cells)
    init = solver.sine_perturbation_initial(mesh, params, amplitude=0.1)
    traj = solver.run_simulation(init, params, spec,
                                 solver.SolverConfig(t_end=2e-3))
    assert [rec.step for rec in traj.diagnostics] == [0, 1, 2]
    for rec in traj.diagnostics[1:]:
        assert rec.entropy_margin >= 0.0
        assert rec.min_species > 0.0 and rec.max_total < 1.0


@pytest.mark.parametrize("error_type", [LinearSolveError, AssemblyError])
def test_a_run_adds_step_and_time_to_every_solver_error(monkeypatch,
                                                        error_type):
    def fail(*args, **kwargs):
        raise error_type("refused")

    monkeypatch.setattr(solver, "solve_time_step", fail)
    mesh = fem.build_mesh(8)
    init = solver.sine_perturbation_initial(mesh, P0, amplitude=0.1)
    with pytest.raises(error_type) as info:
        solver.run_simulation(init, P0, SPEC, solver.SolverConfig(t_end=2e-3))
    assert str(info.value) == "step 1 (t = 0.001): refused"
    assert (info.value.step, info.value.time) == (1, 1e-3)
    assert type(info.value.__cause__) is error_type


def test_newton_finisher_stops_when_its_budget_runs_out():
    # On the linear map G(w) = w/2 (fixed point 0) Newton converges in three
    # evaluations: two Jacobian probes and one trial.  A smaller budget runs
    # out first, inside GMRES (budget 1) or at the trial (budget 2), and the
    # finisher hands back its unchanged start, unconverged.
    mesh = fem.build_mesh(4)
    cfg = solver.SolverConfig()
    x = np.full((mesh.num_nodes, 3), 1e-3)

    def halve(w):
        return 0.5 * w

    for budget in (1, 2):
        w, res, ok, used = solver._newton_polish(x, halve(x), 1.0, halve,
                                                 mesh, cfg, budget)
        assert (w is x, res, ok, used) == (True, 1.0, False, budget)
    w, res, ok, used = solver._newton_polish(x, halve(x), 1.0, halve, mesh,
                                             cfg, 5)
    assert ok and used == 3 and res <= cfg.fp_tol
    # On G(w) = w^2 from w = 0.1 the first Newton step is accepted without
    # converging and spends the whole budget of 3: the finisher stops before
    # its next step and returns the accepted iterate with its residual.
    x = np.full((mesh.num_nodes, 3), 0.1)
    w, res, ok, used = solver._newton_polish(x, x**2, 1.0, np.square, mesh,
                                             cfg, 3)
    assert not ok and used == 3
    assert res == fem._lumped_l2(w**2 - w, mesh) and cfg.fp_tol < res < 1.0


def test_anderson_phase_stops_after_five_blow_ups(monkeypatch):
    # On the expansive linear map G(w) = c - 100 w every damped step from
    # the best iterate w = 0 raises the defect more than tenfold.  The fifth
    # such step, at evaluation 10, ends the accelerated phase, and the
    # Newton finisher solves the map with the rest of the budget.
    mesh = fem.build_mesh(4)
    c = np.linspace(1.0, 2.0, 9)
    monkeypatch.setattr(fem, "assemble_system",
                        lambda w_star, *args, **kwargs: w_star.values[1:-1])
    monkeypatch.setattr(solver, "solve_linear",
                        lambda interior: c - 100.0 * interior.ravel())
    budgets = []
    newton = solver._newton_polish

    def spy(*args):
        budgets.append(args[-1])
        return newton(*args)

    monkeypatch.setattr(solver, "_newton_polish", spy)
    w, _, res, ok, refusals = solver._fixed_point(
        fem.constant_field(mesh, P0), P0, SPEC, solver.SolverConfig(), 1.0,
        np.zeros((mesh.num_nodes, 3)), None)
    assert budgets == [solver._FP_MAX_ITERS - 10]
    assert ok and res <= 1e-9 and refusals == (0, None)
    assert np.allclose(w[1:-1].ravel(), c / 101.0, rtol=0.0, atol=1e-9)


def test_equilibrium_step_is_bitwise_stationary():
    mesh = fem.build_mesh(32)
    eq = solver.equilibrium_initial(mesh, P0)
    cfg = solver.SolverConfig()
    s_new, stats = solver.solve_time_step(eq, P0, SPEC, cfg)
    assert np.array_equal(s_new.values, eq.values)
    assert not stats.used_homotopy
    assert stats.iterations <= 2
    assert stats.residual == 0.0


def test_equilibrium_run_stays_at_rest():
    mesh = fem.build_mesh(16)
    eq = solver.equilibrium_initial(mesh, P0)
    cfg = solver.SolverConfig(t_end=0.01)
    traj = solver.run_simulation(eq, P0, SPEC, cfg)
    assert len(traj.states) == 11
    for state in traj.states:
        assert np.array_equal(state.values, eq.values)
    for rec in traj.diagnostics:
        assert rec.lyapunov == 0.0
        assert rec.diss_dbeta_sq <= 1e-15
        assert rec.diss_eps_w <= 1e-15


def test_each_step_starts_from_the_previous_converged_w(monkeypatch):
    mesh = fem.build_mesh(16)
    init = solver.sine_perturbation_initial(mesh, P0, amplitude=0.1)
    starts, ends = [], []
    fixed_point = solver._fixed_point

    def recorded(s_prev, params, spec, cfg, sigma, w_init, grad_beta_prev):
        starts.append(w_init.copy())
        result = fixed_point(s_prev, params, spec, cfg, sigma, w_init,
                             grad_beta_prev)
        ends.append(result[0].copy())
        return result

    monkeypatch.setattr(solver, "_fixed_point", recorded)
    solver.run_simulation(init, P0, SPEC, solver.SolverConfig(t_end=5e-3))
    # One full-load solve per step: no homotopy rung ran.
    assert len(starts) == 5
    assert np.array_equal(starts[0], np.zeros((mesh.num_nodes, 3)))
    assert np.any(ends[0] != 0.0)
    for k in range(1, 5):
        assert np.array_equal(starts[k], ends[k - 1])


def test_homotopy_ladder_rescues_a_large_first_step(monkeypatch):
    # A long time step from a large perturbation: the full-load iteration
    # from w = 0 fails at step 1 and the sigma ladder brings it home.
    params = cst.default_params(kappa=1e-2)
    mesh = fem.build_mesh(32)
    init = solver.sine_perturbation_initial(mesh, params, amplitude=0.5)
    used = []
    solve_time_step = solver.solve_time_step

    def recorded(*args, **kwargs):
        s_new, stats = solve_time_step(*args, **kwargs)
        used.append(stats.used_homotopy)
        return s_new, stats

    monkeypatch.setattr(solver, "solve_time_step", recorded)
    traj = solver.run_simulation(init, params, SPEC,
                                 solver.SolverConfig(t_end=0.05))
    assert used == [True, False, False, False, False]
    for rec in traj.diagnostics[1:]:
        assert rec.entropy_margin >= 0.0


def test_perturbed_run_dissipates():
    mesh = fem.build_mesh(16)
    init = solver.sine_perturbation_initial(mesh, P0, amplitude=0.1)
    cfg = solver.SolverConfig(t_end=5e-3)
    traj = solver.run_simulation(init, P0, SPEC, cfg)
    lyap = [rec.lyapunov for rec in traj.diagnostics]
    assert lyap[0] > 0.0
    assert all(b <= a + 1e-12 for a, b in zip(lyap, lyap[1:]))
    assert lyap[-1] < lyap[0]
    for rec in traj.diagnostics[1:]:
        assert rec.entropy_margin >= 0.0
        assert rec.min_species > 0.0
        assert rec.max_total < 1.0
        assert rec.fp_iters >= 1


def test_trajectory_recording_thins_but_keeps_last():
    mesh = fem.build_mesh(16)
    init = solver.sine_perturbation_initial(mesh, P0, amplitude=0.05)
    cfg = solver.SolverConfig(t_end=5e-3, record_every=2)
    traj = solver.run_simulation(init, P0, SPEC, cfg)
    # 5 steps, kept at 0, 2, 4 and the final 5th.
    assert traj.times == pytest.approx([0.0, 2e-3, 4e-3, 5e-3], abs=1e-15)
    assert [rec.step for rec in traj.diagnostics] == [0, 2, 4, 5]
    assert len(traj.states) == 4


def test_run_rejects_inadmissible_initial_state():
    mesh = fem.build_mesh(8)
    vals = np.tile(P0.s_gamma, (mesh.num_nodes, 1))
    vals[0, 0] = 0.3  # boundary row off the boundary composition
    bad = fem.NodalField(vals, mesh)
    with pytest.raises(PreconditionError):
        solver.run_simulation(bad, P0, SPEC, solver.SolverConfig())


@pytest.mark.parametrize("override, clause", [
    ({"beta1": 4.9}, "5 < beta1"),
    # Also makes p <= 1, for which the a-priori bounds have no meaning.
    ({"gamma": 6.4}, "gamma < beta1/2"),
])
def test_run_rejects_inadmissible_exponents(override, clause):
    # A run refuses every parameter set that parse_config refuses.
    params = cst.default_params(**override)
    mesh = fem.build_mesh(8)
    eq = solver.equilibrium_initial(mesh, params)
    with pytest.raises(PreconditionError, match=clause):
        solver.run_simulation(eq, params, SPEC,
                              solver.SolverConfig(t_end=2e-3))


@pytest.mark.parametrize("fault", [
    pytest.param(lambda coef: coef.update(alpha=0.5 * coef["alpha"]),
                 id="halved-operator-blocks"),
    # The plain history coefficient a tau(S^prev)/kappa of fem's docstring.
    pytest.param(lambda coef: coef.update(history=coef["a"]),
                 id="plain-history-coefficient"),
])
def test_entropy_check_catches_a_coefficient_fault(monkeypatch, fault):
    # A fault in a coefficient that only assembly reads (the budget reads
    # a, pc', tau and f') breaks the entropy inequality at step 1 on 16
    # cells (margins about -1.4e-3 and -4.2e-2).  Strict mode aborts there;
    # lenient mode records the negative margin and runs on.
    coefficients = fem._point_coefficients

    def faulty(*args, **kwargs):
        coef = coefficients(*args, **kwargs)
        fault(coef)
        return coef

    monkeypatch.setattr(fem, "_point_coefficients", faulty)
    mesh = fem.build_mesh(16)
    init = solver.sine_perturbation_initial(mesh, P0, amplitude=0.1)
    with pytest.raises(EntropyViolationError,
                       match="violated at step 1: margin -"):
        solver.run_simulation(init, P0, SPEC, solver.SolverConfig(t_end=2e-3))
    traj = solver.run_simulation(
        init, P0, SPEC, solver.SolverConfig(t_end=2e-3, strict_entropy=False))
    assert [rec.step for rec in traj.diagnostics] == [0, 1, 2]
    assert traj.diagnostics[1].entropy_margin < 0.0


def test_run_rejects_horizon_shorter_than_one_step():
    mesh = fem.build_mesh(8)
    eq = solver.equilibrium_initial(mesh, P0)
    with pytest.raises(ArgumentError):
        solver.run_simulation(eq, P0, SPEC, solver.SolverConfig(t_end=1e-4))


def test_sine_perturbation_profile():
    mesh = fem.build_mesh(20)
    field = solver.sine_perturbation_initial(mesh, P0, amplitude=0.1,
                                             species_index=1)
    field.check_admissible(P0)
    sg = np.asarray(P0.s_gamma)
    assert np.array_equal(field.values[0], sg)
    assert np.array_equal(field.values[-1], sg)
    mid = mesh.num_nodes // 2
    assert field.values[mid, 1] > sg[1]
    assert field.values[mid, 0] == sg[0]
    # Oversized amplitudes are pulled back strictly inside the state space.
    big = solver.sine_perturbation_initial(mesh, P0, amplitude=5.0)
    big.check_admissible(P0)
    with pytest.raises(ArgumentError):
        solver.sine_perturbation_initial(mesh, P0, species_index=3)
    with pytest.raises(ArgumentError):
        solver.sine_perturbation_initial(mesh, P0, species_index=1.5)


def test_step_profile():
    mesh = fem.build_mesh(10, 0.0, 1.0)
    left = (0.3, 0.2, 0.1)
    right = (0.1, 0.2, 0.3)
    field = solver.step_profile_initial(mesh, P0, left, right)
    field.check_admissible(P0)
    assert np.array_equal(field.values[1], left)
    assert np.array_equal(field.values[-2], right)
    with pytest.raises(ArgumentError):
        solver.step_profile_initial(mesh, P0, (0.5, 0.5, 0.5), right)
    with pytest.raises(ArgumentError):
        solver.step_profile_initial(mesh, P0, (0.3, 0.2), right)


def test_refinement_study_report_structure():
    mesh = fem.build_mesh(16)
    params = cst.default_params(kappa=2e-3)
    init = solver.sine_perturbation_initial(mesh, params, amplitude=0.05)
    cfg = solver.SolverConfig(t_end=8e-3)
    report = solver.refinement_study(init, params, SPEC, cfg,
                                     kappa_list=[4e-3, 2e-3, 1e-3],
                                     eps_list=[1e-3, 5e-4])
    kd = report["kappa"]
    assert kd["values"] == [4e-3, 2e-3, 1e-3]
    assert len(kd["pairwise_l2"]) == 2
    assert all(d > 0 for d in kd["pairwise_l2"])
    assert len(kd["orders"]) == 1
    assert np.isfinite(kd["orders"][0])
    assert len(kd["apriori"]) == 3
    assert isinstance(kd["flags"], list)
    ed = report["eps"]
    assert ed["values"] == [1e-3, 5e-4]
    assert len(ed["apriori"]) == 2
    for rep in kd["apriori"] + ed["apriori"]:
        assert "dkbeta_L2L2" in rep and "exponents" in rep


def test_refinement_study_flags_growth_and_undefined_orders():
    mesh = fem.build_mesh(8)
    params = cst.default_params(kappa=2e-3)
    cfg = solver.SolverConfig(t_end=8e-3)
    # At rest every kappa run is the same, so no difference is positive and
    # no order is defined.
    eq = solver.equilibrium_initial(mesh, params)
    report = solver.refinement_study(eq, params, SPEC, cfg,
                                     kappa_list=[4e-3, 2e-3, 1e-3],
                                     eps_list=[])
    assert report["kappa"]["pairwise_l2"] == [0.0, 0.0]
    assert len(report["kappa"]["orders"]) == 1
    assert math.isnan(report["kappa"]["orders"][0])
    # From a step profile, lowering eps from 1e-1 to 1e-3 more than doubles
    # the time integral of a^-p: the one quantity flagged.
    step = solver.step_profile_initial(mesh, params, (0.3, 0.2, 0.1),
                                       (0.1, 0.1, 0.1))
    report = solver.refinement_study(step, params, SPEC, cfg, kappa_list=[],
                                     eps_list=[1e-1, 1e-3])
    (flag,) = report["eps"]["flags"]
    assert flag["quantity"] == "mobility_inv_p_int"
    assert (flag["parameter"], flag["from_value"], flag["to_value"]) == (
        "eps", 1e-1, 1e-3)
    apriori = report["eps"]["apriori"]
    assert flag["ratio"] == (apriori[1]["mobility_inv_p_int"]
                             / apriori[0]["mobility_inv_p_int"]) > 2.0


def test_refinement_study_ignores_the_recording_stride():
    # The space-time differences weight each record by one coarse step, so
    # every ladder run records every step whatever the caller's stride.
    mesh = fem.build_mesh(16)
    init = solver.sine_perturbation_initial(mesh, P0, amplitude=0.1)
    reports = [solver.refinement_study(
        init, P0, SPEC, solver.SolverConfig(t_end=0.01, record_every=k),
        kappa_list=[1e-3, 5e-4, 2.5e-4], eps_list=[]) for k in (1, 2, 5)]
    assert reports[1] == reports[0] and reports[2] == reports[0]


def test_refinement_study_requires_non_increasing_ladders():
    mesh = fem.build_mesh(8)
    init = solver.equilibrium_initial(mesh, P0)
    cfg = solver.SolverConfig(t_end=4e-3)
    with pytest.raises(ArgumentError):
        solver.refinement_study(init, P0, SPEC, cfg,
                                kappa_list=[1e-3, 2e-3], eps_list=[])
    with pytest.raises(ArgumentError):
        solver.refinement_study(init, P0, SPEC, cfg,
                                kappa_list=[], eps_list=[1e-4, 1e-3])
