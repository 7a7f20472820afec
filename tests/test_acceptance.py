"""Acceptance gate: twelve end-to-end criteria with pinned tolerances and
wall-clock budgets.  Each test prints and records exactly one PASS/FAIL line
(surfaced in the terminal summary through conftest.py's
``record_acceptance`` fixture).

Round-trip accuracy note: the forward transform stores log(S_i/S) + f(S) in
one double, so inversion accuracy is limited by the rounding unit of |f(S)|.
f grows like a high negative power of the distance to the state-space
boundary; over totals in [0.05, 0.92] its magnitude stays below ~6.4e5,
keeping the measured round-trip error under 4e-11 (tolerance 1e-10).  The
random draws below therefore sample that range; closer to the boundary the
stored-sum representation itself (not the algorithm) exceeds 1e-10.
"""

import time

import numpy as np
import pytest

from capmix import constitutive as cst
from capmix import diagnostics as diag
from capmix import entropy as ent
from capmix import fem
from capmix import solver

P0 = cst.default_params()
SPEC = ent.DiffusionMatrixSpec()


def _verdict(record, num, ok, detail, elapsed, budget):
    mark = "PASS" if ok else "FAIL"
    line = (f"criterion {num:02d}: {mark} — {detail} "
            f"[{elapsed:.2f}s / budget {budget:g}s]")
    record(line)
    print(line)
    assert ok, line


def _random_valid_params(rng):
    """One admissible exponent tuple drawn uniformly from the constraint box."""
    while True:
        beta1 = rng.uniform(5.3, 7.5)
        gamma1 = rng.uniform(beta1, min(3.0 * beta1 - 10.0, beta1 + 2.0))
        gamma_hi = beta1 / 2.0 + (5.0 / 6.0) * (gamma1 - 2.0)
        if gamma_hi <= gamma1:
            continue
        gamma = rng.uniform(gamma1, min(gamma_hi, gamma1 + 3.0))
        beta2 = rng.uniform(5.3, 8.0)
        lam = rng.uniform(beta2, min(3.0 * beta2 - 10.0, beta2 + 2.5))
        params = cst.ModelParams(lam=lam, gamma=gamma, gamma1=gamma1,
                                 beta1=beta1, beta2=beta2)
        if cst.validate_assumptions(params).accepted:
            return params


@pytest.fixture(scope="module")
def reference_run():
    """The shared reference trajectory: 3 species, 64 cells, kappa = 1e-3,
    eps = 1e-3, T = 0.05, sine perturbation of amplitude 0.1 on species 1."""
    start = time.perf_counter()
    mesh = fem.build_mesh(64, 0.0, 1.0)
    initial = solver.sine_perturbation_initial(mesh, P0, amplitude=0.1,
                                               species_index=0)
    cfg = solver.SolverConfig(t_end=0.05)
    traj = solver.run_simulation(initial, P0, SPEC, cfg)
    return {"trajectory": traj, "config": cfg,
            "elapsed": time.perf_counter() - start}


def test_criterion_01_assumption_validation(record_acceptance):
    start = time.perf_counter()
    report = cst.validate_assumptions(P0)
    ok = bool(report.accepted)
    ok &= abs(report.alpha1 - (-1.9)) <= 1e-12
    ok &= abs(report.alpha2 - (-2.0)) <= 1e-12
    ok &= abs(report.p - 1.0430) <= 1e-3
    ok &= abs(report.q - 1.0211) <= 1e-3
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    _verdict(record_acceptance, 1, ok,
             f"reference exponents accepted, alpha1={report.alpha1:.12g}, "
             f"alpha2={report.alpha2:.12g}, p={report.p:.6f}, "
             f"q={report.q:.6f}", elapsed, 1)


def test_criterion_02_capillary_derivative_bound(record_acceptance):
    start = time.perf_counter()
    grid = np.linspace(0.0, 1.0, 10002)[1:-1]
    rng = np.random.default_rng(2024)
    tuples = [P0] + [_random_valid_params(rng) for _ in range(20)]
    violations = 0
    worst_quotient_drift = 0.0
    for params in tuples:
        coeffs = cst.eval_coeffs(grid, params)
        # tau_over_a is the closed-form quotient; the explicit division
        # agrees with it to rounding (checked below) but carries avoidable
        # ulp-level noise where the two sides are astronomically close.
        violations += int(np.count_nonzero(coeffs.pc_prime
                                           > coeffs.tau_over_a))
        drift = np.max(np.abs(coeffs.tau / coeffs.a - coeffs.tau_over_a)
                       / coeffs.tau_over_a)
        worst_quotient_drift = max(worst_quotient_drift, float(drift))
    elapsed = time.perf_counter() - start
    ok = violations == 0 and worst_quotient_drift <= 1e-12 and elapsed < 5.0
    _verdict(record_acceptance, 2, ok,
             f"pc' <= tau/a at {grid.size} grid points for "
             f"{len(tuples)} admissible tuples, {violations} violations",
             elapsed, 5)


def test_criterion_03_transform_round_trip(record_acceptance):
    start = time.perf_counter()
    rng = np.random.default_rng(333)
    m = 10_000
    y = rng.uniform(0.05, 1.0, (m, 3))
    y /= y.sum(axis=1, keepdims=True)
    totals = rng.uniform(0.05, 0.92, m)
    s = y * totals[:, None]
    prev = rng.uniform(0.05, 0.92, m)
    w, _, _ = ent.w_from_states(s, prev, P0)
    s_back, totals_back, _, _ = ent.states_from_w(w, prev, P0)
    err = max(float(np.max(np.abs(s_back - s))),
              float(np.max(np.abs(totals_back - totals))))
    elapsed = time.perf_counter() - start
    ok = err <= 1e-10 and elapsed < 10.0
    _verdict(record_acceptance, 3, ok,
             f"w <-> S round trip over {m} random states, "
             f"max error {err:.3e} (tol 1e-10)", elapsed, 10)


def test_criterion_04_mobility_structure(record_acceptance):
    start = time.perf_counter()
    rng = np.random.default_rng(44)
    m = 1_000
    y = rng.uniform(0.05, 1.0, (m, 3))
    y /= y.sum(axis=1, keepdims=True)
    totals = rng.uniform(0.05, 0.92, m)
    s = y * totals[:, None]
    prev = rng.uniform(0.05, 0.92, m)
    _, ds_dw, _ = ent.w_from_states(s, prev, P0)
    worst_sym = 0.0
    worst_eig = np.inf
    worst_rank = 0.0
    for k in range(m):
        mob = np.outer(s[k], ds_dw[k])
        worst_sym = max(worst_sym, float(np.max(np.abs(mob - mob.T))))
        eigs = np.linalg.eigvalsh(0.5 * (mob + mob.T))
        worst_eig = min(worst_eig, float(eigs.min()))
        sv = np.linalg.svd(mob, compute_uv=False)
        worst_rank = max(worst_rank, float(sv[1] / max(1.0, sv[0])))
    elapsed = time.perf_counter() - start
    ok = (worst_sym <= 1e-12 and worst_eig >= -1e-12
          and worst_rank <= 1e-12 and elapsed < 5.0)
    _verdict(record_acceptance, 4, ok,
             f"mobility at {m} states: asymmetry {worst_sym:.2e}, "
             f"min eigenvalue {worst_eig:.2e}, rank-1 defect {worst_rank:.2e}",
             elapsed, 5)


def test_criterion_05_projection_inequality(record_acceptance):
    start = time.perf_counter()
    rng = np.random.default_rng(55)
    total = 0
    violations = 0
    for n in (2, 3, 4, 5, 8):
        m = 20_000
        a = rng.standard_normal((m, n))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        b = rng.standard_normal((m, n))
        b /= np.linalg.norm(b, axis=1, keepdims=True)
        v = rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-2, 2, (m, 1))
        av = np.einsum("mi,mi->m", a, v)
        bv = np.einsum("mi,mi->m", b, v)
        resid = v - bv[:, None] * b
        lhs = av**2 + np.einsum("mi,mi->m", resid, resid)
        rhs = 0.25 * np.einsum("mi,mi->m", a, b) ** 2 \
            * np.einsum("mi,mi->m", v, v)
        violations += int(np.count_nonzero(lhs < rhs))
        total += m
        # Spot-check the scalar API against the vectorized evaluation.
        for k in range(0, m, 50):
            assert ent.jmz_inequality_check(a[k], b[k], v[k])
    elapsed = time.perf_counter() - start
    ok = violations == 0 and total == 100_000 and elapsed < 5.0
    _verdict(record_acceptance, 5, ok,
             f"projection inequality over {total} randomized instances "
             f"(n in 2..8), {violations} violations", elapsed, 5)


def test_criterion_06_operator_spectrum(record_acceptance):
    start = time.perf_counter()
    mesh = fem.build_mesh(16)
    s_prev = solver.sine_perturbation_initial(mesh, P0, amplitude=0.1)
    grad_beta = fem.beta_gradient_field(s_prev, P0)
    rng = np.random.default_rng(66)
    worst_asym = 0.0
    min_eig = np.inf
    for w_vals in (np.zeros((mesh.num_nodes, 3)),
                   0.05 * rng.standard_normal((mesh.num_nodes, 3))):
        w = fem.NodalField(w_vals, mesh)
        system = fem.assemble_system(w, s_prev, P0, SPEC, 1.0, grad_beta)
        dense = solver._csc_operator(system).toarray()
        worst_asym = max(worst_asym, float(np.max(np.abs(dense - dense.T))))
        min_eig = min(min_eig, float(np.linalg.eigvalsh(dense).min()))

    params0 = cst.default_params(eps=0.0)
    s_prev0 = solver.sine_perturbation_initial(mesh, params0, amplitude=0.1)
    w = fem.NodalField(0.05 * rng.standard_normal((mesh.num_nodes, 3)), mesh)
    system0 = fem.assemble_system(w, s_prev0, params0, SPEC, 1.0)
    dense0 = solver._csc_operator(system0).toarray()
    min_quad = np.inf
    for _ in range(300):
        vec = rng.standard_normal(dense0.shape[0])
        vec /= np.linalg.norm(vec)
        min_quad = min(min_quad, float(vec @ dense0 @ vec))
    elapsed = time.perf_counter() - start
    ok = (worst_asym <= 1e-12 and min_eig > 0.0 and min_quad >= -1e-10
          and elapsed < 5.0)
    _verdict(record_acceptance, 6, ok,
             f"16-cell operator: asymmetry {worst_asym:.2e}, smallest "
             f"eigenvalue {min_eig:.3e} > 0; eps=0 quadratic forms "
             f">= {min_quad:.2e}", elapsed, 5)


def test_criterion_07_equilibrium_preservation(record_acceptance):
    start = time.perf_counter()
    mesh = fem.build_mesh(64)
    eq = solver.equilibrium_initial(mesh, P0)
    cfg = solver.SolverConfig(t_end=0.1)  # 100 steps at kappa = 1e-3
    traj = solver.run_simulation(eq, P0, SPEC, cfg)
    num_steps = traj.diagnostics[-1].step
    drift = max(float(np.max(np.abs(st.values - np.asarray(P0.s_gamma))))
                for st in traj.states)
    max_diss = max(max(rec.diss_dbeta_sq, rec.diss_capillary,
                       rec.diss_grad_dbeta, rec.diss_eps_w, rec.diss_proj_mu)
                   for rec in traj.diagnostics)
    elapsed = time.perf_counter() - start
    ok = (num_steps == 100 and drift <= 1e-9 and max_diss <= 1e-12
          and elapsed < 10.0)
    _verdict(record_acceptance, 7, ok,
             f"100 steps from the boundary composition: max drift "
             f"{drift:.2e} (tol 1e-9), max dissipation {max_diss:.2e} "
             f"(tol 1e-12)", elapsed, 10)


def test_criterion_08_entropy_inequality_on_reference_run(record_acceptance,
                                                          reference_run):
    start = time.perf_counter()
    traj = reference_run["trajectory"]
    cfg = reference_run["config"]
    tol = 10.0 * cfg.fp_tol
    records = traj.diagnostics
    all_passed = True
    min_margin = np.inf
    for prev, new in zip(records, records[1:]):
        res = diag.check_entropy_step(prev.lyapunov, new.lyapunov, new,
                                      P0.kappa, tol)
        all_passed &= res.passed
        min_margin = min(min_margin, res.margin)
    lyap = [rec.lyapunov for rec in records]
    monotone = all(b <= a for a, b in zip(lyap, lyap[1:]))
    elapsed = time.perf_counter() - start + reference_run["elapsed"]
    ok = (len(records) == 51 and all_passed and monotone and elapsed < 60.0)
    _verdict(record_acceptance, 8, ok,
             f"reference run (64 cells, 50 steps): entropy check passed "
             f"every step (min margin {min_margin:.3e}), Lyapunov "
             f"{lyap[0]:.6f} -> {lyap[-1]:.6f} non-increasing", elapsed, 60)


def test_criterion_09_positivity_on_reference_run(record_acceptance,
                                                  reference_run):
    start = time.perf_counter()
    traj = reference_run["trajectory"]
    min_species = min(float(st.values.min()) for st in traj.states)
    max_total = max(float(st.totals.max()) for st in traj.states)
    rec_min = min(rec.min_species for rec in traj.diagnostics)
    rec_max = max(rec.max_total for rec in traj.diagnostics)
    elapsed = time.perf_counter() - start
    ok = (min_species > 0.0 and max_total < 1.0
          and rec_min > 0.0 and rec_max < 1.0)
    _verdict(record_acceptance, 9, ok,
             f"reference run stays admissible: min S_i {min_species:.3e} > 0, "
             f"max total {max_total:.6f} < 1 (shares criterion 8's run)",
             elapsed, 60)


def test_criterion_10_time_step_refinement(record_acceptance):
    start = time.perf_counter()
    mesh = fem.build_mesh(64)
    initial = solver.sine_perturbation_initial(mesh, P0, amplitude=0.1,
                                               species_index=0)
    cfg = solver.SolverConfig(t_end=0.05)
    report = solver.refinement_study(initial, P0, SPEC, cfg,
                                     kappa_list=[1e-3, 5e-4, 2.5e-4],
                                     eps_list=[])
    kd = report["kappa"]
    orders_ok = all(0.8 <= o <= 1.2 for o in kd["orders"])
    worst_key, worst_ratio = "", 1.0
    for key in kd["apriori"][0]:
        if key == "exponents":
            continue
        vals = [rep[key] for rep in kd["apriori"]]
        lo, hi = min(vals), max(vals)
        ratio = 1.0 if hi == 0.0 else (np.inf if lo <= 0.0 else hi / lo)
        if ratio > worst_ratio:
            worst_key, worst_ratio = key, ratio
    stable = worst_ratio <= 2.0
    elapsed = time.perf_counter() - start
    ok = orders_ok and stable and elapsed < 300.0
    _verdict(record_acceptance, 10, ok,
             f"kappa ladder 1e-3 -> 2.5e-4: temporal order(s) "
             f"{['%.3f' % o for o in kd['orders']]} in [0.8, 1.2]; worst "
             f"bound-quantity ratio {worst_ratio:.3f} ({worst_key or 'none'})"
             f" <= 2", elapsed, 300)


def test_criterion_11_weak_residual_refinement(record_acceptance,
                                               reference_run):
    start = time.perf_counter()
    coarse = diag.weak_residual(reference_run["trajectory"], P0, SPEC, 3)
    params_fine = cst.default_params(kappa=5e-4)
    mesh = fem.build_mesh(128)
    initial = solver.sine_perturbation_initial(mesh, params_fine,
                                               amplitude=0.1, species_index=0)
    traj_fine = solver.run_simulation(initial, params_fine, SPEC,
                                      solver.SolverConfig(t_end=0.05))
    fine = diag.weak_residual(traj_fine, params_fine, SPEC, 3)
    elapsed = time.perf_counter() - start
    ok = 0.0 < fine < coarse and elapsed < 180.0
    _verdict(record_acceptance, 11, ok,
             f"weak residual decreases under refinement: {coarse:.3e} "
             f"(64 cells, kappa 1e-3) -> {fine:.3e} (128 cells, kappa 5e-4)",
             elapsed, 180)


def test_criterion_12_pressure_consistency_refinement(record_acceptance):
    start = time.perf_counter()
    residuals = []
    for num_cells in (32, 64, 128):
        mesh = fem.build_mesh(num_cells)
        x = mesh.nodes
        vals = np.column_stack([
            0.15 + 0.08 * np.sin(np.pi * x),
            0.15 + 0.05 * np.sin(2 * np.pi * x),
            0.15 - 0.04 * np.sin(np.pi * x) ** 2,
        ])
        state = fem.NodalField(vals, mesh)
        residuals.append(diag.gibbs_duhem_check(state, P0, mesh))
    elapsed = time.perf_counter() - start
    decreasing = residuals[0] > residuals[1] > residuals[2] > 0.0
    ok = decreasing and elapsed < 30.0
    _verdict(record_acceptance, 12, ok,
             "pressure-consistency defect decreases 32 -> 64 -> 128 cells: "
             + " -> ".join(f"{r:.3e}" for r in residuals), elapsed, 30)
