"""Implicit Euler stepping via accelerated fixed-point iteration.

Each step solves the nonlinear system for the entropy variables w by
repeated linearisation: assemble the operator and load at the current
iterate, solve the symmetric positive definite block-tridiagonal system,
and iterate until the lumped-L2 defect norm drops below fp_tol.  This module
owns the linear algebra of the step: assembly hands over the operator's
node blocks, and ``solve_linear`` gathers them into CSC, factorises once
with a sparse LU and checks the residual once; scipy is imported there and
in the Newton finisher, so a run loads it at its first factorisation and
importing this module loads NumPy alone.  The plain damped
update is Anderson-accelerated, because the coefficient feedback makes the
bare map expansive at practical time steps; with an empty history the
update is the plain damped step, so w* = 0 remains the exact one-shot
solution at equilibrium and equilibrium states are stationary by
construction.  A run starts each step's full-load (sigma = 1) solve from
the previous step's converged w, which already lies near the new solution
when the state evolves smoothly; the first step starts from w = 0, so a run
from equilibrium stays exactly at rest.  If the accelerated iteration at full
load stalls, a homotopy ladder re-runs it from w = 0 with the load switched
on gradually, warm-starting each rung.

A run chains one diagnostics record per accepted step, each built from the
one before: the dissipation budget, the signed margin of the per-step
entropy inequality and the running a-priori totals; strict mode aborts on
the first negative margin.  Refinement studies rerun the same problem over
decreasing time steps (and regularisation strengths) and report
self-convergence orders plus the stability of the a-priori bound
quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from . import diagnostics as diag
from . import fem
from .errors import (ArgumentError, AssemblyError, EntropyViolationError,
                     FixedPointError, LinearSolveError, PreconditionError)

__all__ = [
    "SolverConfig",
    "StepStats",
    "Trajectory",
    "solve_linear",
    "solve_time_step",
    "step_count",
    "run_simulation",
    "refinement_study",
    "equilibrium_initial",
    "sine_perturbation_initial",
    "step_profile_initial",
]

_DAMPING_FLOOR = 0.125
_ANDERSON_WINDOW = 8
# Conservative step scale the accelerated iteration starts from; large moves
# through the strongly nonlinear transient otherwise overshoot and lengthen
# the search phase before local convergence sets in.
_MIXING_START = 0.25
# The accelerated phase hands over to the Newton finisher after this many
# map evaluations; wandering longer rarely helps, whereas Newton converges
# fast from any iterate the acceleration has pulled into the basin.
_ANDERSON_MAX = 40
# Map evaluations one fixed-point solve may spend, Anderson and Newton
# together, and the number of rungs of the homotopy ladder.
_FP_MAX_ITERS = 100
_HOMOTOPY_STEPS = 4
_GMRES_RESTART = 20
_NEWTON_MAX_OUTER = 8
# A linear solve is accepted at a normwise backward error
# ||b - Ax|| / (||A||_F ||x|| + ||b||) up to this (Higham, Accuracy and
# Stability of Numerical Algorithms, 2nd ed., sec. 7.1): about 4500 unit
# roundoffs, room for a pivoted LU's growth at any mesh size.
_LINEAR_BACKWARD_TOL = 1e-12
# Most implicit steps one run may take; 10**6 steps at 64 cells take hours.
_MAX_STEPS = 10**6


class _BudgetExhausted(Exception):
    """Internal: the map-evaluation budget of the Newton finisher ran out."""


@dataclass(frozen=True)
class SolverConfig:
    """Iteration and run-control knobs.

    fp_tol is measured in the lumped L2 norm of the fixed-point defect.
    """

    fp_tol: float = 1e-9
    t_end: float = 0.05
    record_every: int = 1
    strict_entropy: bool = True

    def __post_init__(self):
        if not (self.fp_tol > 0 and self.t_end > 0):
            raise ArgumentError("fp_tol and t_end must be positive")
        if not (float(self.record_every).is_integer()
                and self.record_every >= 1):
            raise ArgumentError(f"record_every must be an integer, at least "
                                f"1; got {self.record_every!r}")


@dataclass(frozen=True)
class StepStats:
    """Outcome of one implicit step; ``w`` is the converged nodal entropy
    variable (num_nodes, n), the warm start of the next step."""

    iterations: int
    residual: float
    used_homotopy: bool
    w: np.ndarray = field(default=None, compare=False, repr=False)


@dataclass(eq=False)
class Trajectory:
    """A run's states and their diagnostics records (every record_every-th
    step, the first and the last), and the parameters, diffusion spec and
    solver configuration it was made with.  The last record carries the
    a-priori totals of every step of the run."""

    states: list
    diagnostics: list
    params: object
    spec: object
    config: SolverConfig

    @property
    def times(self) -> list:
        """The time of each recorded state, read from its record."""
        return [rec.time for rec in self.diagnostics]


@lru_cache(maxsize=16)
def _operator_pattern(ni, n):
    """CSC pattern of the block-tridiagonal operator over ni interior nodes
    with (n, n) blocks, and the gather of its data from the block stack.

    Block row p holds the blocks of columns p-1, p, p+1 at [p, 0..2] of an
    (ni, 3, n, n) stack; the first and last rows have no outer neighbour.
    The pattern lists each scalar row's entries by increasing column, as
    CSR does.  Precondition: the operator is bitwise symmetric (as
    ``fem.assemble_system`` builds it), so these CSR arrays are also its
    CSC arrays; for any other stack the gather yields the transpose.
    Returns read-only (gather, indices, indptr).
    """
    # Scalar row (p, i) lists its blocks b, each by columns j.
    p, i, b, j = np.ix_(np.arange(ni), np.arange(n), np.arange(3),
                        np.arange(n))
    col_block = p + b - 1
    shape = (ni, n, 3, n)
    keep = np.broadcast_to((col_block >= 0) & (col_block < ni), shape)
    gather = np.broadcast_to(((p * 3 + b) * n + i) * n + j, shape)[keep]
    indices = np.broadcast_to(col_block * n + j, shape)[keep]
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=(2, 3)).ravel())])
    arrays = (gather.astype(np.intp), indices.astype(np.intc),
              indptr.astype(np.intc))
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def _csc_operator(system: fem.LinearSystem):
    """The operator of an assembled system gathered into a scipy
    ``csc_matrix``; its index arrays are shared by every system of its size
    and read-only."""
    from scipy.sparse import csc_matrix

    ni, _, n, _ = system.blocks.shape
    gather, indices, indptr = _operator_pattern(ni, n)
    return csc_matrix((system.blocks.ravel()[gather], indices, indptr),
                      shape=(ni * n, ni * n))


def solve_linear(system: fem.LinearSystem) -> np.ndarray:
    """Solve the assembled system to a verified normwise backward error.

    Gathers the node blocks into CSC, factorises them once with a sparse
    LU, solves, and checks the residual once against _LINEAR_BACKWARD_TOL.
    Raises LinearSolveError on a failed factorisation, a non-finite
    solution or a residual above the allowed one.
    """
    rhs = system.rhs
    if not rhs.any():
        return np.zeros_like(rhs)
    from scipy.sparse.linalg import splu

    mat = _csc_operator(system)
    try:
        x = splu(mat).solve(rhs)
    except RuntimeError as exc:
        raise LinearSolveError(f"sparse factorization failed: {exc}") from exc
    if not np.isfinite(x).all():
        raise LinearSolveError("linear solve produced non-finite values")
    resid = np.linalg.norm(rhs - mat @ x)
    scale = np.linalg.norm(system.blocks) * np.linalg.norm(x)
    allowed = _LINEAR_BACKWARD_TOL * (scale + np.linalg.norm(rhs))
    if resid > allowed:
        raise LinearSolveError(
            f"linear solve residual {resid:.3e} exceeds "
            f"{_LINEAR_BACKWARD_TOL:.0e} * (||A|| ||x|| + ||rhs||) "
            f"= {allowed:.3e}")
    return x


def _newton_polish(x, g, res, apply_map, mesh, cfg: SolverConfig, budget):
    """Jacobian-free Newton finisher for the fixed-point defect.

    Solves (I - G') d = f by GMRES, probing the Jacobian of the fixed-point
    map G with forward differences (one map evaluation per probe), then
    backtracks on the lumped-L2 defect norm.  Spending of map evaluations is
    capped by budget.  Returns (w, residual, converged, evals_used); on a
    fruitless backtrack or an evaluation failure it stops early and hands its
    best iterate back to the caller.
    """
    from scipy.sparse.linalg import LinearOperator, gmres

    used = 0
    f = g - x
    shape = x.shape
    best_x, best_res = x, res

    def call_map(wvals):
        nonlocal used
        if used >= budget:
            raise _BudgetExhausted
        used += 1
        return apply_map(wvals)

    for _ in range(_NEWTON_MAX_OUTER):
        if used >= budget:
            break
        fv = f.ravel()
        base_scale = 1.0 + float(np.linalg.norm(x.ravel()))

        def jvp(v):
            vnorm = float(np.linalg.norm(v))
            if vnorm == 0.0:
                return v.copy()
            eps_fd = math.sqrt(np.finfo(float).eps) * base_scale / vnorm
            g_pert = call_map(x + eps_fd * v.reshape(shape))
            return v - (g_pert - g).ravel() / eps_fd

        op = LinearOperator((fv.size, fv.size), matvec=jvp, dtype=float)
        try:
            d, _ = gmres(op, fv, rtol=1e-3, atol=0.0,
                         restart=_GMRES_RESTART, maxiter=1)
        except (_BudgetExhausted, AssemblyError, LinearSolveError):
            break
        if not np.isfinite(d).all():
            break
        d = d.reshape(shape)

        accepted = False
        alpha = 1.0
        while alpha >= 0.125:
            trial = x + alpha * d
            try:
                g_t = call_map(trial)
            except _BudgetExhausted:
                return best_x, best_res, False, used
            except (AssemblyError, LinearSolveError):
                alpha *= 0.5
                continue
            f_t = g_t - trial
            res_t = fem._lumped_l2(f_t, mesh)
            if res_t <= cfg.fp_tol:
                return g_t, res_t, True, used
            if res_t < res:
                x, g, f, res = trial, g_t, f_t, res_t
                if res < best_res:
                    best_x, best_res = x, res
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            break
    return best_x, best_res, False, used


def _fixed_point(s_prev: fem.NodalField, params, spec, cfg: SolverConfig,
                 sigma, w_init, grad_beta_prev):
    """Two-phase nonlinear solve at fixed sigma: Anderson-accelerated damped
    fixed-point iteration, then a Jacobian-free Newton finisher.

    Returns (w, evals, residual, converged, refusals), with evals the
    total number of map evaluations and refusals the pair (count, last
    exception) of the evaluations that assembly or the linear solve refused;
    when an evaluation is refused before any is accepted, it returns w_init
    unconverged with residual inf.  One application of the map assembles the
    frozen-coefficient system at the iterate and solves it; the lumped-L2 norm
    of the defect g - w* is both the convergence measure and the residual the
    acceleration extrapolates on.  With an empty history the update is exactly
    the plain damped step, so an iterate that already solves its own
    linearisation (w = 0 at equilibrium) is accepted after a single
    application with residual exactly zero.  The plain damped map is not a
    contraction here: the load couples back into the solution through the
    state-dependent coefficients, and at practical time steps that feedback
    carries isolated eigenvalues far outside the unit disk.  The least-squares
    extrapolation removes those few directions while the rest of the spectrum
    keeps contracting.  On a defect increase or a failed evaluation the
    history is dropped, the mixing parameter halved (floored), and the best
    iterate restored.  Whatever iterate the accelerated phase ends on, the
    Newton finisher runs the remaining evaluation budget down on it; terminal
    convergence is its job, the accelerated phase only has to reach the basin.
    """
    mesh = s_prev.mesh
    n = params.n_species
    evals = 0
    refused, last_refusal = 0, None

    def apply_map(wvals):
        nonlocal evals, refused, last_refusal
        evals += 1
        try:
            system = fem.assemble_system(fem.NodalField(wvals, mesh), s_prev,
                                         params, spec, sigma,
                                         grad_beta_prev=grad_beta_prev)
            solved = solve_linear(system)
        except (AssemblyError, LinearSolveError) as exc:
            refused, last_refusal = refused + 1, exc
            raise
        g = np.zeros_like(wvals)
        g[1:-1] = solved.reshape(-1, n)
        return g

    x = w_init.copy()
    mixing = _MIXING_START
    # Anderson history: the newest (iterate, defect) pair and the columns of
    # differences between consecutive pairs, oldest first, at most a window.
    last_x = last_f = None
    dx_cols = np.empty((x.size, _ANDERSON_WINDOW))
    df_cols = np.empty((x.size, _ANDERSON_WINDOW))
    cols = 0
    best_x, best_g, best_res = None, None, math.inf
    res = math.inf
    rejects = 0
    anderson_cap = min(_ANDERSON_MAX, _FP_MAX_ITERS)
    while evals < anderson_cap:
        try:
            g = apply_map(x)
        except (AssemblyError, LinearSolveError):
            # Trial iterate left the resolvable region; back off.  With no
            # accepted iterate to back off to, the solve has failed.
            if best_x is None:
                break
            rejects += 1
            if rejects >= 3 and mixing <= _DAMPING_FLOOR:
                break
            last_x, cols = None, 0
            mixing = max(0.5 * mixing, _DAMPING_FLOOR)
            x = best_x.copy()
            continue
        f = g - x
        res = fem._lumped_l2(f, mesh)
        if res <= cfg.fp_tol:
            return g, evals, res, True, (refused, last_refusal)
        if res < best_res:
            best_res, best_x, best_g = res, x.copy(), g.copy()
            rejects = 0
        elif res > 10.0 * best_res:
            rejects += 1
            if rejects >= 5:
                break
            last_x, cols = None, 0
            mixing = max(0.5 * mixing, _DAMPING_FLOOR)
            x = best_x.copy()
            continue
        if last_x is not None:
            if cols == _ANDERSON_WINDOW:
                dx_cols[:, :-1] = dx_cols[:, 1:]
                df_cols[:, :-1] = df_cols[:, 1:]
                cols -= 1
            dx_cols[:, cols] = (x - last_x).ravel()
            df_cols[:, cols] = (f - last_f).ravel()
            cols += 1
        # x and f are rebound, never updated in place, so no copies.
        last_x, last_f = x, f
        if cols:
            dx, df = dx_cols[:, :cols], df_cols[:, :cols]
            theta, *_ = np.linalg.lstsq(df, f.ravel(), rcond=None)
            if np.isfinite(theta).all() and np.abs(theta).max() <= 50.0:
                step = mixing * f.ravel() - (dx + mixing * df) @ theta
                x = x + step.reshape(x.shape)
                continue
            # Ill-conditioned history: keep only the newest pair.
            cols = 0
        x = x + mixing * f

    if best_x is not None:
        polish_budget = _FP_MAX_ITERS - evals
        if polish_budget > 0:
            w, res_p, ok, used = _newton_polish(
                best_x, best_g, best_res, apply_map, mesh, cfg, polish_budget)
            if ok:
                return w, evals, res_p, True, (refused, last_refusal)
            if res_p < best_res:
                best_x, best_res = w, res_p
    if best_res < res:
        return best_x, evals, best_res, False, (refused, last_refusal)
    return x, evals, res, False, (refused, last_refusal)


def solve_time_step(s_prev: fem.NodalField, params, spec,
                    solver_cfg: SolverConfig, grad_beta_prev=None,
                    w_start=None):
    """Advance one implicit Euler step; returns (new state, StepStats).

    Starts the full-load solve from w_start, the (num_nodes, n) nodal entropy
    variable the previous step converged to (``StepStats.w``), or from
    w* = 0 when it is omitted; on non-convergence retries with the sigma
    homotopy ladder from w* = 0, warm-starting each rung; a failed ladder
    raises FixedPointError carrying its last ``sigma``, that rung's
    ``residual`` (inf when no evaluation was accepted) and the number of
    ``refused`` trial evaluations.  The returned nodal
    states are recovered through the inverse transform, hence always lie in
    the admissible set.  grad_beta_prev carries the quadrature samples of the
    previous step's beta gradient (the run memory); omitted, it is rebuilt
    from the previous state, which is exact on the first step from rest.
    """
    mesh = s_prev.mesh
    n = params.n_species
    if grad_beta_prev is None:
        grad_beta_prev = fem.beta_gradient_field(s_prev, params)
    w_zero = np.zeros((mesh.num_nodes, n))
    w, iters, res, ok, (refused, last_refusal) = _fixed_point(
        s_prev, params, spec, solver_cfg, 1.0,
        w_zero if w_start is None else w_start, grad_beta_prev)
    total_iters = iters
    used_homotopy = False
    if not ok:
        used_homotopy = True
        w = w_zero
        sigmas = np.linspace(1.0 / _HOMOTOPY_STEPS, 1.0, _HOMOTOPY_STEPS)
        for sigma in sigmas:
            w, iters, res, ok, refusals = _fixed_point(
                s_prev, params, spec, solver_cfg, float(sigma), w,
                grad_beta_prev)
            total_iters += iters
            refused += refusals[0]
            last_refusal = refusals[1] or last_refusal
            if not ok:
                break
        if not ok:
            outcome = ("no evaluation accepted" if res == math.inf else
                       f"residual {res:.3e} > fp_tol {solver_cfg.fp_tol:.1e}")
            message = (f"fixed-point iteration failed (last sigma "
                       f"{sigma:.3f}, {outcome})")
            if refused:
                message += (f"; {refused} trial evaluations refused, last: "
                            f"{last_refusal}")
            error = FixedPointError(message)
            error.sigma, error.residual = float(sigma), float(res)
            error.refused = refused
            raise error from last_refusal
    s_new, _ = fem._recover_points(w, s_prev.totals, params)
    new_state = fem.NodalField(s_new, mesh)
    stats = StepStats(iterations=total_iters, residual=float(res),
                      used_homotopy=used_homotopy, w=w)
    return new_state, stats


def step_count(t_end, kappa) -> int:
    """round(t_end / kappa), a run's number of implicit steps; raises
    ArgumentError, naming t_end / kappa, unless it rounds to 1.._MAX_STEPS."""
    steps = t_end / kappa
    if not 0.5 < steps < _MAX_STEPS + 0.5:
        raise ArgumentError(f"t_end / kappa = {t_end} / {kappa} = {steps:.7g} "
                            f"time steps; a run takes 1 to {_MAX_STEPS}")
    return round(steps)


def run_simulation(initial: fem.NodalField, params, spec,
                   solver_cfg: SolverConfig) -> Trajectory:
    """March round(t_end/kappa) implicit Euler steps from the initial state.

    Preconditions on the initial data (interior states strictly inside the
    admissible set, boundary rows equal to the boundary composition) and on
    the exponents (every clause of ``validate_assumptions``) are enforced
    with PreconditionError before any stepping.  Each accepted step's
    record is built from the record before by ``dissipation_budget``, with
    its entropy margin at tolerance 10 * fp_tol and the running a-priori
    totals; strict mode turns a negative margin into an abort.  The trajectory keeps the state and record of every
    record_every-th step and of the last one.  Each step's solve starts
    from the entropy variable the step before converged to.  A solver error
    of a step is re-raised as the same type with the step and its time
    prefixed to its message and added as attributes ``step`` and ``time``,
    next to any the error already carries.
    """
    try:
        initial.check_admissible(params)
    except Exception as exc:
        raise PreconditionError(f"invalid initial state: {exc}") from exc

    kappa = params.kappa
    num_steps = step_count(solver_cfg.t_end, kappa)

    record = diag.initial_record(initial, params, spec)
    traj = Trajectory(states=[initial], diagnostics=[record], params=params,
                      spec=spec, config=solver_cfg)
    s_prev = initial
    check_tol = 10.0 * solver_cfg.fp_tol
    w_prev = None

    for k in range(1, num_steps + 1):
        try:
            s_new, stats = solve_time_step(s_prev, params, spec, solver_cfg,
                                           grad_beta_prev=record.grad_beta,
                                           w_start=w_prev)
        except (FixedPointError, LinearSolveError, AssemblyError) as exc:
            error = type(exc)(f"step {k} (t = {k * kappa:g}): {exc}")
            error.__dict__.update(vars(exc), step=k, time=k * kappa)
            raise error from exc
        record = diag.dissipation_budget(s_new, s_prev, record, params, spec,
                                         stats.iterations, check_tol)
        if not record.entropy_margin >= 0.0 and solver_cfg.strict_entropy:
            raise EntropyViolationError(
                f"entropy inequality violated at step {k}: "
                f"margin {record.entropy_margin:.6e}")
        if k % solver_cfg.record_every == 0 or k == num_steps:
            traj.states.append(s_new)
            traj.diagnostics.append(record)
        s_prev = s_new
        w_prev = stats.w
    return traj


# ---------------------------------------------------------------------------
# Initial conditions
# ---------------------------------------------------------------------------

def equilibrium_initial(mesh: fem.Mesh, params) -> fem.NodalField:
    """Constant boundary composition everywhere."""
    return fem.constant_field(mesh, params)


def sine_perturbation_initial(mesh: fem.Mesh, params, amplitude=0.1,
                              species_index=0) -> fem.NodalField:
    """Equilibrium plus amplitude * sin(pi x / L) on one species, clipped to
    stay strictly inside the admissible set; boundary rows stay exact."""
    sg = np.asarray(params.s_gamma, dtype=float)
    if not (float(species_index).is_integer()
            and 0 <= species_index < params.n_species):
        raise ArgumentError(f"species_index must be an integer in 0.."
                            f"{params.n_species - 1}; got {species_index!r}")
    values = np.tile(sg, (mesh.num_nodes, 1))
    xi = (mesh.nodes - mesh.x_left) / (mesh.x_right - mesh.x_left)
    values[:, int(species_index)] += amplitude * np.sin(math.pi * xi)
    floor = 1e-8
    values = np.clip(values, floor, None)
    totals = values.sum(axis=1)
    over = totals > 1.0 - floor
    if np.any(over):
        values[over] *= ((1.0 - floor) / totals[over])[:, None]
    values[0] = sg
    values[-1] = sg
    return fem.NodalField(values, mesh)


def step_profile_initial(mesh: fem.Mesh, params, left_state,
                         right_state) -> fem.NodalField:
    """Piecewise-constant interior profile jumping at the domain midpoint."""
    left = np.asarray(left_state, dtype=float)
    right = np.asarray(right_state, dtype=float)
    n = params.n_species
    for arr, name in ((left, "left_state"), (right, "right_state")):
        if arr.shape != (n,):
            raise ArgumentError(f"{name} must have {n} components")
        if not (np.all(arr > 0) and arr.sum() < 1.0):
            raise ArgumentError(f"{name} must lie in the admissible set")
    sg = np.asarray(params.s_gamma, dtype=float)
    mid = 0.5 * (mesh.x_left + mesh.x_right)
    values = np.where((mesh.nodes < mid)[:, None], left, right)
    values[0] = sg
    values[-1] = sg
    return fem.NodalField(values, mesh)


# ---------------------------------------------------------------------------
# Refinement studies
# ---------------------------------------------------------------------------

def _total_density_l2_diff(times_coarse, totals_coarse, times_fine,
                           totals_fine, mesh, kappa_coarse):
    """L2(Omega x (0,T)) distance of two total-density trajectories on the
    same mesh, linearly interpolating the finer run to the coarser times."""
    m = mesh.lumped_masses
    tf = np.asarray(times_fine)
    acc = 0.0
    for t, row in zip(times_coarse[1:], totals_coarse[1:]):
        j = np.searchsorted(tf, t)
        j = min(max(j, 1), tf.size - 1)
        t0, t1 = tf[j - 1], tf[j]
        u = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)
        fine_row = (1.0 - u) * totals_fine[j - 1] + u * totals_fine[j]
        diff = row - fine_row
        acc += kappa_coarse * float(np.sum(m * diff**2))
    return math.sqrt(acc)


def _ladder_runs(initial, params, spec, solver_cfg, values, kind):
    """One run per ladder value, each recording every step: the space-time
    differences weight each record by one step, and the study keeps no
    records in its report, so the caller's ``record_every`` changes
    nothing."""
    every_step = replace(solver_cfg, record_every=1)
    return [run_simulation(initial, replace(params, **{kind: float(v)}),
                           spec, every_step)
            for v in values]


def _stability_flags(reports, values, label):
    """Flag any scalar bound quantity growing beyond a factor 2 between
    consecutive ladder runs (upper-bound semantics: shrinking is fine)."""
    flags = []
    scalar_keys = [k for k, v in reports[0].items() if np.isscalar(v)]
    for key in scalar_keys:
        for j in range(len(reports) - 1):
            lo, hi = reports[j][key], reports[j + 1][key]
            if hi > 2.0 * max(lo, 0.0) and hi > 1e-14:
                flags.append({
                    "quantity": key, "parameter": label,
                    "from_value": values[j], "to_value": values[j + 1],
                    "ratio": math.inf if lo <= 0 else hi / lo,
                })
    return flags


def refinement_study(initial: fem.NodalField, params, spec,
                     solver_cfg: SolverConfig, kappa_list, eps_list) -> dict:
    """Self-convergence in the time step plus bound-quantity stability.

    Runs the identical problem over the kappa ladder at fixed eps, reporting
    pairwise space-time L2 differences of the total density and the implied
    temporal orders, then over the eps ladder at fixed kappa, tracking the
    a-priori quantities; growth of any bound quantity beyond a factor-2 band
    is flagged.
    """
    kappa_list = [float(v) for v in kappa_list]
    eps_list = [float(v) for v in eps_list]
    for name, lst in (("kappa_list", kappa_list), ("eps_list", eps_list)):
        if any(b > a for a, b in zip(lst, lst[1:])):
            raise ArgumentError(f"{name} must be non-increasing")

    report = {}

    if kappa_list:
        runs = _ladder_runs(initial, params, spec, solver_cfg, kappa_list,
                            "kappa")
        totals = [np.stack([st.totals for st in tr.states]) for tr in runs]
        times = [tr.times for tr in runs]
        diffs = []
        for j in range(len(runs) - 1):
            diffs.append(_total_density_l2_diff(
                times[j], totals[j], times[j + 1], totals[j + 1],
                initial.mesh, kappa_list[j]))
        orders = []
        for j in range(len(diffs) - 1):
            if diffs[j] > 0 and diffs[j + 1] > 0:
                orders.append(math.log2(diffs[j] / diffs[j + 1]))
            else:
                orders.append(math.nan)
        apriori = [diag.apriori_report(tr) for tr in runs]
        report["kappa"] = {
            "values": kappa_list,
            "pairwise_l2": diffs,
            "orders": orders,
            "apriori": apriori,
            "flags": _stability_flags(apriori, kappa_list, "kappa"),
        }

    if eps_list:
        runs = _ladder_runs(initial, params, spec, solver_cfg, eps_list,
                            "eps")
        apriori = [diag.apriori_report(tr) for tr in runs]
        report["eps"] = {
            "values": eps_list,
            "apriori": apriori,
            "flags": _stability_flags(apriori, eps_list, "eps"),
        }
    return report
