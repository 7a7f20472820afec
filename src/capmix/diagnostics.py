"""Runtime verification: Lyapunov functional, dissipation budget, bounds.

The scheme's defining estimate is checked numerically after every accepted
time step.  The Lyapunov functional pairs the lumped relative free energy
with a quadrature memory of the capillary gradient,

    L(S, G) = sum_nodes m_nu F~(S(nu)) + 1/2 sum_cells h qavg[G^2],

where G are per-quadrature-point samples of the beta(S) gradient.  The run
carries G forward: the initial memory is tau(S^0) dS^0/dx sampled at the
Gauss points, and after each step the memory advances to

    G_new = tau(S_new) * x~,     x~ = u + G_prev / (kappa f'(S_new)),

with u the gradient of the recovered total reconstructed from the entropy
variables and f' = tau/a + tau/kappa the derivative of the state-recovery
map.  x~ is the scheme-consistent reconstruction of dS/dx: the recovery of
S from w also depends on the previous state, and that share of the chain
rule is exactly G_prev / (kappa f').  Each step must then satisfy

    L(S_new, G_new) + kappa * [ C_beta * int (D_k beta)^2
                      + (2/3) int tau pc' |x~|^2 + (1/4) int a |d~|^2
                      + C_w * eps ||w||_H1^2 + C_mu * ||Pi grad mu||^2 ]
        <=  L(S_prev, G_prev) + tol,

with d~ = (G_new - G_prev)/kappa the quadrature backward difference of the
gradient memory.  Testing the converged linear system with w itself makes
this chain exact up to floating-point noise: the time bracket dominates the
free-energy difference plus C_beta times the squared beta difference
(nodal convexity), the capillary bracket equals
int [tau pc' x~^2 + tau x~ d~ + a pc' x~ d~ + a d~^2] pointwise, the
tau x~ d~ share telescopes the gradient memory, and a pc' <= tau turns the
mixed term into the 2/3 and 1/4 weights.  C_beta = 1/sup beta', C_mu = D0/2
and the Poincare-based C_w are the constants the assembled bilinear form
can actually guarantee; margins are reported signed so stricter variants
can be evaluated offline.

All dissipation integrals reuse the assembly quadrature: nodal (lumped)
sums for time differences, two-point Gauss with per-point state recovery
for the flux terms (coefficients from ``fem._point_coefficients``, as in
assembly), chord gradients for interpolated nodal quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import constitutive as cst
from . import entropy as ent
from . import fem
from .errors import ArgumentError, PreconditionError

__all__ = [
    "DiagnosticsRecord",
    "EntropyCheckResult",
    "lyapunov_functional",
    "dissipation_budget",
    "initial_record",
    "check_entropy_step",
    "apriori_report",
    "weak_residual",
    "gibbs_duhem_check",
]

_NEG_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class DiagnosticsRecord:
    """Per-step budget: Lyapunov value, dissipation integrals, state extremes,
    iteration count, instantaneous bound quantities, the entropy-check
    weighting constants in force, and the advanced gradient memory G (per-cell
    quadrature samples of the beta gradient; the next step's history input)."""

    step: int
    time: float
    lyapunov: float
    diss_dbeta_sq: float
    diss_capillary: float
    diss_grad_dbeta: float
    diss_eps_w: float
    diss_proj_mu: float
    min_species: float
    max_total: float
    fp_iters: int
    grad_beta: np.ndarray | None = None
    apriori: dict = field(default_factory=dict)
    check_constants: dict = field(default_factory=dict)
    entropy_margin: float | None = None

    def __post_init__(self):
        for name in ("diss_dbeta_sq", "diss_capillary", "diss_grad_dbeta",
                     "diss_eps_w", "diss_proj_mu"):
            if getattr(self, name) < -_NEG_TOL:
                raise ArgumentError(f"{name} negative beyond tolerance")
        if self.lyapunov < -_NEG_TOL:
            raise ArgumentError("lyapunov negative beyond tolerance")


@dataclass(frozen=True)
class EntropyCheckResult:
    passed: bool
    margin: float
    weighted_dissipation: float


def _admissible_exponents(params):
    """The exponent report of an admissible parameter set.  Any other set is
    refused with PreconditionError naming its violated clauses, so every
    bound below may rely on p > 1 (hence a finite q in (1, 2))."""
    rep = cst.validate_assumptions(params)
    if not rep.accepted:
        raise PreconditionError("parameter admissibility violated: "
                                + "; ".join(rep.violated_clauses))
    return rep


# ---------------------------------------------------------------------------
# Lyapunov functional
# ---------------------------------------------------------------------------

def _lyapunov_parts(state, params, mesh, grad_beta):
    """(mass-lumped integral of the relative free energy, squared L2 norm of
    the beta-gradient memory): the two shares of the Lyapunov value."""
    dens = ent.relative_free_energy(state.values, params)
    bulk = float(np.sum(mesh.lumped_masses * dens))
    grad_sq = float(np.sum(mesh.widths * np.einsum("q,cq->c", fem._Q_W,
                                                   grad_beta**2)))
    return bulk, grad_sq


def lyapunov_functional(state: fem.NodalField, params, mesh: fem.Mesh,
                        grad_beta=None) -> float:
    """Mass-lumped integral of the relative free energy plus half the squared
    L2 norm of the beta-gradient memory.

    grad_beta holds the per-cell quadrature samples of d beta(S)/dx the run
    carries (shape (num_cells, num_quadrature_points)).  Omitted, it is
    rebuilt from the state itself, which is the correct memory for a state
    that has not stepped yet.
    """
    if grad_beta is None:
        grad_beta = fem.beta_gradient_field(state, params)
    bulk, grad_sq = _lyapunov_parts(state, params, mesh, grad_beta)
    return bulk + 0.5 * grad_sq


# ---------------------------------------------------------------------------
# Dissipation budget
# ---------------------------------------------------------------------------

def _entropy_check_constants(params, spec, mesh):
    """Guaranteed weights for the per-step entropy inequality."""
    c_beta = 1.0 / cst.sup_beta_prime(params)
    c_mu = 0.5 * spec.d0
    if params.eps > 0.0:
        n = params.n_species
        length = mesh.x_right - mesh.x_left
        h_max = float(np.max(mesh.widths))
        cp_eff_sq = (length / math.pi) ** 2 + h_max**2 / 6.0
        c_w = (min(params.eps, 0.5 * spec.d0)
               / (4.0 * n**2 * (1.0 + cp_eff_sq) * params.eps))
    else:
        c_w = 0.0
    return {"c_beta": c_beta, "c_w": c_w, "c_mu": c_mu}


def _step_qpoint_data(state_new, state_prev, params, spec, grad_beta_prev):
    """Per-cell quadrature data of one completed step.

    Reconstructs the nodal entropy variables of state_new (no root-finding is
    involved in that direction), interpolates them into the cells, recovers
    the per-point states and returns their coefficients (``coef``, from
    ``fem._point_coefficients``) with the gradients exactly as the assembled
    forms use them.  grad_beta_prev is the beta-gradient memory the step was
    assembled with; x_tilde adds its chain-rule share to the raw recovered
    gradient, d_tilde is the quadrature backward difference of the memory,
    and g_new = tau * x_tilde is the memory the step hands on.
    """
    mesh = state_new.mesh
    h = mesh.widths
    w, _ = ent._w_many(state_new.values, state_new.totals,
                       state_prev.totals, params)

    w_q = fem._interp_cells(w, fem._Q_XI)               # (nc, 2, n)
    prev_tot_q = fem._interp_cells(state_prev.totals, fem._Q_XI)
    s_q, tot_q = fem._recover_points(w_q, prev_tot_q, params)
    coef = fem._point_coefficients(s_q, tot_q, params, spec)
    dsdw_q = s_q / (tot_q * coef["f_prime"])[..., None]

    grad_w = (w[1:] - w[:-1]) / h[:, None]              # (nc, n)
    u_q = np.einsum("cqn,cn->cq", dsdw_q, grad_w)       # (nc, 2)

    x_tilde = u_q + grad_beta_prev / (params.kappa * coef["f_prime"])
    g_new = coef["tau"] * x_tilde
    d_tilde = (g_new - grad_beta_prev) / params.kappa

    return {"w": w, "grad_w": grad_w, "coef": coef, "x_tilde": x_tilde,
            "d_tilde": d_tilde, "g_new": g_new}


def _hminus1_sq(mesh, f_nodal):
    """Squared discrete H^-1 norms u . (M f) of the k columns of (num_nodes,
    k) nodal densities, u solving the P1 Dirichlet problem K u = M f.

    In 1d no solve is needed: with q the cell gradients of u, interior node
    i reads q_{i-1} - q_i = (M f)_i, so q = q0 - R with R the cumulative
    interior load (0 on the first cell), and u = 0 at both ends fixes
    sum h q = 0, i.e. q0 = sum h R / sum h.  Then u . (M f) = sum h q^2.
    """
    h = mesh.widths
    load = mesh.lumped_masses[1:-1, None] * f_nodal[1:-1]
    cum = np.zeros((h.size, load.shape[1]))
    np.cumsum(load, axis=0, out=cum[1:])
    q = (h @ cum) / h.sum() - cum
    return h @ q**2


def _instantaneous_apriori(state, params, mesh, grad_beta, rep):
    """State-only bound quantities (suprema trackers and L^6/L^p integrals)
    and the Lyapunov value, from one evaluation of its two shares.
    grad_beta is the beta-gradient memory attached to the state, rep the
    exponent report of the admissible params.  Returns (quantities,
    lyapunov)."""
    m = mesh.lumped_masses
    totals = state.totals
    bulk, grad_beta_sq = _lyapunov_parts(state, params, mesh, grad_beta)
    out = {
        "entropy_integral": bulk,
        "grad_beta_l2": math.sqrt(grad_beta_sq),
        "total_pow_gamma1_int": float(np.sum(m * totals ** (2.0 - params.gamma1))),
        "one_minus_total_pow_lam_int": float(np.sum(m * (1.0 - totals) ** (2.0 - params.lam))),
        "alpha1_l6": float(np.sum(m * totals ** (6.0 * rep.alpha1)) ** (1.0 / 6.0)),
        "alpha2_l6": float(np.sum(m * (1.0 - totals) ** (6.0 * rep.alpha2)) ** (1.0 / 6.0)),
    }
    a_vals = cst._mobility(np.clip(totals, 1e-300, 1.0 - 1e-16), params)
    out["mobility_inv_p_int"] = float(np.sum(m * a_vals ** (-rep.p)))
    return out, bulk + 0.5 * grad_beta_sq


def initial_record(state: fem.NodalField, params, spec) -> DiagnosticsRecord:
    """Record for the initial state: no step has happened, so every step-scoped
    dissipation is zero by convention.  Seeds the beta-gradient memory from
    the state itself.  Refuses an inadmissible parameter set with
    PreconditionError, as parsing a configuration refuses it."""
    rep = _admissible_exponents(params)
    mesh = state.mesh
    grad_beta = fem.beta_gradient_field(state, params)
    apriori, lyapunov = _instantaneous_apriori(state, params, mesh, grad_beta,
                                               rep)
    apriori.update({"grad_dkbeta_lq_int": 0.0, "dt_hminus1_sq": 0.0})
    return DiagnosticsRecord(
        step=0, time=0.0,
        lyapunov=lyapunov,
        diss_dbeta_sq=0.0, diss_capillary=0.0, diss_grad_dbeta=0.0,
        diss_eps_w=0.0, diss_proj_mu=0.0,
        min_species=float(state.values.min()),
        max_total=float(state.totals.max()),
        fp_iters=0,
        grad_beta=grad_beta,
        apriori=apriori,
        check_constants=_entropy_check_constants(params, spec, mesh))


def dissipation_budget(state_new: fem.NodalField, state_prev: fem.NodalField,
                       params, spec, mesh: fem.Mesh, grad_beta_prev, step=0,
                       time=0.0, fp_iters=0) -> DiagnosticsRecord:
    """Evaluate every dissipation integral of one completed step with the
    assembly quadratures (lumped time terms, two-point Gauss flux terms).

    grad_beta_prev is the beta-gradient memory the step was assembled with
    (the previous record's grad_beta).  The returned record's grad_beta is
    the advanced memory, both the gradient share of its Lyapunov value and
    the history input of the next step.
    """
    rep = _admissible_exponents(params)
    kappa = params.kappa
    m = mesh.lumped_masses
    h = mesh.widths
    data = _step_qpoint_data(state_new, state_prev, params, spec,
                             grad_beta_prev)

    beta_new = cst._beta_hat(state_new.totals, params)
    beta_prev = cst._beta_hat(state_prev.totals, params)
    dkb = (beta_new - beta_prev) / kappa
    diss_dbeta_sq = float(np.sum(m * dkb**2))

    coef = data["coef"]
    tau_q, pcp_q, a_q = coef["tau"], coef["pc_prime"], coef["a"]
    x_t, d_t = data["x_tilde"], data["d_tilde"]
    diss_capillary = float(np.sum(
        h * np.einsum("q,cq->c", fem._Q_W, pcp_q * tau_q * x_t**2)))
    diss_grad_dbeta = float(np.sum(
        h * np.einsum("q,cq->c", fem._Q_W, a_q * d_t**2)))

    w = data["w"]
    diss_eps_w = params.eps * float(
        np.sum(m[:, None] * w**2) + np.sum(h[:, None] * data["grad_w"]**2))

    pi_w = ent.project_orthogonal(w)
    grad_pi = (pi_w[1:] - pi_w[:-1]) / h[:, None]
    diss_proj_mu = float(np.sum(h[:, None] * grad_pi**2))

    apriori, lyapunov = _instantaneous_apriori(state_new, params, mesh,
                                               data["g_new"], rep)
    # Backward difference of the beta-gradient memory, in L^q space.
    apriori["grad_dkbeta_lq_int"] = float(np.sum(
        h * np.einsum("q,cq->c", fem._Q_W, np.abs(d_t) ** rep.q)))
    diff = (state_new.values - state_prev.values) / kappa
    apriori["dt_hminus1_sq"] = float(_hminus1_sq(mesh, diff).sum())

    return DiagnosticsRecord(
        step=step, time=time,
        lyapunov=lyapunov,
        diss_dbeta_sq=diss_dbeta_sq,
        diss_capillary=diss_capillary,
        diss_grad_dbeta=diss_grad_dbeta,
        diss_eps_w=diss_eps_w,
        diss_proj_mu=diss_proj_mu,
        min_species=float(state_new.values.min()),
        max_total=float(state_new.totals.max()),
        fp_iters=int(fp_iters),
        grad_beta=data["g_new"],
        apriori=apriori,
        check_constants=_entropy_check_constants(params, spec, mesh))


def check_entropy_step(l_prev, l_new, budget: DiagnosticsRecord, kappa,
                       tol) -> EntropyCheckResult:
    """Pass/fail of the per-step entropy inequality with signed margin.

    Passes iff l_new + kappa * (weighted dissipation sum) <= l_prev + tol,
    with the weights taken from the budget's check_constants.
    """
    cc = budget.check_constants
    if not cc:
        raise ArgumentError("budget record carries no check constants")
    weighted = (cc["c_beta"] * budget.diss_dbeta_sq
                + (2.0 / 3.0) * budget.diss_capillary
                + 0.25 * budget.diss_grad_dbeta
                + cc["c_w"] * budget.diss_eps_w
                + cc["c_mu"] * budget.diss_proj_mu)
    margin = (l_prev + tol) - (l_new + kappa * weighted)
    return EntropyCheckResult(passed=bool(margin >= 0.0),
                              margin=float(margin),
                              weighted_dissipation=float(weighted))


# ---------------------------------------------------------------------------
# Trajectory-level reports
# ---------------------------------------------------------------------------

# Record quantities whose suprema the report takes.
_SUPREMA = ("entropy_integral", "grad_beta_l2", "total_pow_gamma1_int",
            "one_minus_total_pow_lam_int")


@dataclass(eq=False)
class AprioriTotals:
    """Running suprema over every record and time sums (kappa times each
    step's integrand, added in step order) over every step of a run, the
    steps a thinned trajectory (record_every > 1) leaves out included."""

    sup: dict = field(default_factory=dict)
    time_sum: dict = field(default_factory=dict)

    def add(self, record: DiagnosticsRecord, kappa):
        a = record.apriori
        for key in _SUPREMA:
            self.sup[key] = max(self.sup.get(key, a[key]), a[key])
        if record.step == 0:
            return
        integrands = {  # {report key: this step's value}
            "dkbeta_L2L2": record.diss_dbeta_sq,
            "capillary_L2L2": record.diss_capillary,
            "grad_dkbeta_L2L2": record.diss_grad_dbeta,
            "eps_w_L2H1": record.diss_eps_w,
            "proj_mu_L2L2": record.diss_proj_mu,
            "alpha1_L2L6": a["alpha1_l6"] ** 2,
            "alpha2_L2L6": a["alpha2_l6"] ** 2,
            "mobility_inv_p_int": a["mobility_inv_p_int"],
            "dt_Hminus1_L2": a["dt_hminus1_sq"],
            "grad_dkbeta_Lq": a["grad_dkbeta_lq_int"]}
        for key, value in integrands.items():
            self.time_sum[key] = self.time_sum.get(key, 0.0) + kappa * value


def apriori_report(trajectory, params) -> dict:
    """Aggregate the bound quantities over every step of a run, from the
    trajectory's running totals (``AprioriTotals``)."""
    if not trajectory.diagnostics:
        raise ArgumentError("trajectory has no diagnostics records")
    rep = _admissible_exponents(params)
    totals = trajectory.apriori_totals
    sup, integral = totals.sup, totals.time_sum
    return {
        "sup_entropy_integral": sup["entropy_integral"],
        "sup_grad_beta": sup["grad_beta_l2"],
        "dkbeta_L2L2": math.sqrt(integral["dkbeta_L2L2"]),
        "capillary_L2L2": math.sqrt(integral["capillary_L2L2"]),
        "grad_dkbeta_L2L2": math.sqrt(integral["grad_dkbeta_L2L2"]),
        "eps_w_L2H1": math.sqrt(integral["eps_w_L2H1"]),
        "proj_mu_L2L2": math.sqrt(integral["proj_mu_L2L2"]),
        "sup_total_pow_gamma1": sup["total_pow_gamma1_int"],
        "sup_one_minus_total_pow_lam": sup["one_minus_total_pow_lam_int"],
        "alpha1_L2L6": math.sqrt(integral["alpha1_L2L6"]),
        "alpha2_L2L6": math.sqrt(integral["alpha2_L2L6"]),
        "mobility_inv_p_int": integral["mobility_inv_p_int"],
        "dt_Hminus1_L2": math.sqrt(integral["dt_Hminus1_L2"]),
        "exponents": {"alpha1": rep.alpha1, "alpha2": rep.alpha2,
                      "p": rep.p, "q": rep.q},
        "grad_dkbeta_Lq": integral["grad_dkbeta_Lq"] ** (1.0 / rep.q),
    }


def weak_residual(trajectory, params, spec, num_test_functions) -> float:
    """Maximum weak-form residual against sin^2 space bubbles times interior
    time hats, evaluated with the scheme's own quadratures and fluxes.

    For the scheme's solution this is a consistency measure (interpolation
    error of the smooth test functions plus solver tolerances); it must
    shrink under refinement and jump by orders of magnitude on corrupted
    states.
    """
    states = trajectory.states
    times = trajectory.times
    records = trajectory.diagnostics
    if len(states) < 2:
        raise ArgumentError("trajectory too short for a weak residual")
    if not records:
        raise ArgumentError("trajectory has no diagnostics records")
    if num_test_functions < 1:
        raise ArgumentError("need at least one test function")
    # Each record pairs with the one before it as one step of the scheme.
    for before, after in zip(records, records[1:]):
        if after.step != before.step + 1:
            raise ArgumentError(
                f"weak_residual needs every step recorded; the records skip "
                f"from step {before.step} to {after.step} (stride "
                f"{after.step - before.step})")
    mesh = states[0].mesh
    nodes = mesh.nodes
    length = mesh.x_right - mesh.x_left
    m_lump = mesh.lumped_masses
    h = mesh.widths
    t_end = times[-1]

    xi_rel = (nodes - mesh.x_left) / length
    q_x = fem._interp_cells(xi_rel, fem._Q_XI)          # (nc, 2)

    js = np.arange(1, num_test_functions + 1)
    psi_nodes = np.sin(np.pi * js[:, None] * xi_rel[None, :]) ** 2  # (J, nn)
    dpsi_q = (np.pi * js[:, None, None] / length) * np.sin(
        2.0 * np.pi * js[:, None, None] * q_x[None, :, :])          # (J, nc, 2)

    num_hats = max(1, min(4, len(times) - 2))
    peaks = np.linspace(0.0, t_end, num_hats + 2)[1:-1]
    half = t_end / (num_hats + 1)

    def hat(tk):
        return np.clip(1.0 - np.abs(tk - peaks) / half, 0.0, 1.0)  # (M,)

    n = params.n_species
    acc = np.zeros((n, num_test_functions, num_hats))
    for k in range(1, len(states)):
        dt = times[k] - times[k - 1]
        s_new, s_prev = states[k], states[k - 1]
        g_prev = records[k - 1].grad_beta
        data = _step_qpoint_data(s_new, s_prev, params, spec, g_prev)

        # Time bracket: lumped inner product of the backward difference.
        dks = (s_new.values - s_prev.values) / dt        # (nn, n)
        time_part = np.einsum("v,vn,jv->nj", m_lump, dks, psi_nodes)

        # Flux bracket: per-point scheme flux dotted with d psi/dx.
        coef = data["coef"]
        flux = np.einsum("cqnl,cl->cqn", coef["alpha"], data["grad_w"])
        flux -= coef["y"] * (coef["history"] * g_prev
                             / params.kappa)[..., None]
        flux_part = np.einsum("c,q,cqn,jcq->nj", h, fem._Q_W, flux, dpsi_q)

        acc += dt * (time_part + flux_part)[:, :, None] * hat(times[k])[None, None, :]

    return float(np.max(np.abs(acc)))


def gibbs_duhem_check(state: fem.NodalField, params, mesh: fem.Mesh) -> float:
    """L2 norm of the cellwise defect sum_i S_i grad mu_i - grad Lambda, with
    Lambda(S) = S f0(S) - E(S) the thermodynamic pressure kernel and chord
    gradients of the nodal interpolants."""
    v = state.values
    totals = state.totals
    mu = ent.chem_potentials(v, params)
    lam = totals * cst.f0_integral(totals, params) - cst.entropy_E(totals, params)
    h = mesh.widths
    s_bar = 0.5 * (v[1:] + v[:-1])
    defect = (np.sum(s_bar * np.diff(mu, axis=0), axis=1) - np.diff(lam)) / h
    return float(np.sqrt(np.sum(h * defect**2)))
