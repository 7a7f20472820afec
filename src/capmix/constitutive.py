"""Constitutive laws for degenerate two-phase flow with dynamic capillarity.

The scalar total saturation S lives in (0, 1) and carries four power-law
coefficient functions (lam, gamma, gamma1, beta1, beta2 > 0):

* mobility               a(S)    = (1-S)^lam * S^gamma / ((1-S)^lam + S^gamma)
* capillary slope        pc'(S)  = S^(-beta1) + (1-S)^(-beta2)
* relaxation coefficient tau(S)  = [S^gamma + S^(gamma-gamma1) (1-S)^lam]
                                   / (S^gamma + (1-S)^lam)
* degeneracy quotient    tau/a   = (1-S)^(-lam) + S^(-gamma1)

tau is the derivative of the Kirchhoff-type primitive beta(S), normalised so
beta(1/2) = 0.  The quotient tau/a is itself the derivative of the convex
free-energy kernel: f0' = tau/a, and the kernel's own primitive E (with
E(1/2) = E'(1/2) = 0 up to the normalisation of f0) closes the mixing free
energy.  Both f0 and E admit closed forms, used throughout:

    A(S)  = (1-S)^(1-lam)/(lam-1) - S^(1-gamma1)/(gamma1-1)
    f0(S) = A(S) - A(1/2)
    B(S)  = (1-S)^(2-lam)/((lam-1)(lam-2)) + S^(2-gamma1)/((gamma1-1)(gamma1-2))
    E(S)  = B(S) - B(1/2) - A(1/2) (S - 1/2)

Everything here is elementwise and accepts numpy arrays as well as scalars.
Evaluations stay in log space where the power laws would under/overflow;
states outside the open interval raise DomainError rather than being clamped.

The admissibility conditions on the exponents (checked by
``validate_assumptions``) guarantee in particular that pc' <= tau/a pointwise
and that the two integrability exponents p_gamma, p_lambda both exceed 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ArgumentError, DomainError

__all__ = [
    "ModelParams",
    "CoefficientValues",
    "AssumptionReport",
    "default_params",
    "eval_coeffs",
    "f0_integral",
    "entropy_E",
    "validate_assumptions",
    "sup_beta_prime",
]


@dataclass(frozen=True)
class ModelParams:
    """Model parameters: species count, coefficient exponents, boundary state,
    time step, regularisation strength and the root-find tolerance.

    ``s_gamma`` is the constant boundary composition (one positive entry per
    species, summing to less than 1).  ``lam`` is the wetting-side exponent
    usually written as a lowercase lambda.
    """

    n_species: int = 3
    lam: float = 7.0
    gamma: float = 6.2
    gamma1: float = 6.0
    beta1: float = 6.0
    beta2: float = 6.0
    s_gamma: tuple = (0.15, 0.15, 0.15)
    kappa: float = 1e-3
    eps: float = 1e-3
    rootfind_tol: float = 1e-12

    def __post_init__(self):
        object.__setattr__(self, "s_gamma", tuple(float(v) for v in self.s_gamma))
        if self.n_species < 1:
            raise ArgumentError("n_species must be at least 1")
        for name in ("lam", "gamma", "gamma1", "beta1", "beta2"):
            if not getattr(self, name) > 0:
                raise ArgumentError(f"exponent {name} must be positive")
        if len(self.s_gamma) != self.n_species:
            raise ArgumentError("s_gamma must have one entry per species")
        if any(v <= 0 for v in self.s_gamma):
            raise ArgumentError("boundary composition entries must be positive")
        if sum(self.s_gamma) >= 1.0:
            raise ArgumentError("boundary composition must sum to less than 1")
        if not self.kappa > 0:
            raise ArgumentError("kappa must be positive")
        if self.eps < 0:
            raise ArgumentError("eps must be non-negative")
        if not self.rootfind_tol > 0:
            raise ArgumentError("rootfind_tol must be positive")

    @property
    def total_gamma(self):
        """Total boundary saturation sum(s_gamma)."""
        return float(sum(self.s_gamma))


def default_params(**overrides) -> ModelParams:
    """Reference parameter set (lam=7, gamma=6.2, gamma1=6, beta1=beta2=6)."""
    return ModelParams(**overrides)


@dataclass(frozen=True)
class CoefficientValues:
    """Coefficients at one saturation: a, pc_prime, tau and the quotient tau/a.

    ``tau_over_a`` is evaluated from its own closed form, not by division, so
    it stays finite and accurate deep in the degenerate regions.
    """

    a: float
    pc_prime: float
    tau: float
    tau_over_a: float


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of the exponent admissibility check.

    ``violated_clauses`` lists human-readable inequality strings (empty when
    accepted).  The derived exponents alpha1/alpha2 (endpoint powers of the
    free-energy kernel) and the integrability exponents p_gamma, p_lambda,
    p = min of the two, q = 2p/(1+p) are always computed.
    """

    accepted: bool
    violated_clauses: tuple
    alpha1: float
    alpha2: float
    p_gamma: float
    p_lambda: float
    p: float
    q: float


def _as_open_unit(s):
    """Validate s in (0,1) elementwise; return float array and scalar flag.

    One min and one max decide the common case: a NaN makes the minimum NaN
    and an infinity lands at an end, so both fail the open-interval test.
    """
    arr = np.asarray(s, dtype=float)
    if arr.size and not (arr.min() > 0.0 and arr.max() < 1.0):
        bad = arr[~(np.isfinite(arr) & (arr > 0.0) & (arr < 1.0))]
        raise DomainError(f"saturation must lie strictly in (0,1); got {bad.flat[0]!r}")
    return arr, np.isscalar(s) or arr.ndim == 0


def _log_s_terms(arr, p: ModelParams):
    """Return (gamma log s, lam log(1-s), log s, log(S^gamma + (1-S)^lam)),
    the log powers that the mobility and tau share."""
    ls = np.log(arr)
    lg = p.gamma * ls
    la = p.lam * np.log1p(-arr)
    return lg, la, ls, np.logaddexp(lg, la)


def _mobility_from_logs(lg, la, den):
    return np.exp(lg + la - den)


def _tau_from_logs(lg, la, ls, den, p: ModelParams):
    return np.exp(np.logaddexp(lg, (p.gamma - p.gamma1) * ls + la) - den)


def _mobility(arr, p: ModelParams):
    lg, la, _, den = _log_s_terms(arr, p)
    return _mobility_from_logs(lg, la, den)


def _tau(s, p: ModelParams):
    """Relaxation coefficient tau = beta'; continuous limits tau(0)=0, tau(1)=1."""
    arr = np.asarray(s, dtype=float)
    shape = arr.shape
    flat = arr.ravel()
    out = np.empty_like(flat)
    interior = (flat > 0.0) & (flat < 1.0)
    if interior.any():
        out[interior] = _tau_from_logs(*_log_s_terms(flat[interior], p), p)
    out[flat == 0.0] = 0.0
    out[flat == 1.0] = 1.0
    return out.reshape(shape)


# The power-law kernels below overflow to inf near the ends of (0, 1); their
# callers enter np.errstate(over="ignore") once around them.

def _tau_over_a(arr, p: ModelParams):
    # Plain sum of two powers: no cancellation, so direct pow is both exact
    # on dyadic states and honest (inf) on overflow.
    return np.power(1.0 - arr, -p.lam) + np.power(arr, -p.gamma1)


def _pc_prime(arr, p: ModelParams):
    return np.power(arr, -p.beta1) + np.power(1.0 - arr, -p.beta2)


def eval_coeffs(s, params: ModelParams) -> CoefficientValues:
    """Evaluate (a, pc', tau, tau/a) at saturation ``s`` in (0,1).

    Elementwise on arrays.  Each entry comes from its own closed form; in
    particular tau/a is *not* obtained by dividing the other two, which keeps
    it accurate where a underflows.
    """
    arr, scalar = _as_open_unit(s)
    lg, la, ls, den = _log_s_terms(arr, params)
    a = _mobility_from_logs(lg, la, den)
    tau = _tau_from_logs(lg, la, ls, den, params)
    with np.errstate(over="ignore"):
        toa = _tau_over_a(arr, params)
        pcp = _pc_prime(arr, params)
    if scalar:
        return CoefficientValues(float(a), float(pcp), float(tau), float(toa))
    return CoefficientValues(a, pcp, tau, toa)


# ---------------------------------------------------------------------------
# beta = primitive of tau, normalised at 1/2
# ---------------------------------------------------------------------------

_TABLE_INTERVALS = 4096
_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(7)


def _pchip_edge(h0, h1, m0, m1):
    """One-sided three-point end slope of the monotone cubic, with the
    Fritsch-Carlson shape corrections (scipy's ``_edge_case``)."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip_coefficients(x, y):
    """Coefficients (4, m) of the monotone piecewise-cubic Hermite
    interpolant (Fritsch & Carlson 1980) through (x, y), at least 3 points.

    Bitwise equal to ``scipy.interpolate.PchipInterpolator(x, y).c``: the
    node slopes are the weighted harmonic means of the adjacent secants,
    zeroed where the secants change sign or vanish, the end slopes are
    ``_pchip_edge``, and the cubic coefficients follow CubicHermiteSpline,
    each in scipy's order of operations.
    """
    hk = x[1:] - x[:-1]
    mk = (y[1:] - y[:-1]) / hk
    smk = np.sign(mk)
    flat = (smk[1:] != smk[:-1]) | (mk[1:] == 0) | (mk[:-1] == 0)
    w1 = 2 * hk[1:] + hk[:-1]
    w2 = hk[1:] + 2 * hk[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        whmean = (w1 / mk[:-1] + w2 / mk[1:]) / (w1 + w2)
    d = np.zeros_like(y)
    d[1:-1][~flat] = 1.0 / whmean[~flat]
    d[0] = _pchip_edge(hk[0], hk[1], mk[0], mk[1])
    d[-1] = _pchip_edge(hk[-1], hk[-2], mk[-1], mk[-2])
    t = (d[:-1] + d[1:] - 2 * mk) / hk
    return np.stack((t / hk, (mk - d[:-1]) / hk - t, d[:-1], y[:-1]))


@lru_cache(maxsize=32)
def _beta_table(lam, gamma, gamma1):
    """Monotone interpolant of beta on [0,1] from panelwise Gauss quadrature.

    Returns (c, dc, knots, values): the PCHIP coefficient array through
    (knots, values) and that of its derivative, both bitwise equal to the
    ``.c`` of scipy's ``PchipInterpolator(knots, values)`` and of its
    ``.derivative()``.  Every caller evaluates these arrays through
    ``_eval_table``, so all see one and the same beta and discrete
    identities that pair beta differences with tau-chords are exact
    regardless of table accuracy.
    """
    p = ModelParams(n_species=1, lam=lam, gamma=gamma, gamma1=gamma1,
                    beta1=6.0, beta2=6.0, s_gamma=(0.5,))
    knots = np.linspace(0.0, 1.0, _TABLE_INTERVALS + 1)
    h = knots[1] - knots[0]
    # Gauss points of every panel, evaluated in one vectorised sweep.
    mids = 0.5 * (knots[:-1] + knots[1:])
    pts = mids[:, None] + 0.5 * h * _GAUSS_NODES[None, :]
    vals = _tau(pts, p)
    panel = 0.5 * h * vals @ _GAUSS_WEIGHTS
    cum = np.concatenate([[0.0], np.cumsum(panel)])
    cum -= cum[_TABLE_INTERVALS // 2]  # knots has even panel count; 0.5 is a knot
    c = _pchip_coefficients(knots, cum)
    # Power-basis derivative, as scipy's PPoly.derivative() forms it.
    dc = c[:-1] * np.array([3.0, 2.0, 1.0])[:, None]
    return c, dc, knots, cum


def _eval_table(c, knots, x):
    """Evaluate the piecewise polynomial with coefficients c (highest power
    first) on the table knots at x in [0,1], bitwise equal to scipy's
    ``PPoly(c, knots)(x)``.

    The knots are k/4096, so x*4096 and the offset s = x - knots[i] are exact
    and the panel index i is a truncation instead of a search; the last panel
    is closed on the right, as in scipy's PPoly.  The power sum runs in the
    order and with the rounding of PPoly's evaluation, c[-1] + c[-2] s +
    c[-3] s^2 + ... with the power updated by z *= s (Horner order is not
    bitwise equal).
    """
    x = np.asarray(x, dtype=float)
    i = np.minimum((x * _TABLE_INTERVALS).astype(np.intp), _TABLE_INTERVALS - 1)
    s = x - knots[i]
    out = c[-1][i]
    z = s
    for k in range(c.shape[0] - 2, -1, -1):
        term = c[k][i]
        term *= z
        out += term
        if k:
            z = z * s
    return out


def _beta_hat(arr, p: ModelParams):
    """Tabulated beta used by transforms, assembly and diagnostics; arr in
    [0,1].  Bitwise equal to scipy's PchipInterpolator through the table of
    ``_beta_table``."""
    c, _, knots, _ = _beta_table(p.lam, p.gamma, p.gamma1)
    return _eval_table(c, knots, arr)


def _beta_hat_prime(arr, p: ModelParams):
    """Derivative of the tabulated beta, arr in [0,1]; bitwise equal to the
    derivative of scipy's PchipInterpolator through the table of
    ``_beta_table``."""
    _, dc, knots, _ = _beta_table(p.lam, p.gamma, p.gamma1)
    return _eval_table(dc, knots, arr)


# ---------------------------------------------------------------------------
# Convex free-energy kernel: f0 (first primitive of tau/a) and E (second)
# ---------------------------------------------------------------------------

def _A_raw(arr, p: ModelParams):
    return (np.power(1.0 - arr, 1.0 - p.lam) / (p.lam - 1.0)
            - np.power(arr, 1.0 - p.gamma1) / (p.gamma1 - 1.0))


@lru_cache(maxsize=32)
def _A_half(lam, gamma1):
    """A(1/2), the constant that pins f0(1/2) = 0."""
    p = ModelParams(n_species=1, lam=lam, gamma1=gamma1, s_gamma=(0.5,))
    return _A_raw(np.asarray(0.5), p)


def _B_raw(arr, p: ModelParams):
    return (np.power(1.0 - arr, 2.0 - p.lam) / ((p.lam - 1.0) * (p.lam - 2.0))
            + np.power(arr, 2.0 - p.gamma1) / ((p.gamma1 - 1.0) * (p.gamma1 - 2.0)))


def _require_kernel_exponents(p: ModelParams):
    if p.lam <= 2.0 or p.gamma1 <= 2.0:
        raise ArgumentError(
            "closed-form free-energy kernel requires lam > 2 and gamma1 > 2")


def f0_integral(s, params: ModelParams):
    """f0(s) = integral of tau/a from 1/2 to s (closed form), f0(1/2) = 0.

    Strictly increasing with range the whole real line; blows up like
    -s^(1-gamma1) near 0 and (1-s)^(1-lam) near 1.  Elementwise on arrays.
    """
    _require_kernel_exponents(params)
    arr, scalar = _as_open_unit(s)
    with np.errstate(over="ignore"):
        out = _f0_open(arr, params)
    return float(out) if scalar else out


def _f0_open(arr, p: ModelParams):
    """f0 on an array already known to lie in (0,1): no domain scan.

    Shared by f0_integral and the transform's root-find, so both directions
    of the w <-> S transform evaluate f0 bitwise alike.
    """
    return _A_raw(arr, p) - _A_half(p.lam, p.gamma1)


def entropy_E(s, params: ModelParams):
    """Convex kernel E with E' = f0 and E(1/2) = 0 (closed form).

    E is nonnegative, vanishes to second order at 1/2, and grows like
    s^(2-gamma1) / (1-s)^(2-lam) towards the endpoints.  Elementwise.
    """
    _require_kernel_exponents(params)
    arr, scalar = _as_open_unit(s)
    half = np.asarray(0.5)
    with np.errstate(over="ignore"):
        out = (_B_raw(arr, params) - _B_raw(half, params)
               - _A_half(params.lam, params.gamma1) * (arr - 0.5))
    return float(out) if scalar else out


# ---------------------------------------------------------------------------
# Admissibility of the exponent set
# ---------------------------------------------------------------------------

def validate_assumptions(params: ModelParams) -> AssumptionReport:
    """Check every admissibility clause on the exponents and derive the
    integrability exponents.

    Clauses checked (all must hold for acceptance):
      5 < beta1,  beta1 <= gamma1,  gamma1 < gamma,
      gamma < beta1/2 + (5/6)(gamma1 - 2),
      5 < beta2,  beta2 <= lam,  lam < 3 beta2 - 10,
    the computed p_gamma, p_lambda > 1 (which those clauses imply in exact
    arithmetic), plus a sampled verification that pc' <= tau/a on a fine
    interior grid.
    """
    g, g1, b1 = params.gamma, params.gamma1, params.beta1
    lm, b2 = params.lam, params.beta2

    clauses = []

    def check(ok, text, bound=None):
        if not ok:
            clauses.append(text if bound is None else f"{text} (bound {bound:.6g})")

    bound_gamma = b1 / 2.0 + (5.0 / 6.0) * (g1 - 2.0)
    bound_lam = 3.0 * b2 - 10.0
    check(5.0 < b1, "5 < beta1")
    check(b1 <= g1, "beta1 <= gamma1", g1)
    check(g1 < g, "gamma1 < gamma", g1)
    check(g < bound_gamma, "gamma < beta1/2 + (5/6)(gamma1 - 2)", bound_gamma)
    check(5.0 < b2, "5 < beta2")
    check(b2 <= lm, "beta2 <= lam", b2)
    check(lm < bound_lam, "lam < 3 beta2 - 10", bound_lam)

    alpha1 = 1.0 + (g - g1 - b1) / 2.0
    alpha2 = 1.0 - b2 / 2.0
    p_gamma = -(10.0 / 3.0 + g - (5.0 / 3.0) * g1 - b1) / g
    p_lambda = -(4.0 / 3.0 - (2.0 / 3.0) * lm + 2.0 - b2) / lm
    # p - 1 is proportional to the margin of the gamma (lam) clause.  Within
    # a few ulps of that edge the exact p - 1 can lie below half the double
    # spacing at 1, so p rounds to 1 although the clause holds; the bounds
    # that use p need p > 1 as computed.  Checked only when every exponent
    # clause holds, so that it names just that rounding edge.
    if not clauses:
        check(p_gamma > 1.0 and p_lambda > 1.0,
              "computed p_gamma, p_lambda > 1")
    p = min(p_gamma, p_lambda)
    q = 2.0 * p / (1.0 + p) if p > -1.0 else math.nan

    # Pointwise bound pc' <= tau/a, sampled on a fine interior grid.  Under the
    # clauses above it holds with room to spare; the sample guards typos in
    # hand-edited exponent sets.
    if not clauses:
        grid = np.linspace(1e-6, 1.0 - 1e-6, 10_001)
        c = eval_coeffs(grid, params)
        finite = np.isfinite(c.tau_over_a) & np.isfinite(c.pc_prime)
        if not np.all(c.pc_prime[finite] <= c.tau_over_a[finite] * (1.0 + 1e-12)):
            clauses.append("pc_prime <= tau_over_a (sampled)")

    return AssumptionReport(
        accepted=not clauses,
        violated_clauses=tuple(clauses),
        alpha1=alpha1,
        alpha2=alpha2,
        p_gamma=p_gamma,
        p_lambda=p_lambda,
        p=p,
        q=q,
    )


def _piecewise_quadratic_sup(dc, knots):
    """Exact supremum of the piecewise quadratic with coefficients dc on the
    table knots (a table derivative from ``_beta_table``).

    Checks breakpoints plus the interior critical point of each quadratic
    piece (the root of its linear derivative) that falls inside the piece,
    each evaluated by ``_eval_table``.
    """
    candidates = [_eval_table(dc, knots, knots)]
    a2, a1 = dc[0], dc[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        t_star = -a1 / (2.0 * a2)
    dx = np.diff(knots)
    inside = np.isfinite(t_star) & (t_star > 0.0) & (t_star < dx)
    if np.any(inside):
        idx = np.flatnonzero(inside)
        candidates.append(_eval_table(dc, knots, knots[:-1][idx] + t_star[idx]))
    return float(np.max(np.concatenate(candidates)))


@lru_cache(maxsize=32)
def _sup_beta_prime_cached(lam, gamma, gamma1):
    p = ModelParams(n_species=1, lam=lam, gamma=gamma, gamma1=gamma1,
                    beta1=6.0, beta2=6.0, s_gamma=(0.5,))
    grid = np.concatenate([
        np.linspace(0.0, 1.0, 100_001),
        1.0 - np.geomspace(1e-14, 1e-5, 200),
        np.geomspace(1e-14, 1e-5, 200),
    ])
    sup_tau = float(np.max(_tau(grid, p)))
    # The tabulated beta is what the scheme differences nodally, so the exact
    # supremum of the interpolant's (piecewise-quadratic) derivative is the
    # Lipschitz constant that enters the entropy-check weighting.
    _, dc, knots, _ = _beta_table(lam, gamma, gamma1)
    sup_table = _piecewise_quadratic_sup(dc, knots)
    return max(sup_tau, sup_table)


def sup_beta_prime(params: ModelParams) -> float:
    """Supremum of beta' over [0,1]: the larger of the fine-grid sup of tau
    and the exact sup of the tabulated interpolant's derivative (equals 1 up
    to table error when gamma > gamma1, approached as s -> 1)."""
    return _sup_beta_prime_cached(params.lam, params.gamma, params.gamma1)
