"""Mixing free energy, chemical potentials and the entropy-variable transform.

For a composition vector S_1..S_n with total S = sum S_i in (0,1), the free
energy density is

    F(S_1..S_n) = sum_i S_i log(S_i/S) + E(S),

with E the convex kernel from :mod:`capmix.constitutive`.  Its gradient gives
the chemical potentials mu_i = log(S_i/S) + f0(S), and the relative free
energy F(S) - F(S^G) - mu(S^G).(S - S^G) is the density of the scheme's
Lyapunov functional.  ``free_energy``, ``chem_potentials`` and
``relative_free_energy`` are the only definitions of these quantities, used
by the per-step diagnostics as well: each takes component rows of shape
(..., n), one row being (n,), and refuses any row outside the admissible set
{S_i > 0, sum S_i < 1} with DomainError.  Each row is computed on its own,
so a stacked call equals the one-row calls bit for bit.

The entropy variable used by the implicit scheme shifts mu by its boundary
value and adds the (parallel to (1,..,1)) dynamic-capillarity increment:

    w_i = mu_i(S) - mu_i(S^G) + (beta(S) - beta(s_prev)) / kappa.

Inverting w -> S reduces to one scalar strictly-increasing equation

    f(S) = f0(S) - f0(S^G) + (beta(S) - beta(s_prev))/kappa = logsumexp-like rhs,

whose root gives the total; the fractions are a weighted softmax of w, and a
recovered row outside the admissible set raises DomainError.  The root is
found by a safeguarded Newton iteration on the bracket (0, 1) to the residual
|f(S) - c| <= 1e-12 (1 + |c|), evaluating f first at its start.  A
simulation's recovery starts at each point's previous total, which lies near
the root.  A cold batch (``states_from_w``) starts at a tabulated inverse of
the strictly increasing g(S) = f0(S) + beta(S)/kappa, since f(S) = c reads
g(S) = c + f0(S^G) + beta(s_prev)/kappa.  Both directions evaluate f through
the same helper, so the round-trip error is set by that residual target
(and the rounding of the stored sum log(S_i/S) + f(S)), not by any
quadrature error.

The public batch transforms ``w_from_states`` and ``states_from_w`` validate
the whole batch, then walk it in blocks of ``_BLOCK_ROWS`` rows, so a batch
needs memory for its outputs plus one block's temporaries.  Every row is
computed on its own, so the blocking changes no bit of any result.

Cross-diffusion matrices act on the complement of span{(1,..,1)}: the package
ships the scaled projection d0*Pi and a state-weighted Pi W(S) Pi family, both
sandwiched between d0 and d1 on that complement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import constitutive as cst
from .errors import ArgumentError, DomainError, RootFindError

__all__ = [
    "DiffusionMatrixSpec",
    "free_energy",
    "chem_potentials",
    "relative_free_energy",
    "project_orthogonal",
    "w_from_states",
    "states_from_w",
    "hypocoercivity_constants",
    "jmz_inequality_check",
]


@dataclass(frozen=True)
class DiffusionMatrixSpec:
    """Diffusion-matrix family: ``scaled_projection`` (d0 * Pi) or
    ``state_weighted`` (Pi diag(d0 + (d1-d0) S_i) Pi)."""

    kind: str = "scaled_projection"
    d0: float = 1.0
    d1: float = 1.0

    def __post_init__(self):
        if self.kind not in ("scaled_projection", "state_weighted"):
            raise ArgumentError(f"unknown diffusion matrix kind {self.kind!r}")
        if not self.d0 > 0:
            raise ArgumentError("d0 must be positive")
        if self.d1 < self.d0:
            raise ArgumentError("d1 must be at least d0")


# ---------------------------------------------------------------------------
# Free energy and potentials
# ---------------------------------------------------------------------------

def _admissible_rows(s):
    """Component rows (..., n) as a float array and their totals; any row
    outside {S_i > 0, sum S_i < 1} raises DomainError (one min and one max
    decide it, and a NaN or an infinity fails them)."""
    arr = np.asarray(s, dtype=float)
    if arr.ndim < 1 or arr.shape[-1] < 1:
        raise ArgumentError("component rows must have shape (..., n), n >= 1")
    total = arr.sum(axis=-1)
    if arr.size and not (arr.min() > 0.0 and total.max() < 1.0):
        bad = arr[~((arr > 0.0).all(axis=-1) & (total < 1.0))][0]
        raise DomainError(f"state {bad.tolist()} outside the admissible set "
                          "(need S_i > 0, sum < 1)")
    return arr, total


def free_energy(s, params):
    """F = sum S_i log(S_i/S) + E(S) per row of s (shape (..., n)); bounded
    below by -(1/e) n S."""
    arr, total = _admissible_rows(s)
    return (np.sum(arr * (np.log(arr) - np.log(total)[..., None]), axis=-1)
            + cst.entropy_E(total, params))


def chem_potentials(s, params):
    """mu_i = log(S_i/S) + f0(S) per row of s (shape (..., n)) — the
    gradient of free_energy."""
    arr, total = _admissible_rows(s)
    f0 = np.asarray(cst.f0_integral(total, params))
    return np.log(arr) - np.log(total)[..., None] + f0[..., None]


def relative_free_energy(s, params):
    """Bregman distance F(S) - F(S^G) - mu(S^G).(S - S^G) per row of s
    (shape (..., n)): nonnegative and exactly zero at S^G.

    Written as sum S_i (log(S_i/S) - log(S^G_i/S^G)) plus the kernel's own
    Bregman distance E(S) - E(S^G) - f0(S^G)(S - S^G), with the boundary
    constants of the transform.
    """
    arr, total = _admissible_rows(s)
    log_yg, f0_ref, sgt, _ = _f_scalar_terms(params)
    mixing = np.sum(arr * (np.log(arr) - np.log(total)[..., None] - log_yg),
                    axis=-1)
    return mixing + (cst.entropy_E(total, params) - cst.entropy_E(sgt, params)
                     - f0_ref * (total - sgt))


def project_orthogonal(v) -> np.ndarray:
    """Orthogonal projection onto the complement of span{(1,..,1)}:
    v - mean(v)."""
    arr = np.asarray(v, dtype=float)
    return arr - arr.mean(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# Entropy-variable transform
# ---------------------------------------------------------------------------

# Rows per block of the public batch transforms: a block's temporaries (the
# root-find keeps about ten arrays per unconverged point) stay in cache,
# while much smaller blocks pay per-call overhead.
_BLOCK_ROWS = 8192

# Relative residual target and iteration cap of the root-find for the total.
_ROOTFIND_TOL = 1e-12
_ROOTFIND_MAX_ITER = 100

# Knots of the table of g = f0 + beta_hat/kappa that starts cold root-finds:
# totals at logits evenly spaced over [-_G_TABLE_LOGIT, _G_TABLE_LOGIT].  At
# |logit| <= 36 every total rounds to a double strictly inside (0, 1).
_G_TABLE_KNOTS = 4097
_G_TABLE_LOGIT = 36.0


@lru_cache(maxsize=32)
def _f_scalar_terms(params):
    """Constants of f, once per parameter set: (log boundary fractions,
    f0(S^G), boundary total, boundary composition); the arrays are
    read-only because every caller shares them."""
    sg = np.asarray(params.s_gamma, dtype=float)
    sgt = float(sg.sum())
    log_yg = np.log(sg) - math.log(sgt)
    f0_ref = cst.f0_integral(sgt, params)
    log_yg.flags.writeable = False
    sg.flags.writeable = False
    return log_yg, f0_ref, sgt, sg


def _f_of_total(total, beta_prev, f0_ref, params):
    """f(S) = f0(S) - f0(S^G) + (beta(S) - beta(s_prev))/kappa, elementwise.

    ``beta_prev`` is the tabulated beta(s_prev) and ``f0_ref`` is f0(S^G);
    both are constant along a root-find, so callers compute them once.  Uses
    the tabulated beta shared by assembly and diagnostics; the transform is
    exactly self-inverse modulo the root residual because ``_w_many``
    evaluates this same function.  ``total`` must lie in (0, 1).
    """
    return (cst._f0_open(total, params) - f0_ref
            + (cst._beta_hat(total, params) - beta_prev) / params.kappa)


@lru_cache(maxsize=32)
@np.errstate(over="ignore")
def _g_table(params):
    """Tabulated inverse of the strictly increasing g(S) = f0(S) +
    beta_hat(S)/kappa, once per parameter set: (g_k, S_k), read-only.

    f(S) = c is g(S) = c + f0(S^G) + beta_hat(s_prev)/kappa, so ``np.interp``
    of that right-hand side over (g_k, S_k) lands near the root whatever the
    previous total, and inside (0, 1) for any c but NaN.  The totals sit
    at logit-spaced points, dense towards both ends of (0, 1); only the
    finite knots at which g strictly increases in floating point are kept.
    Built from the constitutive functions directly, not through
    ``_f_of_total``: it is no root-find work.
    """
    t = np.linspace(-_G_TABLE_LOGIT, _G_TABLE_LOGIT, _G_TABLE_KNOTS)
    s_k = 1.0 / (1.0 + np.exp(-t))
    g_k = cst._f0_open(s_k, params) + cst._beta_hat(s_k, params) / params.kappa
    finite = np.isfinite(g_k)
    s_k, g_k = s_k[finite], g_k[finite]
    rising = np.ones(g_k.size, dtype=bool)
    rising[1:] = g_k[1:] > np.maximum.accumulate(g_k)[:-1]
    s_k, g_k = s_k[rising], g_k[rising]
    g_k.flags.writeable = False
    s_k.flags.writeable = False
    return g_k, s_k


@np.errstate(over="ignore")
def _ds_dw(s, total, params):
    """dS/dw_j of the total at stacked points: s_j / (S f'(S)), with
    f'(S) = tau/a + tau/kappa > 0."""
    fp = cst._tau_over_a(total, params) + cst._tau(total, params) / params.kappa
    return s / (total * fp)[:, None]


@np.errstate(over="ignore")
def _w_many(s, total, s_prev_total, params):
    """Forward transform on stacked states.

    s: (m, n) components, total: (m,), s_prev_total: (m,).
    Returns (w (m,n), ds_dw (m,n), f_value (m,)).
    """
    log_yg, f0_ref, _, _ = _f_scalar_terms(params)
    f_val = _f_of_total(total, cst._beta_hat(s_prev_total, params), f0_ref, params)
    logy = np.log(s) - np.log(total)[:, None]
    w = (logy - log_yg[None, :]) + f_val[:, None]
    return w, _ds_dw(s, total, params), f_val


# f and f' overflow to inf near the ends of (0, 1), and a Newton quotient is
# then inf/inf; the safeguards handle both, so one context covers the call.
@np.errstate(over="ignore", invalid="ignore")
def _solve_total_many(c, s_prev_total, params, table_start=False):
    """Solve f(S) = c per point by safeguarded Newton (rtsafe).

    f is strictly increasing from -inf at 0 to +inf at 1, so (0, 1) brackets
    every root.  Each point is first evaluated at its start, which accepts
    points already converged there and bounds the root on one side.  A
    simulation's recovery (the default) starts at each point's previous
    total, which lies near the root.  A cold batch (``table_start``, used by
    ``states_from_w``) starts at the tabulated inverse of g (see
    ``_g_table``) and makes about 3 evaluations per point instead of 8.5.
    From there both take the same Newton steps, and each point keeps a
    bracket [lo, hi] that every evaluation shrinks.  The Newton step uses the
    derivative of the tabulated f, tau/a + beta_hat'/kappa; it is replaced by
    the bracket midpoint whenever it is not finite, leaves the open bracket
    (f' overflowing near 0 or 1 lands it on an edge) or is more than half the
    step before last (slow power-law progress far from the root).  While an
    edge is still 0 or 1 the midpoint halves the distance to that edge, which
    walks toward roots close to the state-space boundary geometrically.
    f0(S^G) and beta_hat(s_prev) are evaluated once, and only points that
    have not converged are iterated.

    Convergence target |f(S) - c| <= _ROOTFIND_TOL * (1 + |c|); a point that
    misses it after _ROOTFIND_MAX_ITER steps (a NaN c never meets it), or
    whose bracket closes on adjacent doubles first (a root nearer 1 than the
    double spacing there), raises RootFindError.  Returns (total, f(total)).
    """
    c = np.asarray(c, dtype=float)
    prev = np.asarray(s_prev_total, dtype=float)
    tol = _ROOTFIND_TOL * (1.0 + np.abs(c))
    _, f0_ref, _, _ = _f_scalar_terms(params)
    beta_prev = cst._beta_hat(prev, params)

    # Points already converged at their start are accepted without iterating.
    if table_start:
        g_k, s_k = _g_table(params)
        total = np.interp(c + (f0_ref + beta_prev / params.kappa), g_k, s_k)
    else:
        total = prev.copy()
    f_val = _f_of_total(total, beta_prev, f0_ref, params)
    todo = np.flatnonzero(~(np.abs(f_val - c) <= tol))
    if todo.size == 0:
        return total, f_val

    x, fx = total[todo], f_val[todo]
    cc, tt, bp = c[todo], tol[todo], beta_prev[todo]
    lo = np.zeros_like(x)
    hi = np.ones_like(x)
    dx = dx_old = np.ones_like(x)
    for _ in range(_ROOTFIND_MAX_ITER):
        below = fx < cc
        lo = np.where(below, x, lo)
        hi = np.where(below, hi, x)
        fp = (cst._tau_over_a(x, params)
              + cst._beta_hat_prime(x, params) / params.kappa)
        dn = (fx - cc) / fp
        newton = x - dn
        take = (np.isfinite(newton) & (newton > lo) & (newton < hi)
                & (np.abs(dn) <= 0.5 * dx_old))
        x_new = np.where(take, newton, 0.5 * (lo + hi))
        if ((x_new <= lo) | (x_new >= hi)).any():
            break  # some bracket holds no double strictly inside: a stall
        dx_old, dx = dx, np.abs(x_new - x)
        x = x_new
        fx = _f_of_total(x, bp, f0_ref, params)
        done = np.abs(fx - cc) <= tt
        if done.any():
            total[todo[done]] = x[done]
            f_val[todo[done]] = fx[done]
            keep = ~done
            if not keep.any():
                return total, f_val
            todo, x, fx, cc, tt, bp, lo, hi, dx, dx_old = (
                a[keep] for a in (todo, x, fx, cc, tt, bp, lo, hi, dx, dx_old))
    worst = float(np.max(np.abs(fx - cc) / (1.0 + np.abs(cc))))
    raise RootFindError(
        f"total-saturation inversion stalled at residual {worst:.3e} "
        f"(tolerance {_ROOTFIND_TOL:.1e})")


def _logsumexp_rows(a):
    """log(sum(exp(a))) along the rows of a finite (m, n) array, bit for bit
    as ``scipy.special.logsumexp``: log1p(s) + log(m) + max, with m the
    number of entries tied at the row maximum and s the sum of exp(a - max)
    over the others, divided by m."""
    a_max = a.max(axis=1, keepdims=True)
    top = a == a_max
    m = top.sum(axis=1, keepdims=True, dtype=float)
    s = np.exp(np.where(top, -np.inf, a) - a_max).sum(axis=1, keepdims=True)
    return (np.log1p(s / m) + np.log(m) + a_max)[:, 0]


def _state_from_w_many(w, s_prev_total, params, table_start=False):
    """Inverse transform on stacked points: softmax fractions of w times the
    total from the scalar root-find.

    w: (m, n) finite floats, s_prev_total: (m,) floats.  Returns (s (m,n),
    total (m,), f_value (m,)); ``states_from_w`` adds the derivative ds_dw,
    which assembly takes from its own coefficient evaluation instead.  A row
    outside the admissible set raises DomainError naming its w: a w spanning
    more than about 745 underflows a fraction to zero, and a large |f| (1e83
    at lam = 45) rounds the log-fractions out of w and sums a row to >= 1.
    """
    log_yg, _, sgt, sg = _f_scalar_terms(params)
    shifted = w + log_yg[None, :]
    c = _logsumexp_rows(shifted)
    total, f_val = _solve_total_many(c, s_prev_total, params, table_start)
    s = total[:, None] * np.exp(shifted - c[:, None])

    # At w = 0 with the previous total equal to the boundary total, the exact
    # root is the boundary state itself (f(S^G_total) = 0 and the fractions
    # reduce to the boundary fractions); return it bitwise so equilibrium is
    # preserved exactly instead of to round-off of logsumexp/softmax.  Each
    # row is computed on its own, so overwriting these changes no other row.
    snap = (s_prev_total == sgt) & (w == 0.0).all(axis=1)
    s[snap] = sg
    total[snap] = sgt
    f_val[snap] = 0.0
    sums = s.sum(axis=1)
    if s.size and not (s.min() > 0.0 and sums.max() < 1.0):
        row = w[~((s > 0.0).all(axis=1) & (sums < 1.0))][0]
        raise DomainError(f"entropy variables {row.tolist()} recover a state "
                          "outside the admissible set (need S_i > 0, sum < 1)")
    return s, total, f_val


def _by_blocks(block, *rows):
    """Apply ``block`` to consecutive slices of ``_BLOCK_ROWS`` rows of the
    arrays ``rows`` (which share their first axis) and gather the arrays it
    returns, row for row, into outputs of the full length.  A batch of one
    block returns that block's arrays."""
    m = rows[0].shape[0]
    if m <= _BLOCK_ROWS:
        return block(*rows)
    out = None
    for start in range(0, m, _BLOCK_ROWS):
        stop = start + _BLOCK_ROWS
        part = block(*(a[start:stop] for a in rows))
        if out is None:
            out = tuple(np.empty((m,) + p.shape[1:]) for p in part)
        for o, p in zip(out, part):
            o[start:stop] = p
    return out


def _batch_args(rows, s_prev_total, name):
    """``rows`` (m, n) and previous totals (m,) in (0, 1) as float arrays."""
    arr = np.asarray(rows, dtype=float)
    prev = np.asarray(s_prev_total, dtype=float)
    if arr.ndim != 2 or prev.shape != (arr.shape[0],):
        raise ArgumentError(f"need {name} of shape (m, n) and matching "
                            "previous totals")
    if not (np.all(prev > 0.0) and np.all(prev < 1.0)):
        raise DomainError("previous totals must lie in (0,1)")
    return arr, prev


def w_from_states(s, s_prev_total, params):
    """Vectorised forward transform on stacked states.

    s: (m, n) component rows, s_prev_total: (m,) previous totals.  Returns
    (w (m,n), ds_dw (m,n), f_value (m,)).  The whole batch is validated,
    then transformed in blocks of ``_BLOCK_ROWS`` rows.
    """
    arr, prev = _batch_args(s, s_prev_total, "s")
    arr, totals = _admissible_rows(arr)
    return _by_blocks(lambda s_b, t_b, p_b: _w_many(s_b, t_b, p_b, params),
                      arr, totals, prev)


def states_from_w(w, s_prev_total, params):
    """Vectorised inverse transform on stacked points.

    w: (m, n) entropy-variable rows, s_prev_total: (m,) previous totals.
    Returns (s (m,n), total (m,), ds_dw (m,n), f_value (m,)); the recovered
    rows lie in the admissible set, and a row that would not (see
    ``_state_from_w_many``) raises DomainError.  The whole batch is
    validated first (a non-finite w raises DomainError naming its first bad
    row, previous totals must lie in (0,1)), then the rows are recovered in
    blocks of ``_BLOCK_ROWS``; a RootFindError reports the worst residual of
    the block that failed.  The rows are taken as a cold batch: the
    root-find for the total starts from the tabulated inverse of g
    (``_g_table``), not from the previous total.
    """
    warr, prev = _batch_args(w, s_prev_total, "w")
    if warr.size and not (np.isfinite(warr.min()) and np.isfinite(warr.max())):
        row = warr[~np.isfinite(warr).all(axis=1)][0]
        raise DomainError(f"entropy variables {row.tolist()} are not finite")

    def block(w_b, prev_b):
        s, total, f_val = _state_from_w_many(w_b, prev_b, params,
                                             table_start=True)
        return s, total, _ds_dw(s, total, params), f_val

    return _by_blocks(block, warr, prev)


# ---------------------------------------------------------------------------
# Diffusion matrices on the complement of span{(1,..,1)}
# ---------------------------------------------------------------------------

def _projection_matrix(n):
    return np.eye(n) - np.full((n, n), 1.0 / n)


def _diffusion_many(s, spec: DiffusionMatrixSpec):
    """Stacked diffusion matrices for (m, n) component arrays -> (m, n, n),
    symmetric, annihilating constants, with spectrum in [d0, d1] on the
    complement of span{(1,..,1)}."""
    m, n = s.shape
    pi = _projection_matrix(n)
    if spec.kind == "scaled_projection":
        return np.broadcast_to(spec.d0 * pi, (m, n, n)).copy()
    wdiag = spec.d0 + (spec.d1 - spec.d0) * s
    out = np.einsum("ik,pk,kj->pij", pi, wdiag, pi)
    return 0.5 * (out + np.transpose(out, (0, 2, 1)))


def _complement_basis(n):
    """Orthonormal basis of the complement of span{(1,..,1)} (Householder)."""
    e = np.zeros(n)
    e[0] = 1.0
    u = np.full(n, 1.0 / math.sqrt(n)) - e
    nu = np.linalg.norm(u)
    h = np.eye(n) if nu == 0.0 else np.eye(n) - 2.0 * np.outer(u, u) / nu**2
    return h[:, 1:]


def hypocoercivity_constants(matrix) -> tuple:
    """(d_low, d_high): extreme Rayleigh quotients v.Dv/|Pi v|^2 over the
    complement of span{(1,..,1)}, via the eigen-decomposition of the matrix
    restricted to that subspace."""
    d = np.asarray(matrix, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ArgumentError("matrix must be square")
    n = d.shape[0]
    if n < 2:
        raise ArgumentError("restriction needs at least two species")
    scale = max(1.0, float(np.abs(d).max()))
    if float(np.abs(d - d.T).max()) > 1e-12 * scale:
        raise ArgumentError("matrix must be symmetric")
    q = _complement_basis(n)
    restricted = q.T @ d @ q
    eig = np.linalg.eigvalsh(0.5 * (restricted + restricted.T))
    return float(eig[0]), float(eig[-1])


def jmz_inequality_check(alpha, beta_v, v) -> bool:
    """Truth of |a.v|^2 + |v - (b.v)b|^2 >= (1/4)(a.b)^2 |v|^2 for unit a, b."""
    a = np.asarray(alpha, dtype=float)
    b = np.asarray(beta_v, dtype=float)
    vv = np.asarray(v, dtype=float)
    if abs(np.linalg.norm(a) - 1.0) > 1e-12 or abs(np.linalg.norm(b) - 1.0) > 1e-12:
        raise ArgumentError("alpha and beta_v must be unit vectors")
    lhs = float(a @ vv) ** 2 + float(np.sum((vv - (b @ vv) * b) ** 2))
    rhs = 0.25 * float(a @ b) ** 2 * float(vv @ vv)
    return bool(lhs >= rhs)
