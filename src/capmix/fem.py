"""1d P1 finite elements: mesh, nodal fields, and the linearised system.

One implicit time step solves, for the entropy variables w (zero on the
boundary), the frozen-coefficient variational problem

    sum_il  int [ M_il(S*) G(S*) + D_il(S*) + eps (S_i*/S*) delta_il ]
            grad w_l . grad phi_i  dx  =  sigma * F(phi),

with G(S) = (a(S)/S) (pc'(S) + tau(S)/kappa) and the load obtained by moving
the known-state terms of the implicit Euler equation to the right:

    F(phi) = - sum_i int (S_i* - S_i^prev)/kappa phi_i dx
             + (1/kappa) sum_i int (S_i*/S*) (tau(S*) - a(S*) pc'(S*))
                                / f'(S*) * g_prev . grad phi_i dx,

where f'(S) = tau(S)/a(S) + tau(S)/kappa is the derivative of the scalar
inversion map and g_prev is the previous beta-gradient (tau(S^prev) grad
S^prev sampled at the assembly quadrature points, or the gradient memory
carried by a running simulation).  The history coefficient is the exact
chain-rule rewrite of the dynamic-capillarity flux: grad S couples to both
grad w and grad S^prev through the state recovery, the grad S^prev share
being tau(S^prev)/(kappa f'(S*)).  Dropping that share (i.e. using the
plain coefficient a tau(S^prev)/kappa) loses the telescoping structure of
the flux dissipation and measurably breaks the per-step entropy inequality:
on the reference run (64 cells, T = 0.05) the check's margin is then
-4.2e-2 at step 1 and -24.5 at step 35, where the exact coefficient keeps
every margin above 1.4e-3.  The coefficient is nonnegative exactly because
pc' <= tau/a.

Starred quantities are recovered pointwise from the interpolated current
iterate w* (per-quadrature-point state recovery keeps the mobility block
pointwise symmetric PSD).  The time term is mass-lumped, and additionally
linearised in w around the iterate (quasi-Newton block), which leaves the
fixed points untouched but makes the stiff time-term feedback implicit.

Assembly is fully vectorised over cells and recovers the quadrature points
and the nodes in one stacked call.  Every per-point coefficient has its one
definition in ``_point_coefficients``, which the diagnostics module reuses
with the same interpolation/recovery helpers, so the dissipation budget and
the weak residual see the identical quadrature and fluxes as assembly; at
the nodes assembly asks it only for the mobility that the time term needs.
Assembly hands the operator on as the stack of its (n, n) node blocks, the
form it builds it in; the storage a solve needs (CSC for the sparse LU) is
the solver's business.  A mesh computes its cell widths and lumped masses
once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import constitutive as cst
from . import entropy as ent
from .errors import ArgumentError, AssemblyError, DomainError, RootFindError

__all__ = [
    "Mesh",
    "NodalField",
    "LinearSystem",
    "build_mesh",
    "constant_field",
    "assemble_system",
    "beta_gradient_field",
]

# Two-point Gauss rule on the reference cell [0,1].
_Q_XI = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
_Q_W = np.array([0.5, 0.5])  # weights relative to cell width


@dataclass(frozen=True, eq=False)
class Mesh:
    """1d mesh on (x_left, x_right) with nodes at cell endpoints.

    The nodes are a read-only copy; the cell ``widths`` and the trapezoidal
    (lumped) nodal masses ``lumped_masses`` are computed once, read-only,
    because every assembly uses them.
    """

    nodes: np.ndarray

    def __post_init__(self):
        arr = np.array(self.nodes, dtype=float)
        if arr.ndim != 1 or arr.size < 3:
            raise ArgumentError("mesh needs at least 2 cells (3 nodes)")
        widths = np.diff(arr)
        if not (widths > 0).all():
            raise ArgumentError("mesh nodes must be strictly increasing")
        masses = np.zeros(arr.size)
        masses[:-1] += 0.5 * widths
        masses[1:] += 0.5 * widths
        for name, value in (("nodes", arr), ("widths", widths),
                            ("lumped_masses", masses)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def num_nodes(self):
        return self.nodes.size

    @property
    def num_cells(self):
        return self.nodes.size - 1

    @property
    def x_left(self):
        return float(self.nodes[0])

    @property
    def x_right(self):
        return float(self.nodes[-1])


def build_mesh(num_cells, x_left=0.0, x_right=1.0) -> Mesh:
    """Uniform mesh with num_cells >= 2 cells on (x_left, x_right)."""
    if not (float(num_cells).is_integer() and num_cells >= 2):
        raise ArgumentError(f"num_cells must be an integer >= 2; got {num_cells!r}")
    if not x_left < x_right:
        raise ArgumentError("x_left must be less than x_right")
    return Mesh(np.linspace(float(x_left), float(x_right), int(num_cells) + 1))


@dataclass(frozen=True, eq=False)
class NodalField:
    """Per-node composition vectors attached to a mesh.

    values has shape (num_nodes, n_species).  Interior rows must lie in the
    admissible set and boundary rows must equal the boundary composition;
    ``check_admissible`` enforces this against a parameter set.
    """

    values: np.ndarray
    mesh: Mesh

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", arr)
        if arr.ndim != 2 or arr.shape[0] != self.mesh.num_nodes:
            raise ArgumentError("values must be (num_nodes, n_species)")
        if not np.all(np.isfinite(arr)):
            raise DomainError("nodal values must be finite")

    @property
    def totals(self):
        return self.values.sum(axis=1)

    def check_admissible(self, params):
        """Interior rows in the open set; boundary rows exactly S^Gamma."""
        sg = np.asarray(params.s_gamma, dtype=float)
        if self.values.shape[1] != params.n_species:
            raise ArgumentError("field species count does not match params")
        v = self.values
        if not (np.all(v[1:-1] > 0.0) and np.all(v[1:-1].sum(axis=1) < 1.0)):
            raise DomainError("interior nodal state outside the admissible set")
        if not (np.array_equal(v[0], sg) and np.array_equal(v[-1], sg)):
            raise DomainError("boundary nodal states must equal the boundary composition")


def constant_field(mesh: Mesh, params) -> NodalField:
    """Field identically equal to the boundary composition."""
    sg = np.asarray(params.s_gamma, dtype=float)
    return NodalField(np.tile(sg, (mesh.num_nodes, 1)), mesh)


@dataclass(frozen=True, eq=False)
class LinearSystem:
    """Symmetric block-tridiagonal system over the interior degrees of
    freedom (node-major: unknown (node, species) at index node*n + species).

    blocks is the (num_interior, 3, n, n) stack of node blocks: block row p
    holds the blocks of columns p-1, p and p+1 at [p, 0..2].  The outer
    blocks of the first and last rows, [0, 0] and [-1, 2], lie outside the
    operator and are zero.  The operator is bitwise symmetric: blocks[p, 2]
    is the transpose of blocks[p+1, 0], and each diagonal block is
    symmetric."""

    blocks: np.ndarray
    rhs: np.ndarray


def _require_same_mesh(a: NodalField, b: NodalField, names):
    """Refuse, with ArgumentError naming ``names``, two fields whose meshes
    have different nodes."""
    if a.mesh is not b.mesh and not np.array_equal(a.mesh.nodes,
                                                   b.mesh.nodes):
        raise ArgumentError(f"{names} live on different meshes")


def _require_gradient_memory(grad_beta, mesh: Mesh, name):
    """A beta-gradient memory as a float array; refuses, with ArgumentError
    naming ``name``, one that is not (num_cells, num_q) on ``mesh``."""
    grad_beta = np.asarray(grad_beta, dtype=float)
    expected = (mesh.num_cells, _Q_XI.size)
    if grad_beta.shape != expected:
        raise ArgumentError(f"{name} must be (num_cells, num_q) = "
                            f"{expected}; got shape {grad_beta.shape}")
    return grad_beta


def _lumped_l2(vv, mesh: Mesh) -> float:
    """Mass-lumped L2 norm of (num_nodes, k) data (the fixed-point defect
    norm)."""
    return float(np.sqrt(np.sum(mesh.lumped_masses[:, None] * vv**2)))


# ---------------------------------------------------------------------------
# Interpolation and pointwise state recovery (shared with diagnostics)
# ---------------------------------------------------------------------------

def _interp_cells(nodal, xi):
    """Interpolate nodal data to per-cell reference points.

    nodal: (num_nodes, ...) -> (num_cells, len(xi), ...).  Uses the
    left-value-plus-increment form so constant data interpolates bitwise
    exactly (needed for exact equilibrium preservation).
    """
    left = nodal[:-1]
    right = nodal[1:]
    diff = right - left
    xi = np.asarray(xi)
    xi_shaped = xi.reshape((1, xi.size) + (1,) * (nodal.ndim - 1))
    return left[:, None, ...] + xi_shaped * diff[:, None, ...]


def _recover_points(w_pts, prev_tot_pts, params):
    """State recovery at stacked points of arbitrary leading shape.

    w_pts: (..., n), prev_tot_pts: (...).  Returns (s (..., n), total (...)).
    """
    lead, n = prev_tot_pts.shape, w_pts.shape[-1]
    s, total, _ = ent._state_from_w_many(
        w_pts.reshape(-1, n), prev_tot_pts.reshape(-1), params)
    return s.reshape(lead + (n,)), total.reshape(lead)


def _point_coefficients(s, total, params, spec, flux_points=None):
    """Per-point coefficients of the operator and load at recovered states.

    s: (..., n) components, total: (...).  Returns a dict of arrays with that
    leading shape: a, pc_prime, tau, f_prime = tau/a + tau/kappa, fractions
    y = s/S, the history coefficient (tau - a pc')/f' (nonnegative because
    pc' <= tau/a), mobility M = outer(s, s)/(S f') (bitwise symmetric) and
    alpha = M G + D(s) + eps diag(y) with G = (a/S)(pc' + tau/kappa).

    With flux_points = k, s is a flat (m, n) stack whose first k points are
    flux (quadrature) points and the rest nodes.  Every entry then covers the
    first k points only, and an extra entry node_mobility holds the mobility
    at the other m - k points, the one coefficient assembly reads there.
    """
    kappa = params.kappa
    coeff = cst.eval_coeffs(total, params)
    a, pcp, tau = coeff.a, coeff.pc_prime, coeff.tau
    fprime = coeff.tau_over_a + tau / kappa
    mob = s[..., :, None] * s[..., None, :] / (total * fprime)[..., None, None]
    out = {}
    if flux_points is not None:
        out["node_mobility"] = mob[flux_points:]
        s, total, a, pcp, tau, fprime, mob = (
            v[:flux_points] for v in (s, total, a, pcp, tau, fprime, mob))

    g = (a / total) * (pcp + tau / kappa)
    n = s.shape[-1]
    d = ent._diffusion_many(s.reshape(-1, n), spec).reshape(s.shape + (n,))
    y = s / total[..., None]
    alpha = mob * g[..., None, None] + d
    idx = np.arange(n)
    alpha[..., idx, idx] += params.eps * y

    out.update(a=a, pc_prime=pcp, tau=tau, f_prime=fprime, mobility=mob, y=y,
               history=(tau - a * pcp) / fprime, alpha=alpha)
    return out


def beta_gradient_field(state: NodalField, params) -> np.ndarray:
    """Gradient of beta(S) sampled at the assembly quadrature points.

    Returns (num_cells, num_q) values tau(S_q) * grad S|_cell where S_q is
    the interpolated nodal total and grad S the piecewise-constant gradient.
    This initialises the gradient memory of a run from nodal data; at a
    constant state it is exactly zero.
    """
    tot = state.totals
    tot_q = _interp_cells(tot, _Q_XI)                 # (nc, 2)
    grad_tot = (tot[1:] - tot[:-1]) / state.mesh.widths
    return cst._tau(tot_q, params) * grad_tot[:, None]


def _coefficient_blocks(w_star, s_prev, params, spec):
    """What the bilinear form and load need from the current iterate.

    Recovers the 2 num_cells quadrature points and the nodes in one stacked
    call and evaluates their coefficients once, the flux coefficients at the
    quadrature points only.  Returns the operator blocks
    alpha, fractions y and history coefficients at the quadrature points
    (leading shape (num_cells, num_q)), then the recovered states and the
    mobility blocks at the nodes (leading shape (num_nodes,)).
    """
    w = w_star.values
    prev_tot = s_prev.totals
    nn, n = w.shape
    q_shape = (nn - 1, _Q_XI.size)
    nq = q_shape[0] * q_shape[1]

    w_q = _interp_cells(w, _Q_XI).reshape(nq, n)
    prev_tot_q = _interp_cells(prev_tot, _Q_XI).reshape(nq)
    s, total = _recover_points(
        np.concatenate([w_q, w]), np.concatenate([prev_tot_q, prev_tot]),
        params)
    coef = _point_coefficients(s, total, params, spec, flux_points=nq)

    return (coef["alpha"].reshape(q_shape + (n, n)),
            coef["y"].reshape(q_shape + (n,)),
            coef["history"].reshape(q_shape),
            s[nq:], coef["node_mobility"])


def assemble_system(w_star: NodalField, s_prev: NodalField, params, spec,
                    sigma, grad_beta_prev=None) -> LinearSystem:
    """Assemble the linearised operator and load at the iterate w_star.

    Operator blocks per quadrature point: M(S*) G(S*) + D(S*) + eps diag(y*);
    load: minus the lumped time difference (S* - S^prev)/kappa plus the
    frozen history flux (S*_i/S*) (tau* - a* pc'*) / f'* g_prev / kappa,
    the whole load scaled by sigma.  Boundary rows are eliminated (w = 0
    there).  g_prev is the previous beta-gradient at the quadrature points;
    omitted, it is sampled from the previous nodal states.

    The time difference is additionally linearised in w around the iterate
    (S(w) ~ S* + M(S*)(w - w*) nodally), which moves the symmetric PSD block
    sigma (m_nu/kappa) M(S*_nu) into the matrix and the matching term into
    the load.  The fixed points are identical to the fully frozen load, but
    the stiff time-term feedback becomes implicit: without this the
    fixed-point map has a Jacobian of spectral radius well above one at
    practical time steps and plain damped iteration diverges.

    Raises AssemblyError where the state recovery or a frozen coefficient
    fails at the iterate.
    """
    _require_same_mesh(w_star, s_prev, "w_star and s_prev")
    mesh = w_star.mesh
    if not 0.0 <= sigma <= 1.0:
        raise ArgumentError("sigma must lie in [0, 1]")
    n = params.n_species
    nn = mesh.num_nodes
    h = mesh.widths
    m_lump = mesh.lumped_masses

    if grad_beta_prev is None:
        grad_beta_prev = beta_gradient_field(s_prev, params)
    grad_beta_prev = _require_gradient_memory(grad_beta_prev, mesh,
                                              "grad_beta_prev")

    try:
        alpha_q, y_q, hist_q, s_star_nodes, m_nodes = _coefficient_blocks(
            w_star, s_prev, params, spec)
    except (DomainError, RootFindError) as exc:
        raise AssemblyError(f"state recovery failed: {exc}") from exc

    # Per-cell coefficient matrix: width-weighted quadrature average of
    # M G + D + eps diag(y); the P1 gradients are constant per cell, so only
    # this average enters the stiffness block.
    c_bar = np.einsum("q,cqij->cij", _Q_W, alpha_q)  # (nc, n, n)
    # Time-term block (sigma/kappa) m_nu M(S*_nu) of each interior node.
    mass = (sigma / params.kappa) * m_lump[1:-1, None, None] * m_nodes[1:-1]

    if not (np.isfinite(c_bar).all() and np.isfinite(mass).all()):
        raise AssemblyError("non-finite frozen coefficient in the operator")

    # History flux, q-averaged per cell and species:
    # sum_q w_q y_iq (tau_q - a_q pc'_q)/f'_q g_prev_q / kappa.
    flux_hist = np.einsum("q,cqi->ci", _Q_W,
                          y_q * (hist_q * grad_beta_prev)[..., None])
    flux_hist /= params.kappa

    load = np.zeros((nn, n))
    load -= m_lump[:, None] * (s_star_nodes - s_prev.values) / params.kappa
    # Counterpart of the implicit time block: + (m/kappa) M(S*) w*.
    load += (m_lump[:, None] / params.kappa) * np.einsum(
        "vij,vj->vi", m_nodes, w_star.values)
    # grad phi of the left node is -1/h, of the right node +1/h; the cell
    # integral of flux.grad(phi) is therefore -/+ the averaged flux.
    load[:-1] -= flux_hist
    load[1:] += flux_hist
    load *= sigma

    if not np.isfinite(load).all():
        raise AssemblyError("non-finite frozen coefficient in the load")

    # Block tridiagonal over the interior nodes p = 0..ni-1 (node p+1), whose
    # left and right cells are p and p+1: block row p holds -stiff[p], the
    # diagonal (mass_p + stiff[p+1]) + stiff[p] and -stiff[p+1].  The first
    # and last rows have no outer neighbour (their outer cell touches the
    # boundary node, where w = 0), so those two blocks are zero.
    stiff = c_bar / h[:, None, None]  # (nc, n, n)
    blocks = np.stack([-stiff[:-1], (mass + stiff[1:]) + stiff[:-1],
                       -stiff[1:]], axis=1)  # (ni, 3, n, n)
    blocks[0, 0] = 0.0
    blocks[-1, 2] = 0.0
    return LinearSystem(blocks, load[1:-1].ravel())
