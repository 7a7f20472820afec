"""Mesh, nodal fields and the assembled linear system: structure, symmetry,
the equilibrium null property, and the history load."""

import warnings

import numpy as np
import pytest
from scipy import sparse

from capmix import constitutive as cst
from capmix import entropy as ent
from capmix import fem
from capmix import solver
from capmix.errors import (ArgumentError, AssemblyError, DomainError,
                           RootFindError)

P0 = cst.default_params()
SPEC = ent.DiffusionMatrixSpec()
P8 = cst.default_params(n_species=8, s_gamma=(0.05,) * 8)
SPEC_WEIGHTED = ent.DiffusionMatrixSpec(kind="state_weighted", d0=1.0, d1=2.0)


def test_build_mesh_basic():
    mesh = fem.build_mesh(8, 0.0, 2.0)
    assert mesh.num_cells == 8
    assert mesh.num_nodes == 9
    assert mesh.x_left == 0.0 and mesh.x_right == 2.0
    assert np.allclose(mesh.widths, 0.25, atol=1e-15)


@pytest.mark.parametrize("bad", [(1, 0.0, 1.0), (2.5, 0.0, 1.0),
                                 (4, 1.0, 1.0), (4, 2.0, 1.0)])
def test_build_mesh_validation(bad):
    with pytest.raises(ArgumentError):
        fem.build_mesh(*bad)


@pytest.mark.parametrize("nodes, fragment", [
    ([0.0, 1.0], "at least 2 cells"),
    ([[0.0, 0.5, 1.0]], "at least 2 cells"),
    ([0.0, 0.5, 0.5, 1.0], "strictly increasing"),
])
def test_mesh_validation(nodes, fragment):
    with pytest.raises(ArgumentError, match=fragment):
        fem.Mesh(np.array(nodes))


def test_mesh_arrays_are_cached_read_only():
    nodes = np.linspace(0.0, 1.0, 5)
    mesh = fem.Mesh(nodes)
    nodes[1] = 0.9  # the mesh holds its own copy
    assert mesh.nodes[1] == 0.25
    assert mesh.widths is mesh.widths
    assert mesh.lumped_masses is mesh.lumped_masses
    for arr in (mesh.nodes, mesh.widths, mesh.lumped_masses):
        with pytest.raises(ValueError):
            arr[0] = 1.0
    assert mesh.lumped_masses[0] == 0.125


def test_lumped_mass_partitions_length():
    mesh = fem.build_mesh(10, 0.0, 3.0)
    m = mesh.lumped_masses
    assert m.sum() == pytest.approx(3.0, abs=1e-14)
    assert m[0] == pytest.approx(0.15, abs=1e-15)
    assert m[-1] == pytest.approx(0.15, abs=1e-15)
    assert np.allclose(m[1:-1], 0.3, atol=1e-15)


def test_constant_field_and_admissibility():
    mesh = fem.build_mesh(6)
    field = fem.constant_field(mesh, P0)
    assert field.values.shape == (7, 3)
    assert np.array_equal(field.values, np.tile(P0.s_gamma, (7, 1)))
    field.check_admissible(P0)


def test_nodal_field_validation():
    mesh = fem.build_mesh(4)
    with pytest.raises(ArgumentError):
        fem.NodalField(np.zeros((3, 2)), mesh)
    with pytest.raises(DomainError):
        fem.NodalField(np.full((5, 2), np.nan), mesh)
    vals = np.tile(P0.s_gamma, (5, 1))
    vals[2] = (0.6, 0.3, 0.2)  # total > 1 inside
    with pytest.raises(DomainError):
        fem.NodalField(vals, mesh).check_admissible(P0)
    vals = np.tile(P0.s_gamma, (5, 1))
    vals[0, 0] = 0.2  # boundary row off the boundary composition
    with pytest.raises(DomainError):
        fem.NodalField(vals, mesh).check_admissible(P0)
    with pytest.raises(ArgumentError, match="species count"):
        fem.constant_field(mesh, P0).check_admissible(P8)


def test_beta_gradient_field_constant_state_is_zero():
    mesh = fem.build_mesh(12)
    g = fem.beta_gradient_field(fem.constant_field(mesh, P0), P0)
    assert g.shape == (12, 2)
    assert np.array_equal(g, np.zeros((12, 2)))


def test_beta_gradient_field_linear_profile():
    mesh = fem.build_mesh(10)
    slope = 0.2
    totals = 0.3 + slope * mesh.nodes
    vals = np.column_stack([totals / 3.0] * 3)
    field = fem.NodalField(vals, mesh)
    g = fem.beta_gradient_field(field, P0)
    # tau evaluated at the interpolated totals of the two Gauss points per
    # cell, times the constant chord slope of the total.
    tot_q = fem._interp_cells(totals, fem._Q_XI)
    expected = cst.eval_coeffs(tot_q, P0).tau * slope
    assert np.allclose(g, expected, rtol=1e-13, atol=0)


def _sine_setup(num_cells=16, params=P0):
    mesh = fem.build_mesh(num_cells)
    s_prev = solver.sine_perturbation_initial(mesh, params, amplitude=0.1)
    grad_beta = fem.beta_gradient_field(s_prev, params)
    return mesh, s_prev, grad_beta


ASSEMBLED_CASES = pytest.mark.parametrize("num_cells, params, spec", [
    pytest.param(16, P0, SPEC, id="16-cells-3-species"),
    # One interior node: both outer blocks are dropped from the same row.
    pytest.param(2, P0, SPEC, id="2-cells-3-species"),
    pytest.param(3, P0, SPEC, id="3-cells-3-species"),
    pytest.param(16, P8, SPEC_WEIGHTED, id="16-cells-8-species-weighted"),
])


def _assembled_case(num_cells, params, spec):
    mesh, s_prev, grad_beta = _sine_setup(num_cells, params)
    rng = np.random.default_rng(5)
    w = fem.NodalField(
        0.05 * rng.standard_normal((mesh.num_nodes, params.n_species)), mesh)
    return mesh, fem.assemble_system(w, s_prev, params, spec, 1.0, grad_beta)


@ASSEMBLED_CASES
def test_assembled_system_shape_and_symmetry(num_cells, params, spec):
    n_species = params.n_species
    mesh, system = _assembled_case(num_cells, params, spec)
    ni = mesh.num_nodes - 2
    n_int = ni * n_species
    assert system.blocks.shape == (ni, 3, n_species, n_species)
    assert system.rhs.shape == (n_int,)
    # The outer blocks of the first and last rows lie outside the operator.
    assert not system.blocks[0, 0].any() and not system.blocks[-1, 2].any()
    dense = solver._csc_operator(system).toarray()
    assert dense.shape == (n_int, n_int)
    # Bitwise symmetric by construction (symmetric outer products only).
    assert np.max(np.abs(dense - dense.T)) == 0.0
    assert np.linalg.eigvalsh(dense).min() > 0.0


def _bsr_operator(system):
    """The operator built by scipy as BSR from the system's node blocks:
    -stiff, diagonal, -stiff on block row p, outer blocks dropped on the
    first and last rows."""
    ni, _, n, _ = system.blocks.shape
    cols = np.arange(ni)[:, None] + np.array([-1, 0, 1])
    indptr = np.clip(3 * np.arange(ni + 1) - 1, 0, 3 * ni - 2)
    return sparse.bsr_matrix(
        (system.blocks.reshape(3 * ni, n, n)[1:-1], cols.ravel()[1:-1],
         indptr), shape=(ni * n, ni * n))


@ASSEMBLED_CASES
def test_assembled_csc_arrays_are_the_block_operator(num_cells, params, spec):
    # The solver gathers the node blocks straight into CSC.  Being bitwise
    # symmetric, the operator's CSC arrays must be the CSR arrays of the
    # block matrix, explicit zeros included, and splu must take it without
    # a format conversion.
    _, system = _assembled_case(num_cells, params, spec)
    mat = solver._csc_operator(system)
    assert mat.format == "csc"
    csr = _bsr_operator(system).tocsr()
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(mat, name), getattr(csr, name)), name
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solver.solve_linear(system)


def test_operator_pattern_is_shared_and_read_only():
    _, first = _assembled_case(16, P0, SPEC)
    _, second = _assembled_case(16, P0, SPEC)
    first, second = solver._csc_operator(first), solver._csc_operator(second)
    for name in ("indices", "indptr"):
        assert np.shares_memory(getattr(first, name), getattr(second, name))
    with pytest.raises(ValueError):
        first.indices[0] = 1


def test_assembled_load_scales_linearly_in_sigma():
    mesh, s_prev, grad_beta = _sine_setup()
    rng = np.random.default_rng(6)
    w = fem.NodalField(0.05 * rng.standard_normal((mesh.num_nodes, 3)), mesh)
    full = fem.assemble_system(w, s_prev, P0, SPEC, 1.0, grad_beta)
    half = fem.assemble_system(w, s_prev, P0, SPEC, 0.5, grad_beta)
    assert np.array_equal(half.rhs, 0.5 * full.rhs)


def test_equilibrium_assembly_has_zero_load():
    mesh = fem.build_mesh(16)
    eq = fem.constant_field(mesh, P0)
    w0 = fem.NodalField(np.zeros((mesh.num_nodes, 3)), mesh)
    system = fem.assemble_system(w0, eq, P0, SPEC, 1.0)
    assert np.array_equal(system.rhs, np.zeros_like(system.rhs))


def test_history_memory_enters_the_load():
    mesh = fem.build_mesh(16)
    eq = fem.constant_field(mesh, P0)
    w0 = fem.NodalField(np.zeros((mesh.num_nodes, 3)), mesh)
    uniform = np.full((mesh.num_cells, 2), 0.05)
    system = fem.assemble_system(w0, eq, P0, SPEC, 1.0, grad_beta_prev=uniform)
    # A uniform carried flux telescopes across interior nodes: divergence-free.
    assert np.array_equal(system.rhs, np.zeros_like(system.rhs))
    varying = uniform * np.linspace(0.0, 1.0, mesh.num_cells)[:, None]
    system = fem.assemble_system(w0, eq, P0, SPEC, 1.0, grad_beta_prev=varying)
    # A varying carried gradient drives the state away from rest.
    assert float(np.abs(system.rhs).max()) > 0.0


def test_assemble_validates_inputs():
    mesh, s_prev, _ = _sine_setup()
    w0 = fem.NodalField(np.zeros((mesh.num_nodes, 3)), mesh)
    with pytest.raises(ArgumentError):
        fem.assemble_system(w0, s_prev, P0, SPEC, 1.5)
    with pytest.raises(ArgumentError):
        fem.assemble_system(w0, s_prev, P0, SPEC, 1.0,
                            grad_beta_prev=np.zeros((3, 2)))
    other = fem.build_mesh(8)
    s_other = fem.constant_field(other, P0)
    with pytest.raises(ArgumentError):
        fem.assemble_system(w0, s_other, P0, SPEC, 1.0)


def test_assembly_refuses_an_iterate_it_cannot_recover():
    # One interior node spanning 800 underflows a species in the recovery;
    # the solver treats the AssemblyError as a refused trial iterate.
    mesh, s_prev, grad_beta = _sine_setup()
    values = np.zeros((mesh.num_nodes, 3))
    values[3, 1] = -800.0
    w = fem.NodalField(values, mesh)
    with pytest.raises(AssemblyError) as info:
        fem.assemble_system(w, s_prev, P0, SPEC, 1.0, grad_beta)
    assert isinstance(info.value.__cause__, DomainError)


@pytest.mark.parametrize("node_w", [
    pytest.param((1e100, 0.0, 0.0), id="one-species-huge"),
    pytest.param((-1e250,) * 3, id="all-species-hugely-negative"),
])
def test_assembly_refuses_an_iterate_whose_root_find_fails(node_w):
    # Such an interior node stalls the total-saturation root-find.  Like a
    # refused recovery, that is a refused trial iterate, not a crash.
    mesh, s_prev, grad_beta = _sine_setup(8)
    values = np.zeros((mesh.num_nodes, 3))
    values[4] = node_w
    w = fem.NodalField(values, mesh)
    with pytest.raises(AssemblyError, match="state recovery failed") as info:
        fem.assemble_system(w, s_prev, P0, SPEC, 1.0, grad_beta)
    assert isinstance(info.value.__cause__, RootFindError)


@pytest.mark.parametrize("poisoned, fragment", [
    ("alpha", "in the operator"),          # one flux point's blocks
    ("node_mobility", "in the operator"),  # one interior node's time term
    ("grad_beta_prev", "in the load"),     # the carried gradient memory
])
def test_assembly_refuses_a_non_finite_coefficient(monkeypatch, poisoned,
                                                   fragment):
    mesh, s_prev, grad_beta = _sine_setup()
    if poisoned == "grad_beta_prev":
        grad_beta = grad_beta.copy()
        grad_beta[3, 0] = np.nan
    else:
        coefficients = fem._point_coefficients

        def with_a_nan(*args, **kwargs):
            coef = coefficients(*args, **kwargs)
            coef[poisoned][1] = np.nan
            return coef

        monkeypatch.setattr(fem, "_point_coefficients", with_a_nan)
    w = fem.NodalField(np.zeros((mesh.num_nodes, 3)), mesh)
    with pytest.raises(AssemblyError, match=fragment):
        fem.assemble_system(w, s_prev, P0, SPEC, 1.0, grad_beta)


def test_positive_semidefinite_without_regularisation():
    params0 = cst.default_params(eps=0.0)
    mesh = fem.build_mesh(16)
    s_prev = solver.sine_perturbation_initial(mesh, params0, amplitude=0.1)
    rng = np.random.default_rng(7)
    w = fem.NodalField(0.05 * rng.standard_normal((mesh.num_nodes, 3)), mesh)
    system = fem.assemble_system(w, s_prev, params0, SPEC, 1.0)
    dense = solver._csc_operator(system).toarray()
    for _ in range(200):
        v = rng.standard_normal(dense.shape[0])
        v /= np.linalg.norm(v)
        assert float(v @ dense @ v) >= -1e-10


def test_assembly_recovers_all_points_in_one_call(monkeypatch):
    mesh, s_prev, grad_beta = _sine_setup()
    rng = np.random.default_rng(8)
    w = fem.NodalField(0.05 * rng.standard_normal((mesh.num_nodes, 3)), mesh)
    calls = []
    recover = ent._state_from_w_many

    def counted(w_pts, prev_tot, params):
        calls.append(len(prev_tot))
        return recover(w_pts, prev_tot, params)

    monkeypatch.setattr(ent, "_state_from_w_many", counted)
    fem.assemble_system(w, s_prev, P0, SPEC, 1.0, grad_beta)
    assert calls == [2 * mesh.num_cells + mesh.num_nodes]


def test_flux_point_coefficients_are_the_full_evaluation_split():
    # With flux_points = k every entry covers the first k points, bitwise as
    # the full evaluation gives them, and node_mobility the remaining ones.
    rng = np.random.default_rng(9)
    s = rng.uniform(0.05, 0.25, size=(7, 3))
    total = s.sum(axis=1)
    full = fem._point_coefficients(s, total, P0, SPEC_WEIGHTED)
    split = fem._point_coefficients(s, total, P0, SPEC_WEIGHTED, flux_points=4)
    assert set(split) == set(full) | {"node_mobility"}
    for key, value in full.items():
        assert np.array_equal(split[key], value[:4]), key
    assert np.array_equal(split["node_mobility"], full["mobility"][4:])
