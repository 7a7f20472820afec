"""Constitutive laws: frozen high-precision oracles and structural checks.

Oracle values were computed independently with 50-digit arithmetic from the
closed forms (power-law coefficients, the kernel primitives A/B, and direct
quadrature of tau for beta) and are frozen here.
"""

import ast
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator

from capmix import constitutive as cst
from capmix.errors import ArgumentError, DomainError

P0 = cst.default_params()
SECONDARY = cst.ModelParams(lam=7.5, gamma=6.3, gamma1=6.2, beta1=5.8,
                            beta2=6.4)

# (a, pc_prime, tau, tau_over_a) at selected saturations.
COEFF_ORACLE_P0 = {
    0.25: (0.00018476788542926607, 4101.6186556927298,
           0.75819345489334153, 4103.4915409236397),
    0.5: (0.0049623680131832487, 128.0, 0.95277465853118374, 192.0),
    0.85: (1.7085857538992991e-6, 87794.146667242272,
           0.99999985033012344, 585279.28612769037),
}
COEFF_ORACLE_SECONDARY = {
    0.3: (0.00050428228562205624, 1087.9968387159546,
          0.88739833278070331, 1759.7253722407781),
    0.7: (0.00011965133905187531, 2228.2775830108912,
          0.99996034020771476, 8357.2849926416455),
}
F0_ORACLE_P0 = {0.25: -208.13022405121171, 0.5: 0.0, 0.85: 14627.198450199358}
E_ORACLE_P0 = {0.25: 12.140466392318244, 0.5: 0.0, 0.85: 435.69326028828346}
BETA_ORACLE_P0 = {0.0: -0.36828956324410131, 0.25: -0.21039272763123395,
                  0.5: 0.0, 0.75: 0.24804076943733566,
                  1.0: 0.49804030611293196}


def _assert_close(got, want, rtol=1e-13):
    assert math.isfinite(got)
    assert abs(got - want) <= rtol * max(1.0, abs(want)), (got, want)


@pytest.mark.parametrize("s", sorted(COEFF_ORACLE_P0))
def test_coefficients_against_oracle(s):
    c = cst.eval_coeffs(s, P0)
    a, pcp, tau, toa = COEFF_ORACLE_P0[s]
    _assert_close(c.a, a)
    _assert_close(c.pc_prime, pcp)
    _assert_close(c.tau, tau)
    _assert_close(c.tau_over_a, toa)


@pytest.mark.parametrize("s", sorted(COEFF_ORACLE_SECONDARY))
def test_coefficients_secondary_exponents(s):
    c = cst.eval_coeffs(s, SECONDARY)
    a, pcp, tau, toa = COEFF_ORACLE_SECONDARY[s]
    _assert_close(c.a, a)
    _assert_close(c.pc_prime, pcp)
    _assert_close(c.tau, tau)
    _assert_close(c.tau_over_a, toa)


def test_half_point_values_exact():
    c = cst.eval_coeffs(0.5, P0)
    assert c.pc_prime == 128.0
    assert c.tau_over_a == 192.0


def test_coefficients_vectorised_match_scalar():
    grid = np.array([0.25, 0.5, 0.85])
    c = cst.eval_coeffs(grid, P0)
    for k, s in enumerate(grid):
        cs = cst.eval_coeffs(float(s), P0)
        assert c.a[k] == cs.a
        assert c.pc_prime[k] == cs.pc_prime
        assert c.tau[k] == cs.tau
        assert c.tau_over_a[k] == cs.tau_over_a


def test_kernel_primitives_against_oracle():
    for s, want in F0_ORACLE_P0.items():
        _assert_close(cst.f0_integral(s, P0), want)
    for s, want in E_ORACLE_P0.items():
        _assert_close(cst.entropy_E(s, P0), want)


def test_kernel_convexity_and_slope():
    # E' = f0 by construction: central differences of E reproduce f0.
    grid = np.linspace(0.1, 0.9, 33)
    step = 1e-6
    fd = (cst.entropy_E(grid + step, P0) - cst.entropy_E(grid - step, P0)) / (2 * step)
    f0 = cst.f0_integral(grid, P0)
    assert np.max(np.abs(fd - f0) / np.maximum(1.0, np.abs(f0))) < 1e-7
    # E is nonnegative with its minimum at 1/2.
    assert np.all(cst.entropy_E(grid, P0) >= 0.0)


def test_f0_strictly_increasing():
    grid = np.linspace(1e-3, 1 - 1e-3, 500)
    vals = cst.f0_integral(grid, P0)
    assert np.all(np.diff(vals) > 0.0)


def test_beta_against_oracle():
    # The tabulated beta that transforms, assembly and diagnostics use, on
    # the closed interval.  Only s = 0 gets a looser pin: the first panel's
    # 7-point Gauss rule integrates tau ~ s^(gamma - gamma1) = s^0.2, which
    # is not smooth at 0, to about 3e-8; every other panel is exact to
    # rounding.
    for s, want in BETA_ORACLE_P0.items():
        got = float(cst._beta_hat(np.asarray(s), P0))
        tol = 1e-7 if s == 0.0 else 1e-13
        assert abs(got - want) <= tol * max(1.0, abs(want)), (s, got, want)


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.25, 1.75, math.nan, math.inf])
def test_domain_errors_outside_open_interval(bad):
    with pytest.raises(DomainError):
        cst.eval_coeffs(bad, P0)
    with pytest.raises(DomainError):
        cst.f0_integral(bad, P0)
    with pytest.raises(DomainError):
        cst.entropy_E(bad, P0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, 1.0])
def test_open_unit_check_names_the_first_bad_entry(bad):
    values = np.array([0.3, bad, 0.6, 2.0])
    with pytest.raises(DomainError) as info:
        cst._as_open_unit(values)
    assert str(info.value) == (
        f"saturation must lie strictly in (0,1); got {np.float64(bad)!r}")
    arr, scalar = cst._as_open_unit(np.array([0.3, 0.6]))
    assert not scalar and arr.tolist() == [0.3, 0.6]


@pytest.mark.parametrize("params", [P0, SECONDARY])
def test_beta_table_evaluation_is_bitwise_pchip(params):
    _, _, knots, cum = cst._beta_table(params.lam, params.gamma,
                                       params.gamma1)
    pch = PchipInterpolator(knots, cum)
    dpch = pch.derivative()
    rng = np.random.default_rng(20)
    x = np.concatenate([rng.random(100_000), knots, [0.0, 0.5, 1.0],
                        np.nextafter(knots[1:], 0.0),
                        np.nextafter(knots[:-1], 1.0)])
    assert np.array_equal(cst._beta_hat(x, params), pch(x))
    assert np.array_equal(cst._beta_hat_prime(x, params), dpch(x))
    grid = x[:12].reshape(3, 4)
    assert np.array_equal(cst._beta_hat(grid, params), pch(grid))


def _assert_pchip_matches_scipy(x, y):
    assert np.array_equal(cst._pchip_coefficients(x, y),
                          PchipInterpolator(x, y).c)


@pytest.mark.parametrize("params", [P0, SECONDARY])
def test_pchip_coefficients_match_scipy(params):
    c, dc, knots, cum = cst._beta_table(params.lam, params.gamma,
                                        params.gamma1)
    pch = PchipInterpolator(knots, cum)
    assert np.array_equal(c, pch.c)
    assert np.array_equal(dc, pch.derivative().c)
    # Non-uniform knots with interior sign changes and zero secants.
    rng = np.random.default_rng(31)
    for _ in range(50):
        x = np.cumsum(0.05 + rng.random(9))
        y = rng.standard_normal(9)
        y[rng.random(9) < 0.3] = 0.0
        _assert_pchip_matches_scipy(x, y)
    # End slopes that take both shape corrections at either end: with unit
    # spacing the three-point estimate is (3 m0 - m1)/2.
    x = np.arange(5.0)
    for y, left in [([0.0, 1.0, 5.0, 6.0, 7.0], 0.0),           # sign flip
                    ([0.0, 1.0, -9.0, -8.0, -7.0], 3.0)]:       # overshoot
        y = np.array(y)
        assert cst._pchip_coefficients(x, y)[2, 0] == left
        _assert_pchip_matches_scipy(x, y)
        _assert_pchip_matches_scipy(x, -y[::-1])


def test_validate_reference_parameters():
    rep = cst.validate_assumptions(P0)
    assert rep.accepted and rep.violated_clauses == ()
    assert abs(rep.alpha1 - (-1.9)) <= 1e-12
    assert abs(rep.alpha2 - (-2.0)) <= 1e-12
    _assert_close(rep.p_gamma, 1.043010752688172, 1e-15)
    _assert_close(rep.p_lambda, 1.0476190476190476, 1e-15)
    _assert_close(rep.p, 1.043010752688172, 1e-15)
    _assert_close(rep.q, 1.0210526315789474, 1e-15)


def test_validate_secondary_parameters():
    rep = cst.validate_assumptions(SECONDARY)
    assert rep.accepted
    _assert_close(rep.alpha1, -1.85, 1e-15)
    _assert_close(rep.alpha2, -2.2, 1e-15)
    _assert_close(rep.p_gamma, 1.0317460317460317, 1e-15)
    _assert_close(rep.p_lambda, 1.0755555555555556, 1e-15)
    _assert_close(rep.p, 1.0317460317460317, 1e-15)
    _assert_close(rep.q, 1.015625, 1e-15)


@pytest.mark.parametrize("override, clause", [
    ({"beta1": 4.9}, "5 < beta1"),
    ({"beta1": 6.5}, "beta1 <= gamma1"),
    ({"gamma": 5.9}, "gamma1 < gamma"),
    ({"gamma": 6.4}, "gamma < beta1/2 + (5/6)(gamma1 - 2)"),
    ({"beta2": 4.9}, "5 < beta2"),
    ({"lam": 5.9}, "beta2 <= lam"),
    ({"lam": 8.5}, "lam < 3 beta2 - 10"),
])
def test_validate_rejects_each_clause(override, clause):
    rep = cst.validate_assumptions(cst.default_params(**override))
    assert not rep.accepted
    assert any(v.startswith(clause) for v in rep.violated_clauses), \
        rep.violated_clauses


P_CLAUSE = "computed p_gamma, p_lambda > 1"


@pytest.mark.parametrize("override", [{"gamma": 6.4}, {"lam": 8.5}])
def test_out_of_range_exponent_is_not_refused_for_its_p(override):
    # These exponents make p <= 1 as well; the refusal names only the
    # exponent clause, since the computed-p clause is for the rounding edge.
    rep = cst.validate_assumptions(cst.default_params(**override))
    assert rep.p <= 1.0
    assert len(rep.violated_clauses) == 1
    assert P_CLAUSE not in rep.violated_clauses


@pytest.mark.parametrize("exponents", [
    # gamma one ulp below beta1/2 + (5/6)(gamma1 - 2).
    pytest.param(dict(beta1=6.0, gamma1=6.9961297012643815,
                      gamma=7.163441417720318, beta2=6.0, lam=6.0),
                 id="gamma-edge"),
    # lam just below 3 beta2 - 10.
    pytest.param(dict(beta1=6.0, gamma1=6.0, gamma=6.25,
                      beta2=7.8774452245312645, lam=13.63233567359379),
                 id="lambda-edge"),
])
def test_clause_edge_with_p_rounding_to_one_is_refused(exponents):
    # Both sets meet every exponent clause, but their exact p - 1 (from the
    # doubles, in rational arithmetic) is below half the double spacing at
    # 1: no correctly rounded p exceeds 1, and p > 1 is what the bounds use.
    f = {k: Fraction(v) for k, v in exponents.items()}
    exact_p_gamma = -(Fraction(10, 3) + f["gamma"]
                      - Fraction(5, 3) * f["gamma1"] - f["beta1"]) / f["gamma"]
    exact_p_lambda = -(Fraction(4, 3) - Fraction(2, 3) * f["lam"] + 2
                       - f["beta2"]) / f["lam"]
    exact_p = min(exact_p_gamma, exact_p_lambda)
    assert 0 < exact_p - 1 < Fraction(2.0**-53)
    rep = cst.validate_assumptions(cst.ModelParams(**exponents))
    assert not rep.accepted
    assert rep.violated_clauses == (P_CLAUSE,)
    assert rep.p == 1.0


def test_params_validation():
    with pytest.raises(ArgumentError):
        cst.ModelParams(n_species=0, s_gamma=())
    with pytest.raises(ArgumentError):
        cst.ModelParams(s_gamma=(0.5, 0.4, 0.2))
    with pytest.raises(ArgumentError):
        cst.ModelParams(s_gamma=(0.15, -0.1, 0.15))
    with pytest.raises(ArgumentError):
        cst.ModelParams(kappa=0.0)
    with pytest.raises(ArgumentError):
        cst.ModelParams(eps=-1e-6)
    with pytest.raises(ArgumentError):
        cst.ModelParams(s_gamma=(0.2, 0.2))
    # Every check is written so that a NaN fails it.
    for bad in ({"eps": math.nan}, {"s_gamma": (0.15, math.nan, 0.15)},
                {"kappa": math.nan}):
        with pytest.raises(ArgumentError):
            cst.ModelParams(**bad)
    for name in ("lam", "gamma", "gamma1", "beta1", "beta2"):
        with pytest.raises(ArgumentError, match=f"exponent {name} must be"):
            cst.ModelParams(**{name: 0.0})
    # The closed-form kernels divide by lam - 2 and gamma1 - 2.
    for name in ("lam", "gamma1"):
        kernel_edge = cst.ModelParams(**{name: 2.0})
        for kernel in (cst.f0_integral, cst.entropy_E):
            with pytest.raises(ArgumentError, match="lam > 2 and gamma1 > 2"):
                kernel(0.5, kernel_edge)
    assert cst.ModelParams(eps=0.0).eps == 0.0
    assert P0.total_gamma == pytest.approx(0.45, abs=1e-15)


def test_sup_beta_prime_reference():
    # tau <= 1 for these exponents with the supremum approached at s = 1;
    # the tabulated interpolant may exceed it only by interpolation noise.
    v = cst.sup_beta_prime(P0)
    assert 1.0 <= v <= 1.0 + 1e-9


def _sup_beta_prime_from_scipy(params):
    """sup_beta_prime rebuilt on scipy's PCHIP derivative, exactly as the
    supremum was formed from the PPoly object itself."""
    _, _, knots, cum = cst._beta_table(params.lam, params.gamma,
                                       params.gamma1)
    pp = PchipInterpolator(knots, cum).derivative()
    candidates = [pp(pp.x)]
    with np.errstate(divide="ignore", invalid="ignore"):
        t_star = -pp.c[1] / (2.0 * pp.c[0])
    inside = np.isfinite(t_star) & (t_star > 0.0) & (t_star < np.diff(pp.x))
    idx = np.flatnonzero(inside)
    candidates.append(pp(pp.x[:-1][idx] + t_star[idx]))
    sup_table = float(np.max(np.concatenate(candidates)))
    grid = np.concatenate([
        np.linspace(0.0, 1.0, 100_001),
        1.0 - np.geomspace(1e-14, 1e-5, 200),
        np.geomspace(1e-14, 1e-5, 200),
    ])
    return max(float(np.max(cst._tau(grid, params))), sup_table)


@pytest.mark.parametrize("params", [P0, SECONDARY])
def test_sup_beta_prime_is_bitwise_the_scipy_table_sup(params):
    # c_beta = 1/sup_beta_prime weights every entropy check, so not even its
    # last bit may move.
    assert cst.sup_beta_prime(params) == _sup_beta_prime_from_scipy(params)


def test_solve_path_imports_no_unused_scipy_subpackage(tmp_path):
    # A fresh interpreter: the test session itself has imported scipy widely.
    # Import, parsing, validation and the batch transforms load no scipy at
    # all; a run loads scipy.sparse.linalg at its first factorisation.
    config_path = tmp_path / "workload.cfg"
    config_path.write_text(
        "[model]\nn_species = 3\nkappa = 1e-3\neps = 1e-3\n"
        "[solver]\nt_end = 0.05\n[mesh]\nnum_cells = 64\n"
        "[diffusion]\nkind = scaled_projection\n"
        "[initial]\nprofile = sine_perturbation\namplitude = 0.1\n")
    script = f"""
import json
import sys
import numpy as np

def scipy_modules():
    return [m for m in sys.modules if m.startswith("scipy")]

loaded = {{}}
import capmix
loaded["import capmix"] = scipy_modules()
from capmix import cli, constitutive as cst, entropy, fem, runio, solver

config = runio.parse_config(open({str(config_path)!r}).read())
params, spec, *_ = runio.build_problem(config)
loaded["parse_config, build_problem"] = scipy_modules()
cst.validate_assumptions(params)
cst.sup_beta_prime(params)
loaded["validate_assumptions"] = scipy_modules()
# States drawn as the transform benchmark draws them.
rng = np.random.default_rng(1)
frac = rng.uniform(0.05, 1.0, size=(10_000, 3))
states = frac / frac.sum(axis=1, keepdims=True)
states *= rng.uniform(0.05, 0.92, size=10_000)[:, None]
prev = rng.uniform(0.05, 0.92, size=10_000)
w, _, _ = entropy.w_from_states(states, prev, params)
entropy.states_from_w(w, prev, params)
loaded["transform round trip"] = scipy_modules()
assert cli.main(["validate", {str(config_path)!r}]) == 0
loaded["capmix validate"] = scipy_modules()

mesh = fem.build_mesh(8)
init = solver.sine_perturbation_initial(mesh, params, amplitude=0.1)
solver.run_simulation(init, params, spec,
                      solver.SolverConfig(t_end=2 * params.kappa))
print(json.dumps([loaded, list(sys.modules)]))
"""
    # The child imports the same capmix this session tests.
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(cst.__file__)))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True, env=env).stdout
    loaded, after_run = json.loads(out.splitlines()[-1])
    assert loaded == dict.fromkeys(loaded, [])
    assert "capmix.solver" in after_run
    assert "scipy.sparse.linalg" in after_run
    unused = ("scipy.integrate", "scipy.optimize", "scipy.interpolate",
              "scipy.special")
    assert [m for m in after_run if m.startswith(unused)] == []


def test_only_the_solver_and_runio_import_scipy():
    # The step's linear algebra has one owner: assembly hands node blocks to
    # solver.solve_linear, and runio stamps scipy's version on the manifest.
    # No other module may import scipy.
    src = Path(cst.__file__).parent
    importers = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                importers.add(path.name)
    assert importers == {"solver.py", "runio.py"}


def valid_exponents(draw):
    beta1 = draw(st.floats(5.3, 7.5))
    g1_hi = min(beta1 + 2.0, 3.0 * beta1 - 10.0)
    gamma1 = draw(st.floats(beta1, g1_hi, exclude_max=True))
    g_hi = beta1 / 2.0 + (5.0 / 6.0) * (gamma1 - 2.0)
    # The open interval (gamma1, g_hi) may hold no float at all; such a
    # draw has no admissible gamma and is rejected, not an error.
    assume(math.nextafter(gamma1, math.inf) < g_hi)
    gamma = draw(st.floats(gamma1, min(g_hi, gamma1 + 3.0),
                           exclude_min=True, exclude_max=True))
    beta2 = draw(st.floats(5.3, 8.0))
    lam = draw(st.floats(beta2, 3.0 * beta2 - 10.0, exclude_max=True))
    return cst.ModelParams(lam=lam, gamma=gamma, gamma1=gamma1,
                           beta1=beta1, beta2=beta2)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_capillary_slope_dominated_for_valid_exponents(d):
    params = valid_exponents(d.draw)
    rep = cst.validate_assumptions(params)
    # At a clause edge the computed p can round to 1; only that clause may
    # then refuse the set.
    assert rep.accepted or rep.violated_clauses == (P_CLAUSE,), \
        rep.violated_clauses
    grid = np.linspace(1e-5, 1 - 1e-5, 2001)
    c = cst.eval_coeffs(grid, params)
    assert np.all(c.pc_prime <= c.tau_over_a)
    if rep.accepted:
        assert rep.p > 1.0 and 1.0 < rep.q < 2.0


@settings(max_examples=50, deadline=None)
@given(st.floats(1e-6, 1.0 - 1e-6))
def test_coefficients_positive_and_consistent(s):
    c = cst.eval_coeffs(s, P0)
    assert c.a > 0 and c.tau > 0 and c.pc_prime > 0 and c.tau_over_a > 0
    # tau/a from its own closed form agrees with the quotient where a is
    # comfortably representable.
    if c.a > 1e-250:
        assert c.tau / c.a == pytest.approx(c.tau_over_a, rel=1e-10)
    assert c.pc_prime <= c.tau_over_a
