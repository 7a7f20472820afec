"""Free energy, chemical potentials, the w <-> S transform and diffusion
matrices: frozen oracles plus the structural lemmas the scheme relies on."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from capmix import constitutive as cst
from capmix import entropy as ent
from capmix.errors import ArgumentError, DomainError, RootFindError

P0 = cst.default_params()

# Frozen 50-digit oracle at state (0.1, 0.2, 0.15), boundary (0.15,)*3.
ORACLE_STATE = (0.1, 0.2, 0.15)
ORACLE_F = -0.24907655941769678
ORACLE_MU = (-10.588145006931365, -9.8949978263714197, -10.182679898823201)
ORACLE_REL_F = 0.016989903679539747
ORACLE_F_EQUAL = -0.54930614433405485  # equal thirds at S = 1/2


def _random_states(rng, m, n=3, lo=0.02, hi=0.97):
    raw = rng.uniform(0.05, 1.0, size=(m, n))
    totals = rng.uniform(lo, hi, size=m)
    return raw / raw.sum(axis=1, keepdims=True) * totals[:, None]


def test_row_functions_refuse_inadmissible_rows():
    for fn in (ent.free_energy, ent.chem_potentials, ent.relative_free_energy):
        for bad in ([0.4, 0.7], [0.3, -0.1], [0.3, 0.0], [0.2, np.nan],
                    [[0.1, 0.2], [0.5, 0.5]], [[[0.1, 0.2]], [[np.inf, 0.1]]]):
            with pytest.raises(DomainError):
                fn(bad, P0)
        with pytest.raises(ArgumentError):
            fn(0.3, P0)


def test_row_functions_stack_bitwise():
    # Stacked rows, S^G rows among them, equal the one-row calls bit for
    # bit, in any leading shape; the relative free energy is exactly 0 at
    # S^G.
    rng = np.random.default_rng(10)
    rows = _random_states(rng, 12)
    rows[[3, 8]] = P0.s_gamma
    for fn in (ent.free_energy, ent.chem_potentials, ent.relative_free_energy):
        stacked = fn(rows, P0)
        single = np.array([fn(r, P0) for r in rows])
        assert stacked.tobytes() == single.tobytes(), fn.__name__
        assert fn(rows.reshape(3, 4, 3), P0).tobytes() == stacked.tobytes()
    rel = ent.relative_free_energy(rows, P0)
    assert rel[3] == 0.0 and rel[8] == 0.0
    assert ent.relative_free_energy(P0.s_gamma, P0) == 0.0


def test_free_energy_oracle():
    assert ent.free_energy(ORACLE_STATE, P0) == pytest.approx(ORACLE_F,
                                                              rel=1e-13)


def test_free_energy_equal_fractions():
    state = [1 / 6, 1 / 6, 1 / 6]
    assert ent.free_energy(state, P0) == pytest.approx(ORACLE_F_EQUAL,
                                                       rel=1e-14)
    mu = ent.chem_potentials(state, P0)
    assert np.allclose(mu, -math.log(3.0), rtol=0, atol=1e-14)


def test_chem_potentials_oracle():
    mu = ent.chem_potentials(ORACLE_STATE, P0)
    assert np.allclose(mu, ORACLE_MU, rtol=1e-13, atol=0)


def test_chem_potentials_are_free_energy_gradient():
    rng = np.random.default_rng(11)
    step = 1e-7
    states = _random_states(rng, 20, lo=0.2, hi=0.8)
    mu = ent.chem_potentials(states, P0)
    for i in range(3):
        up, dn = states.copy(), states.copy()
        up[:, i] += step
        dn[:, i] -= step
        fd = (ent.free_energy(up, P0) - ent.free_energy(dn, P0)) / (2 * step)
        assert np.all(np.abs(fd - mu[:, i])
                      <= 1e-6 * np.maximum(1.0, np.abs(mu[:, i])))


def test_free_energy_lower_bound():
    rng = np.random.default_rng(12)
    states = _random_states(rng, 200)
    f = ent.free_energy(states, P0)
    assert np.all(f >= -states.sum(axis=1) * math.log(3) - 1e-12)


def test_relative_free_energy_properties():
    assert ent.relative_free_energy(P0.s_gamma, P0) == 0.0
    assert ent.relative_free_energy(ORACLE_STATE, P0) == \
        pytest.approx(ORACLE_REL_F, rel=1e-11)
    rng = np.random.default_rng(13)
    states = _random_states(rng, 100)
    away = np.max(np.abs(states - np.asarray(P0.s_gamma)), axis=1) >= 1e-12
    assert np.all(ent.relative_free_energy(states[away], P0) > 0.0)
    # Convexity: the relative energy grows monotonically along a ray from
    # the boundary state towards the edge of the admissible set.
    direction = np.array([0.3, -0.05, 0.2])
    ts = np.linspace(0.05, 0.9, 12)
    vals = ent.relative_free_energy(
        np.asarray(P0.s_gamma) + ts[:, None] * direction * 0.5, P0)
    assert np.all(vals[1:] > vals[:-1])


def test_project_orthogonal():
    ones = np.ones(5)
    assert np.array_equal(ent.project_orthogonal(ones), np.zeros(5))
    v = np.array([1.0, -2.0, 1.0])
    assert np.allclose(ent.project_orthogonal(v), v, atol=1e-15)
    rng = np.random.default_rng(14)
    x = rng.normal(size=7)
    px = ent.project_orthogonal(x)
    assert np.allclose(ent.project_orthogonal(px), px, atol=1e-14)
    assert abs(px.sum()) < 1e-12


def test_boundary_state_maps_to_zero_exactly():
    sg = np.asarray(P0.s_gamma)
    w, _, f_val = ent.w_from_states(sg[None, :], sg.sum(keepdims=True), P0)
    assert np.array_equal(w, np.zeros((1, 3)))
    assert np.array_equal(f_val, np.zeros(1))


def test_zero_w_snaps_to_boundary_bitwise():
    sg = np.asarray(P0.s_gamma)
    s, total, _, f_val = ent.states_from_w(
        np.zeros((4, 3)), np.full(4, sg.sum()), P0)
    assert np.array_equal(s, np.tile(sg, (4, 1)))
    assert np.array_equal(total, np.full(4, sg.sum()))
    assert np.array_equal(f_val, np.zeros(4))


def test_round_trip_batch():
    # w stores log y_i + f(S) in one double, so the reachable round-trip
    # accuracy is ulp(|f|); the sampled range keeps |f| below ~1e6 where
    # 1e-10 absolute accuracy is representable.  Outside it the error grows
    # in proportion to f (polynomial blow-up of f0 at the endpoints).
    rng = np.random.default_rng(16)
    s = _random_states(rng, 2000, lo=0.05, hi=0.92)
    prev = rng.uniform(0.05, 0.92, size=2000)
    w, ds_dw, f_val = ent.w_from_states(s, prev, P0)
    s2, tot2, ds_dw2, f2 = ent.states_from_w(w, prev, P0)
    assert np.max(np.abs(s2 - s)) <= 1e-10
    assert np.max(np.abs(tot2 - s.sum(axis=1))) <= 1e-10
    # Derivative data is a function of the recovered point only.
    assert np.max(np.abs(ds_dw2 - ds_dw)) <= 1e-8


def test_batch_interface_validation():
    with pytest.raises(ArgumentError):
        ent.w_from_states(np.zeros((3, 2)), np.zeros(2), P0)
    with pytest.raises(ArgumentError):
        ent.states_from_w(np.zeros((3, 2)), np.full(2, 0.45), P0)
    with pytest.raises(ArgumentError):
        ent.states_from_w(np.zeros(3), np.full(3, 0.45), P0)
    with pytest.raises(DomainError):
        ent.w_from_states(np.full((2, 3), 0.4), np.full(2, 0.5), P0)
    with pytest.raises(DomainError):
        ent.states_from_w(np.zeros((2, 3)), np.array([0.5, 1.5]), P0)
    state = np.asarray([ORACLE_STATE])
    for bad in (0.0, 1.0):
        with pytest.raises(DomainError):
            ent.w_from_states(state, np.array([bad]), P0)
        with pytest.raises(DomainError):
            ent.states_from_w(np.zeros((1, 3)), np.array([bad]), P0)


def test_recovery_refuses_an_underflowing_species():
    # A row spanning more than about 745 underflows the softmax: species 2
    # would come back exactly 0, outside the admissible set.
    w = np.array([[0.0, -800.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(DomainError):
        ent.states_from_w(w, np.array([0.45, 0.45]), P0)
    with pytest.raises(DomainError):
        ent._state_from_w_many(w, np.array([0.45, 0.45]), P0)


def test_states_from_w_refuses_non_finite_w():
    # A non-finite w is refused by the whole-batch validation, naming the
    # first bad row, before any block is recovered.
    prev = np.full(4, 0.45)
    for bad in (np.nan, np.inf, -np.inf):
        w = np.zeros((4, 3))
        w[2, 1] = bad
        w[3, 0] = bad
        with pytest.raises(DomainError, match=r"\[0\.0, " + f"{bad}"
                           + r", 0\.0\] are not finite"):
            ent.states_from_w(w, prev, P0)


def test_inversion_far_from_previous_total():
    # Large |w| with previous totals near 0 or 1 puts the root far from the
    # Newton start, where steps overshoot the bracket or stall on the
    # power-law ends and the root-find falls back to bisection.
    rng = np.random.default_rng(20)
    m = 4000
    scales = 10.0 ** rng.uniform(0.0, math.log10(3000.0), size=(m, 1))
    w = scales * rng.standard_normal((m, 3))
    prev = rng.uniform(0.01, 0.99, size=m)
    log_yg = np.log(np.asarray(P0.s_gamma) / P0.total_gamma)
    c = logsumexp(w + log_yg, axis=1)
    total, f_val = ent._solve_total_many(c, prev, P0)
    assert np.all((total > 0.0) & (total < 1.0))
    assert np.all(np.abs(f_val - c) <= ent._ROOTFIND_TOL * (1.0 + np.abs(c)))
    # The public inverse starts from the tabulated inverse of g instead and
    # meets the same target on the same rows.  Rows spanning more than about
    # 745 underflow a species and are refused (see
    # test_recovery_refuses_an_underflowing_species), so it takes the rest.
    kept = np.ptp(w + log_yg, axis=1) < 700.0
    s, total_kept, _, f_kept = ent.states_from_w(w[kept], prev[kept], P0)
    tol = ent._ROOTFIND_TOL * (1.0 + np.abs(c[kept]))
    assert np.all(np.abs(f_kept - c[kept]) <= tol)
    assert np.all(s > 0.0) and np.all(s.sum(axis=1) < 1.0)
    # Both totals lie within the target of the one root, so they differ by
    # at most twice the target over the smallest slope of f on those rows.
    both = np.concatenate([total_kept, total[kept]])
    fp_min = np.min(cst._tau_over_a(both, P0)
                    + cst._beta_hat_prime(both, P0) / P0.kappa)
    assert np.all(np.abs(total_kept - total[kept]) <= 2.0 * tol / fp_min)


def test_cold_batch_starts_from_the_tabulated_inverse(monkeypatch):
    # A cold batch drawn like the benchmark's transform workload: the
    # previous totals say nothing about the roots.  Started at the previous
    # total the root-find makes about 8.5 evaluations of f per point; started
    # at the tabulated inverse of g, with no evaluation at the previous
    # total, it makes about 3.
    rng = np.random.default_rng(23)
    m = 10_000
    frac = rng.uniform(0.05, 1.0, size=(m, 3))
    frac /= frac.sum(axis=1, keepdims=True)
    states = frac * rng.uniform(0.05, 0.92, size=m)[:, None]
    prev = rng.uniform(0.05, 0.92, size=m)
    w, _, _ = ent.w_from_states(states, prev, P0)

    f_of_total = ent._f_of_total
    evals = [0]

    def counted(*args):
        evals[0] += args[0].size
        return f_of_total(*args)

    monkeypatch.setattr(ent, "_f_of_total", counted)
    _, _, _, f_val = ent.states_from_w(w, prev, P0)
    assert evals[0] <= 3.5 * m
    log_yg, _, _, _ = ent._f_scalar_terms(P0)
    c = ent._logsumexp_rows(w + log_yg)
    assert np.all(np.abs(f_val - c) <= ent._ROOTFIND_TOL * (1.0 + np.abs(c)))

    # A simulation's recovery starts at the previous total and evaluates f
    # there first.  With w taken at previous totals equal to the states'
    # own totals, those totals are the roots, and that one evaluation per
    # point is all it makes.
    totals = states.sum(axis=1)
    w_still, _, _ = ent.w_from_states(states, totals, P0)
    evals[0] = 0
    _, total, _ = ent._state_from_w_many(w_still, totals, P0)
    assert evals[0] == m
    assert np.array_equal(total, totals)

    g_k, s_k = ent._g_table(P0)
    assert np.all(np.diff(g_k) > 0.0) and np.all(np.diff(s_k) > 0.0)
    assert not g_k.flags.writeable and not s_k.flags.writeable
    again = ent._g_table(P0)
    assert again[0] is g_k and again[1] is s_k


def test_recovery_refuses_a_row_summing_past_one():
    # An exponent set the validator accepts, with f about 1e83 near a total
    # of 1: w and c lose the O(1) log-fractions, the softmax gives every
    # species a fraction near 1, and a row would come back with a total near
    # 3.  The recovery refuses it instead, naming its row of w.
    params = cst.default_params(lam=45.0, beta2=20.0)
    assert cst.validate_assumptions(params).accepted
    rng = np.random.default_rng(45)
    m = 20_000
    s = _random_states(rng, m, lo=0.01, hi=0.99)
    prev = rng.uniform(0.01, 0.99, size=m)
    w, _, _ = ent.w_from_states(s, prev, params)
    with pytest.raises(DomainError, match=r"entropy variables \[.*\] recover "
                       r"a state outside the admissible set"):
        ent.states_from_w(w, prev, params)


def test_blocking_changes_no_bit_and_no_error(monkeypatch):
    # 23 rows in blocks of 5: the last block is ragged, and the rows that
    # snap to the boundary state (w = 0 at the boundary total) sit in later
    # blocks.
    rng = np.random.default_rng(22)
    m = 23
    s = _random_states(rng, m, lo=0.05, hi=0.92)
    prev = rng.uniform(0.05, 0.92, size=m)
    sg = np.asarray(P0.s_gamma)
    snapped = [12, 21]
    s[snapped] = sg
    prev[snapped] = sg.sum()
    whole = ent.w_from_states(s, prev, P0)
    whole += ent.states_from_w(whole[0], prev, P0)
    monkeypatch.setattr(ent, "_BLOCK_ROWS", 5)
    blocked = ent.w_from_states(s, prev, P0)
    blocked += ent.states_from_w(blocked[0], prev, P0)
    assert not blocked[0][snapped].any()
    assert np.array_equal(blocked[3][snapped], np.tile(sg, (2, 1)))
    for a, b in zip(whole, blocked):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()

    # Errors of a later block still surface, naming what the block saw.
    w = whole[0].copy()
    w[13] = [0.0, -800.0, 0.0]
    with pytest.raises(DomainError, match=r"\[0\.0, -800\.0, 0\.0\]"):
        ent.states_from_w(w, prev, P0)
    w = whole[0].copy()
    w[17] = np.nan
    with pytest.raises(DomainError, match="not finite"):
        ent.states_from_w(w, prev, P0)


def test_batch_transforms_peak_near_their_outputs():
    # Walked in blocks, a batch needs its outputs plus one block's
    # temporaries: about 1.27 (forward) and 1.20 (inverse) times the output
    # bytes here.  Transformed whole, it peaked at 2.30 and 3.95 times.
    rng = np.random.default_rng(23)
    m = 200_000
    s = _random_states(rng, m, lo=0.05, hi=0.92)
    prev = rng.uniform(0.05, 0.92, size=m)
    w = ent.w_from_states(s, prev, P0)[0]
    tracemalloc.start()
    try:
        for transform, rows in ((ent.w_from_states, s),
                                (ent.states_from_w, w)):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = transform(rows, prev, P0)
            peak = tracemalloc.get_traced_memory()[1] - base
            ratio = peak / sum(a.nbytes for a in out)
            del out
            assert ratio <= 1.6, (transform.__name__, ratio)
    finally:
        tracemalloc.stop()


def test_row_logsumexp_matches_scipy_bitwise():
    rng = np.random.default_rng(21)
    for n in (1, 3, 8, 9):
        a = rng.uniform(-1.0, 1.0, size=(500, 1)) * 10.0 ** rng.uniform(
            -3.0, 3.0, size=(500, 1)) * rng.standard_normal((500, n))
        a[::5] = 0.0                     # all entries tied at the maximum
        a[1::7, : min(2, n)] = 4.0       # a tie at the maximum of a row
        a[1::7, min(2, n):] = 3.0
        expected = logsumexp(a, axis=1)
        got = ent._logsumexp_rows(a)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))


def test_inversion_stall_raises(monkeypatch):
    monkeypatch.setattr(ent, "_ROOTFIND_MAX_ITER", 1)
    c = np.array([1e3, -1e3])
    prev = np.array([0.5, 0.5])
    with pytest.raises(RootFindError):
        ent._solve_total_many(c, prev, P0)


def test_inversion_stalls_on_adjacent_doubles(monkeypatch):
    # The root of f(S) = c for c ~ 1e100 lies nearer 1 than the spacing of
    # doubles there; the bracket closes on adjacent doubles and the
    # root-find stops at once instead of running to its iteration cap.
    f_of_total = ent._f_of_total
    evals = []

    def counted(*args):
        evals.append(args[0])
        return f_of_total(*args)

    monkeypatch.setattr(ent, "_f_of_total", counted)
    with pytest.raises(RootFindError, match="stalled at residual"):
        ent.states_from_w(np.full((1, 3), 1e100), np.array([0.45]), P0)
    assert len(evals) < ent._ROOTFIND_MAX_ITER


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3),
       st.floats(0.05, 0.9), st.floats(0.05, 0.95))
def test_round_trip_property(raw, total, prev):
    s = np.asarray(raw) / sum(raw) * total
    w, _, _ = ent.w_from_states(s[None, :], np.asarray([prev]), P0)
    s2, tot2, _, _ = ent.states_from_w(w, np.asarray([prev]), P0)
    assert np.max(np.abs(s2[0] - s)) <= 1e-10


def test_mobility_matrix_structure():
    rng = np.random.default_rng(18)
    states = _random_states(rng, 300)
    prev = rng.uniform(0.05, 0.95, size=300)
    _, ds_dw, _ = ent.w_from_states(states, prev, P0)
    for s, d in zip(states, ds_dw):
        m = np.outer(s, d)
        assert np.max(np.abs(m - m.T)) <= 1e-12
        eig = np.linalg.eigvalsh(0.5 * (m + m.T))
        assert eig.min() >= -1e-12
        sv = np.linalg.svd(m, compute_uv=False)
        assert sv[1] <= 1e-12 * max(1.0, sv[0])


def test_diffusion_matrix_scaled_projection():
    spec = ent.DiffusionMatrixSpec(kind="scaled_projection", d0=0.7, d1=0.7)
    d = ent._diffusion_many(np.asarray([ORACLE_STATE]), spec)[0]
    assert np.allclose(d, d.T, atol=1e-15)
    assert np.allclose(d @ np.ones(3), 0.0, atol=1e-15)
    lo, hi = ent.hypocoercivity_constants(d)
    assert lo == pytest.approx(0.7, abs=1e-13)
    assert hi == pytest.approx(0.7, abs=1e-13)


def test_diffusion_matrix_state_weighted_sandwich():
    spec = ent.DiffusionMatrixSpec(kind="state_weighted", d0=0.5, d1=2.0)
    rng = np.random.default_rng(19)
    for d in ent._diffusion_many(_random_states(rng, 100), spec):
        assert np.allclose(d, d.T, atol=1e-14)
        assert np.allclose(d @ np.ones(3), 0.0, atol=1e-14)
        lo, hi = ent.hypocoercivity_constants(d)
        assert lo >= spec.d0 - 1e-12
        assert hi <= spec.d1 + 1e-12


def test_diffusion_spec_validation():
    with pytest.raises(ArgumentError):
        ent.DiffusionMatrixSpec(kind="bogus")
    with pytest.raises(ArgumentError):
        ent.DiffusionMatrixSpec(d0=0.0)
    with pytest.raises(ArgumentError):
        ent.DiffusionMatrixSpec(d0=2.0, d1=1.0)


def test_hypocoercivity_constants_validation():
    with pytest.raises(ArgumentError):
        ent.hypocoercivity_constants(np.zeros((2, 3)))
    with pytest.raises(ArgumentError):
        ent.hypocoercivity_constants(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ArgumentError):
        ent.hypocoercivity_constants(np.ones((1, 1)))


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2**32 - 1))
def test_jmz_inequality_property(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=n)
    a /= np.linalg.norm(a)
    b = rng.normal(size=n)
    b /= np.linalg.norm(b)
    v = rng.normal(size=n) * rng.uniform(0.1, 10.0)
    assert ent.jmz_inequality_check(a, b, v)


def test_jmz_requires_unit_vectors():
    with pytest.raises(ArgumentError):
        ent.jmz_inequality_check(np.array([1.0, 1.0]), np.array([1.0, 0.0]),
                                 np.array([1.0, 2.0]))
