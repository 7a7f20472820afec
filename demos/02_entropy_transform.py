"""The entropy-variable transform and its structural guarantees.

Shows the free energy and chemical potentials at a species state, the forward
and inverse transform w <-> S (whose round trip is exact to the rounding
floor of the stored sum log(S_i/S) + f(S)), the rank-one symmetric mobility
matrix, and the automatic positivity of any state recovered from w.

Run:  python3 demos/02_entropy_transform.py
"""

import numpy as np

from capmix import constitutive as cst
from capmix import entropy as ent


def main():
    params = cst.default_params()
    state = np.array((0.1, 0.2, 0.15))
    print(f"species state S = {tuple(state)}  (total {float(state.sum())})")
    print(f"  free energy h(S)            = {ent.free_energy(state, params):.12g}")
    mu = ent.chem_potentials(state, params)
    print(f"  chemical potentials mu_i    = {np.array2string(mu, precision=8)}")
    rel = ent.relative_free_energy(state, params)
    print(f"  relative free energy vs boundary composition = {rel:.12g}")

    print("\nforward transform at previous total 0.45:")
    prev = np.asarray([0.45])
    w, ds_dw, f_value = ent.w_from_states(state[None, :], prev, params)
    print(f"  w    = {np.array2string(w[0], precision=8)}")
    print(f"  f(S) = {f_value[0]:.10g}")

    s_back, _, _, _ = ent.states_from_w(w, prev, params)
    err = np.max(np.abs(s_back[0] - state))
    print(f"  inverse transform recovers S with max error {err:.3e}")

    print("\nmobility matrix M_ij = S_i * dS/dw_j at this state:")
    mob = np.outer(state, ds_dw[0])
    print(np.array2string(mob, precision=6))
    eigs = np.linalg.eigvalsh(0.5 * (mob + mob.T))
    print(f"  symmetric: max|M - M^T| = {np.max(np.abs(mob - mob.T)):.3e}")
    print(f"  eigenvalues = {np.array2string(eigs, precision=6)}  "
          "(one positive, rest ~0: rank one, PSD)")

    print("\npositivity by construction: states recovered from ARBITRARY w")
    rng = np.random.default_rng(7)
    w = rng.standard_normal((5, 3)) * 5.0
    prev = np.full(5, 0.45)
    s, totals, _, _ = ent.states_from_w(w, prev, params)
    for k in range(5):
        print(f"  w={np.array2string(w[k], precision=3)} -> "
              f"S={np.array2string(s[k], precision=6)}  total={totals[k]:.6f}")
    print(f"  min S_i = {s.min():.3e} > 0, max total = {totals.max():.6f} < 1")

    print("\nat w = 0 the recovery snaps exactly to the boundary composition:")
    _, totals0, _, _ = ent.states_from_w(np.zeros((1, 3)),
                                         np.asarray([sum(params.s_gamma)]),
                                         params)
    print(f"  total = {totals0[0]} (== {sum(params.s_gamma)} bitwise)")


if __name__ == "__main__":
    main()
