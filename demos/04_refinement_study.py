"""Self-convergence in the time step and stability of the bound quantities.

Reruns one problem over a ladder of time steps, reports the pairwise
space-time L2 differences of the total density with the implied temporal
order (the scheme is first order in time), and shows that every a-priori
bound quantity stays within a factor-2 band across the ladder — the
discrete counterpart of kappa-uniform boundedness.

Run:  python3 demos/04_refinement_study.py      (~10 s)
"""

from capmix import constitutive as cst
from capmix import entropy as ent
from capmix import fem
from capmix import solver


def main():
    params = cst.default_params()
    spec = ent.DiffusionMatrixSpec()
    mesh = fem.build_mesh(32)
    initial = solver.sine_perturbation_initial(mesh, params, amplitude=0.1)
    cfg = solver.SolverConfig(t_end=0.02)

    kappas = [1e-3, 5e-4, 2.5e-4]
    print(f"time-step ladder {kappas} on 32 cells, horizon {cfg.t_end}")
    report = solver.refinement_study(initial, params, spec, cfg,
                                     kappa_list=kappas,
                                     eps_list=[1e-3, 5e-4])

    kd = report["kappa"]
    print("\npairwise L2 differences of the total density:")
    for j, d in enumerate(kd["pairwise_l2"]):
        print(f"  kappa {kd['values'][j]:.2e} vs {kd['values'][j+1]:.2e}: "
              f"{d:.6e}")
    print(f"implied temporal order(s): {['%.3f' % o for o in kd['orders']]}")

    print("\nbound quantities across the kappa ladder (max/min ratio):")
    for key in sorted(kd["apriori"][0]):
        if key == "exponents":
            continue
        vals = [rep[key] for rep in kd["apriori"]]
        ratio = max(vals) / min(vals) if min(vals) > 0 else float("inf")
        print(f"  {key:<28} {vals[0]:.4e} .. {vals[-1]:.4e}  ratio {ratio:.3f}")
    print(f"flags (growth beyond the factor-2 band): {kd['flags']}")

    ed = report["eps"]
    print(f"\nregularization ladder {ed['values']}: "
          f"{len(ed['flags'])} flags")


if __name__ == "__main__":
    main()
