"""A full simulation with its runtime entropy verification.

Runs the reference problem (3 species, 64 cells, time step 1e-3, horizon
0.05, sine perturbation on species 1), prints the per-step Lyapunov value,
dissipation channels and the signed entropy-check margin for a sample of
steps, and writes the standard output files.

Run:  python3 demos/03_reference_run.py        (~3 s)
"""

import numpy as np

from capmix import constitutive as cst
from capmix import diagnostics as diag
from capmix import entropy as ent
from capmix import fem
from capmix import runio
from capmix import solver


def main():
    params = cst.default_params()
    spec = ent.DiffusionMatrixSpec()
    mesh = fem.build_mesh(64, 0.0, 1.0)
    initial = solver.sine_perturbation_initial(mesh, params, amplitude=0.1,
                                               species_index=0)
    cfg = solver.SolverConfig(t_end=0.05)

    print("marching 50 implicit steps; every step is verified against the "
          "per-step entropy inequality\n")
    traj = solver.run_simulation(initial, params, spec, cfg)

    print(f"  {'step':>4} {'time':>7} {'lyapunov':>10} {'diss_beta':>10} "
          f"{'diss_cap':>10} {'diss_mu':>10} {'margin':>10} {'iters':>5}")
    for rec in traj.diagnostics:
        if rec.step % 10 != 0 and rec.step != 1:
            continue
        margin = "" if rec.entropy_margin is None else f"{rec.entropy_margin:.3e}"
        print(f"  {rec.step:>4} {rec.time:>7.3f} {rec.lyapunov:>10.6f} "
              f"{rec.diss_dbeta_sq:>10.3e} {rec.diss_capillary:>10.3e} "
              f"{rec.diss_proj_mu:>10.3e} {margin:>10} {rec.fp_iters:>5}")

    lyap = [rec.lyapunov for rec in traj.diagnostics]
    print(f"\nLyapunov functional: {lyap[0]:.6f} -> {lyap[-1]:.6f} "
          f"({'monotone non-increasing' if all(b <= a for a, b in zip(lyap, lyap[1:])) else 'NOT monotone'})")
    mins = min(float(st.values.min()) for st in traj.states)
    maxs = max(float(st.totals.max()) for st in traj.states)
    print(f"admissibility along the run: min S_i = {mins:.4e} > 0, "
          f"max total = {maxs:.6f} < 1")

    report = diag.apriori_report(traj, params)
    print("\na-priori bound quantities (finite = the estimates are active):")
    for key in ("sup_entropy_integral", "dkbeta_L2L2", "capillary_L2L2",
                "eps_w_L2H1", "proj_mu_L2L2", "dt_Hminus1_L2"):
        print(f"  {key:<24} {report[key]:.6e}")

    residual = diag.weak_residual(traj, params, spec, 3)
    print(f"\nweak-form residual against smooth test functions: {residual:.3e}")

    config = runio.RunConfig(params=params, solver=cfg,
                             initial_profile="sine_perturbation",
                             initial_args={"amplitude": 0.1,
                                           "species_index": 0},
                             output_dir="demos/out_reference")
    runio.write_outputs(traj, config, config.output_dir)
    print(f"outputs written to {config.output_dir}/ "
          "(diagnostics.csv, snapshots.csv, manifest.json)")


if __name__ == "__main__":
    main()
