"""Config files, reproducible outputs, and the library <-> CLI equivalence.

Builds a run configuration programmatically, renders it to the text format,
parses it back (an exact round trip), materializes and runs the problem the
same way the command line does, and demonstrates that reruns produce
byte-identical output files.

Run:  python3 demos/05_config_files.py
"""

import pathlib
import tempfile

from capmix import runio, solver


def main():
    config = runio.RunConfig(
        solver=solver.SolverConfig(t_end=5e-3, record_every=1),
        num_cells=16,
        initial_profile="sine_perturbation",
        initial_args={"amplitude": 0.05, "species_index": 1},
        output_dir="demo_out")

    text = runio.render_config(config)
    print("rendered configuration document:")
    print("\n".join("  | " + line for line in text.splitlines()))

    parsed = runio.parse_config(text)
    print(f"\nparse(render(config)) == config: {parsed == config}")

    params, spec, mesh, initial, solver_cfg = runio.build_problem(parsed)
    print(f"materialized: {params.n_species} species on {mesh.num_cells} "
          f"cells, profile '{parsed.initial_profile}'")

    with tempfile.TemporaryDirectory() as tmp:
        out_a = pathlib.Path(tmp) / "a"
        out_b = pathlib.Path(tmp) / "b"
        for out in (out_a, out_b):
            traj = solver.run_simulation(initial, params, spec, solver_cfg)
            manifest = runio.write_outputs(traj, parsed, out)
        print(f"\ntwo independent reruns wrote "
              f"{manifest['num_steps_recorded']} steps each; comparing bytes:")
        for name in ("diagnostics.csv", "snapshots.csv", "manifest.json"):
            same = (out_a / name).read_bytes() == (out_b / name).read_bytes()
            print(f"  {name:<16} identical: {same}")

    print("\nthe equivalent command line:")
    print("  capmix validate run.cfg   # admissibility + derived exponents")
    print("  capmix run run.cfg        # simulate + write outputs")
    print("  capmix study run.cfg --kappas 1e-3,5e-4")


if __name__ == "__main__":
    main()
