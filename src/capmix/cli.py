"""Command-line front end: validate, run, study, selftest.

Exit codes: 0 success, 2 configuration/validation failure, 3 solver
failure, 4 entropy violation in strict mode.  Orchestration is
single-threaded; backend thread pools follow the standard environment
variables (e.g. ``OPENBLAS_NUM_THREADS``), set before the process starts.
``--seed N`` seeds the randomized parts of the self-test.  All result files
are written by :mod:`capmix.runio` and are byte-stable across reruns of the
same configuration.
"""

from __future__ import annotations

import argparse
import sys

__all__ = ["main"]

_EXIT_OK = 0
_EXIT_VALIDATION = 2
_EXIT_SOLVER = 3
_EXIT_ENTROPY = 4


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="capmix",
        description=("Entropy-stable simulator for multicomponent two-phase "
                     "flow with dynamic capillary pressure."))
    parser.add_argument("--seed", type=int, default=12345, metavar="N",
                        help="seed for the randomized self-test checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate",
                       help="parse a config and report the assumption check")
    p.add_argument("config", help="path to a configuration file")

    p = sub.add_parser("run", help="run a simulation and write its outputs")
    p.add_argument("config", help="path to a configuration file")
    p.add_argument("--strict-entropy", action="store_true",
                   help="abort with exit code 4 on the first violated "
                        "entropy check (overrides the config)")

    p = sub.add_parser("study",
                       help="time-step / regularization refinement study")
    p.add_argument("config", help="path to a configuration file")
    p.add_argument("--kappas", default="1e-3,5e-4,2.5e-4", metavar="LIST",
                   help="comma-separated non-increasing time steps")
    p.add_argument("--epsilons", default="", metavar="LIST",
                   help="comma-separated non-increasing regularizations "
                        "(empty: skip the regularization ladder)")

    sub.add_parser("selftest",
                   help="run the structural invariant suite on the "
                        "reference parameters")
    return parser


def _read_config(path):
    from .errors import ConfigParseError
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigParseError(f"cannot read config {path!r}: {exc}") from exc


def _float_list(text, flag):
    from .errors import ArgumentError
    parts = [p for p in (s.strip() for s in text.split(",")) if p]
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise ArgumentError(f"{flag} expects comma-separated numbers: {exc}")


def _cmd_validate(args):
    from . import constitutive as cst
    from . import runio
    config = runio.parse_config(_read_config(args.config))
    report = cst.validate_assumptions(config.params)
    print("parameters accepted")
    print(f"  exponents: lam={config.params.lam} gamma={config.params.gamma} "
          f"gamma1={config.params.gamma1} beta1={config.params.beta1} "
          f"beta2={config.params.beta2}")
    print(f"  derived:   alpha1={report.alpha1:.12g} "
          f"alpha2={report.alpha2:.12g}")
    print(f"             p_gamma={report.p_gamma:.12g} "
          f"p_lambda={report.p_lambda:.12g}")
    print(f"             p={report.p:.12g} q={report.q:.12g}")
    print(f"  boundary:  s_gamma={config.params.s_gamma} "
          f"(total {config.params.total_gamma:.6g})")
    print(f"  mesh:      {config.num_cells} cells on "
          f"({config.x_left:g}, {config.x_right:g})")
    print(f"  initial:   {config.initial_profile} {config.initial_args}")
    return _EXIT_OK


def _cmd_run(args):
    from dataclasses import replace
    from . import runio, solver
    config = runio.parse_config(_read_config(args.config))
    if args.strict_entropy and not config.solver.strict_entropy:
        config = replace(config,
                         solver=replace(config.solver, strict_entropy=True))
    params, dspec, mesh, initial, solver_cfg = runio.build_problem(config)
    traj = solver.run_simulation(initial, params, dspec, solver_cfg)
    manifest = runio.write_outputs(traj, config, config.output_dir)
    margins = manifest["entropy_margins"]
    lya = manifest["lyapunov"]
    print(f"run complete: {manifest['num_steps_recorded']} recorded steps "
          f"to t={manifest['final_time']:g}")
    print(f"  lyapunov {lya[0]:.6g} -> {lya[-1]:.6g}")
    if margins:
        print(f"  entropy margins: min {min(margins):.3e} "
              f"max {max(margins):.3e}")
    print(f"  outputs in {config.output_dir}/ "
          "(diagnostics.csv, snapshots.csv, manifest.json)")
    return _EXIT_OK


def _cmd_study(args):
    from . import runio, solver
    config = runio.parse_config(_read_config(args.config))
    kappas = _float_list(args.kappas, "--kappas")
    epsilons = _float_list(args.epsilons, "--epsilons")
    params, dspec, mesh, initial, solver_cfg = runio.build_problem(config)
    report = solver.refinement_study(initial, params, dspec, solver_cfg,
                                     kappas, epsilons)
    flags = []
    for part in report.values():
        flags.extend(part.get("flags", []))
    if "kappa" in report:
        orders = report["kappa"]["orders"]
        print(f"kappa ladder {report['kappa']['values']}: "
              f"orders {['%.3f' % o for o in orders]}")
    if "eps" in report:
        print(f"eps ladder {report['eps']['values']}: "
              f"{len(report['eps']['flags'])} flags")
    print(f"bound-quantity flags: {len(flags)}")
    for flag in flags:
        print(f"  {flag['quantity']}: {flag['parameter']} "
              f"{flag['from_value']:g} -> {flag['to_value']:g} "
              f"ratio {flag['ratio']:.3g}")
    print(f"study report in {runio.write_study(report, config.output_dir)}")
    return _EXIT_OK


def _cmd_selftest(args):
    import numpy as np
    from . import constitutive as cst
    from . import diagnostics as diag
    from . import entropy as ent
    from . import fem, solver

    rng = np.random.default_rng(args.seed)
    params = cst.default_params()
    dspec = ent.DiffusionMatrixSpec()
    failures = []

    def check(name, ok):
        print(f"  {'ok  ' if ok else 'FAIL'}  {name}")
        if not ok:
            failures.append(name)

    print("selftest (reference parameters, seed "
          f"{args.seed}):")

    rep = cst.validate_assumptions(params)
    check("exponent admissibility accepted", rep.accepted)
    check("derived endpoint exponents",
          abs(rep.alpha1 - (-1.9)) < 1e-12 and abs(rep.alpha2 - (-2.0)) < 1e-12)

    grid = np.linspace(1e-4, 1.0 - 1e-4, 10_000)
    c = cst.eval_coeffs(grid, params)
    check("capillary slope below degeneracy quotient",
          bool(np.all(c.pc_prime <= c.tau_over_a)))

    n = params.n_species
    raw = rng.uniform(0.05, 1.0, size=(1000, n + 1))
    s = 0.9 * raw[:, :n] / raw.sum(axis=1, keepdims=True)
    w, _, _ = ent._w_many(s, s.sum(axis=1), s.sum(axis=1), params)
    s_back, _, _ = ent._state_from_w_many(w, s.sum(axis=1), params)
    check("transform round trip below 1e-10",
          float(np.max(np.abs(s_back - s))) <= 1e-10)

    ok_jmz = True
    for _ in range(10_000):
        a_v = rng.normal(size=n)
        a_v /= np.linalg.norm(a_v)
        b_v = rng.normal(size=n)
        b_v /= np.linalg.norm(b_v)
        v = rng.normal(size=n)
        if not ent.jmz_inequality_check(a_v, b_v, v):
            ok_jmz = False
            break
    check("projected quadratic-form lower bound", ok_jmz)

    mesh = fem.build_mesh(16, 0.0, 1.0)
    field = solver.sine_perturbation_initial(mesh, params, amplitude=0.1)
    w0 = fem.NodalField(np.zeros((mesh.num_nodes, n)), mesh)
    system = fem.assemble_system(w0, field, params, dspec, 1.0)
    dense = solver._csc_operator(system).toarray()
    sym = float(np.max(np.abs(dense - dense.T)))
    eig = float(np.linalg.eigvalsh(dense).min())
    check("assembled operator symmetric and positive definite",
          sym <= 1e-12 and eig > 0.0)

    eq = solver.equilibrium_initial(mesh, params)
    cfg = solver.SolverConfig(t_end=0.01)
    traj = solver.run_simulation(eq, params, dspec, cfg)
    drift = max(float(np.max(np.abs(st.values - eq.values)))
                for st in traj.states)
    diss = max(max(r.diss_dbeta_sq, r.diss_capillary, r.diss_grad_dbeta,
                   r.diss_eps_w, r.diss_proj_mu) for r in traj.diagnostics)
    check("equilibrium stationary with zero dissipation",
          drift <= 1e-9 and diss <= 1e-12)

    traj = solver.run_simulation(field, params, dspec,
                                 solver.SolverConfig(t_end=5e-3))
    margins = [r.entropy_margin for r in traj.diagnostics[1:]]
    lya = [r.lyapunov for r in traj.diagnostics]
    mono = all(b <= a + 1e-12 for a, b in zip(lya, lya[1:]))
    check("entropy inequality margins nonnegative", min(margins) >= 0.0)
    check("lyapunov non-increasing", mono)
    pos = min(float(st.values.min()) for st in traj.states)
    top = max(float(st.totals.max()) for st in traj.states)
    check("positivity and upper bound preserved", pos > 0.0 and top < 1.0)

    if failures:
        print(f"{len(failures)} check(s) failed")
        return _EXIT_VALIDATION
    print("all checks passed")
    return _EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    from .errors import (ArgumentError, AssemblyError, CapmixError,
                         ConfigParseError, ConfigValidationError,
                         EntropyViolationError, FixedPointError,
                         LinearSolveError, OutputError, PreconditionError)
    handlers = {
        "validate": _cmd_validate,
        "run": _cmd_run,
        "study": _cmd_study,
        "selftest": _cmd_selftest,
    }
    try:
        return handlers[args.command](args)
    except (ConfigParseError, ConfigValidationError, PreconditionError,
            ArgumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_VALIDATION
    except EntropyViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_ENTROPY
    except (FixedPointError, LinearSolveError, AssemblyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_SOLVER
    except (OutputError, CapmixError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
