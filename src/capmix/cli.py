"""Command-line front end: validate, run, study.

Exit codes: 0 success, 2 configuration/validation failure or usage error,
3 solver failure, 4 entropy violation in strict mode.  Orchestration is
single-threaded; backend thread pools follow the standard environment
variables (e.g. ``OPENBLAS_NUM_THREADS``), set before the process starts.
All result files are written by :mod:`capmix.runio` and are byte-stable
across reruns of the same configuration.
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
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate",
                       help="parse a config and report the assumption check")
    p.add_argument("config", help="path to a configuration file")

    p = sub.add_parser("run", help="run a simulation and write its outputs")
    p.add_argument("config", help="path to a configuration file")

    p = sub.add_parser("study",
                       help="time-step / regularization refinement study")
    p.add_argument("config", help="path to a configuration file")
    p.add_argument("--kappas", default="1e-3,5e-4,2.5e-4", metavar="LIST",
                   help="comma-separated non-increasing time steps")
    p.add_argument("--epsilons", default="", metavar="LIST",
                   help="comma-separated non-increasing regularizations "
                        "(empty: skip the regularization ladder)")
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
    from . import runio, solver
    config = runio.parse_config(_read_config(args.config))
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
