"""capmix benchmark: time to a verified solution.

    python3 bench/run.py --workload reference --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; capmix is imported from ``src/``.
One process runs one workload: it sets the problem up once, then solves
in whole rounds until ``--seconds`` would be exceeded (at least one round),
checking the program's outputs after every round.  Each round gets inputs
of its own (see ``workloads.py``), so no round repeats an earlier one.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones (``setup_s``, ``solve_s``, ``peak_rss_mib``); with
``--trace 1`` the per-layer ones, from spans recorded around the calls into
each layer (see ``tracing.py``).  The result, with the per-round times, and
a traced run's spans are also written to ``.bench_out/``.  Exit code 0:
every check passed; 1: a check failed or no round completed (the result
line says ``"correct": false``); 2: the run could not start.
"""

import os
import sys
import time

_T_TOP = time.perf_counter()

# One thread per BLAS pool; set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"


def _process_age():
    """Seconds since this process was started (Linux; 10 ms clock ticks)."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


# Interpreter start-up before this file ran is part of the set-up time.
_AGE_AT_TOP = _process_age() - (time.perf_counter() - _T_TOP)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("reference", "front", "transform")
TRANSFORM_BATCH = 1_000_000


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must not be negative")
    return args


def _run_rounds(seconds, tracer, result, ops, prepare, solve, verify):
    """Solve in whole rounds of ``ops`` operations, verifying each result,
    until the next round would end after ``seconds`` (at least one round).

    Round ``r`` solves ``prepare(r)``; only ``solve(inputs)`` is timed.  A
    round the program fails with one of its own errors counts ``ops``
    failed operations; ``verify(inputs, output, r)`` raises CheckFailure on
    a wrong output.
    """
    from capmix.errors import CapmixError

    start = time.perf_counter()
    done = 0
    while done == 0 or ((time.perf_counter() - start) * (done + 1) / done
                        <= seconds):
        if tracer is not None:
            tracer.start_batch(done)
        inputs = prepare(done)
        result["attempted"] += ops
        t0 = time.perf_counter()
        try:
            output = solve(inputs)
        except CapmixError as exc:
            if not result["failed"]:
                print(f"round {done} failed (later failures not shown): "
                      f"{type(exc).__name__}: {exc}", file=sys.stderr)
            result["failed"] += ops
        else:
            result["durations"].append(time.perf_counter() - t0)
            verify(inputs, output, done)
            del output
        del inputs
        done += 1


def _note_deviations(result, deviations):
    """Keep the largest deviation each check measured over the rounds."""
    for key, value in deviations.items():
        result["deviations"][key] = max(value,
                                        result["deviations"].get(key, 0.0))


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _simulation(name, args, tracer, result):
    import checks
    import workloads
    from capmix import constitutive, runio, solver

    # Relative to the working directory, as a user would write it, so that
    # the bytes written do not depend on where the checkout lies.
    out_dir = os.path.relpath(os.path.join(OUT, name))

    def problem(variant):
        """Parse and build round ``variant``'s problem as `capmix run` does."""
        config = runio.parse_config(workloads.config_text(name, variant,
                                                          out_dir))
        expected = workloads.expected_problem(name, variant)
        checks.check_config(config, expected)
        return config, expected, runio.build_problem(config)

    # Set-up: the first round's problem, plus the beta tables its solve
    # would otherwise build.
    first = problem(0)
    with _span(tracer, "constitutive.tables"):
        constitutive.sup_beta_prime(first[2][0])
    result["ready"] = time.perf_counter()

    def prepare(variant):
        return first if variant == 0 else problem(variant)

    def solve(inputs):
        config, _, (params, dspec, _, initial, solver_cfg) = inputs
        traj = solver.run_simulation(initial, params, dspec, solver_cfg)
        runio.write_outputs(traj, config, config.output_dir)
        return traj

    def verify(inputs, traj, batch):
        config, expected, _ = inputs
        files = checks.read_run_files(config.output_dir)
        _note_deviations(result, checks.check_simulation(
            files, expected,
            [rec.apriori["entropy_integral"] for rec in traj.diagnostics],
            mirror=(name == "reference")))
        if tracer is not None:
            tracer.count("runio.write_bytes", sum(
                os.path.getsize(os.path.join(config.output_dir, f))
                for f in ("diagnostics.csv", "snapshots.csv",
                          "manifest.json")))
            metrics = tracer.batch_metrics(batch)
            checks.check_trace_simulation(metrics, files)
            result["batches"].append(metrics)

    _run_rounds(args.seconds, tracer, result, first[1]["num_steps"], prepare,
                solve, verify)


def _transform(args, tracer, result):
    import numpy as np

    import checks
    import workloads
    from capmix import constitutive, entropy

    params = constitutive.default_params()
    sg = np.asarray(params.s_gamma, dtype=float)
    # The first transform builds the beta table; build it on one point.
    with _span(tracer, "constitutive.tables"):
        entropy.w_from_states(sg[None, :], sg.sum(keepdims=True), params)
    result["ready"] = time.perf_counter()

    def prepare(batch):
        return workloads.transform_batch(args.seed, batch, TRANSFORM_BATCH)

    def solve(inputs):
        states, _, prev = inputs
        w, _, _ = entropy.w_from_states(states, prev, params)
        states_back, totals_back, _, _ = entropy.states_from_w(w, prev,
                                                               params)
        return states_back, totals_back

    def verify(inputs, output, batch):
        states, totals, _ = inputs
        _note_deviations(result, {"round_trip": checks.check_transform(
            states, totals, *output)})
        if tracer is not None:
            metrics = tracer.batch_metrics(batch)
            checks.check_trace_transform(metrics, TRANSFORM_BATCH)
            result["batches"].append(metrics)

    _run_rounds(args.seconds, tracer, result, TRANSFORM_BATCH, prepare,
                solve, verify)


def _end_to_end(result):
    metrics = {}
    if "ready" in result:
        metrics["setup_s"] = (_AGE_AT_TOP + result["ready"] - _T_TOP, "s")
    if result["durations"]:
        metrics["solve_s"] = (statistics.median(result["durations"]), "s")
    metrics["peak_rss_mib"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
    return metrics


def _per_layer(tracer, result, import_s):
    import tracing

    setup = tracer.batch_metrics(tracing.SETUP_BATCH)
    metrics = {
        "capmix.import_s": (import_s, "s"),
        "runio.parse_s": (setup["runio.parse_s"], "s"),
        "constitutive.tables_s": (setup["constitutive.tables_s"], "s"),
    }
    if not result["batches"]:
        return metrics
    metrics["trace.solve_s"] = (statistics.median(result["durations"]), "s")
    # Everything else comes from the solve rounds.  Times are medians over
    # them.  Counts differ from round to round, as the inputs do; they are
    # taken from the first round, whose problem is the same in every run of
    # a simulation workload.
    for key, value in result["batches"][0].items():
        if key not in metrics:
            unit = tracing.UNITS[key]
            if unit == "s":
                value = statistics.median(b[key] for b in result["batches"])
            metrics[key] = (value, unit)
    return metrics


def main(argv=None):
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "capmix", "__init__.py")):
        print(f"error: no capmix sources under {SRC}; run from the root of "
              "a capmix checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    t_import = time.perf_counter()
    import capmix
    import_s = time.perf_counter() - t_import
    if os.path.dirname(os.path.abspath(capmix.__file__)) != \
            os.path.join(SRC, "capmix"):
        print(f"error: capmix was imported from {capmix.__file__}, not from "
              f"{SRC}", file=sys.stderr)
        return 2

    import checks
    import tracing
    from capmix import diagnostics, entropy, fem, runio, solver

    os.makedirs(OUT, exist_ok=True)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install({"runio": runio, "solver": solver, "fem": fem,
                        "entropy": entropy, "diagnostics": diagnostics})

    result = {"attempted": 0, "failed": 0, "durations": [], "batches": [],
              "deviations": {}}
    correct = True
    try:
        if args.workload == "transform":
            _transform(args, tracer, result)
        else:
            _simulation(args.workload, args, tracer, result)
    except checks.CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False
    tag = f"{args.workload}-seed{args.seed}"

    if not result["durations"]:
        # The counts still go out; the metrics of the solves are left out.
        print("error: no round completed", file=sys.stderr)
        correct = False
    if tracer is None:
        metrics = _end_to_end(result)
    else:
        metrics = _per_layer(tracer, result, import_s)
        tracer.write(os.path.join(OUT, f"{tag}-trace.json"),
                     {"workload": args.workload, "seed": args.seed,
                      "rounds_s": result["durations"]})
    summary = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(OUT, f"{tag}-trace{args.trace}-result.json"), "w",
              encoding="ascii") as fh:
        json.dump({"result": summary, "rounds_s": result["durations"],
                   "deviations": result["deviations"],
                   "startup_s": _AGE_AT_TOP, "import_s": import_s,
                   "run_s": time.perf_counter() - _T_TOP}, fh, indent=1)
    print(f"{args.workload}: {len(result['durations'])} rounds, solve "
          f"{[round(d, 4) for d in result['durations']]} s", file=sys.stderr)
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
