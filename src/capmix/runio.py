"""Run configuration parsing, rendering, and bit-stable result files.

The configuration format is a line-based ``key = value`` document with
bracketed section headers ``[model]``, ``[solver]``, ``[mesh]``,
``[diffusion]``, ``[initial]``, ``[output]``.  A ``#`` starts a comment
anywhere on a line.  Every key is optional and defaults to the reference
setup (three species at the boundary composition (0.15, 0.15, 0.15) with
the standard exponents, kappa = eps = 1e-3, 64 cells on (0, 1)).  The keys
of ``[model]``, ``[solver]``, ``[mesh]`` and ``[diffusion]`` and their types
are read off the fields of ``ModelParams``, ``SolverConfig``, ``RunConfig``
and ``DiffusionMatrixSpec``; ``record_every`` sits in ``[output]``.  Parsing
reports the offending line on malformed or duplicate entries and runs the
full parameter-admissibility validation before any run starts.

``write_outputs`` serializes a completed trajectory into ``diagnostics.csv``
(one row per recorded step), ``snapshots.csv`` (nodal compositions of every
stored state) and ``manifest.json`` (config echo, a-priori bound report,
entropy margins, versions), and ``write_study`` a refinement study's report
into ``study.json``.  All floats are written in shortest round-trip
decimal and all maps are sorted, so reruns with the same configuration on
one thread produce byte-identical files.  Every file is written atomically
and the manifest last: a failed run never leaves a partial file behind.
"""

from __future__ import annotations

import io
import json
import math
import os
import platform
import typing
from dataclasses import dataclass, field, fields

import numpy as np

from . import __version__
from . import constitutive as cst
from . import diagnostics as diag
from . import entropy as ent
from . import fem
from . import solver as slv
from .errors import (ArgumentError, ConfigParseError, ConfigValidationError,
                     OutputError)

__all__ = [
    "RunConfig",
    "parse_config",
    "render_config",
    "build_problem",
    "write_outputs",
    "write_study",
    "DIAGNOSTICS_HEADER",
]

# The columns of diagnostics.csv, each a DiagnosticsRecord field.
_DIAGNOSTICS_COLUMNS = ("step", "time", "lyapunov", "diss_dbeta_sq",
                        "diss_capillary", "diss_grad_dbeta", "diss_eps_w",
                        "diss_proj_mu", "min_species", "max_total",
                        "fp_iters")
DIAGNOSTICS_HEADER = ",".join(_DIAGNOSTICS_COLUMNS)

# Initial profiles and the [initial] keys each takes, with their types.
_PROFILE_ARGS = {
    "equilibrium": {},
    "sine_perturbation": {"amplitude": float, "species_index": int},
    "step_profile": {"left_state": tuple, "right_state": tuple},
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run description.

    params/solver/diffusion are the validated component configurations;
    the mesh is described by its cell count and endpoints; the initial
    condition by a profile name plus its arguments; output by a directory
    and the recording stride (mirrored into solver.record_every).
    """

    params: cst.ModelParams = field(default_factory=cst.ModelParams)
    solver: slv.SolverConfig = field(default_factory=slv.SolverConfig)
    num_cells: int = 64
    x_left: float = 0.0
    x_right: float = 1.0
    diffusion: ent.DiffusionMatrixSpec = field(
        default_factory=ent.DiffusionMatrixSpec)
    initial_profile: str = "equilibrium"
    initial_args: dict = field(default_factory=dict)
    output_dir: str = "out"

    def __post_init__(self):
        if self.initial_profile not in _PROFILE_ARGS:
            raise ArgumentError(
                f"unknown initial profile {self.initial_profile!r}; "
                f"expected one of {tuple(_PROFILE_ARGS)}")
        stray = [k for k in self.initial_args
                 if k not in _PROFILE_ARGS[self.initial_profile]]
        if stray:
            raise ArgumentError(
                f"initial profile '{self.initial_profile}' does not take key "
                f"'{stray[0]}'")


def _field_types(cls):
    """{field name: type} of a dataclass, in field order."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


# Config sections and their {key: type}, in document order.  A key of
# [model], [solver], [mesh] or [diffusion] is the field it sets, so its type
# is that field's; record_every is a solver field set from [output].
_SCHEMA = {
    "model": _field_types(cst.ModelParams),
    "solver": {k: t for k, t in _field_types(slv.SolverConfig).items()
               if k != "record_every"},
    "mesh": {k: t for k, t in _field_types(RunConfig).items()
             if k in ("num_cells", "x_left", "x_right")},
    "diffusion": _field_types(ent.DiffusionMatrixSpec),
    "initial": {"profile": str, **{k: t for args in _PROFILE_ARGS.values()
                                   for k, t in args.items()}},
    "output": {"directory": str, "record_every": int},
}


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def _strip_comment(line):
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


def _collect_entries(text):
    """text -> {section: {key: (raw_value, line_number)}} with line-precise
    errors for unknown sections, stray lines and duplicate keys."""
    entries = {name: {} for name in _SCHEMA}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in _SCHEMA:
                raise ConfigParseError(
                    f"line {lineno}: unknown section [{name}]; expected one "
                    f"of {', '.join('[' + s + ']' for s in _SCHEMA)}")
            section = name
            continue
        if "=" not in line:
            raise ConfigParseError(
                f"line {lineno}: expected 'key = value' or a section header, "
                f"got {line!r}")
        if section is None:
            raise ConfigParseError(
                f"line {lineno}: key outside of any section")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if not key:
            raise ConfigParseError(f"line {lineno}: empty key")
        if key in entries[section]:
            raise ConfigParseError(
                f"line {lineno}: duplicate key '{key}' in [{section}] "
                f"(first set on line {entries[section][key][1]})")
        entries[section][key] = (value, lineno)
    return entries


def _finite(raw):
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _convert(raw, lineno, key, kind):
    try:
        if kind is float:
            return _finite(raw)
        if kind is int:
            as_float = _finite(raw)
            if as_float != int(as_float):
                raise ValueError("not an integer")
            return int(as_float)
        if kind is bool:
            low = raw.lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ValueError("not a boolean")
        if kind is tuple:  # comma-separated floats
            parts = [p for p in (s.strip() for s in raw.split(",")) if p]
            if not parts:
                raise ValueError("empty list")
            return tuple(_finite(p) for p in parts)
        return raw  # plain string
    except ValueError as exc:
        raise ConfigParseError(
            f"line {lineno}: value for '{key}' ({raw!r}) is not a valid "
            f"{kind.__name__}: {exc}") from exc


def _take(section_entries, schema, section):
    """Pop known keys through the schema; reject leftovers with their line."""
    out = {}
    for key, kind in schema.items():
        if key in section_entries:
            raw, lineno = section_entries.pop(key)
            out[key] = _convert(raw, lineno, key, kind)
    if section_entries:
        key, (_, lineno) = next(iter(section_entries.items()))
        hint = (" (record_every belongs in [output])"
                if key == "record_every" and section == "solver" else "")
        raise ConfigParseError(
            f"line {lineno}: unknown key '{key}' in [{section}]{hint}")
    return out


def parse_config(text: str) -> RunConfig:
    """Parse a configuration document into a validated RunConfig.

    Raises ConfigParseError (with the offending line number) on malformed
    input and ConfigValidationError when the parsed values violate the
    parameter admissibility conditions or any component precondition.
    """
    entries = _collect_entries(text)
    model_kw, solver_kw, mesh_kw, diff_kw, init_kw, out_kw = (
        _take(entries[section], schema, section)
        for section, schema in _SCHEMA.items())

    if ("n_species" in model_kw and "s_gamma" not in model_kw
            and 0 < model_kw["n_species"] != 3):
        # Re-default the boundary composition to the requested width;
        # ModelParams refuses a width below 1.
        model_kw["s_gamma"] = tuple([0.45 / model_kw["n_species"]]
                                    * model_kw["n_species"])
    if "record_every" in out_kw:
        solver_kw["record_every"] = out_kw["record_every"]
    run_kw = dict(mesh_kw)
    if "profile" in init_kw:
        run_kw["initial_profile"] = init_kw.pop("profile").lower()
    if "directory" in out_kw:
        run_kw["output_dir"] = out_kw["directory"]

    try:
        params = cst.ModelParams(**model_kw)
        config = RunConfig(
            params=params, solver=slv.SolverConfig(**solver_kw),
            diffusion=ent.DiffusionMatrixSpec(**diff_kw),
            initial_args=init_kw, **run_kw)
    except ArgumentError as exc:
        raise ConfigValidationError(str(exc)) from exc

    report = cst.validate_assumptions(params)
    if not report.accepted:
        raise ConfigValidationError(
            "parameter admissibility violated: "
            + "; ".join(report.violated_clauses))
    # Materializing the mesh and the initial state surfaces any remaining
    # precondition problem (inadmissible profile states etc.) now, not at
    # run time.
    try:
        build_problem(config)
    except ArgumentError as exc:
        raise ConfigValidationError(str(exc)) from exc
    return config


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (tuple, list)):
        return ", ".join(repr(float(v)) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_config(config: RunConfig) -> str:
    """Render a RunConfig to the text format; parse_config inverts this."""
    lines = []
    for section, source in (("model", config.params),
                            ("solver", config.solver), ("mesh", config),
                            ("diffusion", config.diffusion)):
        lines.append(f"[{section}]")
        for name in _SCHEMA[section]:
            lines.append(f"{name} = {_fmt(getattr(source, name))}")
        lines.append("")
    lines.append("[initial]")
    lines.append(f"profile = {config.initial_profile}")
    for key in _PROFILE_ARGS[config.initial_profile]:
        if key in config.initial_args:
            lines.append(f"{key} = {_fmt(config.initial_args[key])}")
    lines.append("")
    lines.append("[output]")
    lines.append(f"directory = {config.output_dir}")
    lines.append(f"record_every = {config.solver.record_every}")
    return "\n".join(lines) + "\n"


def build_problem(config: RunConfig):
    """Materialize (params, diffusion, mesh, initial_state, solver_config);
    ArgumentError when t_end / kappa is no admissible step count."""
    slv.step_count(config.solver.t_end, config.params.kappa)
    mesh = fem.build_mesh(config.num_cells, config.x_left, config.x_right)
    profile = config.initial_profile
    args = config.initial_args
    if profile == "equilibrium":
        initial = slv.equilibrium_initial(mesh, config.params)
    elif profile == "sine_perturbation":
        initial = slv.sine_perturbation_initial(
            mesh, config.params,
            amplitude=args.get("amplitude", 0.1),
            species_index=args.get("species_index", 0))
    else:
        if "left_state" not in args or "right_state" not in args:
            raise ArgumentError(
                "step_profile requires left_state and right_state")
        initial = slv.step_profile_initial(
            mesh, config.params, args["left_state"], args["right_state"])
    return config.params, config.diffusion, mesh, initial, config.solver


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------

def _diagnostics_csv(trajectory):
    """One row per recorded step: the integer fields of a record in decimal,
    the float fields in shortest round-trip form."""
    kinds = _field_types(diag.DiagnosticsRecord)
    buf = io.StringIO()
    buf.write(DIAGNOSTICS_HEADER + "\n")
    for rec in trajectory.diagnostics[1:]:
        row = [str(getattr(rec, name)) if kinds[name] is int
               else repr(float(getattr(rec, name)))
               for name in _DIAGNOSTICS_COLUMNS]
        buf.write(",".join(row) + "\n")
    return buf.getvalue()


def _snapshots_csv(trajectory):
    n = trajectory.states[0].values.shape[1]
    header = "time,node_index,x," + ",".join(f"S_{i+1}" for i in range(n))
    buf = io.StringIO()
    buf.write(header + "\n")
    for t, state in zip(trajectory.times, trajectory.states):
        nodes = state.mesh.nodes
        for v, x in enumerate(nodes):
            row = [repr(float(t)), str(v), repr(float(x))]
            row.extend(repr(float(val)) for val in state.values[v])
            buf.write(",".join(row) + "\n")
    return buf.getvalue()


def _jsonable(obj):
    """Recursively convert report structures to JSON-stable types."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v
    return obj


def write_outputs(trajectory, config: RunConfig, directory) -> dict:
    """Write diagnostics.csv, snapshots.csv and manifest.json; return the
    manifest as a dict.

    Files are byte-identical across reruns with the same configuration at
    one thread.  Filesystem problems raise OutputError with the original
    message; each file is written atomically, the manifest last.
    """
    import scipy

    records = trajectory.diagnostics
    manifest = {
        "config": render_config(config),
        "num_steps_recorded": len(records) - 1,
        "final_time": float(trajectory.times[-1]),
        "apriori_report": _jsonable(diag.apriori_report(trajectory)),
        "entropy_margins": _jsonable([r.entropy_margin for r in records[1:]]),
        "entropy_check_constants": _jsonable(records[-1].check_constants),
        "lyapunov": _jsonable([r.lyapunov for r in records]),
        "versions": {
            "package": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
    }
    _write_files(directory, {
        "diagnostics.csv": _diagnostics_csv(trajectory),
        "snapshots.csv": _snapshots_csv(trajectory),
        "manifest.json": json.dumps(manifest, indent=2, sort_keys=True) + "\n",
    })
    return manifest


def write_study(report, directory) -> str:
    """Write a ``refinement_study`` report as study.json into ``directory``
    and return its path; filesystem problems raise OutputError."""
    _write_files(directory, {
        "study.json": json.dumps(_jsonable(report), indent=2,
                                 sort_keys=True) + "\n"})
    return os.path.join(directory, "study.json")


def _write_files(directory, texts):
    """Write ``texts`` (file name -> text) in order into ``directory``, each
    through a temporary file and a rename; OSError becomes OutputError."""
    try:
        os.makedirs(directory, exist_ok=True)
        for name, text in texts.items():
            tmp_path = os.path.join(directory, f".{name}.tmp")
            with open(tmp_path, "w", encoding="ascii", newline="") as fh:
                fh.write(text)
            os.replace(tmp_path, os.path.join(directory, name))
    except OSError as exc:
        raise OutputError(str(exc)) from exc
