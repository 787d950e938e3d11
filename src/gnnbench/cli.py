"""Command-line interface: assemble a pipeline, run it, emit reports.

Subcommands:

- ``run``: build the configured pipeline, execute it instrumented, and
  write a JSON or CSV report.
- ``check``: run the determinism / cross-model / dense-reference
  equivalence suite on the configured pipeline and print pass/fail lines.
- ``datasets``: print the dataset registry and the core-kernel legend.

Every parameter resolves with precedence: command-line flag, then
config-file entry, then built-in default. The config file is plain UTF-8
``key = value`` lines with ``#`` comments, where keys equal the long flag
names; it is named by ``--config`` or the ``GSUITE_CONFIG`` environment
variable. Validation is fail-fast: nothing is computed until the whole
configuration is resolved and checked.

Exit codes: 0 success, 2 usage or configuration error, 3 data error,
4 internal consistency (determinism or equivalence) failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import os
import sys
from typing import Optional

import numpy as np

from . import bench, data, models, reference
from .errors import (
    ConfigError,
    ConsistencyError,
    FormatError,
    IndexRangeError,
    NormalizationError,
    ParseError,
    ShapeError,
)
from .graph import DEFAULT_DENSE_LIMIT
from .rng import MASK64

__all__ = ["CliConfig", "parse_config", "run", "main"]

CONFIG_ENV_VAR = "GSUITE_CONFIG"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_CONSISTENCY = 4

# Tolerance used by `check` for the cross-model and dense-reference
# comparisons, per precision mode.
CHECK_TOLERANCE = {"f64": 1e-9, "f32": 1e-4}

_DEFAULTS = {
    "model": "gcn",
    "comp": "mp",
    "dataset": "er:64:0.1:42",
    "layers": 2,
    "hidden": 16,
    "epsilon": 0.0,
    "activation": "relu",
    "repeats": 3,
    "seed": 0,
    "precision": "f64",
    "output": "-",
    "format": "json",
    "warmup": 0,
}

# Feature length used for synthetic er: datasets when the optional fifth
# field is omitted.
DEFAULT_SYNTHETIC_FEATURES = 16

_CHOICES = {
    "model": ("gcn", "gin", "sage"),
    "comp": ("mp", "spmm"),
    "activation": ("relu", "sigmoid", "identity"),
    "precision": ("f32", "f64"),
    "format": ("json", "csv"),
}


@dataclasses.dataclass
class CliConfig:
    model: str
    comp: str
    dataset: str
    layers: int
    hidden: int
    epsilon: float
    activation: str
    repeats: int
    seed: int
    precision: str
    output: str
    format: str
    warmup: int


def _parse_int(key: str, value, minimum: Optional[int] = None,
               maximum: Optional[int] = None) -> int:
    try:
        out = int(str(value), 0)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {value!r}") from None
    if minimum is not None and out < minimum:
        raise ConfigError(f"{key}: must be >= {minimum}, got {out}")
    if maximum is not None and out > maximum:
        raise ConfigError(f"{key}: must be <= {maximum}, got {out}")
    return out


def _parse_seed(key: str, value) -> int:
    # random streams keep only the low 64 bits of a seed, so a larger one
    # would repeat a smaller seed's data under a different recorded value
    return _parse_int(key, value, minimum=0, maximum=MASK64)


def _parse_float(key: str, value) -> float:
    try:
        return float(str(value))
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {value!r}") from None


def _parse_choice(key: str, value) -> str:
    out = str(value).lower()
    if out not in _CHOICES[key]:
        raise ConfigError(
            f"{key}: expected one of {'|'.join(_CHOICES[key])}, got {value!r}"
        )
    return out


_FIELD_PARSERS = {
    "model": _parse_choice,
    "comp": _parse_choice,
    "dataset": lambda k, v: str(v),
    "layers": lambda k, v: _parse_int(k, v, minimum=1),
    "hidden": lambda k, v: _parse_int(k, v, minimum=1),
    "epsilon": _parse_float,
    "activation": _parse_choice,
    "repeats": lambda k, v: _parse_int(k, v, minimum=1),
    "seed": _parse_seed,
    "precision": _parse_choice,
    "output": lambda k, v: str(v),
    "format": _parse_choice,
    "warmup": lambda k, v: _parse_int(k, v, minimum=0),
}


def read_config_file(path: str) -> dict:
    """Parse a ``key = value`` config file; unknown keys are rejected."""
    entries: dict = {}
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in _FIELD_PARSERS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            entries[key] = value
    return entries


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gnnbench",
        description="Framework-independent GNN inference benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pipeline_flags(p):
        p.add_argument("--model", choices=_CHOICES["model"])
        p.add_argument("--comp", choices=_CHOICES["comp"])
        p.add_argument("--dataset",
                       help="preset name, er:<n>:<p>:<seed>[:<f>], or "
                            "<edges_path>,<features_path>")
        p.add_argument("--layers", type=int)
        p.add_argument("--hidden", type=int)
        p.add_argument("--epsilon", type=float)
        p.add_argument("--activation", choices=_CHOICES["activation"])
        p.add_argument("--repeats", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--precision", choices=_CHOICES["precision"])
        p.add_argument("--output", help="report path, or - for stdout")
        p.add_argument("--format", choices=_CHOICES["format"])
        p.add_argument("--warmup", type=int)
        p.add_argument("--config", help="config file path")

    add_pipeline_flags(sub.add_parser("run", help="run an instrumented benchmark"))
    add_pipeline_flags(sub.add_parser(
        "check", help="run the equivalence and determinism checks"))
    sub.add_parser("datasets", help="print the dataset registry")
    return parser


def parse_config(argv, config_file: Optional[str] = None) -> CliConfig:
    """Resolve a full CliConfig from flags, config file, and defaults.

    ``config_file`` is a fallback path (normally from ``GSUITE_CONFIG``);
    an explicit ``--config`` flag wins over it.
    """
    return _resolve_config(build_parser().parse_args(argv), config_file)


def _resolve_config(args: argparse.Namespace,
                    config_file: Optional[str]) -> CliConfig:
    if args.command == "datasets":
        raise ConfigError("datasets subcommand takes no pipeline configuration")

    path = args.config if args.config is not None else config_file
    file_entries = read_config_file(path) if path else {}

    resolved = {}
    for key, parse in _FIELD_PARSERS.items():
        flag_value = getattr(args, key)
        if flag_value is not None:
            resolved[key] = parse(key, flag_value)
        elif key in file_entries:
            resolved[key] = parse(key, file_entries[key])
        else:
            resolved[key] = _DEFAULTS[key]
    cfg = CliConfig(**resolved)

    if (models.Model(cfg.model), models.CompModel(cfg.comp)) not in models.PIPELINES:
        raise ConfigError(f"{cfg.model} has no {cfg.comp} formulation")
    _classify_dataset(cfg.dataset)  # fail fast on malformed dataset syntax
    return cfg


_PRESETS = {r.name.lower(): r for r in data.registry()}


def _classify_dataset(spec_str: str):
    """Return ("er", (n, p, seed, f)) | ("preset", record) | ("files", (a, b))."""
    if spec_str.startswith("er:"):
        parts = spec_str.split(":")
        if len(parts) not in (4, 5):
            raise ConfigError(
                f"dataset: expected er:<n>:<p>:<seed>[:<f>], got {spec_str!r}"
            )
        n = _parse_int("dataset n", parts[1], minimum=1)
        p = _parse_float("dataset p", parts[2])
        if not 0.0 <= p <= 1.0:
            raise ConfigError(f"dataset p must be in [0, 1], got {p}")
        seed = _parse_seed("dataset seed", parts[3])
        f = (_parse_int("dataset f", parts[4], minimum=1)
             if len(parts) == 5 else DEFAULT_SYNTHETIC_FEATURES)
        return "er", (n, p, seed, f)
    if spec_str.lower() in _PRESETS:
        return "preset", _PRESETS[spec_str.lower()]
    if "," in spec_str:
        edges_path, _, features_path = spec_str.partition(",")
        if not edges_path or not features_path:
            raise ConfigError(
                f"dataset: expected <edges_path>,<features_path>, got {spec_str!r}"
            )
        return "files", (edges_path, features_path)
    raise ConfigError(
        f"dataset: {spec_str!r} is not a preset "
        f"({'|'.join(sorted(_PRESETS))}), an er:<n>:<p>:<seed> spec, or an "
        "<edges_path>,<features_path> pair"
    )


def resolve_dataset(cfg: CliConfig):
    """Load or generate the configured dataset."""
    kind, payload = _classify_dataset(cfg.dataset)
    if kind == "er":
        n, p, seed, f = payload
        g = data.gen_er_graph(n, p, seed)
        x = data.gen_features(n, f, seed)
        record = data.DatasetRecord(cfg.dataset, "ER", n, f, g.num_edges,
                                    "synthetic")
        return g, x, record
    if kind == "files":
        edges_path, features_path = payload
        g = data.load_edge_list(edges_path)
        x = data.load_features(features_path, g.num_nodes)
        name = os.path.basename(edges_path)
        record = data.DatasetRecord(name, "FL", g.num_nodes, x.shape[1],
                                    g.num_edges, "file")
        return g, x, record
    record = payload
    raise FormatError(
        f"dataset {record.name} is registry metadata only; pass the local "
        "files as --dataset <edges_path>,<features_path>"
    )


def build_model_spec(cfg: CliConfig, feature_length: int) -> models.ModelSpec:
    dims = (feature_length,) + (cfg.hidden,) * cfg.layers
    return models.ModelSpec(
        model=models.Model(cfg.model),
        comp_model=models.CompModel(cfg.comp),
        num_layers=cfg.layers,
        dims=dims,
        activation=models.Activation(cfg.activation),
        epsilon=cfg.epsilon,
        seed=cfg.seed,
    )


def run(cfg: CliConfig) -> int:
    """Execute the configured benchmark and emit the report."""
    g, x, record = resolve_dataset(cfg)
    spec = build_model_spec(cfg, x.shape[1])
    report = bench.instrumented_run(
        spec, g, x, repeats=cfg.repeats, dataset=record,
        precision=cfg.precision, warmup=cfg.warmup,
    )
    # serialize fully before touching the sink so a failed run never leaves
    # a partial report behind
    text = io.StringIO()
    bench.emit_report(report, cfg.format, text)
    if cfg.output == "-":
        sys.stdout.write(text.getvalue())
    else:
        with open(cfg.output, "w", encoding="utf-8") as fh:
            fh.write(text.getvalue())
    return EXIT_OK


def _check_line(ok: bool, name: str, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return ok


def check(cfg: CliConfig) -> int:
    """Equivalence and determinism suite for the configured pipeline."""
    g, x, record = resolve_dataset(cfg)
    dtype = np.float64 if cfg.precision == "f64" else np.float32
    tol = CHECK_TOLERANCE[cfg.precision]
    g_t = g.astype(dtype)
    x_t = np.ascontiguousarray(x, dtype=dtype)
    spec = build_model_spec(cfg, x.shape[1])
    params = [p.astype(dtype) for p in models.init_weights(spec)]

    all_ok = True

    out1 = models.forward(spec, params, g_t, x_t)
    out2 = models.forward(spec, params, g_t, x_t)
    same = out1.tobytes() == out2.tobytes()
    all_ok &= _check_line(same, "determinism",
                          "two executions are bitwise identical" if same
                          else "outputs differ between executions")

    others = [c for c in models.CompModel
              if c is not spec.comp_model and (spec.model, c) in models.PIPELINES]
    for other in others:
        spec_b = dataclasses.replace(spec, comp_model=other)
        out_b = models.forward(spec_b, params, g_t, x_t)
        diff = float(np.max(np.abs(out1 - out_b))) if out1.size else 0.0
        all_ok &= _check_line(
            diff <= tol, f"cross-model {cfg.comp} vs {other.value}",
            f"max abs diff {diff:.3e} (tolerance {tol:.0e})",
        )
    if not others:
        print(f"SKIP cross-model: {cfg.model} has a single computational model")

    if g.num_nodes <= DEFAULT_DENSE_LIMIT:
        ref = reference.dense_forward(spec, params, g, np.asarray(x, np.float64))
        diff = float(np.max(np.abs(out1.astype(np.float64) - ref))) if out1.size else 0.0
        all_ok &= _check_line(
            diff <= tol, "dense-reference",
            f"max abs diff {diff:.3e} (tolerance {tol:.0e})",
        )
    else:
        print(f"SKIP dense-reference: {g.num_nodes} nodes exceed the dense "
              f"limit {DEFAULT_DENSE_LIMIT}")

    return EXIT_OK if all_ok else EXIT_CONSISTENCY


def datasets() -> int:
    print(f"{'name':<12} {'short':<5} {'nodes':>9} {'features':>9} {'edges':>11}")
    for r in data.registry():
        print(f"{r.name:<12} {r.short_form:<5} {r.num_nodes:>9} "
              f"{r.feature_length:>9} {r.num_edges:>11}")
    print()
    print("core kernels: index_select (is), scatter (sc), sgemm (sg), "
          "spmm (sp), spgemm (sp)")
    return EXIT_OK


_DATA_ERRORS = (FormatError, ParseError, ShapeError, IndexRangeError,
                NormalizationError, OSError)


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
        if args.command == "datasets":
            return datasets()
        cfg = _resolve_config(args, os.environ.get(CONFIG_ENV_VAR))
        if args.command == "run":
            return run(cfg)
        return check(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONSISTENCY


if __name__ == "__main__":
    sys.exit(main())
