"""Command-line interface: assemble a pipeline, run it, emit reports.

Subcommands:

- ``run``: build the configured pipeline, execute it instrumented, and
  write a JSON or CSV report.
- ``check``: run the determinism / cross-model / dense-reference
  equivalence suite on the configured pipeline and print pass/fail lines.
- ``datasets``: print the dataset registry and the core-kernel legend.

Each parameter is one :class:`CliConfig` field, which declares its
default and its parser; the flags and the config-file keys are derived from
those fields. A parameter resolves with precedence: command-line flag, then
config-file entry, then the field default, and a flag value and a file
value go through the same parser; a flag value may start with ``-``, as
in ``--epsilon -1e-3``. The config file is plain UTF-8 ``key = value``
lines, where keys equal the long flag names; a ``#`` starts a comment at
the start of a line or after whitespace, so ``output = out#1.json`` keeps
its ``#``. The file is named by ``--config`` or the ``GSUITE_CONFIG``
environment variable. Validation is fail-fast: nothing is computed until
the whole configuration is resolved and checked.

Exit codes: 0 success, 2 usage or configuration error, 3 data error,
4 internal consistency (determinism or equivalence) failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import re
import sys
from typing import Optional

import numpy as np

from . import bench, data, models, reference
from .errors import (
    CapacityError,
    ConfigError,
    ConsistencyError,
    FormatError,
    IndexRangeError,
    NormalizationError,
    ParseError,
    ShapeError,
)
from .rng import MASK64

__all__ = ["CliConfig", "parse_config", "run", "main"]

CONFIG_ENV_VAR = "GSUITE_CONFIG"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_CONSISTENCY = 4

# Tolerance used by `check` for the cross-model and dense-reference
# comparisons, one entry per precision in ``bench.PRECISIONS``. It is
# relative: each comparison scales it by max(1, max |reference|).
CHECK_TOLERANCE = {"f64": 1e-9, "f32": 1e-4}

# Feature length used for synthetic er: datasets when the optional fifth
# field is omitted.
DEFAULT_SYNTHETIC_FEATURES = 16


def _parse_int(key: str, value, minimum: Optional[int] = None,
               maximum: Optional[int] = None) -> int:
    try:
        out = int(value, 0)
    except ValueError:
        try:
            out = int(value)  # decimal with leading zeros, such as "010"
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
        x = float(value)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {value!r}") from None
    if not np.isfinite(x):
        raise ConfigError(f"{key} must be finite, got {value}")
    return x


def _setting(default, parse, metavar=None, help=None):
    """A CliConfig field: its default, and the parser of a flag or file value."""
    return dataclasses.field(default=default, metadata={
        "parse": parse, "metavar": metavar, "help": help})


def _count(default, minimum):
    return _setting(default, lambda key, value: _parse_int(key, value, minimum),
                    metavar="N")


def _choice(default, choices):
    """A case-insensitive choice, stored lower-case; ``choices`` holds
    strings or the members of an Enum whose values are the choices."""
    choices = tuple(getattr(c, "value", c) for c in choices)

    def parse(key, value):
        out = value.lower()
        if out not in choices:
            raise ConfigError(
                f"{key}: expected one of {'|'.join(choices)}, got {value!r}")
        return out

    return _setting(default, parse, metavar="{" + "|".join(choices) + "}")


def _text(key, value) -> str:
    return value


@dataclasses.dataclass
class CliConfig:
    """Every pipeline setting; each is a flag and a config-file key alike."""

    model: str = _choice("gcn", models.Model)
    comp: str = _choice("mp", models.CompModel)
    dataset: str = _setting("er:64:0.1:42", _text, help="preset name, "
                            "er:<n>:<p>:<seed>[:<f>], or <edges_path>,<features_path>")
    layers: int = _count(2, minimum=1)
    hidden: int = _count(16, minimum=1)
    epsilon: float = _setting(0.0, _parse_float, metavar="X")
    activation: str = _choice("relu", models.Activation)
    repeats: int = _count(3, minimum=1)
    seed: int = _setting(0, _parse_seed, metavar="U64")
    precision: str = _choice("f64", bench.PRECISIONS)
    output: str = _setting("-", _text, help="report path, or - for stdout")
    format: str = _choice("json", bench.REPORT_WRITERS)
    warmup: int = _count(0, minimum=0)


_SETTINGS = {f.name: f for f in dataclasses.fields(CliConfig)}

# a comment starts at a "#" that begins the line or follows whitespace
_COMMENT = re.compile(r"(?:^|\s)#")


def read_config_file(path: str) -> dict:
    """Parse a ``key = value`` config file; unknown keys are rejected."""
    entries: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc.reason} "
                          f"0x{exc.object[exc.start]:02x}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = _COMMENT.split(raw, 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SETTINGS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        entries[key] = value
    return entries


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built on first use and shared by later calls;
    parsing keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="gnnbench",
        description="Framework-independent GNN inference benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary in (("run", "run an instrumented benchmark"),
                          ("check", "run the equivalence and determinism checks")):
        # no prefix matching: a setting has one spelling, as in a config file
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        # flags stay strings here: each value goes through its field's
        # parser, exactly as a config-file value does
        for f in _SETTINGS.values():
            p.add_argument(f"--{f.name}", metavar=f.metadata["metavar"],
                           help=f.metadata["help"])
        p.add_argument("--config", help="config file path")
    sub.add_parser("datasets", help="print the dataset registry")
    return parser


def _parse_args(argv) -> argparse.Namespace:
    # argparse takes a value that starts with "-" for an option, so each
    # "--<setting> <value>" pair reaches it as one "--<setting>=<value>"
    joined = []
    tokens = iter(argv)
    for token in tokens:
        value = None
        if token.startswith("--") and token[2:] in _SETTINGS:
            value = next(tokens, None)
        joined.append(token if value is None else f"{token}={value}")
    return build_parser().parse_args(joined)


def parse_config(argv, config_file: Optional[str] = None) -> CliConfig:
    """Resolve a full CliConfig from flags, config file, and defaults.

    ``config_file`` is a fallback path (normally from ``GSUITE_CONFIG``);
    an explicit ``--config`` flag wins over it.
    """
    return _resolve_config(_parse_args(argv), config_file)


def _resolve_config(args: argparse.Namespace,
                    config_file: Optional[str]) -> CliConfig:
    if args.command == "datasets":
        raise ConfigError("datasets subcommand takes no pipeline configuration")

    path = args.config if args.config is not None else config_file
    file_entries = read_config_file(path) if path else {}

    resolved = {}
    for f in _SETTINGS.values():  # flag, then file entry, then the field default
        value = getattr(args, f.name)
        if value is None:
            value = file_entries.get(f.name)
        if value is not None:
            resolved[f.name] = f.metadata["parse"](f.name, value)
    cfg = CliConfig(**resolved)

    models.pipeline_for(models.Model(cfg.model), models.CompModel(cfg.comp))
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
        try:  # the generators' own caps, checked before anything is drawn
            data.check_draw_count(n)
            data.check_draw_count(n, f)
        except CapacityError as exc:
            raise ConfigError(f"dataset: {exc}") from None
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
    text = bench.REPORT_WRITERS[cfg.format](report)
    if cfg.output == "-":
        sys.stdout.write(text)
    else:
        with open(cfg.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    return EXIT_OK


def _check_line(ok: bool, name: str, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return ok


def _check_close(name: str, got: np.ndarray, want: np.ndarray, tol: float) -> bool:
    """Print one PASS/FAIL line: ``got`` passes when every element is within
    ``tol * max(1, max |want|)`` of ``want``, the maximum over its finite
    elements, so the bound tracks the reference's scale and an infinity
    cannot widen it. Equal elements, equal infinities and NaN against NaN
    differ by 0; any other non-finite mismatch fails."""
    scale = float(np.max(np.abs(want), initial=1.0, where=np.isfinite(want)))
    differ = (got != want) & ~(np.isnan(got) & np.isnan(want))
    gap = np.zeros(differ.shape, np.result_type(got, want))
    with np.errstate(over="ignore"):  # a difference past the range is inf
        np.subtract(got, want, out=gap, where=differ)
    diff = float(np.max(np.abs(gap), initial=0.0))
    used = tol * scale
    detail = f"max abs diff {diff:.3e} (tolerance {used:.3e} = {tol:.0e} x {scale:.3e})"
    nonfinite = got.size - int(np.count_nonzero(np.isfinite(got)))
    if nonfinite:
        detail += f", {nonfinite} of {got.size} output elements non-finite"
    return _check_line(diff <= used, name, detail)


def check(cfg: CliConfig) -> int:
    """Equivalence and determinism suite for the configured pipeline."""
    g, x, record = resolve_dataset(cfg)
    tol = CHECK_TOLERANCE[cfg.precision]
    spec = build_model_spec(cfg, x.shape[1])
    g_t, x_t, params = bench.cast_inputs(spec, g, x, cfg.precision)

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
        all_ok &= _check_close(f"cross-model {cfg.comp} vs {other.value}",
                               out1, out_b, tol)
    if not others:
        print(f"SKIP cross-model: {cfg.model} has a single computational model")

    try:
        ref = reference.dense_forward(spec, params, g, np.asarray(x, np.float64))
    except CapacityError as exc:
        print(f"SKIP dense-reference: {exc}")
    else:
        all_ok &= _check_close("dense-reference", out1.astype(np.float64), ref, tol)

    return EXIT_OK if all_ok else EXIT_CONSISTENCY


def datasets() -> int:
    print(f"{'name':<12} {'short':<5} {'nodes':>9} {'features':>9} {'edges':>11}")
    for r in data.registry():
        print(f"{r.name:<12} {r.short_form:<5} {r.num_nodes:>9} "
              f"{r.feature_length:>9} {r.num_edges:>11}")
    print()
    print("core kernels: index_select (is), scatter (sc), sgemm (sg), spmm (sp)")
    return EXIT_OK


_DATA_ERRORS = (FormatError, ParseError, ShapeError, IndexRangeError,
                NormalizationError, OSError)

# The exit code of each error kind, first match wins.
_ERROR_EXITS = ((ConfigError, EXIT_USAGE), (_DATA_ERRORS, EXIT_DATA),
                (ConsistencyError, EXIT_CONSISTENCY))


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = _parse_args(argv)
        if args.command == "datasets":
            return datasets()
        cfg = _resolve_config(args, os.environ.get(CONFIG_ENV_VAR))
        if args.command == "run":
            return run(cfg)
        return check(cfg)
    except (ConfigError, *_DATA_ERRORS, ConsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in _ERROR_EXITS if isinstance(exc, kinds))


if __name__ == "__main__":
    sys.exit(main())
