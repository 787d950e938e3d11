"""Command-line interface: assemble a pipeline, run it, emit reports.

Subcommands:

- ``run``: build the configured pipeline, execute it instrumented, and
  write a JSON or CSV report.
- ``check``: run the determinism / cross-model / dense-reference
  equivalence suite on the configured pipeline and print pass/fail lines.
- ``datasets``: print the dataset registry and the core-kernel legend,
  each kernel with its short form as ``gnnbench.kernels.KERNELS`` lists it.

Each parameter is one :class:`CliConfig` field, which declares its
default, its parser and the subcommands that read it; the flags and the
config-file keys are derived from those fields. A subcommand takes the
flags of its own settings only: ``run`` takes all 13, and ``check``,
which neither times a run nor writes a report, takes no ``--repeats``,
``--warmup``, ``--output`` or ``--format``. The chosen subcommand's own
parser judges every token after its name, so a flag it does not take exits
2 under that subcommand's usage, named as typed. A parameter resolves with
precedence: command-line flag, then config-file entry, then the field
default, and a flag value and a file value go through the same parser; a
flag value may start with ``-``, as in ``--epsilon -1e-3``, and so may the
``--config`` path. The config file is plain UTF-8 ``key = value`` lines,
where keys equal the long flag names and each is set once; a ``#`` starts
a comment at the start of a line or after whitespace, so ``output =
out#1.json`` keeps its ``#``. A file is one document, validated whole
whichever subcommand reads it, and each subcommand applies the keys it
reads, so one file serves ``run`` and ``check`` alike. The file is named
by ``--config``, else by the ``GSUITE_CONFIG`` environment variable, which
``_resolve_config`` alone reads, so :func:`parse_config` and :func:`main`
resolve the same configuration.
Validation is fail-fast: nothing is computed until the whole configuration
is resolved and checked, so an ``output`` that is empty, names a directory
or lies in a missing one is a configuration error rather than a path that
fails after the run. A precision's dtype and the tolerance ``check`` allows
it are one ``bench.PRECISIONS`` entry.

``--dataset`` is classified in one place, ``_dataset_loader``, which checks
the spec and returns the zero-argument loader of its kind (an ``er:``
generator, a file pair's reader, or a registry preset's, which fails with
a data error). The field's parser classifies the spec as the configuration
resolves, like every other setting's, and :func:`resolve_dataset` calls
the loader.

Exit codes: 0 success, 2 usage or configuration error, 3 data error
(an unreadable or malformed input, or an allocation numpy is refused, such
as the weights of a huge ``--hidden``), 4 internal consistency (determinism
or equivalence) failure. An allocation the operating system grants but
cannot back can still end the process in an out-of-memory kill, which no
handler sees.
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

from . import bench, data, kernels, models, reference
from .errors import (
    CapacityError,
    ConfigError,
    ConsistencyError,
    FormatError,
    IndexRangeError,
    NormalizationError,
    ShapeError,
)
from .rng import MASK64

__all__ = ["CliConfig", "parse_config", "run", "main"]

CONFIG_ENV_VAR = "GSUITE_CONFIG"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_CONSISTENCY = 4

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


# The subcommands that read a setting: every subcommand runs a pipeline,
# and only ``run`` times it and writes a report.
_PIPELINE = ("run", "check")
_REPORT = ("run",)


def _setting(default, parse, metavar=None, help=None, commands=_PIPELINE):
    """A CliConfig field: its default, the parser of a flag or file value,
    and the subcommands that read it, which alone take its flag."""
    return dataclasses.field(default=default, metadata={
        "parse": parse, "metavar": metavar, "help": help, "commands": commands})


def _count(default, minimum, commands=_PIPELINE):
    return _setting(default, lambda key, value: _parse_int(key, value, minimum),
                    metavar="N", commands=commands)


def _choice(default, choices, commands=_PIPELINE):
    """A case-insensitive choice, stored lower-case; ``choices`` holds
    strings or the members of an Enum whose values are the choices."""
    choices = tuple(getattr(c, "value", c) for c in choices)

    def parse(key, value):
        out = value.lower()
        if out not in choices:
            raise ConfigError(
                f"{key}: expected one of {'|'.join(choices)}, got {value!r}")
        return out

    return _setting(default, parse, "{" + "|".join(choices) + "}", commands=commands)


def _dataset(key, value) -> str:
    _dataset_loader(value)  # classifies the spec; nothing is read or drawn
    return value


def _path(key, value) -> str:
    # the report is written after the run, so a path it cannot take fails
    # here, before anything is drawn
    if not value:
        raise ConfigError(f"{key}: expected a path, or - for stdout, got ''")
    if value == "-":
        return value
    if not os.path.isdir(os.path.dirname(value) or "."):
        raise ConfigError(f"{key}: the directory of {value!r} does not exist")
    if os.path.isdir(value):
        raise ConfigError(f"{key}: {value!r} is a directory, not a report path")
    return value


@dataclasses.dataclass
class CliConfig:
    """Every setting; each is a config-file key, and a flag of the
    subcommands its ``commands`` metadata names."""

    model: str = _choice("gcn", models.Model)
    comp: str = _choice("mp", models.CompModel)
    dataset: str = _setting("er:64:0.1:42", _dataset, help="preset name, "
                            "er:<n>:<p>:<seed>[:<f>], or <edges_path>,<features_path>")
    layers: int = _count(2, minimum=1)
    hidden: int = _count(16, minimum=1)
    epsilon: float = _setting(0.0, _parse_float, metavar="X")
    activation: str = _choice("relu", models.Activation)
    repeats: int = _count(3, minimum=1, commands=_REPORT)
    seed: int = _setting(0, _parse_seed, metavar="U64")
    precision: str = _choice("f64", bench.PRECISIONS)
    output: str = _setting("-", _path, help="report path, or - for stdout",
                           commands=_REPORT)
    format: str = _choice("json", bench.REPORT_WRITERS, commands=_REPORT)
    warmup: int = _count(0, minimum=0, commands=_REPORT)


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
        if key in entries:
            raise ConfigError(f"{path}:{lineno}: {key!r} is set twice")
        entries[key] = value
    return entries


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser: argparse hands it every token after the
    subcommand's name through ``parse_known_args``, and it rejects, as
    typed and under its own usage, any it does not take. argparse takes a
    value that starts with "-" for an option, so each ``<flag> <value>``
    pair of ``value_flags`` reaches argparse as one ``<flag>=<value>``."""

    value_flags = frozenset()

    def parse_known_args(self, args=None, namespace=None):
        joined = []
        tokens = iter(args)
        for token in tokens:
            value = next(tokens, None) if token in self.value_flags else None
            joined.append(token if value is None else f"{token}={value}")
        namespace, extras = super().parse_known_args(joined, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built on first use and shared by later calls;
    parsing keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="gnnbench",
        description="Framework-independent GNN inference benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_SubcommandParser)
    for name, summary in (("run", "run an instrumented benchmark"),
                          ("check", "run the equivalence and determinism checks")):
        # no prefix matching: a setting has one spelling, as in a config file
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        # flags stay strings here: each value goes through its field's
        # parser, exactly as a config-file value does
        own = [f for f in _SETTINGS.values() if name in f.metadata["commands"]]
        for f in own:
            p.add_argument(f"--{f.name}", metavar=f.metadata["metavar"],
                           help=f.metadata["help"])
        p.add_argument("--config", help="config file path")
        p.value_flags = {f"--{f.name}" for f in own} | {"--config"}
    sub.add_parser("datasets", help="print the dataset registry")
    return parser


def parse_config(argv) -> CliConfig:
    """The CliConfig that :func:`main` runs for ``argv``: flags, then the
    config file (``--config``, else ``GSUITE_CONFIG``), then defaults."""
    return _resolve_config(build_parser().parse_args(argv))


def _resolve_config(args: argparse.Namespace) -> CliConfig:
    if args.command == "datasets":
        raise ConfigError("datasets subcommand takes no pipeline configuration")

    path = args.config if args.config is not None else os.getenv(CONFIG_ENV_VAR)
    file_entries = read_config_file(path) if path else {}

    resolved = {}
    for f in _SETTINGS.values():  # flag, then file entry, then the field default
        value = getattr(args, f.name, None)  # absent: not a flag of this subcommand
        if value is None:
            value = file_entries.get(f.name)
        if value is not None:
            resolved[f.name] = f.metadata["parse"](f.name, value)
    return CliConfig(**resolved)


_PRESETS = {r.name.lower(): r for r in data.registry()}


def _dataset_loader(spec: str):
    """The zero-argument loader of ``(g, x, record)`` that ``spec`` names:
    an ``er:`` generator, a file pair's reader, or a preset's, which raises
    FormatError. A malformed spec raises ConfigError here, and nothing is
    read or drawn until the loader is called."""
    if spec.startswith("er:"):
        parts = spec.split(":")
        if len(parts) not in (4, 5):
            raise ConfigError(
                f"dataset: expected er:<n>:<p>:<seed>[:<f>], got {spec!r}"
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

        def generate():
            g = data.gen_er_graph(n, p, seed)
            return g, data.gen_features(n, f, seed), data.DatasetRecord(
                spec, "ER", n, f, g.num_edges, "synthetic")
        return generate
    if spec.lower() in _PRESETS:
        record = _PRESETS[spec.lower()]

        def metadata_only():
            raise FormatError(f"dataset {record.name} is registry metadata only; "
                              "pass the local files as --dataset "
                              "<edges_path>,<features_path>")
        return metadata_only
    if "," in spec:
        edges_path, _, features_path = spec.partition(",")
        if not edges_path or not features_path:
            raise ConfigError(
                f"dataset: expected <edges_path>,<features_path>, got {spec!r}"
            )

        def load():
            g = data.load_edge_list(edges_path)
            x = data.load_features(features_path, g.num_nodes)
            return g, x, data.DatasetRecord(os.path.basename(edges_path), "FL",
                                            g.num_nodes, x.shape[1],
                                            g.num_edges, "file")
        return load
    raise ConfigError(
        f"dataset: {spec!r} is not a preset "
        f"({'|'.join(sorted(_PRESETS))}), an er:<n>:<p>:<seed> spec, or an "
        "<edges_path>,<features_path> pair"
    )


def resolve_dataset(cfg: CliConfig):
    """Load or generate the configured dataset: ``(g, x, record)``."""
    return _dataset_loader(cfg.dataset)()


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
    _, tol = bench.PRECISIONS[cfg.precision]
    spec = build_model_spec(cfg, x.shape[1])
    g_t, x_t, params = bench.cast_inputs(spec, g, x, cfg.precision)

    all_ok = True

    out1 = models.forward(spec, params, g_t, x_t)
    out2 = models.forward(spec, params, g_t, x_t)
    same = out1.tobytes() == out2.tobytes()
    all_ok &= _check_line(same, "determinism",
                          "two executions are bitwise identical" if same
                          else "outputs differ between executions")

    (other,) = (c for c in models.CompModel if c is not spec.comp_model)
    out_b = models.forward(dataclasses.replace(spec, comp_model=other), params,
                           g_t, x_t)
    all_ok &= _check_close(f"cross-model {cfg.comp} vs {other.value}", out1, out_b,
                           tol)

    try:
        ref = reference.dense_forward(spec, params, g, np.asarray(x, np.float64))
    except CapacityError as exc:
        print(f"SKIP dense-reference: {exc}")
    else:
        all_ok &= _check_close("dense-reference", np.asarray(out1, np.float64), ref,
                               tol)

    return EXIT_OK if all_ok else EXIT_CONSISTENCY


def datasets() -> int:
    print(f"{'name':<12} {'short':<5} {'nodes':>9} {'features':>9} {'edges':>11}")
    for r in data.registry():
        print(f"{r.name:<12} {r.short_form:<5} {r.num_nodes:>9} "
              f"{r.feature_length:>9} {r.num_edges:>11}")
    print()
    print("core kernels: " + ", ".join(
        f"{name} ({short})" for name, (_, short, _) in kernels.KERNELS.items()))
    return EXIT_OK


_DATA_ERRORS = (FormatError, ShapeError, IndexRangeError, NormalizationError,
                OSError, MemoryError)

# The exit code of each error kind, first match wins.
_ERROR_EXITS = ((ConfigError, EXIT_USAGE), (_DATA_ERRORS, EXIT_DATA),
                (ConsistencyError, EXIT_CONSISTENCY))


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
        if args.command == "datasets":
            return datasets()
        cfg = _resolve_config(args)
        if args.command == "run":
            return run(cfg)
        return check(cfg)
    except (ConfigError, *_DATA_ERRORS, ConsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in _ERROR_EXITS if isinstance(exc, kinds))


if __name__ == "__main__":
    sys.exit(main())
