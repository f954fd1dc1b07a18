"""Command-line harness for the experiment campaigns.

Subcommands: stationary-check | convergence | prevalence | size | motif-total.
A plain-text config file ("key = value" lines, # comments, keys matching the
long flag names with - or _) can supply any flag; flags given on the command
line override file values.  A flag or key the campaign does not read exits 2.

Exit codes: 0 success, 2 configuration error, 3 non-ergodic walk
configuration, 4 no-observation failure rate above the threshold.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, NamedTuple

from .errors import ConfigError, LagwalkError, NonErgodicError, ObservationFailureError
from .experiments import (
    EXPERIMENTS,
    NORMALIZATIONS,
    SIZE_ESTIMATORS,
    CampaignConfig,
    render_csv,
    run_campaign,
)
from .graph import MotifKind
from .sampling import WEIGHT_SCHEMES

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NON_ERGODIC = 3
EXIT_NO_OBSERVATIONS = 4

# Per-experiment values that differ from the CampaignConfig defaults.
_DEFAULTS = {
    "stationary-check": dict(r_values=(0.1, 1.0, 6.0), w_values=(0.0, 0.5, 1.0)),
    "convergence": dict(r_values=(1.0, 0.1), w_values=(1.0,), replicates=100_000),
    "size": dict(replicates=10_000),
    "motif-total": dict(replicates=10_000),
}


def _list_of(kind: type) -> Callable[[str], tuple]:
    """Parser of a space- or comma-separated list of ``kind`` values."""
    def parse(text: str) -> tuple:
        parts = text.replace(",", " ").split()
        if not parts:
            raise argparse.ArgumentTypeError("empty list")
        return tuple(kind(p) for p in parts)
    parse.__name__ = f"{kind.__name__} list"  # argparse names it in "invalid ... value"
    return parse


def _init(text: str) -> tuple[str, int | None]:
    """(init, init_node) from "stationary", "uniform" or "fixed:<node id>"."""
    if not text.startswith("fixed"):
        return text, None
    try:
        return "fixed", int(text.partition(":")[2])
    except ValueError:
        raise argparse.ArgumentTypeError(f"fixed init needs a node id, e.g. fixed:0, "
                                         f"not {text!r}") from None


def _estimators(text: str) -> tuple[str, ...]:
    return SIZE_ESTIMATORS if text == "all" else (text,)


def _switch(text: str) -> bool:
    word = text.lower()
    if word not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError("expected true or false")
    return word in ("1", "true", "yes")


# Who reads a setting besides every experiment: the experiments that walk, and
# those that walk a (T, r, w) grid and can fail to observe.
_WALKS = ("convergence", "prevalence", "size", "motif-total")
_GRID = ("prevalence", "size", "motif-total")


class _Setting(NamedTuple):
    """One CLI setting: its flag sets the CampaignConfig ``field``.

    The config-file key is the flag name without its leading dashes, and its
    value goes through the same ``type``.  A ``type`` of None marks a switch
    that sets ``field`` to None.  ``choices`` only label the flag in --help:
    the type or CampaignConfig checks the value, for flags and files alike.
    Only the experiments in ``reads`` accept the flag or the key.
    """

    flag: str
    field: str
    type: Callable | None = str
    choices: tuple[str, ...] | None = None
    help: str | None = None
    reads: tuple[str, ...] = EXPERIMENTS


# Every setting but --config, keyed by its config-file key.
_SETTINGS = {s.flag[2:].replace("-", "_"): s for s in (
    _Setting("--graph", "graph_path", help="edge-list file to load"),
    _Setting("--generate", "graph_path", None,
             help="generate the core-periphery graph (default; overrides a config file's graph)"),
    _Setting("--nodes", "n_nodes", int),
    _Setting("--cases", "n_cases", int),
    _Setting("--p-cc", "p_case_case", float, help="case-case edge probability"),
    _Setting("--p-cn", "p_case_noncase", float, help="case-noncase edge probability"),
    _Setting("--p-nn", "p_noncase_noncase", float, help="noncase-noncase edge probability"),
    _Setting("--graph-seed", "graph_seed", int,
             help="generation seed (frozen default regenerates the demo graph)"),
    _Setting("--r", "r_values", _list_of(float), help="jump-rate grid"),
    _Setting("--w", "w_values", _list_of(float), help="backtracking-weight grid"),
    _Setting("--walk-length", "lengths", _list_of(int),
             help="walk-length grid (states extracted per walk for `size`)", reads=_GRID),
    _Setting("--replicates", "replicates", int, reads=_WALKS),
    _Setting("--replicates-ratio", "replicates_ratio", int,
             help="replicates for the ratio campaign of motif-total", reads=("motif-total",)),
    _Setting("--seed", "seed", int, help="master seed"),
    _Setting("--init", "init", _init, help="stationary | uniform | fixed:<node id>", reads=_WALKS),
    _Setting("--burn-in", "burn_in", int, reads=_GRID),
    _Setting("--estimator", "estimators", _estimators, SIZE_ESTIMATORS + ("all",), reads=("size",)),
    _Setting("--motif", "motif", MotifKind, tuple(MotifKind), reads=("motif-total",)),
    _Setting("--weights", "weights", str, WEIGHT_SCHEMES, reads=("prevalence", "motif-total")),
    _Setting("--normalization", "normalization", str, NORMALIZATIONS, reads=("motif-total",)),
    _Setting("--out", "out", help="CSV output path (default stdout)"),
    _Setting("--jobs", "jobs", int, help="parallel worker processes"),
    _Setting("--max-failure-rate", "max_failure_rate", float, reads=_GRID),
)}

# Settings of the graph generator, which a loaded graph leaves unread.
_GENERATOR = ("nodes", "cases", "p_cc", "p_cn", "p_nn", "graph_seed")


class _ExperimentParser(argparse.ArgumentParser):
    """A subcommand parser that names its experiment when it meets a flag it does not read."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lagwalk",
        description="Lagged random-walk sampling experiments on simple undirected graphs.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True, parser_class=_ExperimentParser)
    for name in EXPERIMENTS:
        # unset flags stay off the namespace, so make_config sees only what was given
        p = sub.add_parser(name, help=f"run the {name} campaign",
                           argument_default=argparse.SUPPRESS)
        p.add_argument("--config", help="plain-text key=value config file")
        src = p.add_mutually_exclusive_group()
        for key, s in _SETTINGS.items():
            if name not in s.reads:
                continue
            target = src if s.field == "graph_path" else p
            if s.type is None:
                target.add_argument(s.flag, dest=s.field, action="store_const", const=None,
                                    help=s.help)
                continue
            metavar = "{%s}" % ",".join(s.choices) if s.choices else key.upper()
            target.add_argument(s.flag, dest=s.field, type=s.type, metavar=metavar, help=s.help)
    return parser


def read_config_file(path: str) -> dict[str, str]:
    """Parse "key = value" lines; '#' starts a comment; keys use - or _."""
    out: dict[str, str] = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
                key, value = line.split("=", 1)
                out[key.strip().replace("-", "_")] = value.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return out


def _file_values(raw: dict[str, str], experiment: str) -> dict:
    """CampaignConfig fields from config-file text, typed as their flags are."""
    out = {}
    for key, text in raw.items():
        setting = _SETTINGS.get(key)
        if setting is None:
            raise ConfigError(f"unknown config key {key!r}")
        if experiment not in setting.reads:
            raise ConfigError(f"config key {key!r} is not read by {experiment}")
        try:
            if setting.type is None:
                if not _switch(text):
                    continue
                value = None
            else:
                value = setting.type(text)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ConfigError(f"config key {key!r}: bad value {text!r} ({exc})") from exc
        if setting.field in out:
            raise ConfigError(f"config key {key!r} sets {setting.field}, "
                              "already set by an earlier key")
        out[setting.field] = value
    return out


def make_config(args: argparse.Namespace) -> CampaignConfig:
    """Merge the experiment's defaults, then the config file, then the flags."""
    flags = vars(args).copy()
    exp = flags.pop("experiment")
    path = flags.pop("config", None)
    given = {**(_file_values(read_config_file(path), exp) if path else {}), **flags}
    unread = [_SETTINGS[k].flag for k in _GENERATOR if _SETTINGS[k].field in given]
    if unread and given.get("graph_path"):
        raise ConfigError(f"{', '.join(unread)} set the graph generator, "
                          f"but the graph is loaded from {given['graph_path']}")
    values = {**_DEFAULTS.get(exp, {}), **given}
    if "init" in values:
        values["init"], values["init_node"] = values["init"]
        # an explicit init narrows the convergence campaign to that start mode
        if exp == "convergence":
            values["convergence_inits"] = (values["init"],)
    return CampaignConfig(experiment=exp, **values)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, which matches the config-error code
        return int(exc.code) if exc.code else EXIT_OK
    try:
        cfg = make_config(args)
        rows, columns = run_campaign(cfg)
        if not cfg.out:
            sys.stdout.write(render_csv(rows, columns))
        return EXIT_OK
    except NonErgodicError as exc:
        print(f"error: non-ergodic configuration: {exc}", file=sys.stderr)
        return EXIT_NON_ERGODIC
    except ObservationFailureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_OBSERVATIONS
    except LagwalkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
