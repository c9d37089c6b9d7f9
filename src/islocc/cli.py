"""Command-line front end: parameter sweeps, Bell-violation maps, threshold
search and self-verification.

Exit codes: 0 on success, 1 when verification fails, 2 on configuration
errors.  Options may come from a flat ``key = value`` config file
(``--config``); command-line flags override file values, and the merged
values build one :class:`~islocc.sweeps.SweepConfig`, checked once when
built.  An ``--output`` path that is a directory, or whose directory is
missing or unwritable, is rejected before any computation; with
``--output`` nothing is written to stdout.  A sweep evaluates all its
families as one stacked Werner-family array in closed form
(:class:`~islocc.xstate.WernerFamily`); its CSV and JSON are written from the
sweep's family x noise layout (:func:`~islocc.sweeps.sweep_text`), with no flat
table, and its SVG from the ``ROW_DTYPE`` table of :func:`~islocc.sweeps.run_sweep`.
``bell-region`` writes the same sweep with the ``p``, ``indist``, ``bell`` and
``violated`` columns.  Echoed paths are cut to their first 60 characters.
``threshold`` takes no grid, format, ``--constraint`` or ``--lprime`` flags;
it does not read the grid and format keys of a config file, but they must pass
every sweep rule, the row cap included, and a config-file ``constraint`` other
than ``l_eq_rprime`` exits 2 with the threshold search's own message.  Each
handler returns its exit code, text and output path, and :func:`main` writes
the text, ``--help``'s included; a failed write, to a file or to stdout,
exits 2.  Only
``islocc verify`` loads the oracle (:mod:`islocc.verify` and the amplitude
engine under it); ``sweep``, ``bell-region`` and ``threshold`` load
:mod:`islocc.xstate`, :mod:`islocc.sweeps` and :mod:`islocc.svg` alone.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import sys
from pathlib import Path

# no command writes through records_to_csv or records_to_json (sweep_text encodes
# a sweep's layout), but perfbench's tracer wraps both here by name
from .sweeps import (BELL_REGION_FIELDS, CONSTRAINTS, CSV_FIELDS, FORMATS, TARGETS,
                     ConfigError, GridSpec, SweepConfig, _bounded, _check_threshold_family,
                     _shown, find_threshold, records_to_csv, records_to_json, run_sweep,
                     sweep_text)
from .svg import bell_region_svg, sweep_svg
from .xstate import ParticleStatistics

__all__ = ["main", "build_config", "load_config_file"]

#: Config keys, in the order they are read, and the parser of each value.
_CONFIG_KEYS = {"statistics": ParticleStatistics.parse, "theta": float, "target": str,
                "constraint": str, "p_grid": GridSpec.parse, "indist_grid": GridSpec.parse,
                "l_grid": GridSpec.parse, "lprime": float, "output": str, "format": str}

#: Flags that take a number: argparse reads a bare negative number in
#: exponent form (-1e-07) as an unknown option, so such a value is attached.
_NUMBER_FLAGS = ("--theta", "--lprime")


def load_config_file(path: str) -> dict[str, str]:
    """Parse a flat ``key = value`` config file ('#' starts a comment)."""
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {_shown(path)}: {_reason(exc)}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read config file {_shown(path)}: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{_bounded(path)}:{lineno}: expected 'key = value', "
                              f"got {_shown(raw)}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.lower().replace("-", "_")
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{_bounded(path)}:{lineno}: unknown config key {_shown(key)}")
        values[key] = value
    return values


def build_config(args: argparse.Namespace) -> SweepConfig:
    """Merge config-file values and CLI flags (flags win) into a SweepConfig."""
    return _checked_config(_merged_values(args))


def _merged_values(args: argparse.Namespace) -> dict:
    """Config-file values and CLI flags (flags win), each parsed."""
    values = load_config_file(args.config) if args.config else {}
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    try:
        return {key: parse(values[key]) for key, parse in _CONFIG_KEYS.items()
                if key in values}
    except ConfigError:
        raise
    except ValueError as exc:  # float and ParticleStatistics.parse echo the text they read
        raise ConfigError(_bounded(str(exc))) from None


def _checked_config(values: dict) -> SweepConfig:
    config = SweepConfig(**values)
    if config.output is not None:
        _check_writable(config.output)
    return config


def _check_writable(output: str) -> None:
    """Reject an output path that is a directory or whose directory is
    missing or unwritable, so that the run fails before any computation."""
    try:
        if Path(output).is_dir():
            raise ConfigError(f"cannot write output file {_shown(output)}: it is a directory")
        directory = Path(output).parent
        if not directory.is_dir():
            raise ConfigError(f"cannot write output file {_shown(output)}: "
                              "its directory does not exist")
    except OSError as exc:  # a name too long for the file system
        raise ConfigError(f"cannot write output file {_shown(output)}: {_reason(exc)}") from None
    if not os.access(directory, os.W_OK):
        raise ConfigError(f"cannot write output file {_shown(output)}: "
                          "its directory is not writable")


def _reason(exc: OSError) -> str:
    """What went wrong, without the file name an ``OSError`` of a file repeats."""
    return exc.strerror if exc.filename is not None and exc.strerror else _bounded(str(exc))


def _emit(text: str, output: str | None) -> None:
    """Write ``text`` to the file ``output``, or to stdout and flush it.  A failed
    write is a :class:`ConfigError`; what stdout took before it stays written."""
    try:
        if output is None:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            Path(output).write_text(text, encoding="utf-8")
    except OSError as exc:  # a closed pipe, a full disk
        if output is None:  # so that the flush at exit finds the null device, not the failure
            with contextlib.suppress(OSError, ValueError):  # a stdout with no descriptor
                stdout, devnull = sys.stdout.fileno(), os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, stdout)
                os.close(devnull)
        where = "to stdout" if output is None else f"output file {_shown(output)}"
        raise ConfigError(f"cannot write {where}: {_reason(exc)}") from None


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value configuration file")
    parser.add_argument("--statistics", choices=[str(s) for s in ParticleStatistics])
    parser.add_argument("--theta", help="phase of the second wave function, radians "
                                        "(default: canonical pairing for target/statistics)")
    parser.add_argument("--target", choices=TARGETS)
    parser.add_argument("--output", help="output path (default: stdout)")


def _add_grid_flags(parser: argparse.ArgumentParser) -> None:
    """Flags of the grid subcommands only: ``threshold`` rejects them, since its
    search runs on the r' = l family alone."""
    parser.add_argument("--constraint", choices=CONSTRAINTS)
    parser.add_argument("--lprime", help="fixed l' for the free constraint")
    parser.add_argument("--p-grid", dest="p_grid", metavar="A:B:N",
                        help="noise-probability grid")
    parser.add_argument("--indist-grid", dest="indist_grid", metavar="A:B:N",
                        help="indistinguishability grid (l_eq_rprime family)")
    parser.add_argument("--l-grid", dest="l_grid", metavar="A:B:N",
                        help="grid over l instead of the indistinguishability degree")
    parser.add_argument("--format", choices=FORMATS)


@functools.cache  # built by the first main call, reused by in-process callers
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="islocc",
        description="Noisy entanglement preparation with spatially "
                    "indistinguishable identical particles.")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="pipeline metrics over a parameter grid")
    region = sub.add_parser("bell-region", help="CHSH values and violation flags "
                                                "over the (noise, indistinguishability) grid")
    for grid_command in (sweep, region):
        _add_common_flags(grid_command)
        _add_grid_flags(grid_command)

    threshold = sub.add_parser(
        "threshold", help="smallest indistinguishability degree with CHSH "
                          "violation at every noise probability")
    _add_common_flags(threshold)

    verify = sub.add_parser("verify", help="run the numerical self-verification suites")
    verify.add_argument("--seed", type=int, default=20250808)
    return parser


def _cmd_grid(args: argparse.Namespace, fields, svg_renderer) -> tuple[int, str, str | None]:
    config = build_config(args)
    if config.format == "svg" and config.output is None:
        raise ConfigError("svg output needs --output")
    if config.format == "svg":
        return 0, svg_renderer(run_sweep(config)), config.output
    return 0, sweep_text(config, fields), config.output


def _cmd_threshold(args: argparse.Namespace) -> tuple[int, str, str | None]:
    values = _merged_values(args)
    # before the sweep rules, which would ask for an l_grid the search never reads
    _check_threshold_family(values.get("constraint", SweepConfig.constraint))
    config = _checked_config(values)
    return 0, json.dumps(find_threshold(config).as_dict(), indent=2) + "\n", config.output


def _cmd_verify(args: argparse.Namespace) -> tuple[int, str, None]:
    from .verify import run_verify  # the oracle loads for this command only
    report = run_verify(seed=args.seed)
    return 0 if report.ok else 1, "".join(line + "\n" for line in report.summary_lines()), None


def _attach_numbers(argv: list[str]) -> list[str]:
    """Write ``--theta -1e-07`` as ``--theta=-1e-07`` (and so for each of
    ``_NUMBER_FLAGS``), which argparse parses as intended."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _NUMBER_FLAGS and _is_number(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _is_number(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    help_text = io.StringIO()
    try:
        with contextlib.redirect_stdout(help_text):  # so that --help goes through _emit
            args = parser.parse_args(_attach_numbers(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        if exc.code:  # a usage error, already written to stderr by argparse
            raise
        args = None  # --help, whose text argparse wrote to help_text
    # handlers look the runner and the encoders up as module globals when they
    # run, so that wrappers installed from outside (perfbench's tracer) see the calls
    handlers = {
        "sweep": lambda a: _cmd_grid(a, CSV_FIELDS, sweep_svg),
        "bell-region": lambda a: _cmd_grid(a, BELL_REGION_FIELDS, bell_region_svg),
        "threshold": _cmd_threshold,
        "verify": _cmd_verify,
    }
    try:
        code, text, output = ((0, help_text.getvalue(), None) if args is None
                              else handlers[args.command](args))
        _emit(text, output)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
