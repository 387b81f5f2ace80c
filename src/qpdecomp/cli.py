"""Command-line front end.

Subcommands: synth, run, predict, and decompose, which saves the model
that ``run`` also writes.  ``run`` fits a series and writes every artifact;
without a predict window it leaves out the prediction.  The
removed commands of :data:`pipeline.RETIRED_COMMANDS` (``frequencies``,
``diagnostics``, ``reconstruct``) exit 2, whatever their flags, naming what
replaces them.  Exit codes: 0 success, 2 configuration error, 3 data error,
4 numerical failure.  Errors are reported as one machine-parsable line on
standard error: ``qpdecomp: <ErrorClass>: <message>``, and each warning as
one line ``qpdecomp: warning: <message>``.  A usage error, such as an
unknown flag or a missing value, is a ``ConfigError`` line too; only
``--help`` prints the usage.  Each config key of
:data:`pipeline.CONFIG_KEYS` is a flag ``--<key>`` (``-`` for ``_``),
taken by its whole name only; ``run`` merges them onto a ``--config`` file
or a ``--manifest`` with :func:`pipeline.load_config`.

The reader rule (:func:`errors.reading`): an error in a file that a command
reads starts with that file's path.  The writer rule (:func:`errors.writing`
and :func:`errors.writing_dir`): every file, and ``run``'s ``--outdir``, is
built as ``.qpdecomp-<hex>.tmp`` beside its path and renamed onto it, so it
holds its earlier content or the whole new one, and a write that fails is
``qpdecomp: ConfigError: <path>: cannot write: <reason>`` with exit 2.  An
output file must be absent or a regular file, in an existing directory,
which its flag's parser checks; an ``--outdir`` absent or an empty
directory, under no file.  Both are checked before any input is read.
"""

import argparse
import os
import sys
import typing
import warnings

import numpy as np

from . import decompose as dc
from . import pipeline, synth
from .errors import (ConfigError, DataError, NumericalError, QpdecompError,
                     check_target, reading)
from .series import write_csv, write_table


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise :class:`ConfigError`, and
    which takes each flag by its whole name only (no prefixes)."""

    def __init__(self, *args, allow_abbrev=False, **kwargs):
        super().__init__(*args, allow_abbrev=allow_abbrev, **kwargs)

    def error(self, message):
        raise ConfigError(message)


# the config keys of the commands that read a series, that fit, that
# predict, and run's
_INGESTION_KEYS = ("input", "timestamp_column", "channels", "dt_seconds",
                   "max_gap_factor")
_FIT_KEYS = ("train_end", "delays", "epsilon", "reference_points",
             "num_eigen", "eps1", "eps2", "L0")
_PREDICT_KEYS = ("ma_windows",)
_RUN_KEYS = ("outdir", "predict_start", "predict_end")
_METAVARS = {"delays": "Q", "reference_points": "M", "num_eigen": "L"}


def _add_config_flags(parser, *groups):
    """Add ``--<key>`` for each config key of ``groups``, with one or more
    values for a tuple field.  An unset flag is None, and leaves the config
    file's value or the default; a set one is parsed and checked by the
    config schema, as a config file's value is."""
    for key in (key for group in groups for key in group):
        kind = pipeline.CONFIG_KEYS[key]
        parser.add_argument(
            "--" + key.replace("_", "-"),
            nargs="+" if typing.get_origin(kind) is tuple else None,
            metavar=_METAVARS.get(key), help=pipeline.KEY_HELP.get(key))


def _output(option):
    """The argparse type of the output file flag ``option``: a named path,
    in an existing directory, absent or a regular file."""
    def check(path):
        if not path:
            raise ConfigError(f"{option} is empty")
        if os.path.isdir(path):
            raise ConfigError(f"{option} {path} is a directory")
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            raise ConfigError(f"{option} {path}: there is no directory "
                              f"{parent}")
        check_target(path)
        return path
    return check


def _overrides(args):
    """The parsed flags that set a config key."""
    return {k: v for k, v in vars(args).items()
            if k in pipeline.CONFIG_KEYS and v is not None}


def _cmd_synth(args):
    if args.steps < 1:
        raise ConfigError(f"--steps must be >= 1, got {args.steps}")
    if not 0 < args.dt < np.inf:
        raise ConfigError(f"--dt must be positive and finite, got {args.dt}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    system = synth.standard_testbed(args.testbed)
    result = synth.simulate(system, args.steps, args.dt, seed=args.seed)
    write_csv(result.series, args.out)
    if args.latent_out:
        theta, x = result.theta, result.x
        write_table(args.latent_out,
                    ["time", *(f"theta{j}" for j in range(theta.shape[1])),
                     *(f"x{j}" for j in range(x.shape[1]))],
                    [result.series.times(), *theta.T, *x.T])
    print(f"wrote {args.steps} samples to {args.out}")
    return 0


def _cmd_decompose(args):
    # the fit of `run`, from the same flags
    result = pipeline.fit(pipeline.build_config(_overrides(args)))
    dc.save_model(result.model, args.model_out)
    resid = float(np.abs(result.model.residual.values).max())
    print(f"wrote model to {args.model_out} "
          f"({result.selection.m} frequencies, max periodic residual {resid:.3g})")
    return 0


def _cmd_predict(args):
    config = pipeline.build_config(_overrides(args))
    if args.steps < 1:
        raise ConfigError(f"--steps must be >= 1, got {args.steps}")
    model = dc.load_model(args.model)
    data = pipeline.load_series(config)
    with reading(config.input):
        if config.ma_windows:
            pipeline.check_observed(data, args.init_at,
                                    args.init_at + args.steps)
        # an error of the input against the model names both files
        with reading(args.model):
            forecast = pipeline.predict(model, data, args.init_at, args.steps)
    pipeline.write_prediction(args.out, forecast, config.ma_windows)
    print(f"wrote {args.steps}-step prediction to {args.out}")
    return 0


def _cmd_run(args):
    overrides = _overrides(args)
    if args.config and args.manifest:
        raise ConfigError("--config and --manifest cannot be combined")
    if args.config or args.manifest:
        config = pipeline.load_config(args.config or args.manifest, overrides,
                                      manifest=bool(args.manifest))
    else:
        config = pipeline.build_config(overrides)
    # before the rename, which may replace the working directory
    outdir = os.path.abspath(config.outdir)
    result = pipeline.run_pipeline(config)
    print(pipeline.report_periods(result.selection))
    print(f"pipeline artifacts written to {outdir}")
    return 0


def build_parser():
    parser = _Parser(
        prog="qpdecomp",
        description="Decompose quasiperiodically driven time series into "
                    "identified frequencies plus a chaotic residual, and "
                    "predict with the fitted standalone model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a testbed series as CSV")
    p.add_argument("--testbed", required=True, choices=synth.TESTBEDS)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--dt", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0,
                   help="seeds torus_plus_damped's noise; the other "
                        "testbeds draw none")
    p.add_argument("--out", required=True, type=_output("--out"))
    p.add_argument("--latent-out", type=_output("--latent-out"),
                   help="also write the latent (theta, x) trajectory")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("decompose",
                       help="fit the periodic+chaotic model and save it")
    _add_config_flags(p, _INGESTION_KEYS, _FIT_KEYS)
    p.add_argument("--model-out", required=True, type=_output("--model-out"))
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("predict", help="free-run prediction from a model")
    _add_config_flags(p, _INGESTION_KEYS, _PREDICT_KEYS)
    p.add_argument("--model", required=True)
    p.add_argument("--init-at", type=int, required=True,
                   help="sample index of the first predicted snapshot")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", required=True, type=_output("--out"))
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("run",
                       help="fit a series and write every artifact, with a "
                            "prediction when a predict window is set")
    _add_config_flags(p, _INGESTION_KEYS, _FIT_KEYS, _RUN_KEYS,
                      _PREDICT_KEYS)
    p.add_argument("--config", default=None)
    p.add_argument("--manifest", default=None,
                   help="re-run from a previous manifest instead of a config")
    p.set_defaults(func=_cmd_run)
    return parser


def _print_line(kind, message):
    """Print ``qpdecomp: <kind>: <message>`` as one line on stderr."""
    print(f"qpdecomp: {kind}: {' '.join(str(message).split())}",
          file=sys.stderr)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    codes = {ConfigError: 2, DataError: 3, NumericalError: 4}
    with warnings.catch_warnings():
        warnings.showwarning = lambda msg, *_: _print_line("warning", msg)
        try:
            # a removed command, whatever its flags, names what replaces it
            retired = pipeline.RETIRED_COMMANDS.get(argv[0] if argv else "")
            if retired:
                raise ConfigError(f"the {argv[0]} command was removed; use "
                                  f"{retired}")
            args = build_parser().parse_args(argv)
            return args.func(args)
        except QpdecompError as exc:
            _print_line(type(exc).__name__, exc)
            return codes.get(type(exc), 1)


def entrypoint():
    sys.exit(main())
