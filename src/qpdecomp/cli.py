"""Command-line front end.

Subcommands: synth, run, predict, and decompose, which saves the model
that ``run`` also writes.  ``run`` fits a series and writes every artifact;
without a predict window it leaves out the prediction and its errors.  The
removed commands of :data:`pipeline.RETIRED_COMMANDS` (``frequencies``,
``diagnostics``, ``reconstruct``) exit 2, whatever their flags, naming what
replaces them.  Exit codes: 0 success, 2 configuration error, 3 data error,
4 numerical failure.  Errors are reported as one machine-parsable line on
standard error: ``qpdecomp: <ErrorClass>: <message>``, and each warning as
one line ``qpdecomp: warning: <message>``.

The reader rule (:func:`errors.reading`): an error in a file that a command
reads starts with that file's path.  The writer rule (:func:`errors.writing`
and :func:`errors.writing_dir`): every file, and ``run``'s ``--outdir``, is
built as ``.qpdecomp-<hex>.tmp`` beside its path and renamed onto it, so it
holds its earlier content or the whole new one, and a write that fails is
``qpdecomp: ConfigError: <path>: cannot write: <reason>`` with exit 2.  An
output must be absent or a regular file, in an existing directory; an
``--outdir`` absent or an empty directory, under no file.  Both are checked
before any input is read.
"""

import argparse
import os
import sys
import warnings

import numpy as np

from . import decompose as dc
from . import pipeline, synth
from .errors import (ConfigError, DataError, NumericalError, QpdecompError,
                     check_target, reading)
from .series import write_csv, write_table


def _ingestion_parser():
    # every flag here and in _fit_parser sets a config key: it defaults to
    # None, so an unset flag leaves the config file's value or the default
    # in place, and its text is parsed and checked by the config schema
    # (pipeline.PipelineConfig), as a config file's value is
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--input", help="input CSV file")
    p.add_argument("--timestamp-column")
    p.add_argument("--channels", nargs="+",
                   help="value columns to keep (default: all non-timestamp)")
    p.add_argument("--dt-seconds",
                   help="resample to this step; 0 keeps the input grid")
    p.add_argument("--max-gap-factor",
                   help="widest input gap to resample across, in steps")
    return p


def _fit_parser():
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--train-end",
                   help="training window length in samples; 0 uses everything")
    p.add_argument("--delays", metavar="Q")
    p.add_argument("--epsilon",
                   help="Gaussian kernel bandwidth (squared-distance units); "
                        "0, the default, takes the 1%% quantile of the "
                        "squared delay distances")
    p.add_argument("--reference-points", metavar="M",
                   help="kernel reference points: every ceil(N/M)-th delay "
                        "vector; 0, the default, takes M = 2048, and any M "
                        "of at least N keeps all N")
    p.add_argument("--num-eigen", metavar="L")
    p.add_argument("--eps1")
    p.add_argument("--eps2")
    p.add_argument("--L0")
    return p


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
    try:
        system = synth.standard_testbed(args.testbed)
    except DataError as exc:
        raise ConfigError(str(exc)) from None
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
    resid = float(np.abs(result.periodic.residual).max())
    print(f"wrote model to {args.model_out} "
          f"({result.selection.m} frequencies, max periodic residual {resid:.3g})")
    return 0


def _cmd_predict(args):
    config = pipeline.build_config(_overrides(args))
    if args.steps < 1:
        raise ConfigError(f"--steps must be >= 1, got {args.steps}")
    if args.ma_window < 0:
        raise ConfigError(f"--ma-window must be >= 0, got {args.ma_window}")
    model = dc.load_model(args.model)
    data = pipeline.load_series(config)
    with reading(config.input):
        if args.ma_window:
            pipeline.check_observed(data, args.init_at,
                                    args.init_at + args.steps)
        # an error of the input against the model names both files
        with reading(args.model):
            forecast = pipeline.predict(model, data, args.init_at, args.steps)
    pipeline.write_prediction(args.out, forecast, args.ma_window)
    print(f"wrote {args.steps}-step prediction to {args.out}")
    return 0


def _cmd_run(args):
    overrides = _overrides(args)
    if args.config and args.manifest:
        raise ConfigError("--config and --manifest cannot be combined")
    if args.config:
        config = pipeline.load_config(args.config, overrides)
    elif args.manifest:
        config = pipeline.config_from_manifest(args.manifest, overrides)
    else:
        config = pipeline.build_config(overrides)
    # before the rename, which may replace the working directory
    outdir = os.path.abspath(config.outdir)
    result = pipeline.run_pipeline(config)
    print(pipeline.report_periods(result.selection))
    print(f"pipeline artifacts written to {outdir}")
    return 0


def _check_outputs(args):
    """Each file that the command writes must be named, must go into an
    existing directory and must be absent or a regular file; checked before
    any input is read.  An ``--outdir`` must be named; the rest of its
    checks are :func:`errors.writing_dir`'s, which the command enters before
    it reads the input."""
    if getattr(args, "outdir", None) == "":
        raise ConfigError("--outdir is empty")
    for flag in ("out", "model_out", "latent_out"):
        path = getattr(args, flag, None)
        if path is None:
            continue
        option = "--" + flag.replace("_", "-")
        if not path:
            raise ConfigError(f"{option} is empty")
        if os.path.isdir(path):
            raise ConfigError(f"{option} {path} is a directory")
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            raise ConfigError(f"{option} {path}: there is no directory "
                              f"{parent}")
        check_target(path)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qpdecomp",
        description="Decompose quasiperiodically driven time series into "
                    "identified frequencies plus a chaotic residual, and "
                    "predict with the fitted standalone model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    ingest = _ingestion_parser()
    filt = _fit_parser()

    p = sub.add_parser("synth", help="generate a testbed series as CSV")
    p.add_argument("--testbed", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--dt", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0,
                   help="seeds torus_plus_damped's noise; the other "
                        "testbeds draw none")
    p.add_argument("--out", required=True)
    p.add_argument("--latent-out", default=None,
                   help="also write the latent (theta, x) trajectory")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("decompose", parents=[ingest, filt],
                       help="fit the periodic+chaotic model and save it")
    p.add_argument("--model-out", required=True)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("predict", parents=[ingest],
                       help="free-run prediction from a model")
    p.add_argument("--model", required=True)
    p.add_argument("--init-at", type=int, required=True,
                   help="sample index of the first predicted snapshot")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--ma-window", type=int, default=0,
                   help="moving-average window for the error columns")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("run", parents=[ingest, filt],
                       help="fit a series and write every artifact, with a "
                            "prediction when a predict window is set")
    p.add_argument("--config", default=None)
    p.add_argument("--manifest", default=None,
                   help="re-run from a previous manifest instead of a config")
    p.add_argument("--outdir")
    p.add_argument("--predict-start",
                   help="first sample of the predict window; set both ends "
                        "or neither")
    p.add_argument("--predict-end")
    p.add_argument("--ma-windows", nargs="+")
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
            _check_outputs(args)
            return args.func(args)
        except QpdecompError as exc:
            _print_line(type(exc).__name__, exc)
            return codes.get(type(exc), 1)


def entrypoint():
    sys.exit(main())
