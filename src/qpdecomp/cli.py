"""Command-line front end.

Subcommands: synth, frequencies, decompose, reconstruct, predict, run,
diagnostics.  Exit codes: 0 success, 2 configuration error, 3 data error,
4 numerical failure.  Errors are reported as one machine-parsable line on
standard error: ``qpdecomp: <ErrorClass>: <message>``.

The environment variable QPDECOMP_THREADS caps the BLAS/OpenMP thread count;
it must take effect before numpy loads, so the numeric modules are imported
lazily inside the command handlers.
"""

import argparse
import os
import sys


def _apply_thread_env():
    threads = os.environ.get("QPDECOMP_THREADS")
    if threads:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            os.environ.setdefault(var, threads)


def _ingestion_parser():
    # every flag here and in _fit_parser defaults to None: unset flags leave
    # the config file's value, or the pipeline default, in place
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--input", help="input CSV file")
    p.add_argument("--timestamp-column")
    p.add_argument("--channels", nargs="+",
                   help="value columns to keep (default: all non-timestamp)")
    p.add_argument("--dt-seconds", type=float,
                   help="resample to this step; 0 keeps the input grid")
    p.add_argument("--resample-method", choices=("hold", "linear"))
    p.add_argument("--max-gap-factor", type=float,
                   help="widest input gap to resample across, in steps")
    p.add_argument("--standardize", action="store_true", default=None)
    return p


def _fit_parser():
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--train-end", type=int,
                   help="training window length in samples; 0 uses everything")
    p.add_argument("--delays", type=int, metavar="Q")
    p.add_argument("--epsilon", type=float,
                   help="Gaussian kernel bandwidth (squared-distance units)")
    p.add_argument("--num-eigen", type=int, metavar="L")
    p.add_argument("--eps1", type=float)
    p.add_argument("--eps2", type=float)
    p.add_argument("--L0", type=int)
    p.add_argument("--merge-adjacent", action="store_true", default=None)
    p.add_argument("--basis-cache", metavar="DIR",
                   help="directory for content-addressed reuse of the "
                        "eigenbasis across runs")
    return p


def _overrides(args):
    """The parsed flags that set a config key."""
    from .pipeline import CONFIG_KEYS

    return {k: v for k, v in vars(args).items()
            if k in CONFIG_KEYS and v is not None}


def _fit(args):
    """Fit the series exactly as ``run`` does, from this command's flags."""
    from . import pipeline
    from .errors import ConfigError

    if args.epsilon is None:
        raise ConfigError("--epsilon is required")
    return pipeline.fit(pipeline.build_config(_overrides(args)))


def _cmd_synth(args):
    from . import synth
    from .series import write_csv

    system = synth.standard_testbed(args.testbed)
    result = synth.simulate(system, args.steps, args.dt, seed=args.seed)
    write_csv(result.series, args.out)
    if args.latent_out:
        cols = ([result.series.times()]
                + [result.theta[:, j] for j in range(result.theta.shape[1])]
                + [result.x[:, j] for j in range(result.x.shape[1])])
        header = (["time"]
                  + [f"theta{j}" for j in range(result.theta.shape[1])]
                  + [f"x{j}" for j in range(result.x.shape[1])])
        with open(args.latent_out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for row in zip(*cols):
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    print(f"wrote {args.steps} samples to {args.out}")
    return 0


def _cmd_frequencies(args):
    from . import pipeline

    result = _fit(args)
    pipeline.write_frequencies(args.out, result)
    print(pipeline.report_periods(result.selection))
    return 0


def _cmd_decompose(args):
    import numpy as np

    from . import decompose as dc

    result = _fit(args)
    dc.save_model(result.model, args.model_out)
    resid = float(np.abs(result.periodic.residual).max())
    print(f"wrote model to {args.model_out} "
          f"({result.selection.m} frequencies, max periodic residual {resid:.3g})")
    return 0


def _cmd_reconstruct(args):
    import numpy as np

    from . import decompose as dc
    from . import pipeline

    model = dc.load_model(args.model)
    train = model.embedding.source
    q = model.q
    if args.mode == "insample":
        times = (q + np.arange(model.n)) * model.dt
        recon = (dc.eval_periodic(model, times)
                 + dc.chaotic_at_training_points(model))
        truth = train.values[q:]
    else:
        init = dc.state_before(train, q + 1, q)
        steps = train.n - (q + 1)
        recon = dc.reconstruct(model, init, steps, (q + 1) * model.dt).values
        times = (q + 1 + np.arange(steps)) * model.dt
        truth = train.values[q + 1:]
    pipeline.write_estimate(args.out, train.channel_names, times, "recon",
                            recon, truth)
    print(f"wrote {args.mode} reconstruction to {args.out}")
    return 0


def _cmd_predict(args):
    import numpy as np

    from . import decompose as dc
    from . import pipeline, series
    from .errors import DataError

    config = pipeline.build_config(_overrides(args))
    model = dc.load_model(args.model)
    data = pipeline.load_series(config)
    if abs(data.dt - model.dt) > series._GRID_RTOL * model.dt:
        raise DataError(f"input step {data.dt:.17g} s differs from the "
                        f"model's dt {model.dt:.17g} s")
    q = model.q
    if args.init_at < q + 1:
        raise DataError(f"--init-at must be >= {q + 1} so a delay window exists")
    if args.init_at > data.n:
        raise DataError(f"--init-at {args.init_at} beyond series length {data.n}")
    init = dc.state_before(data, args.init_at, q)
    pred = dc.reconstruct(model, init, args.steps, args.init_at * model.dt,
                          clip_factor=config.clip_factor or None)
    times = (args.init_at + np.arange(args.steps)) * model.dt
    truth, extra = None, ((), ())
    if args.init_at + args.steps <= data.n:
        window = series.window(data, args.init_at, args.init_at + args.steps)
        truth = window.values
        if args.ma_window:
            extra = pipeline.error_columns(window, pred, [args.ma_window])
    pipeline.write_estimate(args.out, data.channel_names, times, "pred",
                            pred.values, truth, extra)
    print(f"wrote {args.steps}-step prediction to {args.out}")
    return 0


def _cmd_diagnostics(args):
    from . import pipeline

    pipeline.write_diagnostics(args.outdir, _fit(args))
    print(f"wrote diagnostics to {args.outdir}")
    return 0


def _cmd_run(args):
    import dataclasses

    from . import pipeline

    overrides = _overrides(args)
    if args.config:
        config = pipeline.load_config(args.config, overrides=overrides)
    elif args.manifest:
        base = pipeline.config_from_manifest(args.manifest)
        config = pipeline.build_config({**dataclasses.asdict(base),
                                        **overrides})
    else:
        config = pipeline.build_config(overrides)
    outdir = pipeline.run_pipeline(config)
    print(f"pipeline artifacts written to {outdir}")
    return 0


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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--latent-out", default=None,
                   help="also write the latent (theta, x) trajectory")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("frequencies", parents=[ingest, filt],
                       help="identify eigenfrequencies and write them as CSV")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_frequencies)

    p = sub.add_parser("decompose", parents=[ingest, filt],
                       help="fit the periodic+chaotic model and save it")
    p.add_argument("--model-out", required=True)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("reconstruct",
                       help="reconstruct the training window from a model")
    p.add_argument("--model", required=True)
    p.add_argument("--mode", choices=("insample", "freerun"),
                   default="insample")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("predict", parents=[ingest],
                       help="free-run prediction from a model")
    p.add_argument("--model", required=True)
    p.add_argument("--init-at", type=int, required=True,
                   help="sample index of the first predicted snapshot")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--ma-window", type=int, default=0,
                   help="moving-average window for the error columns")
    p.add_argument("--clip-factor", type=float)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("diagnostics", parents=[ingest, filt],
                       help="write bandwidth and threshold diagnostic curves")
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=_cmd_diagnostics)

    p = sub.add_parser("run", parents=[ingest, filt],
                       help="run the full pipeline from a config file")
    p.add_argument("--config", default=None)
    p.add_argument("--manifest", default=None,
                   help="re-run from a previous manifest instead of a config")
    p.add_argument("--outdir")
    p.add_argument("--predict-start", type=int)
    p.add_argument("--predict-end", type=int)
    p.add_argument("--ma-windows", type=int, nargs="+")
    p.add_argument("--mode", choices=("insample", "freerun"))
    p.add_argument("--clip-factor", type=float)
    p.set_defaults(func=_cmd_run)
    return parser


def main(argv=None) -> int:
    _apply_thread_env()
    parser = build_parser()
    args = parser.parse_args(argv)
    from .errors import ConfigError, DataError, NumericalError, QpdecompError

    codes = {ConfigError: 2, DataError: 3, NumericalError: 4}
    try:
        return args.func(args)
    except QpdecompError as exc:
        code = next((c for cls, c in codes.items() if isinstance(exc, cls)), 1)
        message = " ".join(str(exc).split())
        print(f"qpdecomp: {type(exc).__name__}: {message}", file=sys.stderr)
        return code


def entrypoint():
    sys.exit(main())
