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
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--input", required=True, help="input CSV file")
    p.add_argument("--timestamp-column", default="time")
    p.add_argument("--channels", nargs="+", default=None,
                   help="value columns to keep (default: all non-timestamp)")
    p.add_argument("--dt-seconds", type=float, default=0.0,
                   help="resample to this step; 0 keeps the input grid")
    p.add_argument("--resample-method", choices=("hold", "linear"),
                   default="hold")
    p.add_argument("--train-end", type=int, default=0,
                   help="training window length in samples; 0 uses everything")
    p.add_argument("--standardize", action="store_true")
    return p


def _filter_parser():
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--delays", type=int, default=20, metavar="Q")
    p.add_argument("--epsilon", type=float, required=True,
                   help="Gaussian kernel bandwidth (squared-distance units)")
    p.add_argument("--num-eigen", type=int, default=300, metavar="L")
    p.add_argument("--eps1", type=float, default=0.1)
    p.add_argument("--eps2", type=float, default=2.5)
    p.add_argument("--L0", type=int, default=100)
    p.add_argument("--merge-adjacent", action="store_true")
    p.add_argument("--basis-cache", default="", metavar="DIR",
                   help="directory for content-addressed reuse of the "
                        "eigenbasis across runs")
    return p


def _load_series(args):
    from . import series
    from .errors import DataError

    if not os.path.isfile(args.input):
        raise DataError(f"input file {args.input} does not exist")
    data = series.load_csv(args.input, timestamp=args.timestamp_column,
                           channels=args.channels)
    if args.dt_seconds > 0:
        data = series.resample(data, args.dt_seconds,
                               method=args.resample_method)
    elif not data.regular:
        raise DataError("input sampling is irregular; pass --dt-seconds")
    if args.standardize:
        data = series.standardize(data)
    return data


def _fit_filter(args, data):
    from . import freqfilter, kernel, series, spectral

    train_end = args.train_end or data.n
    train = series.window(data, 0, train_end)
    emb = series.delay_embed(train, args.delays)
    ks = kernel.gaussian_kernel(emb, args.epsilon)
    basis = None
    cache = getattr(args, "basis_cache", "")
    if cache:
        basis = spectral.load_basis_cache(cache, ks, args.num_eigen)
    if basis is None:
        basis = spectral.decompose(ks, args.num_eigen)
        if cache:
            spectral.save_basis_cache(basis, cache)
    table = freqfilter.rkhs_norm_table(basis, data.dt)
    selection = freqfilter.select(table, eps1=args.eps1, eps2=args.eps2,
                                  L0=args.L0)
    if args.merge_adjacent:
        selection = freqfilter.merge_adjacent(selection)
    return train, basis, table, selection


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
    from . import freqfilter, pipeline

    data = _load_series(args)
    train, basis, table, selection = _fit_filter(args, data)
    growth = freqfilter.selection_growth(table, selection)
    pipeline._write_table(
        args.out,
        ["bin", "omega_rad_per_s", "period_s", "period_human", "amplitude",
         "growth"],
        [[str(int(j)) for j in selection.indices], selection.omegas,
         selection.periods,
         [pipeline.format_period(p) for p in selection.periods],
         selection.amplitudes, growth],
    )
    print(pipeline.report_periods(selection))
    return 0


def _cmd_decompose(args):
    import numpy as np

    from . import decompose as dc

    data = _load_series(args)
    train, basis, table, selection = _fit_filter(args, data)
    q = args.delays
    pfit = dc.fit_periodic(train.values[q:], selection, data.dt,
                           t0=q * data.dt)
    E = dc.fit_chaotic(pfit.residual, basis)
    model = dc.QPModel.from_basis(basis, selection, pfit.A, E)
    dc.save_model(model, args.model_out)
    resid = float(np.abs(pfit.residual).max())
    print(f"wrote model to {args.model_out} "
          f"({selection.m} frequencies, max periodic residual {resid:.3g})")
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
    names = train.channel_names
    pipeline._write_table(
        args.out,
        ["time_s", *(f"truth_{c}" for c in names),
         *(f"recon_{c}" for c in names)],
        [times, *truth.T, *recon.T],
    )
    print(f"wrote {args.mode} reconstruction to {args.out}")
    return 0


def _cmd_predict(args):
    import numpy as np

    from . import decompose as dc
    from . import pipeline, series
    from .errors import DataError

    model = dc.load_model(args.model)
    data = _load_series(args)
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
                          clip_factor=args.clip_factor or None)
    times = (args.init_at + np.arange(args.steps)) * model.dt
    names = data.channel_names
    have_truth = args.init_at + args.steps <= data.n
    cols = [times]
    header = ["time_s"]
    if have_truth:
        truth = series.window(data, args.init_at, args.init_at + args.steps)
        header += [f"truth_{c}" for c in names]
        cols += list(truth.values.T)
    header += [f"pred_{c}" for c in names]
    cols += list(pred.values.T)
    if have_truth and args.ma_window:
        err = dc.relative_error(truth, pred)
        for ci, cname in enumerate(names):
            header.append(f"err_{cname}_ma{args.ma_window}")
            cols.append(dc.moving_average(err[:, ci], args.ma_window))
    pipeline._write_table(args.out, header, cols)
    print(f"wrote {args.steps}-step prediction to {args.out}")
    return 0


def _cmd_diagnostics(args):
    from pathlib import Path

    from . import freqfilter, pipeline

    data = _load_series(args)
    train, basis, table, selection = _fit_filter(args, data)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    counts, edges = basis.kernel.sqdist_histogram
    pipeline._write_table(outdir / "sqdist_histogram.csv",
                          ["bin_left", "bin_right", "count"],
                          [edges[:-1], edges[1:],
                           [str(int(c)) for c in counts]])
    tdiag = freqfilter.threshold_diagnostics(table, args.L0)
    pipeline._write_table(outdir / "norm_growth_by_column.csv",
                          ["l", "w_mean", "w_max"],
                          [[str(l) for l in tdiag.column_index],
                           tdiag.column_mean, tdiag.column_max])
    pipeline._write_table(outdir / "growth_ratio_sorted.csv",
                          ["rank", "ln_ratio"],
                          [[str(r) for r in range(len(tdiag.sorted_growth))],
                           tdiag.sorted_growth])
    pipeline._write_table(outdir / "eigenvalues.csv",
                          ["l", "sigma", "lambda"],
                          [[str(l) for l in range(1, basis.L + 1)],
                           basis.sigma, basis.lam])
    print(f"wrote diagnostics to {outdir}")
    return 0


def _cmd_run(args):
    from . import pipeline

    overrides = {}
    for key in ("input", "outdir", "timestamp_column", "dt_seconds",
                "resample_method", "max_gap_factor", "standardize", "delays",
                "epsilon", "num_eigen", "eps1", "eps2", "L0",
                "merge_adjacent", "train_end", "predict_start", "predict_end",
                "mode", "clip_factor", "basis_cache"):
        val = getattr(args, key, None)
        if val is not None:
            overrides[key] = val
    if getattr(args, "channels", None) is not None:
        overrides["channels"] = tuple(args.channels)
    if getattr(args, "ma_windows", None) is not None:
        overrides["ma_windows"] = tuple(args.ma_windows)
    if args.config:
        config = pipeline.load_config(args.config, overrides=overrides)
    elif args.manifest:
        import dataclasses

        base = pipeline.config_from_manifest(args.manifest)
        values = {f.name: getattr(base, f.name)
                  for f in dataclasses.fields(type(base))}
        values.update(overrides)
        config = pipeline.build_config(values)
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
    filt = _filter_parser()

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

    p = sub.add_parser("predict", help="free-run prediction from a model")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True,
                   help="series supplying the initial window and truth")
    p.add_argument("--timestamp-column", default="time")
    p.add_argument("--channels", nargs="+", default=None)
    p.add_argument("--dt-seconds", type=float, default=0.0)
    p.add_argument("--resample-method", choices=("hold", "linear"),
                   default="hold")
    p.add_argument("--standardize", action="store_true")
    p.add_argument("--init-at", type=int, required=True,
                   help="sample index of the first predicted snapshot")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--ma-window", type=int, default=0,
                   help="moving-average window for the error columns")
    p.add_argument("--clip-factor", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("diagnostics", parents=[ingest, filt],
                       help="write bandwidth and threshold diagnostic curves")
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=_cmd_diagnostics)

    p = sub.add_parser("run", help="run the full pipeline from a config file")
    p.add_argument("--config", default=None)
    p.add_argument("--manifest", default=None,
                   help="re-run from a previous manifest instead of a config")
    p.add_argument("--input", default=None)
    p.add_argument("--outdir", default=None)
    p.add_argument("--timestamp-column", default=None)
    p.add_argument("--channels", nargs="+", default=None)
    p.add_argument("--dt-seconds", type=float, default=None)
    p.add_argument("--resample-method", choices=("hold", "linear"),
                   default=None)
    p.add_argument("--max-gap-factor", type=float, default=None)
    p.add_argument("--standardize", action="store_true", default=None)
    p.add_argument("--delays", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--num-eigen", type=int, default=None)
    p.add_argument("--eps1", type=float, default=None)
    p.add_argument("--eps2", type=float, default=None)
    p.add_argument("--L0", type=int, default=None)
    p.add_argument("--merge-adjacent", action="store_true", default=None)
    p.add_argument("--train-end", type=int, default=None)
    p.add_argument("--predict-start", type=int, default=None)
    p.add_argument("--predict-end", type=int, default=None)
    p.add_argument("--ma-windows", type=int, nargs="+", default=None)
    p.add_argument("--mode", choices=("insample", "freerun"), default=None)
    p.add_argument("--clip-factor", type=float, default=None)
    p.add_argument("--basis-cache", default=None, metavar="DIR")
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
