"""qpdecomp benchmark: 4k-sample decompositions on two testbeds plus
forecasting from a saved model.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is taken from ``src/`` beside this
directory and driven through its CLI, one process per command, as a user
runs it.  Inputs come from ``--seed``.  Every output is checked.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  A fuller record, with the
environment, goes to ``.perfbench_work/results/``.  See README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACER = HERE / "tracer.py"

# One program process at a time, with a fixed BLAS thread count no larger
# than the CPUs this process may use.  Set before numpy loads.
NPROC = len(os.sched_getaffinity(0))
THREADS = min(2, NPROC)
for _var in ("QPDECOMP_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
             "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import numpy as np  # noqa: E402

import checks  # noqa: E402

# The problem: q delays, 4096 training samples (4076 embedded rows, on which
# the testbed drivers are exact DFT bins), L eigenpairs, reference column L0.
Q = 20
N_TRAIN = 4096
N_ROWS = N_TRAIN - Q
NUM_EIGEN = 300
L0 = 100
EPS1, EPS2 = 0.1, 2.5
EPS_QUANTILE = 0.01
DT = 1.0
MA_WINDOWS = ("1", "10", "100")
HELD_OUT = 1024           # samples predicted by each `run`
FORECAST_STEPS = 4096     # steps of each `predict`
FORECAST_STARTS = 4       # `predict` calls per round, from distinct starts
START_SPREAD = 2048       # starts are drawn from N_TRAIN .. N_TRAIN+spread
MAX_OFFSET = 4096         # training window start within the trajectory
SETUP_REPEATS = 3         # `synth` calls per run; set-up reports the median
OP_TIMEOUT_S = 170.0
MB = float(1 << 20)

WORKLOADS = {
    "torus_4k": {"testbed": "pure_torus_2", "kind": "run",
                 "drivers": (89, 144)},
    "logistic_4k": {"testbed": "torus_plus_logistic", "kind": "run",
                    "drivers": (89,)},
    "forecast_torus_4k": {"testbed": "pure_torus_2", "kind": "forecast",
                          "drivers": (89, 144)},
}
ACCURATE = {"pure_torus_2"}   # testbeds whose forecasts must track the truth

END_TO_END_UNITS = {"setup_s": "s", "run_wall_s": "s",
                    "forecast_steps_per_s": "steps/s", "peak_rss_mb": "MB",
                    "model_mb": "MB"}


class SetupError(Exception):
    """A program call that must succeed before timing can start failed."""


class Program:
    """Runs qpdecomp commands as child processes and logs their output."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.calls = 0

    def __call__(self, args, spans=None):
        """Run one command; return (exit code, wall s, peak RSS MB).

        With ``spans`` the command runs under the tracer, which writes its
        spans to that path.
        """
        self.calls += 1
        if spans is None:
            cmd = [sys.executable, "-m", "qpdecomp", *args]
        else:
            cmd = [sys.executable, str(TRACER), "--spans", str(spans), "--",
                   *args]
        log_path = self.workdir / f"call{self.calls:03d}-{args[0]}.log"
        with open(log_path, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.workdir, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=log,
                                    stderr=subprocess.STDOUT)
            timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                # interrupted (SIGTERM, Ctrl-C): stop the command as well
                proc.kill()
                os.waitpid(proc.pid, 0)
                proc.returncode = -9
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code != 0:
            tail = log_path.read_text(errors="replace")[-2000:]
            print(f"perfbench: `qpdecomp {args[0]}` exited {code}:\n{tail}",
                  file=sys.stderr)
        return code, wall, usage.ru_maxrss / 1024.0

    def setup(self, args):
        code, wall, _ = self(args)
        if code != 0:
            raise SetupError(f"set-up call `qpdecomp {args[0]}` exited {code}")
        return wall


def delay_points(values, q):
    n = len(values) - q
    return np.hstack([values[i:i + n] for i in range(q + 1)])


def bandwidth(train):
    """The EPS_QUANTILE quantile of the off-diagonal squared delay distances."""
    pts = delay_points(train, Q)
    sq = np.einsum("ij,ij->i", pts, pts)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (pts @ pts.T)
    upper = d2[np.triu_indices(len(pts), 1)]
    return float(np.quantile(np.maximum(upper, 0.0), EPS_QUANTILE))


class Inputs:
    """Series, bandwidth and forecast starts generated from one seed.

    Both testbeds are deterministic, so the seed chooses where the window the
    program receives starts in a longer generated trajectory, and where the
    forecasts start.
    """

    def __init__(self, spec, seed, program, workdir):
        rng = np.random.default_rng([seed, 20210917])
        self.offset = int(rng.integers(0, MAX_OFFSET + 1))
        draws = rng.choice(START_SPREAD + 1, FORECAST_STARTS, replace=False)
        self.starts = [N_TRAIN + int(s) for s in np.sort(draws)]
        if spec["kind"] == "run":
            length = N_TRAIN + HELD_OUT
        else:
            length = N_TRAIN + START_SPREAD + FORECAST_STEPS
        trajectory = workdir / "trajectory.csv"
        steps = MAX_OFFSET + length      # the same work for every seed
        synth = ["synth", "--testbed", spec["testbed"], "--steps",
                 str(steps), "--dt", repr(DT), "--out", str(trajectory)]
        self.synth_s = statistics.median(
            program.setup(synth) for _ in range(SETUP_REPEATS))
        table = checks.read_table(trajectory)
        names = [c for c in table if c != "time"]
        cells = [table[c][self.offset:self.offset + length] for c in names]
        if len(table["time"]) != steps:
            raise SetupError(f"synth wrote {len(table['time'])} rows, "
                             f"expected {steps}")
        self.path = workdir / "input.csv"
        with open(self.path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(["time", *names]) + "\n")
            for i, row in enumerate(zip(*cells)):
                fh.write(",".join([f"{i * DT:.17g}", *row]) + "\n")
        self.values = np.array([[float(v) for v in col] for col in cells]).T
        self.epsilon = bandwidth(self.values[:N_TRAIN])

    def problem_flags(self):
        return ["--input", str(self.path), "--delays", str(Q),
                "--epsilon", f"{self.epsilon:.17g}",
                "--num-eigen", str(NUM_EIGEN), "--eps1", repr(EPS1),
                "--eps2", repr(EPS2), "--L0", str(L0),
                "--train-end", str(N_TRAIN)]


def model_bound(model_path):
    """periodic_sup_bound + chaotic_sup_bound of a saved model."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from qpdecomp import decompose as dc

    model = dc.load_model(model_path)
    return dc.periodic_sup_bound(model) + dc.chaotic_sup_bound(model)


def check_run(outdir, inputs, spec):
    problems = []
    freq = checks.read_table(outdir / "frequencies.csv")
    bins = np.array([int(b) for b in freq["bin"]])
    omegas = np.array([float(w) for w in freq["omega_rad_per_s"]])
    problems += checks.check_frequency_grid(bins, omegas, N_ROWS, DT)
    problems += checks.check_drivers(bins, spec["drivers"])
    accurate = spec["testbed"] in ACCURATE
    if accurate:
        problems += checks.check_lattice(bins, spec["drivers"], N_ROWS // 2)
    pred = checks.columns(checks.read_table(outdir / "prediction.csv"),
                          "pred_")
    problems += checks.check_bounded(pred, model_bound(outdir / "model.npz"),
                                     "run prediction")
    if accurate:
        truth = inputs.values[N_TRAIN:N_TRAIN + HELD_OUT]
        problems += checks.check_accuracy(truth, pred, "run prediction")
        recon = checks.read_table(outdir / "reconstruction.csv")
        rows = np.rint(np.array([float(t) for t in recon["time_s"]]) / DT)
        problems += checks.check_accuracy(
            inputs.values[rows.astype(int)], checks.columns(recon, "recon_"),
            "in-sample reconstruction")
    return problems


def check_forecast(out, start, inputs, bound):
    pred = checks.columns(checks.read_table(out), "pred_")
    what = f"forecast from {start}"
    problems = checks.check_bounded(pred, bound, what)
    truth = inputs.values[start:start + FORECAST_STEPS]
    return problems + checks.check_accuracy(truth, pred, what)


class Workload:
    """Set-up, one round of timed operations, and its checks."""

    def __init__(self, name, seed, workdir):
        self.spec = WORKLOADS[name]
        self.workdir = workdir
        self.program = Program(workdir)
        self.inputs = Inputs(self.spec, seed, self.program, workdir)
        self.setup_s = self.inputs.synth_s
        self.model = None
        self.bound = None
        if self.spec["kind"] == "forecast":
            self.model = workdir / "model.npz"
            self.setup_s += self.program.setup(self.decompose_args(self.model))
            self.bound = model_bound(self.model)
        self.model_mb = 0.0
        self.rounds = 0

    def decompose_args(self, model):
        return ["decompose", *self.inputs.problem_flags(),
                "--model-out", str(model)]

    def operations(self):
        """The round's commands: (args, predicted steps, check)."""
        self.rounds += 1
        tag = f"r{self.rounds:03d}"
        if self.spec["kind"] == "run":
            outdir = self.workdir / f"run-{tag}"
            args = ["run", *self.inputs.problem_flags(), "--outdir",
                    str(outdir), "--predict-start", str(N_TRAIN),
                    "--predict-end", str(N_TRAIN + HELD_OUT),
                    "--ma-windows", *MA_WINDOWS]

            def check():
                self.model_mb = (outdir / "model.npz").stat().st_size / MB
                try:
                    return check_run(outdir, self.inputs, self.spec)
                finally:
                    shutil.rmtree(outdir, ignore_errors=True)

            return [(args, HELD_OUT, check)]
        ops = []
        self.model_mb = self.model.stat().st_size / MB
        for start in self.inputs.starts:
            out = self.workdir / f"predict-{tag}-{start}.csv"
            args = ["predict", "--model", str(self.model), "--input",
                    str(self.inputs.path), "--init-at", str(start),
                    "--steps", str(FORECAST_STEPS), "--out", str(out)]

            def check(out=out, start=start):
                try:
                    return check_forecast(out, start, self.inputs, self.bound)
                finally:
                    out.unlink(missing_ok=True)

            ops.append((args, FORECAST_STEPS, check))
        return ops


def run_round(workload, ops, tally, spans_dir=None):
    """Run one round's commands; return per-command (wall, steps, rss, spans)."""
    done = []
    for i, (args, steps, check) in enumerate(ops):
        spans = None if spans_dir is None else spans_dir / f"op{i}.json"
        code, wall, rss = workload.program(args, spans=spans)
        tally["attempted"] += 1
        if code != 0:
            tally["failed"] += 1
            continue
        try:
            tally["problems"] += check()
        except (OSError, ValueError, KeyError, IndexError) as exc:
            tally["problems"].append(f"`qpdecomp {args[0]}` output: {exc!r}")
        done.append((wall, steps, rss, spans))
    return done


def end_to_end(workload, done):
    return {
        "setup_s": workload.setup_s,
        "run_wall_s": statistics.median(w for w, _, _, _ in done),
        "forecast_steps_per_s": statistics.median(s / w for w, s, _, _ in done),
        "peak_rss_mb": max(r for _, _, r, _ in done),
        "model_mb": workload.model_mb,
    }


# ---------------------------------------------------------------------------
# per-layer metrics from the traced run

def layer_metrics(traces, traced_wall, untraced_wall):
    """Per-layer metrics summed over the traced commands (peaks: maximum)."""
    spans, counts, self_time = [], {}, {}
    for trace in traces:
        by_id = {s["id"]: s for s in trace["spans"]}
        for s in trace["spans"]:
            s["self"] = s["end"] - s["start"]
        for s in trace["spans"]:
            if s["parent"] is not None:
                by_id[s["parent"]]["self"] -= s["end"] - s["start"]
        spans += trace["spans"]
        for key, value in trace["counts"].items():
            counts[key] = counts.get(key, 0) + value
    for s in spans:
        layer = s["name"].split(".")[0]
        self_time[layer] = self_time.get(layer, 0.0) + s["self"]

    def total(name):
        return sum((s["end"] - s["start"] for s in spans
                    if s["name"] == name), 0.0)

    def self_of(name):
        return sum((s["self"] for s in spans if s["name"] == name), 0.0)

    def peak(*names):
        return max((s["peak_alloc_bytes"] for s in spans
                    if s["name"] in names), default=0) / MB

    roots = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    m = {}
    for name in ("spectral.decompose", "decompose.fit_periodic",
                 "decompose.eval_periodic", "kernel.gaussian_kernel",
                 "kernel.sqdist_histogram", "decompose.load_model",
                 "decompose.reconstruct", "decompose.save_model",
                 "decompose.fit_chaotic", "freqfilter.rkhs_norm_table",
                 "freqfilter.select", "series.load_csv",
                 "series.delay_embed", "cli.import"):
        m[name + "_s"] = total(name)
    m["pipeline.write_table_s"] = total("pipeline._write_table")
    m["pipeline.run_pipeline_self_s"] = self_of("pipeline.run_pipeline")
    m["cli.main_self_s"] = self_of("cli.main")
    m["spectral.peak_alloc_mb"] = peak("spectral.decompose")
    m["decompose.fit_periodic_peak_alloc_mb"] = peak(
        "decompose.fit_periodic")
    m["decompose.load_model_peak_alloc_mb"] = peak("decompose.load_model")
    m["kernel.peak_alloc_mb"] = peak("kernel.gaussian_kernel",
                                     "kernel.sqdist_histogram")
    for key in ("spectral.eigenpairs", "freqfilter.bins_selected",
                "freqfilter.bins_total", "kernel.points",
                "decompose.reconstruct_steps"):
        m[key] = counts.get(key, 0)
    m["pipeline.csv_mb"] = counts.get("pipeline.csv_bytes", 0) / MB
    m["trace.overhead_s"] = traced_wall - untraced_wall
    m["trace.unattributed_s"] = traced_wall - roots
    return m, self_time


# ---------------------------------------------------------------------------
# environment record

def git_sha():
    """HEAD of the checkout's git repository, read from .git; None without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256():
    h = hashlib.sha256()
    for path in sorted((SRC / "qpdecomp").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment():
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"git_sha": git_sha(), "source_sha256": source_sha256(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": THREADS, "nproc": NPROC,
            "machine": platform.machine()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "qpdecomp" / "cli.py").is_file():
        print(f"perfbench: no program at {SRC / 'qpdecomp'}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = WORK / f"{tag}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tally = {"attempted": 0, "failed": 0, "problems": []}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace}
    try:
        workload = Workload(args.workload, args.seed, workdir)
        record["inputs"] = {"offset": workload.inputs.offset,
                            "epsilon": workload.inputs.epsilon,
                            "forecast_starts": workload.inputs.starts}
        if args.trace:
            metrics, units = trace_run(workload, tally, record)
        else:
            metrics, units = timed_run(workload, args.seconds, tally, record)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in tally["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    result = {"correct": not tally["problems"],
              "attempted": tally["attempted"], "failed": tally["failed"],
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    record.update(result, problems=tally["problems"],
                  environment=environment())
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def timed_run(workload, seconds, tally, record):
    """Whole rounds until `seconds` of timed work have passed."""
    done = []
    start = time.perf_counter()
    while not done or time.perf_counter() - start < seconds:
        round_done = run_round(workload, workload.operations(), tally)
        if not round_done:
            raise SetupError("every operation of a round failed")
        done += round_done
    metrics = end_to_end(workload, done)
    record["operations"] = [{"wall_s": w, "steps": s, "peak_rss_mb": r}
                            for w, s, r, _ in done]
    return metrics, END_TO_END_UNITS


def trace_run(workload, tally, record):
    """One round untraced, then the same commands under the tracer.

    The traced commands include the set-up `decompose` of the forecast
    workload, so its layers are measured there too.
    """
    untraced = run_round(workload, workload.operations(), tally)
    untraced_wall = sum(w for w, _, _, _ in untraced)
    traced_dir = workload.workdir / "spans"
    traced_dir.mkdir()
    traced_wall = 0.0
    traces = []
    if workload.model is not None:
        untraced_wall += workload.setup_s - workload.inputs.synth_s
        spans = traced_dir / "setup.json"
        code, wall, _ = workload.program(
            workload.decompose_args(workload.workdir / "model-traced.npz"),
            spans=spans)
        if code != 0:
            raise SetupError(f"traced `qpdecomp decompose` exited {code}")
        traced_wall += wall
        traces.append(json.loads(spans.read_text()))
    traced = run_round(workload, workload.operations(), tally, traced_dir)
    traced_wall += sum(w for w, _, _, _ in traced)
    traces += [json.loads(p.read_text()) for _, _, _, p in traced]
    if len(traced) < len(untraced):
        raise SetupError("a traced command failed where the untraced one ran")
    metrics, self_time = layer_metrics(traces, traced_wall, untraced_wall)
    units = {k: "s" if k.endswith("_s") else "MB" if k.endswith("_mb")
             else "count" for k in metrics}
    absent = sorted({a for t in traces for a in t["absent"]})
    for name in absent:
        print(f"perfbench: entry point {name} is absent", file=sys.stderr)
    record.update(spans=traces, layer_self_s=self_time, absent=absent,
                  untraced_wall_s=untraced_wall, traced_wall_s=traced_wall)
    return metrics, units


if __name__ == "__main__":
    sys.exit(main())
