"""Run one qpdecomp command in this process, with a span around every call
into the module entry points the command reaches, and write the spans.

    python3 perfbench/tracer.py --spans OUT.json -- <qpdecomp arguments>

Each span records its name, start, end and parent.  The spans named in
``PEAK_SPANS``, and the spans nested in them, also record the tracemalloc
peak reached during the call, above the traced memory at its start.  Importing
the package is recorded as the span ``cli.import``.  An entry point that
the program no longer has is listed under ``absent``; it does not fail the
run.  The exit code is the command's own.
"""

import functools
import importlib
import json
import os
import sys
import time
import tracemalloc
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# The module functions the CLI calls, by layer.  Every module-level name
# bound to one of them is replaced, so calls between modules are traced too.
ENTRY_POINTS = {
    "cli": ("main",),
    "pipeline": ("run_pipeline", "_write_table"),
    "series": ("load_csv", "delay_embed"),
    "kernel": ("gaussian_kernel", "sqdist_histogram"),
    "spectral": ("decompose",),
    "freqfilter": ("rkhs_norm_table", "select"),
    "decompose": ("fit_periodic", "fit_chaotic", "eval_periodic",
                  "reconstruct", "save_model", "load_model"),
}


def _first(args, kwargs, name):
    return args[0] if args else kwargs[name]


# Work counts read off a call: span name -> (counter, f(args, kwargs, result)).
COUNTERS = {
    "kernel.gaussian_kernel": (
        "kernel.points",
        lambda a, kw, r: _first(a, kw, "embedding").n_points),
    "spectral.decompose": ("spectral.eigenpairs", lambda a, kw, r: len(r.lam)),
    "freqfilter.rkhs_norm_table": (
        "freqfilter.bins_total", lambda a, kw, r: len(r.freqs)),
    "freqfilter.select": (
        "freqfilter.bins_selected", lambda a, kw, r: len(r.indices)),
    "decompose.reconstruct": (
        "decompose.reconstruct_steps", lambda a, kw, r: len(r.values)),
    "pipeline._write_table": (
        "pipeline.csv_bytes",
        lambda a, kw, r: os.path.getsize(_first(a, kw, "path"))),
}


# Spans whose allocation peak is measured.  Tracing allocations slows each
# one down, by about 20x in the row-by-row CSV reader, so tracemalloc runs
# only inside these calls and the times of the other spans stay true.
PEAK_SPANS = frozenset({"spectral.decompose", "decompose.fit_periodic",
                        "decompose.load_model", "kernel.gaussian_kernel",
                        "kernel.sqdist_histogram"})


class Tracer:
    """Spans kept in memory; written out once the command has ended."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {}
        self.absent = []
        self.counter_errors = []

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            started = name in PEAK_SPANS and not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            parent = self.stack[-1] if self.stack else None
            span = {"name": name, "id": len(self.spans),
                    "parent": None if parent is None else parent["id"],
                    "base": None, "peak": None}
            if tracemalloc.is_tracing():
                current, peak = tracemalloc.get_traced_memory()
                if parent is not None and parent["peak"] is not None:
                    # resetting the peak below would lose the parent's so far
                    parent["peak"] = max(parent["peak"], peak)
                tracemalloc.reset_peak()
                span["base"] = span["peak"] = current
            self.spans.append(span)
            self.stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self.stack.pop()
                if span["peak"] is not None:
                    span["peak"] = max(span["peak"],
                                       tracemalloc.get_traced_memory()[1])
                if started:
                    tracemalloc.stop()
            if counter is not None:
                key, count = counter
                try:
                    self.counts[key] = self.counts.get(key, 0) + count(
                        args, kwargs, result)
                except (AttributeError, KeyError, IndexError, TypeError,
                        OSError) as exc:
                    self.counter_errors.append(f"{key}: {exc!r}")
            return result

        return traced

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "qpdecomp" or n.startswith("qpdecomp.")]
        for layer, names in ENTRY_POINTS.items():
            module = sys.modules.get(f"qpdecomp.{layer}")
            for fname in names:
                name = f"{layer}.{fname}"
                orig = getattr(module, fname, None)
                if not callable(orig):
                    self.absent.append(name)
                    continue
                traced = self.wrap(name, orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, traced)

    def report(self, exit_code):
        spans = [{"name": s["name"], "id": s["id"], "parent": s["parent"],
                  "start": s["start"], "end": s["end"],
                  "peak_alloc_bytes": None if s["peak"] is None
                  else s["peak"] - s["base"]}
                 for s in self.spans]
        return {"exit_code": exit_code, "spans": spans, "counts": self.counts,
                "absent": self.absent, "counter_errors": self.counter_errors}


def main(argv):
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: tracer.py --spans OUT.json -- <qpdecomp arguments>",
              file=sys.stderr)
        return 2
    out, cli_args = argv[1], argv[3:]
    sys.path.insert(0, str(SRC))
    tracer = Tracer()
    start = time.perf_counter()
    import qpdecomp.cli  # noqa: F401  (the package imports every layer)
    for layer in ENTRY_POINTS:
        try:
            importlib.import_module(f"qpdecomp.{layer}")
        except ImportError:
            pass
    tracer.spans.append({"name": "cli.import", "id": 0, "parent": None,
                         "base": None, "peak": None, "start": start,
                         "end": time.perf_counter()})
    tracer.install()
    code = 1
    try:
        code = sys.modules["qpdecomp.cli"].main(cli_args)
    finally:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.report(code), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
