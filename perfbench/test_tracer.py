"""Self-tests of the tracer on a small `qpdecomp run`.

    python3 -m pytest perfbench/test_tracer.py
"""

import json
import sys
import tracemalloc

import pytest

import tracer

sys.path.insert(0, str(tracer.SRC))
import qpdecomp.cli  # noqa: E402


@pytest.fixture
def restore_modules():
    """The tracer rebinds module names for the life of its process; undo that."""
    saved = {name: dict(vars(m)) for name, m in list(sys.modules.items())
             if name.startswith("qpdecomp")}
    yield
    for name, attrs in saved.items():
        vars(sys.modules[name]).update(attrs)


@pytest.fixture
def small_input(tmp_path):
    path = tmp_path / "torus.csv"
    assert qpdecomp.cli.main(["synth", "--testbed", "pure_torus_2",
                              "--steps", "800", "--out", str(path)]) == 0
    return path


def traced_run(tmp_path, small_input):
    spans = tmp_path / "spans.json"
    code = tracer.main([
        "--spans", str(spans), "--", "run", "--input", str(small_input),
        "--outdir", str(tmp_path / "out"), "--delays", "6", "--epsilon", "2.0",
        "--num-eigen", "40", "--L0", "8", "--train-end", "600",
        "--predict-start", "620", "--predict-end", "700"])
    return code, json.loads(spans.read_text())


def test_spans_nest_under_their_callers(tmp_path, small_input,
                                        restore_modules):
    code, report = traced_run(tmp_path, small_input)
    assert code == report["exit_code"] == 0
    spans = {s["name"]: s for s in report["spans"]}
    assert spans["cli.import"]["parent"] is None
    assert spans["cli.main"]["parent"] is None
    run_id = spans["pipeline.run_pipeline"]["id"]
    assert spans["pipeline.run_pipeline"]["parent"] == spans["cli.main"]["id"]
    for child in ("kernel.gaussian_kernel", "spectral.decompose",
                  "decompose.fit_periodic", "decompose.reconstruct"):
        assert spans[child]["parent"] == run_id
        assert (spans["pipeline.run_pipeline"]["start"] <= spans[child]["start"]
                <= spans[child]["end"] <= spans["pipeline.run_pipeline"]["end"])
    # gaussian_kernel holds at least two 594 x 594 float64 matrices at once
    assert spans["kernel.gaussian_kernel"]["peak_alloc_bytes"] >= 2 * 594**2 * 8
    assert report["counts"]["kernel.points"] == 594
    assert report["counts"]["decompose.reconstruct_steps"] == 80
    assert report["counts"]["spectral.eigenpairs"] == 40
    assert report["absent"] == []


def test_allocations_are_traced_only_inside_peak_spans(tmp_path, small_input,
                                                       restore_modules):
    code, report = traced_run(tmp_path, small_input)
    assert code == 0
    assert not tracemalloc.is_tracing()
    for span in report["spans"]:
        measured = span["peak_alloc_bytes"] is not None
        assert measured == (span["name"] in tracer.PEAK_SPANS), span["name"]


def test_absent_entry_point_does_not_fail_the_run(tmp_path, small_input,
                                                  monkeypatch,
                                                  restore_modules):
    # as if a refactor removed an entry point; `run` never calls this one
    monkeypatch.delattr(qpdecomp.decompose, "load_model")
    code, report = traced_run(tmp_path, small_input)
    assert code == 0
    assert report["absent"] == ["decompose.load_model"]
    assert "kernel.gaussian_kernel" in {s["name"] for s in report["spans"]}
