"""Toy-size smoke test of the benchmark: output schema and correctness
checks, never timings.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _result(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0.2", "--trace", str(trace), "--toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    report = json.loads(lines[-2])["report"]
    assert report["reference"] == "compared with the recorded reference"
    assert set(report["machine"]) == {"nproc", "cpu_model", "python", "numpy", "blas", "blas_version", "blas_threads"}
    return json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_result_schema(workload, trace):
    result = _result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], float) and math.isfinite(entry["value"])
    if trace:
        assert result["metrics"]["trace.missing"]["value"] == 0.0
        assert result["metrics"]["trace.hook_errors"]["value"] == 0.0


def test_workloads_match_generator():
    assert sorted(w["name"] for w in BENCH["workloads"]) == sorted(gen.WORKLOADS)


def test_predict_keeps_blank_line_failures_visible():
    result = _result("predict", 0)
    assert result["failed"] >= 1
    assert result["metrics"]["success_ratio"]["value"] < 1.0
    # the same requests fail whatever the seed
    other, _ = run.run("predict", 1, 0.2, False, toy=True, root=ROOT)
    assert (other["attempted"], other["failed"]) == (result["attempted"], result["failed"])


def _run_in_process(workload: str) -> dict:
    result, _ = run.run(workload, 0, 0.0, False, toy=True, root=ROOT)
    return result


@pytest.mark.parametrize(
    "workload, module, name, broken",
    [
        ("preprocess-oov", "emocaps.textprep", "spell_correct", lambda word, lex: word),
        ("predict", "emocaps.training", "predict_class", lambda probs: 0),
        ("train-longseq", "emocaps.training", "clip_gradients", lambda grads, *a, **k: grads),
    ],
)
def test_wrong_outputs_fail_the_check(monkeypatch, workload, module, name, broken):
    assert _run_in_process(workload)["correct"] is True
    monkeypatch.setattr(f"{module}.{name}", broken)
    assert _run_in_process(workload)["correct"] is False


def test_missing_functions_are_reported_not_fatal():
    targets = spans.TARGETS + (
        ("emocaps.training", "renamed_away", "training.renamed_away", None),
        ("emocaps.no_such_module", "f", "nowhere.f", None),
        ("emocaps.textprep", "Lexicon.no_such_method", "textprep.Lexicon.no_such_method", None),
    )
    import emocaps.training as training

    original = training.bigru_forward
    with spans.Tracer(targets) as tracer:
        assert training.bigru_forward is not original
    assert training.bigru_forward is original
    assert tracer.missing == ["training.renamed_away", "nowhere.f", "textprep.Lexicon.no_such_method"]


def test_self_time_excludes_children():
    tracer = spans.Tracer(())
    tracer.spans = [["a", 0.0, 10.0, None, 0], ["b", 1.0, 4.0, 0, 0], ["c", 2.0, 3.0, 1, 0]]
    summary = tracer.summary()
    assert summary["a"]["self_s"] == pytest.approx(7.0)
    assert summary["b"]["self_s"] == pytest.approx(2.0)
    assert summary["c"]["total_s"] == pytest.approx(1.0)


def test_set_up_spans_are_summarised_apart():
    tracer = spans.Tracer(())
    tracer.spans = [["load", 0.0, 2.0, None, -1], ["load", 2.0, 5.0, None, -2], ["step", 5.0, 6.0, None, 0]]
    assert set(tracer.summary()) == {"step"}
    setup = tracer.summary(setup=True)
    assert set(setup) == {"load"}
    assert setup["load"]["calls"] == 2 and setup["load"]["self_s"] == pytest.approx(5.0)
