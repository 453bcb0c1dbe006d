"""The benchmark's correctness check on its toy inputs, traced, in tier-1.

`perfbench/run.py` checks every workload's outputs against the references
recorded in `perfbench/expected/`: labels, losses, tokens. Its own smoke test
(`perfbench/test_smoke.py`) is not collected here, so this runs the same
in-process check for each workload, imported the way the smoke test imports
it, and times nothing. The run is traced, as the benchmark's per-layer pass
is: the traced pass is checked too, and every span must resolve and every
span hook (which may read the program's files) must run without an error.
"""

import json
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]


@pytest.fixture(scope="module")
def bench():
    """perfbench/run.py as the module `run`; it pins the BLAS thread
    variables when imported, which are restored for the tests after these."""
    saved = dict(os.environ)
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import run
    finally:
        os.environ.clear()
        os.environ.update(saved)
    return run


@pytest.mark.parametrize("workload", WORKLOADS)
def test_toy_outputs_match_the_recorded_references(bench, workload, tmp_path):
    """Run from a checkout of its own, whose src is this one's, so that the
    trace file it writes lands there and not in this checkout's
    `.perfbench/`, which it leaves as it found it."""
    work = ROOT / ".perfbench"
    before = sorted(work.rglob("*")) if work.exists() else None
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    result, report = bench.run(workload, 0, 0.0, True, toy=True, root=tmp_path)
    assert report["problems"] == [] and result["correct"] is True, report["problems"]
    assert report["missing_spans"] == []
    assert result["metrics"]["trace.missing"]["value"] == 0.0
    assert result["metrics"]["trace.hook_errors"]["value"] == 0.0
    if workload == "predict":  # the requests that hold a blank line, refused as the CLI refuses them
        assert (result["failed"], result["attempted"]) == (15, 440)
    # the generated inputs are removed, and the trace is written
    assert sorted(p.name for p in (tmp_path / ".perfbench").iterdir()) == ["traces"]
    assert (tmp_path / ".perfbench" / "traces" / f"{workload}-seed0.jsonl").stat().st_size > 0
    assert (sorted(work.rglob("*")) if work.exists() else None) == before
