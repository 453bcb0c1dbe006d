"""The benchmark's correctness check on its toy inputs, in tier-1.

`perfbench/run.py` checks every workload's outputs against the references
recorded in `perfbench/expected/`: labels, losses, tokens. Its own smoke test
(`perfbench/test_smoke.py`) is not collected here, so this runs the same
in-process check for each workload, imported the way the smoke test imports
it, and times nothing.
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
def test_toy_outputs_match_the_recorded_references(bench, workload):
    work = ROOT / ".perfbench"
    before = sorted(work.iterdir()) if work.exists() else []
    result, report = bench.run(workload, 0, 0.0, False, toy=True, root=ROOT)
    assert report["problems"] == [] and result["correct"] is True, report["problems"]
    if workload == "predict":  # the requests that hold a blank line, refused as the CLI refuses them
        assert (result["failed"], result["attempted"]) == (15, 440)
    assert sorted(work.iterdir()) == before  # the generated inputs are removed
