"""A golden run of README's pipeline: preprocess, build-vocab, train,
evaluate --output and predict on the conftest corpus, every third line as
dev, at the desk dimensions with --seed 3 --max-epochs 3. The sha256 of
every output file and of stdout is compared with DIGESTS.

The bytes of the trained tensors depend on the BLAS library, its kernel,
the thread count and the SIMD loops numpy picks for the CPU (README,
"Determinism"). Where numpy's BLAS is OpenBLAS on x86-64, the pipeline runs
in a subprocess with one BLAS thread, OPENBLAS_CORETYPE pinned to KERNEL
and numpy held to its baseline loops, all of which every x86-64 host runs,
and every digest must match. The in-process run, on any host, checks what
any BLAS and CPU must give: the files no BLAS product reaches exactly, the
tensors and the history floats within BOUND.

A change that moves a digest updates them here in the same commit, and
names the files and the reason in CHANGES.md. Run as a script with a
directory and `pinned_env()`'s variables set, this module runs the pipeline
there and prints DIGESTS, MANIFEST, HISTORY and TENSORS as JSON.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import DESK, make_toy_examples, write_labeled
from emocaps import cli
from emocaps.checkpoint import load_checkpoint

KERNEL = "Prescott"
BOUND = 1e-12
COMMANDS = [
    ["preprocess", "--input", "raw_train.tsv", "--output", "train.tsv"],
    ["preprocess", "--input", "raw_dev.tsv", "--output", "dev.tsv"],
    ["preprocess", "--input", "raw_test.txt", "--output", "test.txt", "--unlabeled"],
    ["build-vocab", "--inputs", "train.tsv", "dev.tsv", "test.txt", "--embedding-out", "emb",
     *DESK["build-vocab"], "--seed", "3"],
    ["train", "--train-file", "train.tsv", "--dev-file", "dev.tsv", "--embeddings-payload", "emb",
     "--checkpoint-dir", "run1", *DESK["train"], "--seed", "3", "--max-epochs", "3"],
    ["evaluate", "--input", "dev.tsv", "--checkpoint", "run1/model", "--output", "report.json"],
    ["predict", "--input", "test.txt", "--checkpoint", "run1/model", "--output", "preds.txt"],
]
INPUTS = {"raw_train.tsv", "raw_dev.tsv", "raw_test.txt"}
DIGESTS = {
    "dev.tsv": "24671a700b8cefeade936278bd262a1b8b855de9413ae7c0233c032d574af528",
    "emb.bin": "ff4608cf33a1fc35c8df0911c1f67fdeaa1707e722457a20875ff3c3c9f8a824",
    "emb.json": "64130dc2a0b343c354eeb2449aa5466440b8b2191c74e1307acc693a16e70fc3",
    "preds.txt": "8180ff6aaa066bdf13a9cdff92fe72eed1d23fdaa8f10942445b2610c3492af2",
    "report.json": "b54184b2481c3ee755992ac44363e18f24be24d593b8e90b3e4d055b529ffb23",
    "run1/history.jsonl": "a9015b96f47d678e8b1e2a2b29c78a4d0e131c46a23291311082a0977da9c713",
    "run1/model.bin": "c7d2cdfb9e1a03b673184ddaa29d10b96e8d34c6eeb110782186a25ece9bfadc",
    "run1/model.json": "0c427069e63dd46a5149c9ab3cb00fbddf4ab498fd25c1d13ca379550c4b4c14",
    "stdout": "bbf99869adfb604e4d39bb9c447d6c620f119b07805d43f6b9437f0a5eb8057b",
    "test.txt": "81d442820cf7ccd57a1f226f8d364ee3a330f743f540ad51527840941fc5ec57",
    "train.tsv": "856dd62d85f85642e34d60db40e814c56a4ed2fc4f4cdd1b3cbb26231e2a3835",
}
# the files no BLAS product reaches; model.json does through its payload_sha256
EXACT = ("train.tsv", "dev.tsv", "test.txt", "emb.json", "emb.bin", "report.json", "preds.txt", "stdout")
# model.json's digest, its payload_sha256 left out
MANIFEST = "0918278779faaacc888f87ae70061414048fc138b039485d6f3ccd81eebc9bfc"
HISTORY = [
    {"dev_macro_f1": 0.14484126984126985, "epoch": 0, "seconds": 0.0, "train_loss": 1.8010762484294254},
    {"dev_macro_f1": 0.11212121212121212, "epoch": 1, "seconds": 0.0, "train_loss": 1.7833823562340185},
    {"dev_macro_f1": 0.11212121212121212, "epoch": 2, "seconds": 0.0, "train_loss": 1.8159780322096886},
]
# name -> (sum, the values at SAMPLES evenly spaced positions of the flat tensor)
TENSORS = {
    "embedding/W_e": (-0.09373285000669922, [
        0.0, 0.016913757313217398, -0.02055442920023817, -0.04517442391816569,
        0.04618593619206166, 0.04504393397519985, 0.01965977004825614, 0.04609593146509719]),
    "gru/W_i": (-5.239447017127933, [
        -0.22612502846625207, -0.2417182865584153, 0.26704444657384185, -0.23680715998053312,
        -0.16813515783319408, -0.25065743258126355, -0.2362297910324391, 0.09472622012810328]),
    "gru/W_h": (-27.734464953703167, [
        -0.22247962417685643, -0.17377426966590084, -0.19608642474243812, 0.15296563439794011,
        0.10671773943765617, -0.1164882758923637, -0.19969372286883966, 0.28115404523391585]),
    "gru/b": (-0.04132572173234833, [
        -0.0011760619386265055, 0.0016058640871282168, -0.001239301162870466, -0.0014725836720192026,
        0.001967280407662886, -0.0019060462329606748, 0.0019517630848849598, -0.0006390281099506775]),
    "capsule/W": (15.609756326263314, [
        0.1569344183745413, -0.18222928501103175, -0.07311924064259645, -0.2789906756900133,
        0.13848093737834077, -0.19235875854771872, -0.10037588757760169, 0.1752867776024941]),
    "dense/W": (0.26210968985090277, [
        -0.15939165434231048, -0.09905828690506736, -0.22993289677401155, -0.04010002486261855,
        -0.126792628960775, 0.044340164960371777, -0.21157821043818867, 0.29118407273478725]),
    "dense/b": (8.462597853934836e-05, [
        0.0006061613597706152, 0.0006061613597706152, 0.0005194198201857619, -0.0006334246522782724,
        -0.0006334246522782724, -0.00042240087731983155, -0.00031541922211342026, 0.0003302895502944954]),
}
SAMPLES = 8


def run_pipeline(root: Path) -> str:
    """Write the corpus into `root` and run COMMANDS there; returns their stdout."""
    examples = make_toy_examples()
    dev = examples[2::3]
    write_labeled(root / "raw_train.tsv", [e for i, e in enumerate(examples) if i % 3 != 2])
    write_labeled(root / "raw_dev.tsv", dev)
    (root / "raw_test.txt").write_text("".join(f"{text}\n" for _, text in dev), encoding="utf-8")
    out, cwd = io.StringIO(), os.getcwd()
    os.chdir(root)  # relative paths, so stdout names no temporary directory
    try:
        with contextlib.redirect_stdout(out):
            for argv in COMMANDS:
                assert cli.main(argv) == 0, argv
    finally:
        os.chdir(cwd)
    return out.getvalue()


def digests(root: Path, stdout: str) -> dict:
    files = sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file())
    found = {name: hashlib.sha256((root / name).read_bytes()).hexdigest() for name in files if name not in INPUTS}
    return {**found, "stdout": hashlib.sha256(stdout.encode("utf-8")).hexdigest()}


def _manifest_digest(root: Path) -> str:
    manifest = json.loads((root / "run1" / "model.json").read_text(encoding="utf-8"))
    del manifest["payload_sha256"]
    return hashlib.sha256(json.dumps(manifest, sort_keys=True).encode("utf-8")).hexdigest()


def _tensor_summary(tensor: np.ndarray):
    flat = tensor.ravel()
    return math.fsum(flat), flat[np.linspace(0, flat.size - 1, SAMPLES).astype(int)].tolist()


def _pinnable() -> bool:
    """numpy's BLAS is OpenBLAS, on x86-64, where OPENBLAS_CORETYPE picks the kernel."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    return "openblas" in blas.lower() and platform.machine().lower() in ("x86_64", "amd64")


def pinned_env() -> dict:
    """This process's environment with one BLAS thread, the KERNEL and
    numpy's SIMD dispatch held to its baseline: each of the SIMD targets
    numpy found on this CPU is disabled."""
    threads = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
    dispatched = np.show_config(mode="dicts").get("SIMD Extensions", {}).get("found", [])
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, **threads, "OPENBLAS_CORETYPE": KERNEL, "NPY_DISABLE_CPU_FEATURES": " ".join(dispatched),
            "OPENBLAS_VERBOSE": "2", "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}


@pytest.mark.skipif(not _pinnable(), reason="OPENBLAS_CORETYPE pins the kernel of x86-64 OpenBLAS only")
def test_pipeline_bytes_under_the_pinned_kernel(tmp_path):
    done = subprocess.run([sys.executable, __file__, str(tmp_path)], env=pinned_env(), capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    core = [line for line in done.stderr.splitlines() if line.startswith("Core:")]  # OPENBLAS_VERBOSE's
    assert json.loads(done.stdout)["DIGESTS"] == DIGESTS, core


def test_pipeline_in_process(tmp_path):
    """Under whatever BLAS, kernel and SIMD loops this process runs."""
    found = digests(tmp_path, run_pipeline(tmp_path))
    assert sorted(found) == sorted(DIGESTS)
    assert {name: found[name] for name in EXACT} == {name: DIGESTS[name] for name in EXACT}
    assert _manifest_digest(tmp_path) == MANIFEST
    history = [json.loads(line) for line in (tmp_path / "run1" / "history.jsonl").read_text().splitlines()]
    assert [sorted(row) for row in history] == [sorted(row) for row in HISTORY]
    for row, expected in zip(history, HISTORY):
        for key, value in expected.items():
            assert type(row[key]) is type(value) and abs(row[key] - value) <= BOUND, (row, expected)
    tensors, _ = load_checkpoint(tmp_path / "run1" / "model")
    assert list(tensors) == list(TENSORS)
    for name, (total, samples) in TENSORS.items():
        found_total, found_samples = _tensor_summary(tensors[name])
        assert abs(found_total - total) <= BOUND * tensors[name].size, name  # each value within BOUND
        assert np.allclose(found_samples, samples, rtol=0, atol=BOUND), name


if __name__ == "__main__":
    root = Path(sys.argv[1])
    stdout = run_pipeline(root)
    tensors, _ = load_checkpoint(root / "run1" / "model")
    print(json.dumps({"DIGESTS": digests(root, stdout), "MANIFEST": _manifest_digest(root),
                      "HISTORY": [json.loads(line) for line in (root / "run1" / "history.jsonl").open()],
                      "TENSORS": {name: _tensor_summary(t) for name, t in tensors.items()}}, indent=4))
