#!/usr/bin/env python3
"""The emocaps benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload predict --seed 3 --seconds 10 --trace 0

Run it from the root of a checkout; the program is imported from `src/`.
The run writes its seeded inputs under `.perfbench/`, times set-up several
times, then drives the workload closed-loop (one client, each request sent
when the last one returned) for a fixed number of requests sized by
`--seconds`, and checks every output. The
last line of stdout is the result: end-to-end metrics with `--trace 0`,
per-layer metrics from a second, traced pass with `--trace 1`. The line
before it is a report with the machine, sample counts and check details.

`--record` stores the checked outputs of this seed as the reference that
later runs are compared against.
"""

from __future__ import annotations

import os

# Fixed before numpy loads: one BLAS thread per process (at most nproc).
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import hashlib
import json
import math
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from bisect import bisect_left
from collections import deque
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import numpy as np

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402

# Set-up is repeated at least SETUP_REPEATS times and for SETUP_SECONDS.
SETUP_REPEATS = 5
SETUP_SECONDS = 1.0
EXPECTED_DIR = HERE / "expected"
LOSS_TOLERANCE = 1e-9

# Time metrics are reported in reference time. Every CAL_EVERY_S of set-up
# and of the loop a timer times a small calibration kernel; the wall time of
# a set-up or a request is scaled by CAL_REF_S over the kernel's time
# during it. Shared hosts change speed by tens of percent, in bursts of a
# fraction of a second and in trends over minutes, and the kernel slows
# with them. The wall-clock figures stay in the report.
CAL_EVERY_S = 0.1
CAL_REF_S = 0.0014

# predict: after every PREDICT_CYCLE single-tweet requests comes one bulk
# request re-sending the last BULK_SIZE of them as one chunk. The mix and
# the chunk size are assumptions, not taken from measured traffic; they
# only weight the single and bulk paths in items_per_ref_s.
PREDICT_CYCLE = 10
BULK_SIZE = 16
# Outputs of the first requests are compared with the recorded reference:
# 40 predict cycles, or 300 tweets; both end well inside a 20-s run.
CHECKED_OPS = {"train": 1, "predict": 440, "preprocess": 300}
# A run makes a fixed number of requests: REQUESTS_PER_S for each second of
# --seconds, and at least the checked ones. The rates are about what one
# client reaches on a shared 2-vCPU Xeon at 2.0 GHz, so that a run there
# measures for about --seconds. A fixed count, unlike a deadline, gives every
# run of a workload the same `attempted` and `failed` whatever the host's
# speed, and so the same failed share.
REQUESTS_PER_S = {"train-bigvocab": 0.35, "train-longseq": 0.15, "predict": 50.0, "preprocess-oov": 35.0}

END_TO_END = {
    "setup_s": "s",
    "items_per_ref_s": "1/ref_s",
    "latency_p50_ref_ms": "ref_ms",
    "latency_p99_ref_ms": "ref_ms",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode("utf-8")).hexdigest()


def percentile(samples, q: int) -> float:
    """The q-th percentile (inclusive method); a single sample is its own."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


class Op(NamedTuple):
    """One completed request: how many items it carried, whether it
    succeeded, when its timed part started and ended, whether it is a
    latency sample, and its output."""

    items: int
    ok: bool
    start: float
    end: float
    timed: bool
    out: object


# ----------------------------------------------------------------- workloads


class TrainWorkload:
    """Each request is a training job: `training.train` from the same
    initial model for a fixed epoch count, with patience equal to it, so
    every job does the same work and must give the same loss."""

    item = "training examples"

    def __init__(self, work: Path, sp: dict, seed: int):
        self.work, self.sp, self.seed = work, sp, seed

    def setup(self):
        from emocaps import checkpoint, cli, embeddings, training

        vocab = embeddings.Vocabulary.load(self.work / "vocab.tsv")
        train_set, dev_set = (
            [(vocab.encode(text.split()), label) for label, text in cli.load_dataset(self.work / f"{name}.tsv")]
            for name in ("train", "dev")
        )
        tensors, _ = checkpoint.load_checkpoint(self.work / "emb")
        W = tensors["embedding/W_e"]
        if W.shape[0] != len(vocab):
            raise SystemExit(f"embedding payload has {W.shape[0]} rows, vocabulary {len(vocab)}")
        cfg = training.TrainConfig(
            batch_size=self.sp["batch_size"],
            max_epochs=self.sp["epochs"],
            patience=self.sp["epochs"],
            seed=self.seed,
            **self.sp["dims"],
        )
        params = training.init_model(cfg, embeddings.EmbeddingTable(weights=W.astype(np.float64)))
        return {"cfg": cfg, "train": train_set, "dev": dev_set, "weights": params.embedding.weights.copy()}

    def step(self, state, i: int) -> Op:
        from emocaps import embeddings, training

        cfg = state["cfg"]
        params = training.init_model(cfg, embeddings.EmbeddingTable(weights=state["weights"].copy()))
        start = perf_counter()
        _, history = training.train(state["train"], state["dev"], params, cfg)
        end = perf_counter()
        out = {
            "train_loss_final": history[-1]["train_loss"],
            "dev_macro_f1": history[-1]["dev_macro_f1"],
            "epochs": len(history),
        }
        return Op(len(history) * len(state["train"]), True, start, end, True, out)

    def fingerprint(self, ops) -> dict:
        out = ops[0].out
        return {"train_loss_final": out["train_loss_final"], "dev_macro_f1": out["dev_macro_f1"]}

    def compare(self, fp: dict, ref: dict) -> list[str]:
        return [
            f"{k} {fp[k]!r} differs from the recorded {ref[k]!r}"
            for k in ("train_loss_final", "dev_macro_f1")
            if not abs(fp[k] - ref[k]) <= LOSS_TOLERANCE
        ]

    def invariants(self, ops) -> list[str]:
        first = ops[0].out
        problems = []
        if not math.isfinite(first["train_loss_final"]):
            problems.append("final training loss is not finite")
        if first["epochs"] != self.sp["epochs"]:
            problems.append(f"job ran {first['epochs']} epochs, expected {self.sp['epochs']}")
        if any(op.out != first for op in ops[1:]):
            problems.append("repeated training jobs from the same start disagree")
        return problems

    def details(self, ops) -> dict:
        return dict(ops[0].out)


class PredictWorkload:
    """Eval-mode prediction on a loaded checkpoint. Single-tweet requests are
    the latency path; every PREDICT_CYCLE-th request is a bulk chunk of the
    last BULK_SIZE tweets, whose predictions must equal the single ones.
    Blank lines stay in the stream: today a request holding one fails."""

    item = "tweets"

    def __init__(self, work: Path, sp: dict, seed: int):
        from emocaps import cli

        self.work = work
        self.lines = [text for _, text in cli.load_dataset(work / "requests.txt", labeled=False)]
        self.cursor = 0
        self.since_bulk = 0
        self.recent: deque = deque(maxlen=BULK_SIZE)

    def setup(self):
        from emocaps import checkpoint, embeddings, training

        vocab = embeddings.Vocabulary.load(self.work / "vocab.tsv")
        tensors, manifest = checkpoint.load_checkpoint(self.work / "model")
        names = set(training.TrainConfig.__dataclass_fields__)
        cfg = training.TrainConfig(**{k: v for k, v in manifest["hyperparameters"].items() if k in names})
        params = training.ModelParams.from_tensors(tensors)
        if params.embedding.weights.shape[0] != len(vocab):
            raise SystemExit("checkpoint and vocabulary sizes disagree")
        return {"vocab": vocab, "params": params, "cfg": cfg}

    def step(self, state, i: int) -> Op:
        from emocaps import errors, training

        bulk = self.since_bulk >= PREDICT_CYCLE and len(self.recent) == BULK_SIZE
        if bulk:
            texts = [text for text, _ in self.recent]
        else:
            texts = [self.lines[self.cursor % len(self.lines)]]
            self.cursor += 1
        vocab = state["vocab"]
        start = perf_counter()
        try:
            preds = training.predict_dataset([vocab.encode(t.split()) for t in texts], state["params"], state["cfg"])
        except errors.EmocapsError as exc:
            preds, error = None, type(exc).__name__
        end = perf_counter()
        ok = preds is not None
        blank = any(not t.strip() for t in texts)
        if bulk:
            self.since_bulk = 0
            out = {"bulk": preds if ok else error, "singles": [pred for _, pred in self.recent], "blank": blank}
            return Op(len(texts) if ok else 0, ok, start, end, False, out)
        self.since_bulk += 1
        self.recent.append((texts[0], preds[0] if ok else None))
        return Op(int(ok), ok, start, end, ok, {"single": preds[0] if ok else error, "blank": blank})

    def fingerprint(self, ops) -> dict:
        """Digest of the outcomes of requests without blank lines, so that a
        documented blank-line rule would not change it."""
        outcomes = [
            (n, op.out.get("single", op.out.get("bulk")))
            for n, op in enumerate(ops[: CHECKED_OPS["predict"]])
            if not op.out["blank"]
        ]
        return {"digest": digest(outcomes)}

    def compare(self, fp: dict, ref: dict) -> list[str]:
        return [] if fp["digest"] == ref["digest"] else ["predicted labels differ from the recorded digest"]

    def invariants(self, ops) -> list[str]:
        problems = []
        for n, op in enumerate(ops):
            if "single" in op.out:
                label = op.out["single"]
                if op.ok and not (isinstance(label, int) and 0 <= label < 6):
                    problems.append(f"request {n}: label {label!r} out of range")
            elif op.ok and op.out["bulk"] != op.out["singles"]:
                problems.append(f"request {n}: bulk predictions differ from single-tweet predictions")
            elif not op.ok and None not in op.out["singles"]:
                problems.append(f"request {n}: bulk failed although every tweet succeeded alone")
        return problems[:5]

    def details(self, ops) -> dict:
        singles = [op for op in ops if "single" in op.out]
        return {
            "single_requests": len(singles),
            "bulk_requests": len(ops) - len(singles),
            "failed_single": sum(not op.ok for op in singles),
            "failed_bulk": sum(not op.ok for op in ops if "bulk" in op.out),
        }


class PreprocessWorkload:
    """`textprep.preprocess` on raw tweets, one tweet per request."""

    item = "tweets"

    def __init__(self, work: Path, sp: dict, seed: int):
        from emocaps import cli

        self.work = work
        self.lines = [text for _, text in cli.load_dataset(work / "raw.txt", labeled=False)]

    def setup(self):
        from emocaps import textprep

        return {"lex": textprep.Lexicon.from_file(self.work / "lexicon.tsv")}

    def step(self, state, i: int) -> Op:
        from emocaps import errors, textprep

        text = self.lines[i % len(self.lines)]
        start = perf_counter()
        try:
            tokens = textprep.preprocess(text, state["lex"])
        except errors.EmocapsError as exc:
            tokens = type(exc).__name__
        end = perf_counter()
        ok = isinstance(tokens, list)
        return Op(int(ok), ok, start, end, ok, tokens)

    def fingerprint(self, ops) -> dict:
        return {"digest": digest([op.out for op in ops[: CHECKED_OPS["preprocess"]]])}

    def compare(self, fp: dict, ref: dict) -> list[str]:
        return [] if fp["digest"] == ref["digest"] else ["token lists differ from the recorded digest"]

    def invariants(self, ops) -> list[str]:
        problems = []
        for n, op in enumerate(ops):
            if op.ok and not all(t and t == t.lower() and not any(c.isspace() for c in t) for t in op.out):
                problems.append(f"tweet {n}: malformed tokens {op.out!r}")
        return problems[:5]

    def details(self, ops) -> dict:
        return {"blank_lines": sum(1 for op in ops if op.ok and not op.out)}


KINDS = {"train": TrainWorkload, "predict": PredictWorkload, "preprocess": PreprocessWorkload}


# ----------------------------------------------------------------- measuring


def requests(workload: str, kind: str, seconds: float) -> int:
    """How many requests a run of `seconds` makes."""
    return max(CHECKED_OPS[kind], round(seconds * REQUESTS_PER_S[workload]))


def measure(make, n_ops: int, tracer: Tracer | None = None) -> dict:
    """Time repeated set-ups, then make `n_ops` requests closed-loop.
    Set-ups are (start, end) pairs."""
    wl = make()
    setups: list[tuple[float, float]] = []
    ops: list[Op] = []
    with Calibrator() as calibrator:
        while len(setups) < SETUP_REPEATS or sum(end - start for start, end in setups) < SETUP_SECONDS:
            if tracer is not None:
                tracer.request = -1 - len(setups)
            state = None  # release the previous copy before loading again
            start = perf_counter()
            state = wl.setup()
            setups.append((start, perf_counter()))
        while len(ops) < n_ops:
            if tracer is not None:
                tracer.request = len(ops)
            ops.append(wl.step(state, len(ops)))
    return {"workload": wl, "setups": setups, "ops": ops, "calibrator": calibrator}


_CAL_W = np.full((128, 128), 1e-3)
_CAL_TEXT = "\n".join(f"word{i}\t{7 * i}" for i in range(1_000))


def calibrate() -> float:
    """Seconds the calibration kernel takes now. The kernel mixes
    interpreter arithmetic, small numpy calls and the parsing of a small
    word<TAB>count table into a dict, as the program does, but it is the
    benchmark's own code, so no change to the program changes it. Parsing
    allocates many small objects; on a loaded host it slows down more than
    the arithmetic does, as the program's file loaders do."""
    t0 = perf_counter()
    total = 0
    for i in range(5_000):
        total += i * i % 7
    a = np.ones(128)
    for _ in range(50):
        a = np.tanh(a @ _CAL_W)
    table = {}
    for line in _CAL_TEXT.split("\n"):
        word, count = line.split("\t")
        table[word] = (int(count), word.upper())
    return perf_counter() - t0


class Calibrator:
    """Times the calibration kernel every CAL_EVERY_S of wall time, from a
    SIGALRM timer, so that long requests are sampled while they run."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._busy = False

    def _sample(self, signum=None, frame=None) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            self.starts.append(perf_counter())
            self.durations.append(calibrate())
        finally:
            self._busy = False

    def __enter__(self) -> "Calibrator":
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def seconds(self, start: float, end: float) -> tuple[float, float]:
        """(wall, reference) seconds of [start, end]. Wall seconds exclude
        calibrations that ran inside it; reference seconds are wall seconds
        times CAL_REF_S over the mean kernel time of the samples within it
        and the one on either side."""
        lo, hi = bisect_left(self.starts, start), bisect_left(self.starts, end)
        wall = end - start - sum(self.durations[lo:hi])
        return wall, wall * CAL_REF_S / statistics.fmean(self.durations[max(lo - 1, 0) : hi + 1])


def end_to_end(run: dict) -> tuple[dict, dict]:
    """The end-to-end metrics, and the time metrics in wall-clock time."""
    ops, calibrator = run["ops"], run["calibrator"]
    wall_s, ref_s = zip(*(calibrator.seconds(op.start, op.end) for op in ops))
    setup_wall, setup_ref = zip(*(calibrator.seconds(start, end) for start, end in run["setups"]))

    def timings(seconds) -> tuple[float, float, float]:
        latencies = [s for op, s in zip(ops, seconds) if op.timed]
        return sum(op.items for op in ops) / sum(seconds), 1e3 * percentile(latencies, 50), 1e3 * percentile(latencies, 99)

    items, p50, p99 = timings(ref_s)
    wall_items, wall_p50, wall_p99 = timings(wall_s)
    metrics = {
        "setup_s": statistics.median(setup_ref),
        "items_per_ref_s": items,
        "latency_p50_ref_ms": p50,
        "latency_p99_ref_ms": p99,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_ratio": sum(op.ok for op in ops) / len(ops),
    }
    wall = {
        "setup_s": statistics.median(setup_wall),
        "items_per_s": wall_items,
        "latency_p50_ms": wall_p50,
        "latency_p99_ms": wall_p99,
        "calibration_mean_ms": 1e3 * statistics.fmean(calibrator.durations),
        "calibrations": len(calibrator.durations),
    }
    return metrics, wall


def check(run: dict, workload: str, seed: int, toy: bool, record: bool) -> tuple[list[str], str]:
    """Problems found in the outputs, and how the reference was used."""
    wl, ops = run["workload"], run["ops"]
    problems = wl.invariants(ops)
    fp = wl.fingerprint(ops)
    path = EXPECTED_DIR / f"{'toy-' if toy else ''}{workload}.json"
    recorded = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    if record:
        recorded[str(seed)] = fp
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(recorded, sort_keys=True, indent=1) + "\n", encoding="utf-8")
        return problems, "recorded"
    if str(seed) not in recorded:
        return problems, "no reference recorded for this seed; invariants only"
    return problems + wl.compare(fp, recorded[str(seed)]), "compared with the recorded reference"


# ------------------------------------------------------------------- tracing

# name -> (unit, span name, field of the span summary, divisor field).
# Spans of SETUP_SPANS are taken from the set-ups, whose count is the
# divisor "setups"; all others, and the layer totals, from the requests.
SETUP_SPANS = ("textprep.Lexicon.from_file", "embeddings.Vocabulary.load", "checkpoint.load_checkpoint")
SPAN_METRICS = {
    "textprep.preprocess.s": ("s", "textprep.preprocess", "self_s", None),
    "textprep.tokenize.s": ("s", "textprep.tokenize", "self_s", None),
    "textprep.segment_hashtag.calls": ("count", "textprep.segment_hashtag", "calls", None),
    "textprep.segment_hashtag.s": ("s", "textprep.segment_hashtag", "self_s", None),
    "textprep.spell_correct.calls": ("count", "textprep.spell_correct", "calls", None),
    "textprep.spell_correct.s": ("s", "textprep.spell_correct", "self_s", None),
    "textprep.spell_correct.repeat_ratio": ("ratio", "textprep.spell_correct", "repeats", "calls"),
    "textprep.spell_correct.changed_ratio": ("ratio", "textprep.spell_correct", "changed", "calls"),
    "textprep.Lexicon.from_file.s": ("s", "textprep.Lexicon.from_file", "self_s", "setups"),
    "embeddings.embed.s": ("s", "embeddings.embed", "self_s", None),
    "embeddings.embed_backward.s": ("s", "embeddings.embed_backward", "self_s", None),
    "embeddings.embed_backward.touched_row_ratio": ("ratio", "embeddings.embed_backward", "touched_ratio_sum", "calls"),
    "embeddings.Vocabulary.load.s": ("s", "embeddings.Vocabulary.load", "self_s", "setups"),
    "embeddings.Vocabulary.encode.s": ("s", "embeddings.Vocabulary.encode", "self_s", None),
    "nn.bigru_forward.s": ("s", "nn.bigru_forward", "self_s", None),
    "nn.bigru_forward.per_token_us": ("us", "nn.bigru_forward", "self_s", "tokens"),
    "nn.bigru_backward.s": ("s", "nn.bigru_backward", "self_s", None),
    "nn.bigru_backward.per_token_us": ("us", "nn.bigru_backward", "self_s", "tokens"),
    "capsule.capsule_layer.s": ("s", "capsule.capsule_layer", "self_s", None),
    "capsule.capsule_layer.per_token_us": ("us", "capsule.capsule_layer", "self_s", "tokens"),
    "capsule.capsule_layer_backward.s": ("s", "capsule.capsule_layer_backward", "self_s", None),
    "capsule.capsule_layer_backward.per_token_us": ("us", "capsule.capsule_layer_backward", "self_s", "tokens"),
    "training.train.self_s": ("s", "training.train", "self_s", None),
    "training.init_model.s": ("s", "training.init_model", "self_s", None),
    "training.forward_full.s": ("s", "training.forward_full", "self_s", None),
    "training.backward_full.s": ("s", "training.backward_full", "self_s", None),
    "training.clip_gradients.s": ("s", "training.clip_gradients", "self_s", None),
    "training.adam_step.s": ("s", "training.adam_step", "self_s", None),
    "training.adam_step.calls": ("count", "training.adam_step", "calls", None),
    "training.adam_step.computed_bytes": ("B", "training.adam_step", "computed_bytes_sum", "calls"),
    "training.predict_dataset.s": ("s", "training.predict_dataset", "self_s", None),
    "training.dataset_macro_f1.s": ("s", "training.dataset_macro_f1", "self_s", None),
    "training.dataset_macro_f1.total_s": ("s", "training.dataset_macro_f1", "total_s", None),
    "evaluation.metrics.s": ("s", "evaluation.metrics", "self_s", None),
    "checkpoint.load_checkpoint.s": ("s", "checkpoint.load_checkpoint", "self_s", "setups"),
    "checkpoint.load_checkpoint.bytes": ("B", "checkpoint.load_checkpoint", "bytes_sum", "calls"),
}
SCALE = {"us": 1e6}


def per_layer(tracer: Tracer, setups: int, plain: dict, traced: dict) -> dict:
    summary, setup_summary = tracer.summary(), tracer.summary(setup=True)
    metrics = {}
    for name, (unit, span, field, divisor) in SPAN_METRICS.items():
        entry = dict(setup_summary.get(span, {}), setups=setups) if span in SETUP_SPANS else summary.get(span, {})
        value = float(entry.get(field, 0.0))
        if divisor is not None:
            value = value / entry[divisor] if entry.get(divisor) else 0.0
        metrics[name] = (value * SCALE.get(unit, 1.0), unit)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for span, entry in summary.items():
        layer_self[span.split(".")[0]] += entry["self_s"]
    total = sum(layer_self.values())
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = (layer_self[layer], "s")
        metrics[f"layer.{layer}.share"] = (layer_self[layer] / total if total else 0.0, "ratio")
    metrics["trace.overhead_pct"] = (100.0 * (plain["items_per_ref_s"] / traced["items_per_ref_s"] - 1.0), "%")
    metrics["trace.spans"] = (float(len(tracer.spans)), "count")
    metrics["trace.missing"] = (float(len(tracer.missing)), "count")
    metrics["trace.hook_errors"] = (float(tracer.hook_errors), "count")
    return metrics


# ------------------------------------------------------------------- machine


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


# ---------------------------------------------------------------------- main


def run(workload: str, seed: int, seconds: float, trace: bool, toy: bool = False, record: bool = False,
        root: Path | None = None) -> tuple[dict, dict]:
    """Generate inputs, measure, check; returns (result, report)."""
    root = Path.cwd() if root is None else Path(root)
    sp = gen.spec(workload, toy)
    work = root / ".perfbench" / f"{workload}-{seed}-{os.getpid()}"
    try:
        command = [sys.executable, str(HERE / "gen.py"), "--workload", workload, "--seed", str(seed),
                   "--out", str(work), "--src", str(root / "src")] + (["--toy"] if toy else [])
        subprocess.run(command, check=True, timeout=120)
        make = lambda: KINDS[sp["kind"]](work, sp, seed)  # noqa: E731
        n_ops = requests(workload, sp["kind"], seconds)
        plain = measure(make, n_ops)
        problems, reference = check(plain, workload, seed, toy, record)
        values, wall = end_to_end(plain)
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
        ops = plain["ops"]
        report = {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "toy": toy,
            "machine": machine(),
            "item": plain["workload"].item,
            "setups": len(plain["setups"]),
            "latency_samples": sum(op.timed for op in ops),
            "wall_clock": wall,
            "details": plain["workload"].details(ops),
            "reference": reference,
            "problems": problems,
        }
        if trace:
            tracer = Tracer()
            with tracer:
                traced = measure(make, n_ops, tracer)
            problems += [f"traced run: {p}" for p in check(traced, workload, seed, toy, False)[0]]
            metrics = per_layer(tracer, len(traced["setups"]), values, end_to_end(traced)[0])
            trace_file = root / ".perfbench" / "traces" / f"{workload}-seed{seed}.jsonl"
            tracer.write(trace_file)
            report.update({"missing_spans": tracer.missing, "trace_file": str(trace_file.relative_to(root))})
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": sum(not op.ok for op in ops),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="emocaps benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny inputs and dimensions, for the smoke test")
    parser.add_argument("--record", action="store_true", help="store this seed's checked outputs as reference")
    args = parser.parse_args(argv)
    # a terminated run still removes its generated inputs
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    src = Path.cwd() / "src"
    if not (src / "emocaps" / "__init__.py").is_file():
        print(f"error: no program source at {src}; run from the root of an emocaps checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace), args.toy, args.record)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
