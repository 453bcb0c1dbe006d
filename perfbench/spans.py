"""Span tracing for the benchmark's traced run.

The tracer replaces functions by module attribute name, from outside the
program, and restores them afterwards. Each call records a span (name,
start, end, parent span, request id) in memory; `write` puts them in a file
when the run ends. A function a refactor renamed or removed is reported as
missing instead of failing the run, and a counter hook that no longer fits
a function's arguments is counted as a hook error.

The wrapped names are the ones callers look up: `training.py` imports
`bigru_forward` into its own namespace, so the span for the GRU wraps
`emocaps.training.bigru_forward`, not `emocaps.nn.bigru_forward`.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("textprep", "embeddings", "nn", "capsule", "training", "evaluation", "checkpoint")


def _tokens(index: int):
    """Count hook: positions in the sequence passed as argument `index`."""

    def hook(stats, args, kwargs, result):
        stats["tokens"] += len(args[index])

    return hook


def _cache_tokens(stats, args, kwargs, result):
    stats["tokens"] += len(args[1].H)


def _touched_rows(stats, args, kwargs, result):
    ids, _, vocab_size = args[:3]
    stats["touched_ratio_sum"] += len(set(ids)) / vocab_size


def _adam_bytes(stats, args, kwargs, result):
    # parameter, gradient and both moments are each read and written once
    stats["computed_bytes_sum"] += 4 * sum(g.nbytes for g in args[1].values())


def _checkpoint_bytes(stats, args, kwargs, result):
    stem = str(args[0])
    stats["bytes_sum"] += sum(Path(stem + ext).stat().st_size for ext in (".json", ".bin"))


def _spelling(stats, args, kwargs, result):
    word = args[0]
    seen = stats.setdefault("seen", set())
    stats["repeats"] += word in seen
    stats["changed"] += result != word
    seen.add(word)


# (module looked up by callers, attribute path, span name, count hook)
TARGETS = (
    ("emocaps.textprep", "preprocess", "textprep.preprocess", None),
    ("emocaps.textprep", "tokenize", "textprep.tokenize", None),
    ("emocaps.textprep", "normalize", "textprep.normalize", None),
    ("emocaps.textprep", "segment_hashtag", "textprep.segment_hashtag", None),
    ("emocaps.textprep", "spell_correct", "textprep.spell_correct", _spelling),
    ("emocaps.textprep", "Lexicon.from_file", "textprep.Lexicon.from_file", None),
    ("emocaps.embeddings", "Vocabulary.load", "embeddings.Vocabulary.load", None),
    ("emocaps.embeddings", "Vocabulary.encode", "embeddings.Vocabulary.encode", None),
    ("emocaps.training", "embed", "embeddings.embed", None),
    ("emocaps.training", "embed_backward", "embeddings.embed_backward", _touched_rows),
    ("emocaps.training", "bigru_forward", "nn.bigru_forward", _tokens(0)),
    ("emocaps.training", "bigru_backward", "nn.bigru_backward", _tokens(0)),
    ("emocaps.training", "capsule_layer", "capsule.capsule_layer", _tokens(0)),
    ("emocaps.training", "capsule_layer_backward", "capsule.capsule_layer_backward", _cache_tokens),
    ("emocaps.training", "train", "training.train", None),
    ("emocaps.training", "init_model", "training.init_model", None),
    ("emocaps.training", "forward_full", "training.forward_full", None),
    ("emocaps.training", "backward_full", "training.backward_full", None),
    ("emocaps.training", "clip_gradients", "training.clip_gradients", None),
    ("emocaps.training", "adam_step", "training.adam_step", _adam_bytes),
    ("emocaps.training", "predict_dataset", "training.predict_dataset", None),
    ("emocaps.training", "dataset_macro_f1", "training.dataset_macro_f1", None),
    ("emocaps.training", "confusion", "evaluation.confusion", None),
    ("emocaps.training", "metrics", "evaluation.metrics", None),
    ("emocaps.checkpoint", "load_checkpoint", "checkpoint.load_checkpoint", _checkpoint_bytes),
)


def _resolve(module_name: str, path: str):
    """(owner object, attribute name) for a dotted path, or None."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if attr not in vars(owner):
        return None
    return owner, attr


class Tracer:
    """Collects spans and per-function counters while installed."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list = []  # [name, start, end, parent index, request]
        self.stats: dict = defaultdict(lambda: defaultdict(float))
        self.missing: list[str] = []
        self.hook_errors = 0
        self.request = 0
        self._stack: list[int] = []
        self._installed: list = []

    def _wrapper(self, name: str, fn, hook):
        spans, stack, stats = self.spans, self._stack, self.stats[name]

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.request]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                try:
                    hook(stats, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError, OSError):
                    self.hook_errors += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> "Tracer":
        for module_name, path, name, hook in self.targets:
            found = _resolve(module_name, path)
            if found is None:
                self.missing.append(name)
                continue
            owner, attr = found
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                replacement = classmethod(self._wrapper(name, raw.__func__, hook))
            elif isinstance(raw, staticmethod):
                replacement = staticmethod(self._wrapper(name, raw.__func__, hook))
            elif callable(raw):
                replacement = self._wrapper(name, raw, hook)
            else:
                self.missing.append(name)
                continue
            setattr(owner, attr, replacement)
            self._installed.append((owner, attr, raw))
        return self

    def remove(self) -> None:
        for owner, attr, raw in reversed(self._installed):
            setattr(owner, attr, raw)
        self._installed.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()

    def summary(self, setup: bool = False) -> dict:
        """Per span name: calls, total seconds, self seconds and counters,
        over the spans of requests, or with `setup` over those of set-ups
        (negative request ids). Self time is a span's duration minus the
        time its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict = {}
        for (name, start, end, _, request), covered in zip(self.spans, child):
            if (request < 0) != setup:
                continue
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - covered
        for name, stats in self.stats.items():
            if name in out:
                out[name].update({k: v for k, v in stats.items() if k != "seen"})
        return out

    def write(self, path) -> None:
        """One JSON array per span: name, start, end, parent index, request."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
