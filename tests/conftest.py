import errno
import os

import numpy as np
import pytest

from emocaps import errors
from emocaps.evaluation import LABELS

_FILLERS = ("the", "and", "to", "it")
# laptop-scale dimensions, as the flags of the two commands that read them
DESK = {
    "build-vocab": ["--embed-dim", "50"],
    "train": ["--hidden-dim", "32", "--num-capsules", "8", "--capsule-dim", "8", "--batch-size", "32"],
}


def make_toy_examples():
    """60 linearly separable examples, 10 per class, deterministic.

    Each example mixes a few class-specific signature tokens with shared
    fillers, so the model has to read content words rather than length.
    """
    rng = np.random.default_rng(77)
    examples = []
    for c, label in enumerate(LABELS):
        for i in range(10):
            tokens = [f"{label}sig{rng.integers(4)}" for _ in range(2 + i % 3)]
            tokens += [_FILLERS[rng.integers(len(_FILLERS))] for _ in range(1 + i % 2)]
            order = rng.permutation(len(tokens))
            examples.append((c, " ".join(tokens[k] for k in order)))
    return examples


def write_labeled(path, examples):
    path.write_text(
        "".join(f"{LABELS[c]}\t{text}\n" for c, text in examples), encoding="utf-8"
    )


@pytest.fixture(scope="session")
def toy_examples():
    return make_toy_examples()


class DiskFull:
    """A file with room for `room` more bytes, as on a disk about to fill:
    the write that passes the limit writes what fits, then raises OSError.
    `on_disk_at_failure` is the file's size on disk when it raised."""

    def __init__(self, path, mode, room, **kwargs):
        self.f = open(path, mode, **kwargs)
        self.room = room
        self.on_disk_at_failure = None

    def write(self, data):
        if not isinstance(data, str):
            data = memoryview(data).cast("B")
        if len(data) > self.room:
            self.f.write(data[: self.room])
            self.f.flush()
            self.on_disk_at_failure = os.path.getsize(self.f.name)
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.room -= len(data)
        return self.f.write(data)

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def flush(self):
        self.f.flush()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()


class FullOnFlush(DiskFull):
    """A file whose writes wait in its buffer, as a small file's do: the
    full disk shows only when the buffer is flushed, or on close."""

    def __init__(self, path, mode, **kwargs):
        super().__init__(path, mode, 0, **kwargs)
        self.pending = False

    def write(self, data):
        self.pending = True

    def flush(self):
        if self.pending:
            self.pending = False
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def __exit__(self, *exc):
        try:
            self.flush()
        finally:
            self.f.close()


def open_as(monkeypatch, target, make):
    """Open `target`, a `.tmp` file of errors.replacing, as make(path, mode,
    **kwargs); every other file opens as usual. Returns the list that each
    file so made is appended to."""
    made = []

    def fake_open(path, mode="r", **kwargs):
        if str(path) != str(target):
            return open(path, mode, **kwargs)
        made.append(make(path, mode, **kwargs))
        return made[-1]

    monkeypatch.setattr(errors, "open", fake_open, raising=False)
    return made


def fail_rename(monkeypatch, target):
    """Make the rename onto `target` raise OSError; every other rename runs."""
    replace = os.replace

    def fake_replace(src, dst):
        if str(dst) == str(target):
            raise OSError(errno.EIO, os.strerror(errno.EIO))
        return replace(src, dst)

    monkeypatch.setattr(errors.os, "replace", fake_replace)
