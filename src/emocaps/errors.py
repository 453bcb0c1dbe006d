"""Exception types shared across the package; `text_lines` and
`whole_text`, the readers of every text file the program is given, a line
at a time or at once (`json_object` reads JSON with the latter);
`replacing`, its one writer."""

import json
import os
from collections import Counter
from contextlib import contextmanager
from itertools import repeat
from pathlib import Path


class EmocapsError(Exception):
    """Base class for all package errors."""


class ShapeMismatch(EmocapsError):
    """Tensor shapes are inconsistent with the configured dimensions."""


class IdOutOfRange(EmocapsError):
    """A token id falls outside the vocabulary."""


class MalformedHeader(EmocapsError):
    """A file header, a checkpoint manifest or a config file is malformed."""


class DimensionMismatch(EmocapsError):
    """A vector's length disagrees with the declared dimension."""


class TruncatedFile(EmocapsError):
    """A binary file ended before all declared entries were read."""


class EmptySequence(EmocapsError):
    """A forward pass received a zero-length token sequence."""


class EmptyDataset(EmocapsError):
    """Training or evaluation data contains no examples."""


class LabelOutOfRange(EmocapsError):
    """A class index falls outside the label set."""


class LengthMismatch(EmocapsError):
    """Two aligned sequences have different lengths."""


class MalformedLine(EmocapsError):
    """A data file line does not match the expected format."""

    def __init__(self, message, line_number=None):
        super().__init__(message)
        self.line_number = line_number


@contextmanager
def text_lines(path, keepends=False):
    """Yield the lines of UTF-8 text file `path`, after a leading byte-order
    mark, as (number from 1, line) pairs. A line ends only at \\n, \\r\\n
    or \\r, which is cut off, or read as \\n with `keepends`. A byte that
    is not UTF-8 raises MalformedLine naming the file and the line of that
    byte; only a failed read pays for the line: it reads the file again."""
    with open(path, encoding="utf-8-sig") as handle:
        try:
            yield enumerate(handle if keepends else map(str.removesuffix, handle, repeat("\n")), 1)
        except UnicodeDecodeError:
            raise _not_utf8(path) from None


def whole_text(path) -> str:
    """The text of UTF-8 file `path`, read at once, after a leading
    byte-order mark and with each \\r\\n and \\r read as \\n: its
    `split("\\n")` holds the lines `text_lines` yields. A byte that is not
    UTF-8 raises the same MalformedLine as there."""
    try:
        with open(path, encoding="utf-8-sig") as handle:
            return handle.read()
    except UnicodeDecodeError:
        raise _not_utf8(path) from None


def _not_utf8(path) -> MalformedLine:
    """The MalformedLine naming file `path` and the line of its first byte
    that is not UTF-8, found by reading the file again."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        reason = f"can't decode byte {data[exc.start]:#04x} at file offset {exc.start} ({exc.reason})"
        return MalformedLine(f"{path}:{line}: not UTF-8 text: {reason}", line)
    return MalformedLine(f"{path}: not UTF-8 text")  # it changed since the failed read


def json_object(path, what: str) -> dict:
    """The JSON object in text file `path`, a `what` ("config", "manifest").
    Text that is not JSON, a key repeated in any object of it, or a value
    other than an object raises MalformedHeader naming the file."""

    def once(pairs):
        repeated = [key for key, n in Counter(key for key, _ in pairs).items() if n > 1]
        if repeated:
            raise MalformedHeader(f"{path}: repeated {what} key {repeated[0]!r}")
        return dict(pairs)

    try:
        loaded = json.loads(whole_text(path), object_pairs_hook=once)
    except json.JSONDecodeError as exc:
        raise MalformedHeader(f"{path}: unreadable {what}: {exc}") from exc
    if not isinstance(loaded, dict):
        raise MalformedHeader(f"{path}: {what} is not a JSON object")
    return loaded


@contextmanager
def replacing(path, mode="w"):
    """Yield `<path>.tmp` open for writing, as UTF-8 text or with mode "wb"
    as bytes; rename it onto `path` when the block ends, or remove it if
    the block raises. `path` keeps its previous bytes until then."""
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as handle:
            yield handle
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


class VocabularyMismatch(EmocapsError):
    """A checkpoint was written with a different vocabulary."""


class UnknownLabel(EmocapsError):
    """A label string is not one of the known emotion classes."""


class NumericError(EmocapsError):
    """NaN or Inf appeared in a tensor."""
