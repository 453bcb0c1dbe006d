"""Exception types shared across the package; `text_lines`, the one reader
of every text file the program is given; `replacing`, its one writer."""

import os
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
    """A file header or a checkpoint manifest is malformed."""


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
            data = Path(path).read_bytes()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:
                head = data[: exc.start]
                line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
                reason = f"can't decode byte {data[exc.start]:#04x} at file offset {exc.start} ({exc.reason})"
                raise MalformedLine(f"{path}:{line}: not UTF-8 text: {reason}", line) from None
            raise MalformedLine(f"{path}: not UTF-8 text") from None  # it changed since the failed read


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
