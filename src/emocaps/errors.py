"""Exception types shared across the package."""

from contextlib import contextmanager
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
def reading_utf8(path):
    """Turns a UnicodeDecodeError raised inside, as `path` is read as UTF-8
    text, into a MalformedLine naming the file and the line of its first
    byte that is not UTF-8; lines end at \\n, \\r\\n or \\r, as in text
    mode. Only a failed read pays for the line: it reads the file again."""
    try:
        yield
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


class VocabularyMismatch(EmocapsError):
    """A checkpoint was written with a different vocabulary."""


class UnknownLabel(EmocapsError):
    """A label string is not one of the known emotion classes."""


class NumericError(EmocapsError):
    """NaN or Inf appeared in a tensor."""
