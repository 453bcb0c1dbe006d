"""Exception types shared across the package."""


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


class VocabularyMismatch(EmocapsError):
    """A checkpoint was written with a different vocabulary."""


class UnknownLabel(EmocapsError):
    """A label string is not one of the known emotion classes."""


class NumericError(EmocapsError):
    """NaN or Inf appeared in a tensor."""
