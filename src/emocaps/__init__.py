"""Implicit emotion classification for tweets: an embedding + bidirectional
GRU + capsule-routing model with a softmax head, trained with Adam, plus the
tweet preprocessing pipeline and evaluation metrics that go with it."""

import os

# Some backward-pass products round differently with the BLAS thread count,
# so one thread, set before numpy loads, makes the model bytes the same on
# every machine. A value already in the environment is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

__version__ = "0.1.0"

from .errors import EmocapsError

__all__ = ["EmocapsError", "__version__"]
