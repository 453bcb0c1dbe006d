"""Checkpoint serialization: a JSON manifest next to a raw binary payload.

The manifest records the format version, every tensor's name/shape/dtype in
a fixed order, the hyperparameters, the seed, and optionally the sha256 of
the vocabulary the tensors belong to.  The payload is the
concatenation of each tensor's little-endian bytes in manifest order, so a
round trip is bit-identical and the files diff cleanly across runs.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .errors import MalformedHeader, TruncatedFile, replacing, text_lines

FORMAT_VERSION = 2


def save_checkpoint(
    stem, tensors: dict[str, np.ndarray], hyperparameters: dict, seed: int, vocab_sha256: str | None = None
) -> None:
    """Write stem.json + stem.bin; tensor order follows the dict order.
    `vocab_sha256`, when given, is stored under the manifest key of that name.

    Each tensor is written to the payload in turn, with no copy of it
    when it is already contiguous and little-endian. Both files are
    written through `errors.replacing` and renamed into place, payload
    first and manifest last, so a failed write leaves the previous pair
    untouched and no temporary files behind.
    """
    tensors = {name: np.asarray(t) for name, t in tensors.items()}
    entries = [
        {"name": name, "shape": list(t.shape), "dtype": t.dtype.newbyteorder("<").str}
        for name, t in tensors.items()
    ]
    manifest = {
        "version": FORMAT_VERSION,
        "tensors": entries,
        "hyperparameters": hyperparameters,
        "seed": seed,
    }
    if vocab_sha256 is not None:
        manifest["vocab_sha256"] = vocab_sha256
    # the payload lands first, after the manifest is flushed: a failed write of either lands neither
    with replacing(f"{stem}.json") as manifest_file, replacing(f"{stem}.bin", "wb") as payload:
        manifest_file.write(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
        manifest_file.flush()
        for t in tensors.values():
            payload.write(np.ascontiguousarray(t, dtype=t.dtype.newbyteorder("<")))


def _tensor_layout(entry, index: int, where) -> tuple:
    """(name, shape, dtype) of one manifest tensor entry; the dtype must be
    a floating-point one, as every tensor of a model is."""
    if not isinstance(entry, dict):
        raise MalformedHeader(f"{where}: tensor entry {index} is not an object")
    for key in ("name", "shape", "dtype"):
        if key not in entry:
            raise MalformedHeader(f"{where}: tensor entry {index} has no {key!r}")
    name, shape, dtype = entry["name"], entry["shape"], entry["dtype"]
    if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
        raise MalformedHeader(f"{where}: tensor {name!r} has bad shape {shape!r}")
    try:
        dtype = np.dtype(dtype) if isinstance(dtype, str) else None
    except TypeError:
        dtype = None
    if dtype is None or dtype.kind != "f":
        raise MalformedHeader(f"{where}: tensor {name!r} has unknown dtype {entry['dtype']!r}, not a floating-point one")
    return name, tuple(shape), dtype


def load_checkpoint(stem):
    """Read stem.json + stem.bin; returns (tensors, manifest).

    Tensor dict order follows the manifest; each tensor is read straight
    into its own fresh, writable array, so a load holds every tensor once.
    Raises TruncatedFile when the payload is shorter than the manifest
    describes, MalformedHeader when the manifest is unreadable, malformed
    or disagrees with the payload size. Every message names the file it
    is about.
    """
    manifest_path, payload_path = f"{stem}.json", f"{stem}.bin"
    with text_lines(manifest_path, keepends=True) as lines:
        text = "".join(line for _, line in lines)
    try:
        manifest = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedHeader(f"{manifest_path}: unreadable manifest: {exc}") from exc
    if not isinstance(manifest, dict):
        raise MalformedHeader(f"{manifest_path}: manifest is not a JSON object")
    if manifest.get("version") != FORMAT_VERSION:
        raise MalformedHeader(f"{manifest_path}: unsupported manifest version: {manifest.get('version')!r}")
    if not isinstance(manifest.get("tensors"), list):
        raise MalformedHeader(f"{manifest_path}: manifest has no tensor list")

    tensors: dict[str, np.ndarray] = {}
    offset = 0
    with open(payload_path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        for index, entry in enumerate(manifest["tensors"]):
            name, shape, dtype = _tensor_layout(entry, index, manifest_path)
            nbytes = math.prod(shape) * dtype.itemsize  # a Python int: a huge shape must not wrap
            if offset + nbytes > size:
                raise TruncatedFile(
                    f"{payload_path}: payload ends inside tensor {name!r} "
                    f"(need {offset + nbytes} bytes, have {size})"
                )
            t = np.empty(shape, dtype)
            _read_full(f, t, payload_path, name)
            tensors[name] = t
            offset += nbytes
    if offset != size:
        raise MalformedHeader(f"{payload_path}: payload has {size - offset} trailing bytes beyond the manifest")
    return tensors, manifest


def _read_full(f, t: np.ndarray, payload_path, name: str) -> None:
    """Fill the fresh array t from f, straight into its own memory; a
    payload that ends early raises TruncatedFile."""
    buf = t.reshape(-1).view(np.uint8)  # t's bytes, also for a 0-d or empty t
    done = 0
    while done < buf.size:
        n = f.readinto(buf[done:])
        if not n:
            raise TruncatedFile(
                f"{payload_path}: payload ends inside tensor {name!r} (read {done} of {buf.size} bytes)"
            )
        done += n
