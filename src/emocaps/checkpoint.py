"""Checkpoint serialization: a JSON manifest next to a raw binary payload.

The manifest records the format version, every tensor's name/shape/dtype in
a fixed order, the hyperparameters, the seed, the sha256 of the payload's
tensor bytes, and optionally the vocabulary's text, whose words number the
embedding rows. Every tensor is little-endian float64 (DTYPE). The payload is
the concatenation of each tensor's bytes in manifest order, then that
32-byte digest, so a round trip is bit-identical, the files diff cleanly
across runs, and a manifest loaded with a payload of another save is
refused. Only this format loads: another version or dtype is refused.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re

import numpy as np

from .errors import EmocapsError, json_object, replacing

FORMAT_VERSION = 4
DTYPE = "<f8"  # every tensor's, in the manifest and the payload
DIGEST_BYTES = 32  # the sha256 that ends the payload
SUFFIXES = (".json", ".bin")  # a stem's two files: its manifest, then its payload


def save_checkpoint(
    stem, tensors: dict[str, np.ndarray], hyperparameters: dict, seed: int, vocabulary: str | None = None
) -> None:
    """Write stem.json + stem.bin; tensor order follows the dict order.
    `vocabulary`, a `Vocabulary.text()`, is stored under that key when given.

    Each tensor is written to the payload as DTYPE in turn, and fed to the
    digest, with no copy of it when it is already contiguous DTYPE; the
    digest ends the payload and is the manifest's `payload_sha256`. Both
    files are written through `errors.replacing` and renamed into place,
    payload first and manifest last, so a failed write leaves the previous
    pair untouched and no temporary files behind, and a refused manifest
    rename leaves a pair that `load_checkpoint` refuses.
    """
    tensors = {name: np.asarray(t) for name, t in tensors.items()}
    manifest = {
        "version": FORMAT_VERSION,
        "tensors": [{"name": name, "shape": list(t.shape), "dtype": DTYPE} for name, t in tensors.items()],
        "hyperparameters": hyperparameters,
        "seed": seed,
    }
    if vocabulary is not None:
        manifest["vocabulary"] = vocabulary
    digest = hashlib.sha256()
    # the payload lands first, after the manifest is flushed: a failed write of either lands neither
    manifest_path, payload_path = (f"{stem}{suffix}" for suffix in SUFFIXES)
    with replacing(manifest_path) as manifest_file, replacing(payload_path, "xb") as payload:
        for t in tensors.values():
            data = np.ascontiguousarray(t, dtype=DTYPE)
            payload.write(data)
            digest.update(data)
        payload.write(digest.digest())
        manifest["payload_sha256"] = digest.hexdigest()
        manifest_file.write(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
        manifest_file.flush()


def _tensor_layout(entry, index: int, where) -> tuple:
    """(name, shape) of one manifest tensor entry, whose dtype must be DTYPE."""
    if not isinstance(entry, dict):
        raise EmocapsError(f"{where}: tensor entry {index} is not an object")
    for key in ("name", "shape", "dtype"):
        if key not in entry:
            raise EmocapsError(f"{where}: tensor entry {index} has no {key!r}")
    name, shape, dtype = entry["name"], entry["shape"], entry["dtype"]
    if not isinstance(name, str):
        raise EmocapsError(f"{where}: tensor entry {index} has name {name!r}, not a string")
    if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
        raise EmocapsError(f"{where}: tensor {name!r} has bad shape {shape!r}")
    if dtype != DTYPE:
        raise EmocapsError(f"{where}: tensor {name!r} has dtype {dtype!r}, not {DTYPE!r}")
    return name, tuple(shape)


def load_checkpoint(stem):
    """Read stem.json + stem.bin; returns (tensors, manifest).

    Tensor dict order follows the manifest; each tensor is read straight
    into its own fresh, writable array, so a load holds every tensor once.
    Only a version-FORMAT_VERSION manifest of DTYPE tensors loads, and its
    payload must end in exactly the 32 bytes of its `payload_sha256`,
    compared in one read (the tensors are not hashed again). Raises
    EmocapsError when the payload is shorter than the manifest describes,
    or when the manifest is unreadable, repeats a key, is malformed, lists
    a tensor name twice or a shape numpy cannot make even empty, disagrees
    with the payload size or has a digest that is not the payload's. Every
    message names the file it is about, and a digest error both files.
    """
    manifest_path, payload_path = (f"{stem}{suffix}" for suffix in SUFFIXES)
    manifest = json_object(manifest_path)
    version = manifest.get("version")
    if version != FORMAT_VERSION:
        hint = ', whose vocabulary is a file of its own: README, "Checkpoints", carries it over' if version == 3 else ""
        raise EmocapsError(f"{manifest_path}: unsupported manifest version: {version!r}{hint}")
    if not isinstance(manifest.get("tensors"), list):
        raise EmocapsError(f"{manifest_path}: manifest has no tensor list")
    digest = manifest.get("payload_sha256")
    if not (isinstance(digest, str) and re.fullmatch("[0-9a-f]{64}", digest)):
        raise EmocapsError(
            f"{manifest_path}: payload_sha256 must be the 64 hex digits that end {payload_path}, got {digest!r}"
        )

    tensors: dict[str, np.ndarray] = {}
    offset = 0
    with open(payload_path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        for index, entry in enumerate(manifest["tensors"]):
            name, shape = _tensor_layout(entry, index, manifest_path)
            if name in tensors:
                raise EmocapsError(f"{manifest_path}: tensor {name!r} is listed twice")
            nbytes = math.prod(shape) * 8  # DTYPE's 8 bytes; a Python int: a huge shape must not wrap
            if offset + nbytes > size:
                raise EmocapsError(
                    f"{payload_path}: payload ends inside tensor {name!r} "
                    f"(need {offset + nbytes} bytes, have {size})"
                )
            try:
                t = np.empty(shape, DTYPE)
            except ValueError:  # an empty shape whose other dims span more bytes than numpy counts
                raise EmocapsError(f"{manifest_path}: tensor {name!r} has bad shape {list(shape)!r}") from None
            # one buffered readinto fills t's bytes (a 0-d or empty t's too) unless the file ends first
            got = f.readinto(t.reshape(-1).view(np.uint8))
            if got != nbytes:
                raise EmocapsError(
                    f"{payload_path}: payload ends inside tensor {name!r} (read {got} of {nbytes} bytes)"
                )
            tensors[name] = t
            offset += nbytes
        if offset + DIGEST_BYTES > size:
            raise EmocapsError(
                f"{payload_path}: payload ends inside its sha256 trailer (need {offset + DIGEST_BYTES} bytes, have {size})"
            )
        if offset + DIGEST_BYTES != size:
            raise EmocapsError(
                f"{payload_path}: payload has {size - offset - DIGEST_BYTES} trailing bytes beyond the manifest"
            )
        if f.read(DIGEST_BYTES) != bytes.fromhex(digest):
            raise EmocapsError(
                f"{payload_path}: its sha256 trailer is not the payload_sha256 of {manifest_path}: "
                "the two files are not from one save"
            )
    return tensors, manifest

