import hashlib
import io
import json
import os
import re
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from conftest import DiskFull, FullOnFlush, fail_rename, open_as
from emocaps import checkpoint
from emocaps.checkpoint import FORMAT_VERSION, load_checkpoint, save_checkpoint
from emocaps.errors import EmocapsError


def sample_tensors():
    rng = np.random.default_rng(0)
    return {
        "embedding/W_e": rng.normal(size=(7, 5)),
        "dense/b": rng.normal(size=6),
        "scalarish": rng.normal(size=(1,)),
    }


class TestRoundTrip:
    def test_bit_identical_tensors(self, tmp_path):
        tensors = sample_tensors()
        stem = tmp_path / "model"
        save_checkpoint(stem, tensors, {"seedling": 3}, seed=42)
        loaded, manifest = load_checkpoint(stem)
        assert list(loaded) == list(tensors)
        for name, t in tensors.items():
            assert loaded[name].dtype == t.dtype
            np.testing.assert_array_equal(loaded[name], t)
        assert manifest["seed"] == 42
        assert manifest["hyperparameters"] == {"seedling": 3}
        assert manifest["version"] == FORMAT_VERSION

    def test_manifest_preserves_tensor_order(self, tmp_path):
        tensors = {"z_last": np.zeros(2), "a_first": np.ones(3)}
        stem = tmp_path / "ordered"
        save_checkpoint(stem, tensors, {}, seed=0)
        manifest = json.loads((tmp_path / "ordered.json").read_text())
        assert [e["name"] for e in manifest["tensors"]] == ["z_last", "a_first"]
        loaded, _ = load_checkpoint(stem)
        assert list(loaded) == ["z_last", "a_first"]

    def test_payload_is_little_endian_concatenation(self, tmp_path):
        """Every tensor is written as little-endian float64, whatever array
        it is given as: a big-endian or float32 one too."""
        tensors = {"a": np.arange(4, dtype=np.float64), "b": np.array([1.5, -2.0], ">f8"), "c": np.float32([0.25])}
        stem = tmp_path / "le"
        save_checkpoint(stem, tensors, {}, seed=0)
        payload = (tmp_path / "le.bin").read_bytes()
        expected = b"".join(t.astype("<f8").tobytes() for t in tensors.values())
        digest = hashlib.sha256(expected)
        assert payload == expected + digest.digest()
        manifest = json.loads((tmp_path / "le.json").read_text())
        assert manifest["payload_sha256"] == digest.hexdigest()
        assert [e["dtype"] for e in manifest["tensors"]] == ["<f8"] * 3

    def test_save_is_deterministic(self, tmp_path):
        tensors = sample_tensors()
        save_checkpoint(tmp_path / "one", tensors, {"k": 1}, seed=9)
        save_checkpoint(tmp_path / "two", tensors, {"k": 1}, seed=9)
        assert (tmp_path / "one.json").read_bytes() == (tmp_path / "two.json").read_bytes()
        assert (tmp_path / "one.bin").read_bytes() == (tmp_path / "two.bin").read_bytes()

    def test_loaded_tensors_are_writable_copies(self, tmp_path):
        stem = tmp_path / "copy"
        save_checkpoint(stem, {"a": np.zeros(3), **sample_tensors()}, {}, seed=0)
        loaded, _ = load_checkpoint(stem)
        loaded["a"][0] = 1.0  # must not raise
        assert all(t.flags.writeable and t.flags.owndata for t in loaded.values())

    def test_same_tensors_same_digest(self, tmp_path):
        """The digest covers the tensors' bytes only, not the seed or the
        hyperparameters, so equal weights give equal payloads."""
        save_checkpoint(tmp_path / "one", sample_tensors(), {"k": 1}, seed=1)
        save_checkpoint(tmp_path / "two", sample_tensors(), {"k": 2}, seed=2)
        assert (tmp_path / "one.bin").read_bytes() == (tmp_path / "two.bin").read_bytes()


class TestCorruption:
    def make_checkpoint(self, tmp_path):
        stem = tmp_path / "model"
        save_checkpoint(stem, sample_tensors(), {"lr": 0.001}, seed=7)
        return stem

    def test_truncated_payload(self, tmp_path):
        stem = self.make_checkpoint(tmp_path)
        payload = (tmp_path / "model.bin").read_bytes()
        (tmp_path / "model.bin").write_bytes(payload[:-3])
        with pytest.raises(EmocapsError, match="payload ends inside its sha256 trailer"):
            load_checkpoint(stem)

    def test_empty_payload(self, tmp_path):
        stem = self.make_checkpoint(tmp_path)
        (tmp_path / "model.bin").write_bytes(b"")
        with pytest.raises(EmocapsError, match="payload ends inside tensor 'embedding/W_e'"):
            load_checkpoint(stem)

    def test_trailing_bytes_rejected(self, tmp_path):
        stem = self.make_checkpoint(tmp_path)
        payload = (tmp_path / "model.bin").read_bytes()
        (tmp_path / "model.bin").write_bytes(payload + b"\x00\x00")
        with pytest.raises(EmocapsError, match="payload has 2 trailing bytes beyond the manifest"):
            load_checkpoint(stem)

    def test_unreadable_manifest(self, tmp_path):
        stem = self.make_checkpoint(tmp_path)
        (tmp_path / "model.json").write_text("{not json")
        with pytest.raises(EmocapsError, match="unreadable manifest: Expecting property name"):
            load_checkpoint(stem)

    def test_repeated_key_at_any_depth(self, tmp_path):
        stem = self.make_checkpoint(tmp_path)
        text = (tmp_path / "model.json").read_text()
        (tmp_path / "model.json").write_text(text.replace('"name": ', '"name": "x", "name": ', 1))
        with pytest.raises(EmocapsError, match="^" + re.escape(f"{tmp_path / 'model.json'}: repeated manifest key 'name'") + "$"):
            load_checkpoint(stem)

    def test_wrong_version(self, tmp_path):
        stem = self.make_checkpoint(tmp_path)
        manifest = json.loads((tmp_path / "model.json").read_text())
        manifest["version"] = FORMAT_VERSION + 1
        (tmp_path / "model.json").write_text(json.dumps(manifest))
        with pytest.raises(EmocapsError, match=f"unsupported manifest version: {FORMAT_VERSION + 1}$"):
            load_checkpoint(stem)

    def test_version_2_pair_is_refused(self, tmp_path):
        """A version-2 pair, written here as version 2 wrote it: no digest in
        the manifest and none after the last tensor. Nothing could tell it
        from a pair of two saves, so it is not read, trailer or not."""
        tensors = sample_tensors()
        manifest = {
            "version": 2,
            "tensors": [{"name": n, "shape": list(t.shape), "dtype": "<f8"} for n, t in tensors.items()],
            "hyperparameters": {"lr": 0.001},
            "seed": 7,
        }
        (tmp_path / "old.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
        payload = b"".join(t.astype("<f8").tobytes() for t in tensors.values())
        says = "^" + re.escape(f"{tmp_path / 'old.json'}: unsupported manifest version: 2") + "$"
        for trailer in (b"", hashlib.sha256(payload).digest()):
            (tmp_path / "old.bin").write_bytes(payload + trailer)
            with pytest.raises(EmocapsError, match=says):
                load_checkpoint(tmp_path / "old")

    def test_version_3_pair_is_refused_naming_the_migration(self, tmp_path):
        """A version-3 pair kept its vocabulary in a file of its own: README
        carries it over, and the refusal says where."""
        stem = self.make_checkpoint(tmp_path)
        manifest = json.loads((tmp_path / "model.json").read_text())
        manifest["version"] = 3
        (tmp_path / "model.json").write_text(json.dumps(manifest))
        says = (f"{tmp_path / 'model.json'}: unsupported manifest version: 3, whose vocabulary is a file of its own: "
                'README, "Checkpoints", carries it over')
        with pytest.raises(EmocapsError, match="^" + re.escape(says) + "$"):
            load_checkpoint(stem)

    def test_missing_tensor_list(self, tmp_path):
        stem = self.make_checkpoint(tmp_path)
        manifest = json.loads((tmp_path / "model.json").read_text())
        del manifest["tensors"]
        (tmp_path / "model.json").write_text(json.dumps(manifest))
        with pytest.raises(EmocapsError, match="manifest has no tensor list"):
            load_checkpoint(stem)

    def test_manifest_not_an_object(self, tmp_path):
        stem = self.make_checkpoint(tmp_path)
        (tmp_path / "model.json").write_text("[]")
        with pytest.raises(EmocapsError, match="^" + re.escape(f"{tmp_path / 'model.json'}: manifest is not")):
            load_checkpoint(stem)

    @pytest.mark.parametrize("mangle, says", [
        (lambda m: m.update(tensors={"a": 1}), "manifest has no tensor list"),
        (lambda m: m["tensors"].__setitem__(0, ["a"]), "tensor entry 0 is not an object"),
        (lambda m: m["tensors"][1].pop("name"), "tensor entry 1 has no 'name'"),
        (lambda m: m["tensors"][1].update(name={"x": 1}), "tensor entry 1 has name {'x': 1}, not a string"),
        (lambda m: m["tensors"][1].update(name=5), "tensor entry 1 has name 5, not a string"),
        (lambda m: m["tensors"][1].update(name=None), "tensor entry 1 has name None, not a string"),
        (lambda m: m["tensors"][0].pop("shape"), "tensor entry 0 has no 'shape'"),
        (lambda m: m["tensors"][0].pop("dtype"), "tensor entry 0 has no 'dtype'"),
        (lambda m: m["tensors"][0].update(shape=[2, -1]), "tensor 'embedding/W_e' has bad shape [2, -1]"),
        (lambda m: m["tensors"][0].update(shape=3), "tensor 'embedding/W_e' has bad shape 3"),
        (lambda m: m["tensors"][0].update(dtype="float99"), "tensor 'embedding/W_e' has dtype 'float99', not '<f8'"),
        (lambda m: m["tensors"][0].update(dtype=None), "tensor 'embedding/W_e' has dtype None, not '<f8'"),
        (lambda m: m["tensors"][0].update(dtype="|O"), "tensor 'embedding/W_e' has dtype '|O', not '<f8'"),
        (lambda m: m["tensors"][0].update(dtype="<U1"), "tensor 'embedding/W_e' has dtype '<U1', not '<f8'"),
        (lambda m: m["tensors"][1].update(dtype="<i8"), "tensor 'dense/b' has dtype '<i8', not '<f8'"),
        (lambda m: m["tensors"][2].update(dtype="|b1"), "tensor 'scalarish' has dtype '|b1', not '<f8'"),
        # a later entry of the same name would silently replace the earlier tensor
        (lambda m: m["tensors"][2].update(name="embedding/W_e"), "tensor 'embedding/W_e' is listed twice"),
    ], ids=["tensors-dict", "entry-list", "no-name", "dict-name", "int-name", "null-name", "no-shape", "no-dtype",
            "negative-dim", "scalar-shape", "unknown-dtype", "null-dtype", "object-dtype",
            "str-dtype", "int-dtype", "bool-dtype", "repeated-name"])
    def test_malformed_manifest_names_file(self, tmp_path, mangle, says):
        stem = self.make_checkpoint(tmp_path)
        manifest = json.loads((tmp_path / "model.json").read_text())
        mangle(manifest)
        (tmp_path / "model.json").write_text(json.dumps(manifest))
        with pytest.raises(EmocapsError, match="^" + re.escape(f"{tmp_path / 'model.json'}: {says}")):
            load_checkpoint(stem)

    def test_shape_beyond_int64_is_a_truncated_payload(self, tmp_path):
        """2**32 * 2**32 elements wrap to 0 in int64 arithmetic; counted
        exactly, the tensor needs more bytes than the payload holds."""
        stem = self.make_checkpoint(tmp_path)
        manifest = json.loads((tmp_path / "model.json").read_text())
        manifest["tensors"][0]["shape"] = [2**32, 2**32]
        (tmp_path / "model.json").write_text(json.dumps(manifest))
        with pytest.raises(EmocapsError, match="^" + re.escape(f"{tmp_path / 'model.bin'}: payload ends inside")):
            load_checkpoint(stem)

    @pytest.mark.parametrize("cut, reason", [(3, "payload ends inside its sha256 trailer"),
                                             (-2, "payload has 2 trailing bytes")], ids=["short", "long"])
    def test_payload_errors_name_file(self, tmp_path, cut, reason):
        stem = self.make_checkpoint(tmp_path)
        payload = (tmp_path / "model.bin").read_bytes()
        (tmp_path / "model.bin").write_bytes(payload[:-cut] if cut > 0 else payload + bytes(-cut))
        with pytest.raises(EmocapsError, match="^" + re.escape(f"{tmp_path / 'model.bin'}: {reason}")):
            load_checkpoint(stem)

    @pytest.mark.parametrize("at", [0, 17, 31])
    def test_flipped_trailer_byte(self, tmp_path, at):
        stem = self.make_checkpoint(tmp_path)
        payload = bytearray((tmp_path / "model.bin").read_bytes())
        payload[len(payload) - 32 + at] ^= 0x01
        (tmp_path / "model.bin").write_bytes(payload)
        with pytest.raises(EmocapsError, match=re.escape(f"payload_sha256 of {tmp_path / 'model.json'}")):
            load_checkpoint(stem)

    @pytest.mark.parametrize("digest", [None, "", "ab" * 31, "AB" * 32, "g" * 64, 7, ["ab" * 32]],
                             ids=["missing", "empty", "short", "upper", "not-hex", "int", "list"])
    def test_malformed_digest_names_both_files(self, tmp_path, digest):
        stem = self.make_checkpoint(tmp_path)
        manifest = json.loads((tmp_path / "model.json").read_text())
        if digest is None:
            del manifest["payload_sha256"]
        else:
            manifest["payload_sha256"] = digest
        (tmp_path / "model.json").write_text(json.dumps(manifest))
        says = f"{tmp_path / 'model.json'}: payload_sha256 must be the 64 hex digits that end {tmp_path / 'model.bin'}"
        with pytest.raises(EmocapsError, match="^" + re.escape(says)):
            load_checkpoint(stem)

    def test_trailer_cut_short(self, tmp_path):
        stem = self.make_checkpoint(tmp_path)
        payload = (tmp_path / "model.bin").read_bytes()
        (tmp_path / "model.bin").write_bytes(payload[:-1])
        with pytest.raises(EmocapsError, match="^" + re.escape(f"{tmp_path / 'model.bin'}: payload ends inside its sha256 trailer")):
            load_checkpoint(stem)


class TestAtomicWrite:
    @pytest.mark.parametrize("failing", ["payload", "manifest", "manifest-flush", "rename"])
    def test_failed_write_keeps_previous_pair(self, tmp_path, monkeypatch, failing):
        stem = tmp_path / "model"
        save_checkpoint(stem, sample_tensors(), {"k": 1}, seed=1)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        opened = []
        if failing == "payload":  # the disk fills after the first tensor
            opened = open_as(monkeypatch, f"{stem}.bin.tmp", partial(DiskFull, room=3 * 8))
        elif failing == "manifest":
            opened = open_as(monkeypatch, f"{stem}.json.tmp", partial(DiskFull, room=10))
        elif failing == "manifest-flush":  # it must fail before the payload lands
            open_as(monkeypatch, f"{stem}.json.tmp", FullOnFlush)
        else:  # the payload, which lands first, cannot be renamed into place
            fail_rename(monkeypatch, f"{stem}.bin")
        with pytest.raises(OSError):
            save_checkpoint(stem, {"other": np.ones(3), "more": np.zeros(2)}, {"k": 2}, seed=2)
        monkeypatch.undo()

        # a disk that filled mid-write left a partial .tmp file when the save failed
        assert [f.on_disk_at_failure for f in opened] == {"payload": [3 * 8], "manifest": [10]}.get(failing, [])
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        loaded, manifest = load_checkpoint(stem)
        assert list(loaded) == list(sample_tensors()) and manifest["seed"] == 1

    def test_refused_manifest_rename_leaves_a_refused_pair(self, tmp_path, monkeypatch):
        """The new payload lands, the old manifest stays: tensors of one
        save with the seed and hyperparameters of another, of equal shapes,
        so only the digest tells them apart."""
        stem = tmp_path / "model"
        save_checkpoint(stem, {"w": np.zeros(4)}, {"k": 1}, seed=1)
        fail_rename(monkeypatch, f"{stem}.json")
        with pytest.raises(OSError):
            save_checkpoint(stem, {"w": np.full(4, 7.0)}, {"k": 2}, seed=2)
        monkeypatch.undo()

        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.bin", "model.json"]
        says = (f"{tmp_path / 'model.bin'}: its sha256 trailer is not the payload_sha256 of {tmp_path / 'model.json'}: "
                "the two files are not from one save")
        with pytest.raises(EmocapsError, match="^" + re.escape(says) + "$"):
            load_checkpoint(stem)

    @pytest.mark.parametrize("suffix", [".json.tmp", ".bin.tmp"])
    def test_existing_tmp_file_is_kept(self, tmp_path, suffix):
        """A file already at a temporary path is not the save's: it keeps its
        bytes, the save writes nothing, and the .json.tmp file it did create
        is removed."""
        stem = tmp_path / "model"
        save_checkpoint(stem, sample_tensors(), {"k": 1}, seed=1)
        Path(f"{stem}{suffix}").write_bytes(b"a user's bytes")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        with pytest.raises(FileExistsError, match=re.escape(f"{stem}{suffix}")):
            save_checkpoint(stem, {"other": np.ones(3)}, {"k": 2}, seed=2)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_overwrite_replaces_both_files(self, tmp_path):
        stem = tmp_path / "model"
        save_checkpoint(stem, sample_tensors(), {"k": 1}, seed=1)
        save_checkpoint(stem, {"other": np.ones(3)}, {"k": 2}, seed=2)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.bin", "model.json"]
        loaded, manifest = load_checkpoint(stem)
        assert list(loaded) == ["other"] and manifest["seed"] == 2


def whole_payload_load(stem):
    """The loader before streaming, as an oracle for valid files: read the
    whole payload into bytes and copy each tensor out of it."""
    manifest = json.loads(Path(str(stem) + ".json").read_text())
    payload = Path(str(stem) + ".bin").read_bytes()
    tensors, offset = {}, 0
    for entry in manifest["tensors"]:
        dtype, shape = np.dtype(entry["dtype"]), tuple(entry["shape"])
        count = int(np.prod(shape, dtype=np.int64))
        tensors[entry["name"]] = np.frombuffer(payload, dtype, count, offset).reshape(shape).copy()
        offset += count * dtype.itemsize
    return tensors


class Trickle(io.RawIOBase):
    """A raw payload file whose readinto returns at most `step` bytes a
    call, and nothing once `limit` bytes are read, as when the file is cut
    after its size was taken. `opened` serves it as `open(path, "rb")`
    serves a file: through a BufferedReader."""

    def __init__(self, path, step, limit):
        self.f = io.FileIO(path)
        self.step, self.left = step, limit

    @classmethod
    def opened(cls, step, limit):
        return lambda path, mode: io.BufferedReader(cls(path, step, limit))

    def readable(self):
        return True

    def fileno(self):
        return self.f.fileno()

    def readinto(self, buf):
        n = self.f.readinto(memoryview(buf)[: min(len(buf), self.step, self.left)])
        self.left -= n
        return n

    def close(self):
        self.f.close()
        super().close()


class TestStreamingLoad:
    def assert_matches_whole_payload_load(self, stem):
        loaded, _ = load_checkpoint(stem)
        expected = whole_payload_load(stem)
        assert list(loaded) == list(expected)
        for name, t in expected.items():
            assert loaded[name].dtype == t.dtype and loaded[name].shape == t.shape
            np.testing.assert_array_equal(loaded[name], t)
        return loaded

    @pytest.mark.parametrize("tensor", [np.zeros((0, 3)), np.float64(2.5)], ids=["zero-size", "0-d"])
    def test_edge_shapes_round_trip(self, tmp_path, tensor):
        tensors = {"before": np.arange(3.0), "edge": np.asarray(tensor), "after": np.array([7.0])}
        save_checkpoint(tmp_path / "m", tensors, {}, seed=0)
        loaded = self.assert_matches_whole_payload_load(tmp_path / "m")
        for name, t in tensors.items():
            assert loaded[name].shape == t.shape
            np.testing.assert_array_equal(loaded[name], t)

    def test_big_endian_manifest_entry(self, tmp_path):
        """The payload holds float64 of one byte order; a manifest entry of
        the other would load every value byte-swapped, so it is refused."""
        stem = tmp_path / "m"
        save_checkpoint(stem, {"a": np.arange(6.0).reshape(2, 3), "b": np.ones(2)}, {}, seed=0)
        manifest = json.loads((tmp_path / "m.json").read_text())
        manifest["tensors"][0]["dtype"] = ">f8"
        (tmp_path / "m.json").write_text(json.dumps(manifest))
        says = f"{tmp_path / 'm.json'}: tensor 'a' has dtype '>f8', not '<f8'"
        with pytest.raises(EmocapsError, match="^" + re.escape(says) + "$"):
            load_checkpoint(stem)

    def test_short_reads_are_resumed(self, tmp_path, monkeypatch):
        save_checkpoint(tmp_path / "m", sample_tensors(), {}, seed=0)
        monkeypatch.setattr(checkpoint, "open", Trickle.opened(5, 1 << 30), raising=False)
        loaded, _ = load_checkpoint(tmp_path / "m")
        monkeypatch.undo()
        for name, t in sample_tensors().items():
            np.testing.assert_array_equal(loaded[name], t)

    def test_payload_cut_while_read(self, tmp_path, monkeypatch):
        stem = tmp_path / "m"
        save_checkpoint(stem, sample_tensors(), {}, seed=0)
        first = 7 * 5 * 8  # embedding/W_e, then dense/b comes back short
        monkeypatch.setattr(checkpoint, "open", Trickle.opened(1 << 30, first + 5), raising=False)
        says = f"{tmp_path / 'm.bin'}: payload ends inside tensor 'dense/b' (read 5 of 48 bytes)"
        with pytest.raises(EmocapsError, match="^" + re.escape(says)):
            load_checkpoint(stem)

    def test_payload_cut_after_its_size_is_taken(self, tmp_path, monkeypatch):
        """The payload file itself shrinks between the size check and the
        reads: the tensor read short is named, with the bytes it got."""
        stem, payload = tmp_path / "m", tmp_path / "m.bin"
        save_checkpoint(stem, sample_tensors(), {}, seed=0)
        fstat = os.fstat

        def fstat_then_cut(fd):
            size = fstat(fd)
            os.truncate(payload, 7 * 5 * 8 + 5)  # embedding/W_e, then 5 bytes of dense/b
            return size

        monkeypatch.setattr(os, "fstat", fstat_then_cut)
        says = f"{payload}: payload ends inside tensor 'dense/b' (read 5 of 48 bytes)"
        with pytest.raises(EmocapsError, match="^" + re.escape(says) + "$"):
            load_checkpoint(stem)


class TestMemory:
    """Peak memory traced while a 5000x300 float64 table (12 MB) goes
    through a checkpoint, as a multiple of the payload size."""

    TABLE = (5000, 300)

    def traced_peak(self, fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_load_holds_each_tensor_once(self, tmp_path):
        stem = tmp_path / "big"
        save_checkpoint(stem, {"embedding/W_e": np.ones(self.TABLE)}, {}, seed=0)
        payload = (tmp_path / "big.bin").stat().st_size
        assert self.traced_peak(lambda: load_checkpoint(stem)) <= 1.1 * payload

    def test_save_streams_without_copies(self, tmp_path):
        table = np.ones(self.TABLE)
        peak = self.traced_peak(lambda: save_checkpoint(tmp_path / "big", {"embedding/W_e": table}, {}, seed=0))
        assert peak <= 0.1 * table.nbytes
