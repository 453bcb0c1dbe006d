import json
import re
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from conftest import DiskFull, FullOnFlush, fail_rename, open_as
from emocaps import checkpoint
from emocaps.checkpoint import FORMAT_VERSION, load_checkpoint, save_checkpoint
from emocaps.errors import MalformedHeader, TruncatedFile


def sample_tensors():
    rng = np.random.default_rng(0)
    return {
        "embedding/W_e": rng.normal(size=(7, 5)),
        "dense/b": rng.normal(size=6).astype(np.float32),
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
        tensors = {"a": np.arange(4, dtype=np.float64), "b": np.float32([1.5])}
        stem = tmp_path / "le"
        save_checkpoint(stem, tensors, {}, seed=0)
        payload = (tmp_path / "le.bin").read_bytes()
        expected = tensors["a"].astype("<f8").tobytes() + tensors["b"].astype("<f4").tobytes()
        assert payload == expected

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


class TestCorruption:
    def make_checkpoint(self, tmp_path):
        stem = tmp_path / "model"
        save_checkpoint(stem, sample_tensors(), {"lr": 0.001}, seed=7)
        return stem

    def test_truncated_payload(self, tmp_path):
        stem = self.make_checkpoint(tmp_path)
        payload = (tmp_path / "model.bin").read_bytes()
        (tmp_path / "model.bin").write_bytes(payload[:-3])
        with pytest.raises(TruncatedFile):
            load_checkpoint(stem)

    def test_empty_payload(self, tmp_path):
        stem = self.make_checkpoint(tmp_path)
        (tmp_path / "model.bin").write_bytes(b"")
        with pytest.raises(TruncatedFile):
            load_checkpoint(stem)

    def test_trailing_bytes_rejected(self, tmp_path):
        stem = self.make_checkpoint(tmp_path)
        payload = (tmp_path / "model.bin").read_bytes()
        (tmp_path / "model.bin").write_bytes(payload + b"\x00\x00")
        with pytest.raises(MalformedHeader):
            load_checkpoint(stem)

    def test_unreadable_manifest(self, tmp_path):
        stem = self.make_checkpoint(tmp_path)
        (tmp_path / "model.json").write_text("{not json")
        with pytest.raises(MalformedHeader):
            load_checkpoint(stem)

    def test_wrong_version(self, tmp_path):
        stem = self.make_checkpoint(tmp_path)
        manifest = json.loads((tmp_path / "model.json").read_text())
        manifest["version"] = FORMAT_VERSION + 1
        (tmp_path / "model.json").write_text(json.dumps(manifest))
        with pytest.raises(MalformedHeader):
            load_checkpoint(stem)

    def test_missing_tensor_list(self, tmp_path):
        stem = self.make_checkpoint(tmp_path)
        manifest = json.loads((tmp_path / "model.json").read_text())
        del manifest["tensors"]
        (tmp_path / "model.json").write_text(json.dumps(manifest))
        with pytest.raises(MalformedHeader):
            load_checkpoint(stem)

    def test_manifest_not_an_object(self, tmp_path):
        stem = self.make_checkpoint(tmp_path)
        (tmp_path / "model.json").write_text("[]")
        with pytest.raises(MalformedHeader, match="^" + re.escape(f"{tmp_path / 'model.json'}: manifest is not")):
            load_checkpoint(stem)

    @pytest.mark.parametrize("mangle, says", [
        (lambda m: m.update(tensors={"a": 1}), "manifest has no tensor list"),
        (lambda m: m["tensors"].__setitem__(0, ["a"]), "tensor entry 0 is not an object"),
        (lambda m: m["tensors"][1].pop("name"), "tensor entry 1 has no 'name'"),
        (lambda m: m["tensors"][0].pop("shape"), "tensor entry 0 has no 'shape'"),
        (lambda m: m["tensors"][0].pop("dtype"), "tensor entry 0 has no 'dtype'"),
        (lambda m: m["tensors"][0].update(shape=[2, -1]), "tensor 'embedding/W_e' has bad shape [2, -1]"),
        (lambda m: m["tensors"][0].update(shape=3), "tensor 'embedding/W_e' has bad shape 3"),
        (lambda m: m["tensors"][0].update(dtype="float99"), "tensor 'embedding/W_e' has unknown dtype 'float99'"),
        (lambda m: m["tensors"][0].update(dtype=None), "tensor 'embedding/W_e' has unknown dtype None"),
        (lambda m: m["tensors"][0].update(dtype="|O"), "tensor 'embedding/W_e' has unknown dtype '|O'"),
        (lambda m: m["tensors"][0].update(dtype="<U1"), "tensor 'embedding/W_e' has unknown dtype '<U1', not a floating"),
        (lambda m: m["tensors"][1].update(dtype="<i8"), "tensor 'dense/b' has unknown dtype '<i8', not a floating"),
        (lambda m: m["tensors"][2].update(dtype="|b1"), "tensor 'scalarish' has unknown dtype '|b1', not a floating"),
    ], ids=["tensors-dict", "entry-list", "no-name", "no-shape", "no-dtype",
            "negative-dim", "scalar-shape", "unknown-dtype", "null-dtype", "object-dtype",
            "str-dtype", "int-dtype", "bool-dtype"])
    def test_malformed_manifest_names_file(self, tmp_path, mangle, says):
        stem = self.make_checkpoint(tmp_path)
        manifest = json.loads((tmp_path / "model.json").read_text())
        mangle(manifest)
        (tmp_path / "model.json").write_text(json.dumps(manifest))
        with pytest.raises(MalformedHeader, match="^" + re.escape(f"{tmp_path / 'model.json'}: {says}")):
            load_checkpoint(stem)

    def test_shape_beyond_int64_is_a_truncated_payload(self, tmp_path):
        """2**32 * 2**32 elements wrap to 0 in int64 arithmetic; counted
        exactly, the tensor needs more bytes than the payload holds."""
        stem = self.make_checkpoint(tmp_path)
        manifest = json.loads((tmp_path / "model.json").read_text())
        manifest["tensors"][0]["shape"] = [2**32, 2**32]
        (tmp_path / "model.json").write_text(json.dumps(manifest))
        with pytest.raises(TruncatedFile, match="^" + re.escape(f"{tmp_path / 'model.bin'}: payload ends inside")):
            load_checkpoint(stem)

    @pytest.mark.parametrize("cut, error", [(3, TruncatedFile), (-2, MalformedHeader)], ids=["short", "long"])
    def test_payload_errors_name_file(self, tmp_path, cut, error):
        stem = self.make_checkpoint(tmp_path)
        payload = (tmp_path / "model.bin").read_bytes()
        (tmp_path / "model.bin").write_bytes(payload[:-cut] if cut > 0 else payload + bytes(-cut))
        with pytest.raises(error, match="^" + re.escape(f"{tmp_path / 'model.bin'}: ")):
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


class Trickle:
    """A payload file whose readinto returns at most `step` bytes a call,
    and nothing once `limit` bytes are read, as when the file is cut
    after its size was taken."""

    def __init__(self, path, mode, step, limit):
        self.f = open(path, mode)
        self.step, self.left = step, limit

    def fileno(self):
        return self.f.fileno()

    def readinto(self, buf):
        n = self.f.readinto(buf[: min(len(buf), self.step, self.left)])
        self.left -= n
        return n

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()


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
        tensors = {"before": np.arange(3.0), "edge": np.asarray(tensor), "after": np.float32([7.0])}
        save_checkpoint(tmp_path / "m", tensors, {}, seed=0)
        loaded = self.assert_matches_whole_payload_load(tmp_path / "m")
        for name, t in tensors.items():
            assert loaded[name].shape == t.shape
            np.testing.assert_array_equal(loaded[name], t)

    def test_big_endian_manifest_entry(self, tmp_path):
        stem = tmp_path / "m"
        save_checkpoint(stem, {"a": np.arange(6.0).reshape(2, 3), "b": np.ones(2)}, {}, seed=0)
        manifest = json.loads((tmp_path / "m.json").read_text())
        manifest["tensors"][0]["dtype"] = ">f8"
        (tmp_path / "m.json").write_text(json.dumps(manifest))
        loaded = self.assert_matches_whole_payload_load(stem)
        assert loaded["a"].dtype == np.dtype(">f8")
        np.testing.assert_array_equal(loaded["a"].view("<f8"), np.arange(6.0).reshape(2, 3))

    def test_short_reads_are_resumed(self, tmp_path, monkeypatch):
        save_checkpoint(tmp_path / "m", sample_tensors(), {}, seed=0)
        monkeypatch.setattr(checkpoint, "open", lambda path, mode: Trickle(path, mode, 5, 1 << 30), raising=False)
        loaded, _ = load_checkpoint(tmp_path / "m")
        monkeypatch.undo()
        for name, t in sample_tensors().items():
            np.testing.assert_array_equal(loaded[name], t)

    def test_payload_cut_while_read(self, tmp_path, monkeypatch):
        stem = tmp_path / "m"
        save_checkpoint(stem, sample_tensors(), {}, seed=0)
        first = 7 * 5 * 8  # embedding/W_e, then dense/b comes back short
        monkeypatch.setattr(
            checkpoint, "open", lambda path, mode: Trickle(path, mode, 1 << 30, first + 5), raising=False
        )
        says = f"{tmp_path / 'm.bin'}: payload ends inside tensor 'dense/b' (read 5 of 24 bytes)"
        with pytest.raises(TruncatedFile, match="^" + re.escape(says)):
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
