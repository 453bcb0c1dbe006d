import json
import re
from pathlib import Path

import numpy as np
import pytest

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
        save_checkpoint(stem, {"a": np.zeros(3)}, {}, seed=0)
        loaded, _ = load_checkpoint(stem)
        loaded["a"][0] = 1.0  # must not raise


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
    ], ids=["tensors-dict", "entry-list", "no-name", "no-shape", "no-dtype",
            "negative-dim", "scalar-shape", "unknown-dtype", "null-dtype", "object-dtype"])
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
    @pytest.mark.parametrize("failing", ["write_bytes", "write_text"])
    def test_failed_write_keeps_previous_pair(self, tmp_path, monkeypatch, failing):
        stem = tmp_path / "model"
        save_checkpoint(stem, sample_tensors(), {"k": 1}, seed=1)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def disk_full(self, data, *args, **kwargs):
            raise OSError("no space left on device")

        monkeypatch.setattr(Path, failing, disk_full)
        with pytest.raises(OSError):
            save_checkpoint(stem, {"other": np.ones(3)}, {"k": 2}, seed=2)
        monkeypatch.undo()

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
