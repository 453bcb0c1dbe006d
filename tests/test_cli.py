import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from conftest import DiskFull, FullOnFlush, fail_rename, make_toy_examples, open_as, write_labeled
from emocaps import cli, training
from emocaps.checkpoint import load_checkpoint, save_checkpoint
from emocaps.cli import build_parser, entry, load_dataset, main
from emocaps.embeddings import Vocabulary, load_word2vec
from emocaps.errors import MalformedLine
from emocaps.evaluation import LABELS
from emocaps.textprep import Lexicon
from emocaps.training import TrainConfig

TINY_FLAGS = [
    "--embed-dim", "8",
    "--hidden-dim", "4",
    "--num-capsules", "2",
    "--capsule-dim", "2",
    "--routing-iters", "2",
    "--batch-size", "16",
    "--max-epochs", "2",
    "--spatial-dropout", "0.0",
    "--capsule-dropout", "0.0",
    "--noise-std", "0.0",
    "--seed", "0",
]


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture(autouse=True)
def no_tmp_file_left(request, tmp_path):
    """After every test, also one whose command exits 3 or 4, no `.tmp`
    file of errors.replacing is left in its temporary directories."""
    roots = [tmp_path]
    if "workspace" in request.fixturenames:
        roots.append(request.getfixturevalue("workspace")["root"])
    yield
    assert [p for root in roots for p in root.rglob("*.tmp")] == []


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Full pipeline on the toy corpus: preprocess, vocab, short training run."""
    root = tmp_path_factory.mktemp("ws")
    raw = root / "raw.tsv"
    write_labeled(raw, make_toy_examples())

    clean = root / "clean.tsv"
    assert run(["preprocess", "--input", raw, "--output", clean]) == 0

    vocab = root / "vocab.tsv"
    payload = root / "embed"
    assert run(
        ["build-vocab", "--inputs", clean, "--vocab", vocab, "--embedding-out", payload]
        + TINY_FLAGS
    ) == 0

    ckpt = root / "run1"
    assert run(
        ["train", "--train-file", clean, "--vocab", vocab, "--checkpoint-dir", ckpt]
        + TINY_FLAGS
    ) == 0
    return {"root": root, "raw": raw, "clean": clean, "vocab": vocab,
            "payload": payload, "ckpt": ckpt}


class TestPipeline:
    def test_preprocess_output_is_labeled_and_tokenized(self, workspace):
        lines = workspace["clean"].read_text().splitlines()
        assert len(lines) == 60
        for line in lines:
            label, text = line.split("\t", 1)
            assert label in LABELS
            assert text == text.lower()
            assert text.strip()

    def test_train_artifacts_exist(self, workspace):
        ckpt = workspace["ckpt"]
        assert (ckpt / "model.json").is_file()
        assert (ckpt / "model.bin").is_file()
        history = [
            json.loads(line) for line in (ckpt / "history.jsonl").read_text().splitlines()
        ]
        assert len(history) == 2
        assert history[0]["epoch"] == 0
        assert history[0]["seconds"] == 0.0

    def test_checkpoint_manifest_records_configuration(self, workspace):
        manifest = json.loads((workspace["ckpt"] / "model.json").read_text())
        hp = manifest["hyperparameters"]
        assert hp["embed_dim"] == 8
        assert hp["num_capsules"] == 2
        assert manifest["seed"] == 0

    def test_evaluate_writes_report(self, workspace, capsys):
        report_path = workspace["root"] / "report.json"
        code = run(
            ["evaluate", "--input", workspace["clean"], "--vocab", workspace["vocab"],
             "--checkpoint", workspace["ckpt"] / "model", "--output", report_path]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "macro" in out
        report = json.loads(report_path.read_text())
        assert set(report) == {"per_class", "micro", "macro"}
        assert 0.0 <= report["macro"]["f1"] <= 1.0

    def test_predict_writes_one_label_per_line(self, workspace):
        preds_path = workspace["root"] / "preds.txt"
        code = run(
            ["predict", "--input", workspace["clean"], "--vocab", workspace["vocab"],
             "--checkpoint", workspace["ckpt"] / "model", "--output", preds_path,
             "--labeled"]
        )
        assert code == 0
        lines = preds_path.read_text().splitlines()
        assert len(lines) == 60
        assert set(lines) <= set(LABELS)

    def test_predict_on_unlabeled_input(self, workspace):
        bare = workspace["root"] / "bare.txt"
        bare.write_text("angersig0 the\njoysig1 to\n")
        out = workspace["root"] / "bare_preds.txt"
        code = run(
            ["predict", "--input", bare, "--vocab", workspace["vocab"],
             "--checkpoint", workspace["ckpt"] / "model", "--output", out]
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 2

    def test_predict_keeps_line_separator_inside_a_tweet(self, workspace):
        bare = workspace["root"] / "separator.txt"
        bare.write_text("angersig0\u2028the\njoysig1 to\n", encoding="utf-8")
        out = workspace["root"] / "separator_preds.txt"
        code = run(
            ["predict", "--input", bare, "--vocab", workspace["vocab"],
             "--checkpoint", workspace["ckpt"] / "model", "--output", out]
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 2

    def test_manifest_with_retired_options_still_predicts(self, workspace, tmp_path):
        """Checkpoints written before the clip mode, the second noise site and
        the dense-bias switch were retired keep those keys; they are ignored,
        and eval never used the first two."""
        stem = tmp_path / "old"
        manifest = json.loads((workspace["ckpt"] / "model.json").read_text())
        manifest["hyperparameters"].update(
            {"clip_mode": "value", "second_noise_site": "logits", "dense_bias": False}
        )
        Path(f"{stem}.json").write_text(json.dumps(manifest))
        Path(f"{stem}.bin").write_bytes((workspace["ckpt"] / "model.bin").read_bytes())
        outputs = []
        for checkpoint in (workspace["ckpt"] / "model", stem):
            out = tmp_path / f"{checkpoint.name}.txt"
            assert run(["predict", "--input", workspace["clean"], "--labeled", "--vocab",
                        workspace["vocab"], "--checkpoint", checkpoint, "--output", out]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert len(outputs[0].splitlines()) == 60

    def test_embeddings_payload_feeds_training(self, workspace):
        ckpt = workspace["root"] / "from_payload"
        code = run(
            ["train", "--train-file", workspace["clean"], "--vocab", workspace["vocab"],
             "--embeddings-payload", workspace["payload"], "--checkpoint-dir", ckpt]
            + TINY_FLAGS
        )
        assert code == 0
        manifest = json.loads((ckpt / "model.json").read_text())
        assert manifest["hyperparameters"]["embed_dim"] == 8

    def test_payload_dimension_wins_over_flag(self, workspace):
        ckpt = workspace["root"] / "dim_override"
        flags = [f if f != "8" else f for f in TINY_FLAGS]
        flags[flags.index("--embed-dim") + 1] = "9"
        code = run(
            ["train", "--train-file", workspace["clean"], "--vocab", workspace["vocab"],
             "--embeddings-payload", workspace["payload"], "--checkpoint-dir", ckpt]
            + flags
        )
        assert code == 0
        manifest = json.loads((ckpt / "model.json").read_text())
        assert manifest["hyperparameters"]["embed_dim"] == 8

    def test_payload_dimension_override_is_reported(self, workspace, capsys):
        flags = list(TINY_FLAGS)
        flags[flags.index("--embed-dim") + 1] = "9"
        capsys.readouterr()
        code = run(
            ["train", "--train-file", workspace["clean"], "--vocab", workspace["vocab"],
             "--embeddings-payload", workspace["payload"],
             "--checkpoint-dir", workspace["root"] / "dim_warning"] + flags
        )
        assert code == 0
        err = capsys.readouterr().err.splitlines()
        assert err == [
            f"warning: embedding payload {workspace['payload']} is 8-dimensional; "
            "using that instead of embed_dim 9"
        ]

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_embedding_payload_is_float64_without_a_needless_copy(self, workspace, tmp_path, monkeypatch, dtype):
        stem = tmp_path / "embed"
        tensors, manifest = load_checkpoint(workspace["payload"])
        tensors = {k: t.astype(dtype) for k, t in tensors.items()}
        save_checkpoint(stem, tensors, manifest["hyperparameters"], manifest["seed"], manifest["vocab_sha256"])
        loaded = []

        def spy(path):
            result = load_checkpoint(path)
            loaded.append(result[0]["embedding/W_e"])
            return result

        monkeypatch.setattr(cli, "load_checkpoint", spy)
        vocab = Vocabulary.load(workspace["vocab"])
        table = cli._load_embedding_payload(stem, vocab, workspace["vocab"], TrainConfig(embed_dim=8))
        assert table.weights.dtype == np.float64
        np.testing.assert_array_equal(table.weights, loaded[0].astype(np.float64))
        assert np.shares_memory(table.weights, loaded[0]) == (dtype == "float64")

    def test_checkpoints_record_vocabulary_fingerprint(self, workspace):
        words = [line.split("\t", 1)[1] for line in workspace["vocab"].read_text().splitlines()]
        expected = hashlib.sha256("\n".join(words).encode("utf-8")).hexdigest()
        for stem in (workspace["payload"], workspace["ckpt"] / "model"):
            manifest = json.loads(Path(f"{stem}.json").read_text())
            assert manifest["vocab_sha256"] == expected

    def test_repeated_training_is_byte_identical(self, workspace):
        dirs = [workspace["root"] / name for name in ("det_a", "det_b")]
        for d in dirs:
            assert run(
                ["train", "--train-file", workspace["clean"], "--vocab",
                 workspace["vocab"], "--checkpoint-dir", d] + TINY_FLAGS
            ) == 0
        for name in ("model.json", "model.bin", "history.jsonl"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


class TestPreprocessBehavior:
    def test_text_normalization_fixtures(self, tmp_path):
        lexicon = tmp_path / "lex.tsv"
        lexicon.write_text("make\t10\nit\t10\nrain\t10\nthe\t5\n")
        raw = tmp_path / "raw.tsv"
        raw.write_text("joy\t@user1 #makeitrain s**t [#TARGETWORD#]\n")
        out = tmp_path / "clean.tsv"
        code = run(["preprocess", "--input", raw, "--output", out,
                    "--lexicon", lexicon])
        assert code == 0
        label, text = out.read_text().splitlines()[0].split("\t", 1)
        tokens = text.split()
        assert label == "joy"
        assert tokens[0] == "<user>"
        assert tokens[1:4] == ["make", "it", "rain"]
        assert "s**t" in tokens
        assert "<targetword>" in tokens

    def test_line_separator_inside_a_tweet(self, tmp_path):
        raw = tmp_path / "u.tsv"
        raw.write_text("joy\tgood\u2028news today\nsad\tbad news\n", encoding="utf-8")
        out = tmp_path / "clean.tsv"
        assert run(["preprocess", "--input", raw, "--output", out]) == 0
        assert out.read_text(encoding="utf-8") == "joy\tgood news today\nsad\tbad news\n"

    def test_unlabeled_round_trip(self, tmp_path):
        raw = tmp_path / "raw.txt"
        raw.write_text("Hello WORLD\nsecond line\n")
        out = tmp_path / "clean.txt"
        assert run(["preprocess", "--input", raw, "--output", out, "--unlabeled"]) == 0
        assert out.read_text() == "hello world\nsecond line\n"


class TestDatasetParsing:
    def test_text_after_first_tab_is_preserved(self, tmp_path):
        path = tmp_path / "data.tsv"
        path.write_text("anger\tkeeps\tits\ttabs\n")
        examples = load_dataset(path)
        assert examples == [(0, "keeps\tits\ttabs")]

    def test_labels_parsed_case_insensitively(self, tmp_path):
        path = tmp_path / "data.tsv"
        path.write_text("JOY\tone\nSad\ttwo\n")
        assert [c for c, _ in load_dataset(path)] == [3, 4]

    def test_unlabeled_mode_keeps_lines_whole(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("no label here\n")
        assert load_dataset(path, labeled=False) == [(None, "no label here")]

    @pytest.mark.parametrize("sep", ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c"])
    def test_lines_end_only_at_newline(self, tmp_path, sep):
        path = tmp_path / "data.tsv"
        path.write_bytes(f"joy\tone{sep}two\r\nsad\tthree\rfear\tfour\n".encode("utf-8"))
        assert load_dataset(path) == [(3, f"one{sep}two"), (4, "three"), (2, "four")]

    @pytest.mark.parametrize("text, lines", [
        ("", []), ("\n", [""]), ("a", ["a"]), ("a\n", ["a"]), ("a\n\nb", ["a", "", "b"]),
    ], ids=["empty", "newline", "no-final-newline", "final-newline", "blank-inside"])
    def test_final_newline_adds_no_line(self, tmp_path, text, lines):
        path = tmp_path / "data.txt"
        path.write_text(text)
        assert load_dataset(path, labeled=False) == [(None, line) for line in lines]


BOM = b"\xef\xbb\xbf"


@pytest.mark.parametrize("reader", ["labeled", "unlabeled", "vocabulary", "lexicon", "word2vec", "config", "manifest"])
def test_byte_order_mark_is_skipped(tmp_path, reader):
    """Every reader reads a file that starts with a UTF-8 byte-order mark as
    it reads the same file without one."""
    content, read = {
        "labeled": (b"joy\tgood news\nsad\tbad news\n", load_dataset),
        "unlabeled": (b"good news\nbad news\n", lambda path: load_dataset(path, labeled=False)),
        "vocabulary": (b"0\t<pad>\n1\t<unk>\n2\tcat\n", lambda path: Vocabulary.load(path).id_to_word),
        "lexicon": (b"the\t5\ncat\t2\n", lambda path: dict(Lexicon.from_file(path).counts)),
        "word2vec": (b"2 2\ncat 0.5 1\ndog 1 2\n",
                     lambda path: {w: v.tolist() for w, v in load_word2vec(path, fmt="text").items()}),
        "config": (b'{"seed": 3, "profile": "desk"}\n', cli._read_config_file),
        "manifest": (None, lambda path: load_checkpoint(path.with_suffix(""))[1]),
    }[reader]
    plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
    if reader == "manifest":
        save_checkpoint(tmp_path / "plain", {"w": np.arange(3.0)}, {"embed_dim": 3}, seed=1)
        content = plain.read_bytes()
        (tmp_path / "marked.bin").write_bytes((tmp_path / "plain.bin").read_bytes())
    plain.write_bytes(content)
    marked.write_bytes(BOM + content)
    assert read(marked) == read(plain)


def test_byte_order_mark_keeps_file_offsets(tmp_path):
    # the mark is valid UTF-8: the file offset in the error counts its three bytes
    path = tmp_path / "data.tsv"
    path.write_bytes(BOM + b"joy\tgood\nsad\tcaf\xe9\n")
    with pytest.raises(MalformedLine, match="^" + re.escape(
            f"{path}:2: not UTF-8 text: can't decode byte 0xe9 at file offset 19 (invalid continuation byte)") + "$"):
        load_dataset(path)


class TestExitCodes:
    def test_missing_input_file(self, tmp_path):
        assert run(["preprocess", "--input", tmp_path / "nope.tsv",
                    "--output", tmp_path / "out.tsv"]) == 3

    def test_unknown_label(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("happiness\tsome text\n")
        assert run(["preprocess", "--input", bad, "--output", tmp_path / "out.tsv"]) == 3

    def test_missing_label_column(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("no tab on this line\n")
        assert run(["preprocess", "--input", bad, "--output", tmp_path / "out.tsv"]) == 3

    def test_empty_training_file(self, workspace, tmp_path):
        empty = tmp_path / "empty.tsv"
        empty.write_text("")
        code = run(["train", "--train-file", empty, "--vocab", workspace["vocab"],
                    "--checkpoint-dir", tmp_path / "ckpt"] + TINY_FLAGS)
        assert code == 3

    def test_vocabulary_checkpoint_mismatch(self, workspace, tmp_path):
        small = tmp_path / "small_vocab.tsv"
        data = tmp_path / "two.tsv"
        data.write_text("anger\tone two\njoy\tthree\n")
        assert run(["build-vocab", "--inputs", data, "--vocab", small,
                    "--embedding-out", tmp_path / "emb"] + TINY_FLAGS) == 0
        code = run(["evaluate", "--input", data, "--vocab", small,
                    "--checkpoint", workspace["ckpt"] / "model"])
        assert code == 3

    @pytest.mark.parametrize("command", ["predict", "evaluate", "train"])
    def test_same_size_vocabulary_with_other_words_is_refused(self, workspace, tmp_path, capsys, command):
        words = [line.split("\t", 1)[1] for line in workspace["vocab"].read_text().splitlines()]
        words[-2:] = words[:-3:-1]  # same size, two ids swap their words
        vocab = tmp_path / "swapped.tsv"
        vocab.write_text("".join(f"{i}\t{w}\n" for i, w in enumerate(words)))
        out = tmp_path / "out"
        stem = workspace["payload"] if command == "train" else workspace["ckpt"] / "model"
        argv = {
            "predict": ["predict", "--input", workspace["clean"], "--labeled", "--output", out,
                        "--checkpoint", stem],
            "evaluate": ["evaluate", "--input", workspace["clean"], "--output", out,
                         "--checkpoint", stem],
            "train": ["train", "--train-file", workspace["clean"], "--checkpoint-dir", out,
                      "--embeddings-payload", stem] + TINY_FLAGS,
        }[command]
        capsys.readouterr()
        assert run(argv + ["--vocab", vocab]) == 3
        err = capsys.readouterr().err
        assert str(vocab) in err and str(stem) in err
        assert not out.exists()

    def test_manifest_without_fingerprint_is_accepted(self, workspace, tmp_path):
        stem = tmp_path / "old"
        manifest = json.loads((workspace["ckpt"] / "model.json").read_text())
        del manifest["vocab_sha256"]
        Path(f"{stem}.json").write_text(json.dumps(manifest))
        Path(f"{stem}.bin").write_bytes((workspace["ckpt"] / "model.bin").read_bytes())
        out = tmp_path / "preds.txt"
        assert run(["predict", "--input", workspace["clean"], "--labeled", "--vocab",
                    workspace["vocab"], "--checkpoint", stem, "--output", out]) == 0
        assert len(out.read_text().splitlines()) == 60

    @pytest.mark.parametrize("command", ["predict", "evaluate", "train"])
    def test_vocabulary_of_another_size_names_both_files(self, workspace, tmp_path, capsys, command):
        """A manifest without a fingerprint is checked by its row count."""
        stem = tmp_path / "old"
        source = workspace["payload"] if command == "train" else workspace["ckpt"] / "model"
        manifest = json.loads(Path(f"{source}.json").read_text())
        del manifest["vocab_sha256"]
        Path(f"{stem}.json").write_text(json.dumps(manifest))
        Path(f"{stem}.bin").write_bytes(Path(f"{source}.bin").read_bytes())
        lines = workspace["vocab"].read_text().splitlines()
        vocab = tmp_path / "short.tsv"
        vocab.write_text("\n".join(lines[:-4]) + "\n")
        out = tmp_path / "out"
        argv = {
            "predict": ["predict", "--input", workspace["clean"], "--labeled", "--output", out,
                        "--checkpoint", stem],
            "evaluate": ["evaluate", "--input", workspace["clean"], "--output", out, "--checkpoint", stem],
            "train": ["train", "--train-file", workspace["clean"], "--checkpoint-dir", out,
                      "--embeddings-payload", stem] + TINY_FLAGS,
        }[command]
        capsys.readouterr()
        assert run(argv + ["--vocab", vocab]) == 3
        rows = len(lines)
        assert capsys.readouterr().err == (
            f"error: {stem}.bin: embedding/W_e has shape ({rows}, 8), "
            f"but vocabulary {vocab} has {rows - 4} words\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("reader", ["input", "evaluate-input", "vocab", "lexicon", "config", "manifest", "word2vec"])
    def test_file_that_is_not_utf8_names_file_and_line(self, workspace, tmp_path, capsys, reader):
        """Each file's first byte that is not UTF-8 is on the line given with
        it; the vocabulary's lines end in \\r\\n and the lexicon's in \\r."""
        model, vocab, clean = workspace["ckpt"] / "model", workspace["vocab"], workspace["clean"]
        bad, out, raw = tmp_path / "bad", tmp_path / "out", tmp_path / "raw.tsv"
        raw.write_text("joy\tsome text\n")
        manifest = Path(f"{model}.json").read_bytes()
        words = vocab.read_bytes().splitlines()
        if reader == "manifest":
            bad = tmp_path / "model.json"
            (tmp_path / "model.bin").write_bytes(Path(f"{model}.bin").read_bytes())
        content, line, argv = {
            "input": (b"joy\tgood\nsad\tcaf\xe9 x\n", 2, ["preprocess", "--input", bad, "--output", out]),
            "evaluate-input": (b"joy\tgood\nsad\tcaf\xe9 x\n", 2, ["evaluate", "--input", bad, "--vocab", vocab,
                                                                "--checkpoint", model, "--output", out]),
            "vocab": (b"\r\n".join(words[:2] + [b"2\tcaf\xe9"] + words[3:]) + b"\r\n", 3,
                      ["predict", "--input", clean, "--labeled", "--vocab", bad, "--checkpoint", model,
                       "--output", out]),
            "lexicon": (b"the\t5\rit\t3\rcaf\xe9\t2\r", 3,
                        ["preprocess", "--input", raw, "--lexicon", bad, "--output", out]),
            "config": (b'{"seed": 1,\n "s\xe9ed": 2}', 2,
                       ["train", "--train-file", clean, "--vocab", vocab, "--config", bad, "--checkpoint-dir", out]),
            "manifest": (manifest.replace(b'"seed"', b'"s\xe9ed"'), manifest[: manifest.index(b'"seed"')].count(b"\n") + 1,
                         ["predict", "--input", clean, "--labeled", "--vocab", vocab,
                          "--checkpoint", tmp_path / "model", "--output", out]),
            "word2vec": (b"1 2\ncaf\xe9 0.1 0.2\n", 2,
                         ["build-vocab", "--inputs", clean, "--vocab", out, "--embedding-out", tmp_path / "emb",
                          "--embeddings", bad, "--embeddings-format", "text", "--embed-dim", "2"]),
        }[reader]
        bad.write_bytes(content)
        capsys.readouterr()
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}:{line}: not UTF-8 text: can't decode byte 0xe9 at file offset "), err
        assert not out.exists() and not (tmp_path / "emb.bin").exists()

    @pytest.mark.parametrize("bad", ["no tab here", "x\tword"])
    def test_malformed_vocabulary_names_file_and_line(self, workspace, tmp_path, capsys, bad):
        vocab = tmp_path / "vocab.tsv"
        lines = workspace["vocab"].read_text().splitlines()
        vocab.write_text("\n".join(lines[:3] + [bad] + lines[4:]) + "\n")
        out = tmp_path / "preds.txt"
        capsys.readouterr()
        code = run(["predict", "--input", workspace["clean"], "--labeled", "--vocab", vocab,
                    "--checkpoint", workspace["ckpt"] / "model", "--output", out])
        assert code == 3
        assert f"error: {vocab}:4: expected id<TAB>word" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_vocabulary_word_names_file_and_line(self, workspace, tmp_path, capsys):
        vocab = tmp_path / "vocab.tsv"
        lines = workspace["vocab"].read_text().splitlines()
        word = lines[2].split("\t", 1)[1]
        vocab.write_text("\n".join(lines[:3] + [f"3\t{word}"] + lines[4:]) + "\n")
        out = tmp_path / "run"
        capsys.readouterr()
        code = run(["train", "--train-file", workspace["clean"], "--vocab", vocab,
                    "--checkpoint-dir", out] + TINY_FLAGS)
        assert code == 3
        assert f"error: {vocab}:4: word {word!r} repeats id 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("reserved", [0, 1], ids=["no-pad", "no-unk"])
    def test_vocabulary_without_pad_or_unk_is_refused(self, workspace, tmp_path, capsys, reserved):
        words = Vocabulary.load(workspace["vocab"]).id_to_word
        expected = words[reserved]
        words[reserved] = "cat"
        vocab = tmp_path / "vocab.tsv"
        vocab.write_text("".join(f"{i}\t{w}\n" for i, w in enumerate(words)))
        out = tmp_path / "run"
        capsys.readouterr()
        code = run(["train", "--train-file", workspace["clean"], "--vocab", vocab,
                    "--checkpoint-dir", out] + TINY_FLAGS)
        assert code == 3
        assert f"error: {vocab}:{reserved + 1}: id {reserved} must be {expected!r}, got 'cat'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_embedding_payload_is_no_model(self, workspace, tmp_path, capsys, command):
        stem = workspace["payload"]
        out = tmp_path / "out"
        capsys.readouterr()
        code = run([command, "--input", workspace["clean"], "--vocab", workspace["vocab"],
                    "--checkpoint", stem, "--output", out] + (["--labeled"] if command == "predict" else []))
        assert code == 3
        missing = "gru_fwd/W_i, gru_fwd/W_h, gru_fwd/b, gru_bwd/W_i, gru_bwd/W_h, gru_bwd/b, capsule/W, dense/W, dense/b"
        assert f"error: {stem}.json: missing tensors: {missing}\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name, cut", [
        ("embedding/W_e", lambda t: t[..., None]),  # a source of the wrong rank fails its own check
        ("gru_fwd/W_i", lambda t: t[:-1]),
        ("gru_fwd/W_h", lambda t: t[:, :-1]),
        ("gru_fwd/b", lambda t: t[:-1]),
        ("gru_bwd/W_i", lambda t: t[:-1]),
        ("gru_bwd/W_h", lambda t: t[:-1]),
        ("gru_bwd/b", lambda t: t[:-1]),
        ("capsule/W", lambda t: t[:, :-1]),
        ("dense/W", lambda t: t[:-1]),
        ("dense/b", lambda t: t[:-1]),
    ])
    def test_tensor_of_the_wrong_shape_names_file_and_tensor(self, workspace, tmp_path, capsys, name, cut):
        tensors, manifest = load_checkpoint(workspace["ckpt"] / "model")
        expected = tensors[name].shape
        tensors[name] = cut(tensors[name])
        stem = tmp_path / "model"
        save_checkpoint(stem, tensors, manifest["hyperparameters"], manifest["seed"], manifest["vocab_sha256"])
        out = tmp_path / "preds.txt"
        capsys.readouterr()
        code = run(["predict", "--input", workspace["clean"], "--labeled", "--vocab", workspace["vocab"],
                    "--checkpoint", stem, "--output", out])
        assert code == 3
        err = capsys.readouterr().err
        assert err == f"error: {stem}.json: tensor {name} has shape {tensors[name].shape}, expected {expected}\n"
        assert not out.exists()

    @pytest.mark.parametrize("cut", [lambda t: t[:, 0], lambda t: t[..., None], lambda t: t[:, :0]],
                             ids=["1-d", "3-d", "0-wide"])
    def test_embedding_payload_of_the_wrong_rank_is_refused(self, workspace, tmp_path, capsys, cut):
        tensors, manifest = load_checkpoint(workspace["payload"])
        W = cut(tensors["embedding/W_e"])
        stem = tmp_path / "emb"
        save_checkpoint(stem, {"embedding/W_e": W}, manifest["hyperparameters"], manifest["seed"], manifest["vocab_sha256"])
        out = tmp_path / "run"
        capsys.readouterr()
        code = run(["train", "--train-file", workspace["clean"], "--vocab", workspace["vocab"],
                    "--embeddings-payload", stem, "--checkpoint-dir", out] + TINY_FLAGS)
        assert code == 3
        err = capsys.readouterr().err
        assert err == f"error: {stem}.json: tensor embedding/W_e has shape {W.shape}, expected (rows, dim)\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["build-vocab", "train", "evaluate"])
    def test_unknown_label_names_file_and_line(self, workspace, tmp_path, capsys, command):
        data = tmp_path / "data.tsv"
        data.write_text("anger\tangersig0 the\nhappy\tjoysig1 to\n")
        out = tmp_path / "out"
        argv = {
            "build-vocab": ["build-vocab", "--inputs", data, "--vocab", out, "--embedding-out", tmp_path / "emb"],
            "train": ["train", "--train-file", data, "--vocab", workspace["vocab"], "--checkpoint-dir", out],
            "evaluate": ["evaluate", "--input", data, "--vocab", workspace["vocab"],
                         "--checkpoint", workspace["ckpt"] / "model", "--output", out],
        }[command]
        capsys.readouterr()
        assert run(argv + (TINY_FLAGS if command != "evaluate" else [])) == 3
        expected = f"error: {data}:2: unknown label 'happy'; expected one of {', '.join(LABELS)}\n"
        assert capsys.readouterr().err == expected
        assert not out.exists()

    def test_payload_without_embedding_is_refused(self, workspace, tmp_path, capsys):
        stem = tmp_path / "emb"
        manifest = json.loads(Path(f"{workspace['payload']}.json").read_text())
        manifest["tensors"][0]["name"] = "embedding/W"
        Path(f"{stem}.json").write_text(json.dumps(manifest))
        Path(f"{stem}.bin").write_bytes(Path(f"{workspace['payload']}.bin").read_bytes())
        out = tmp_path / "run"
        capsys.readouterr()
        code = run(["train", "--train-file", workspace["clean"], "--vocab", workspace["vocab"],
                    "--embeddings-payload", stem, "--checkpoint-dir", out] + TINY_FLAGS)
        assert code == 3
        assert f"error: {stem}.json: missing tensors: embedding/W_e" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["predict", "evaluate", "train"])
    @pytest.mark.parametrize("blank", ["", "   \t "])
    def test_line_without_tokens_names_file_and_line(self, workspace, tmp_path, capsys, command, blank):
        data = tmp_path / "data.tsv"
        if command == "predict":
            data.write_text(f"angersig0 the\n{blank}\njoysig1 to\n")
        else:
            data.write_text(f"anger\tangersig0 the\njoy\t{blank}\njoy\tjoysig1 to\n")
        out = tmp_path / "out"
        argv = {
            "predict": ["predict", "--input", data, "--output", out],
            "evaluate": ["evaluate", "--input", data, "--output", out],
            "train": ["train", "--train-file", data, "--checkpoint-dir", out] + TINY_FLAGS,
        }[command]
        if command != "train":
            argv += ["--checkpoint", workspace["ckpt"] / "model"]
        capsys.readouterr()
        assert run(argv + ["--vocab", workspace["vocab"]]) == 3
        assert f"{data}:2:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line", ["Hello\t3", "cat\t-1", "cat\tmany"])
    def test_bad_lexicon_names_file_and_line(self, tmp_path, capsys, line):
        lexicon = tmp_path / "lex.tsv"
        lexicon.write_text(f"the\t5\n{line}\n")
        raw = tmp_path / "raw.tsv"
        raw.write_text("joy\tsome text\n")
        out = tmp_path / "clean.tsv"
        capsys.readouterr()
        code = run(["preprocess", "--input", raw, "--output", out, "--lexicon", lexicon])
        assert code == 3
        assert f"error: {lexicon}:2: " in capsys.readouterr().err
        assert not out.exists()

    def test_non_numeric_word2vec_value_names_file_and_line(self, workspace, tmp_path, capsys):
        vectors = tmp_path / "vec.txt"
        vectors.write_text("1 2\nhello 0.1 abc\n")
        capsys.readouterr()
        code = run(["build-vocab", "--inputs", workspace["clean"], "--vocab", tmp_path / "vocab.tsv",
                    "--embedding-out", tmp_path / "emb", "--embeddings", vectors,
                    "--embeddings-format", "text", "--embed-dim", "2"])
        assert code == 3
        assert f"error: {vectors}:2: entry 'hello' has a non-numeric value 'abc'" in capsys.readouterr().err
        assert not (tmp_path / "emb.bin").exists()

    def test_binary_word2vec_word_not_utf8_names_file_and_entry(self, workspace, tmp_path, capsys):
        vectors = tmp_path / "vec.bin"
        vectors.write_bytes(b"2 1\nhappy " + bytes(4) + b"\ncaf\xe9 " + bytes(4))
        capsys.readouterr()
        code = run(["build-vocab", "--inputs", workspace["clean"], "--vocab", tmp_path / "vocab.tsv",
                    "--embedding-out", tmp_path / "emb", "--embeddings", vectors,
                    "--embeddings-format", "binary", "--embed-dim", "1"])
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: {vectors}: entry 2 of 2: word b'caf\\xe9' is not UTF-8 (unexpected end of data)\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["vec.bin"]

    @pytest.mark.parametrize("vectors_text, embed_dim, message", [
        ("1 3\nhappy 0.1 0.2\n", "3", ":2: entry 'happy' has 2 values, expected 3"),
        ("1 2\nhappy 0.1 0.2\n", "3", ": pretrained vector for 'happy' has length 2, expected 3"),
    ], ids=["value-count", "embed-dim"])
    def test_bad_word2vec_writes_nothing(self, workspace, tmp_path, capsys, vectors_text, embed_dim, message):
        vectors = tmp_path / "v.txt"
        vectors.write_text(vectors_text)
        capsys.readouterr()
        code = run(["build-vocab", "--inputs", workspace["clean"], "--vocab", tmp_path / "vocab.tsv",
                    "--embedding-out", tmp_path / "emb", "--embeddings", vectors,
                    "--embeddings-format", "text", "--embed-dim", embed_dim])
        assert code == 3
        assert capsys.readouterr().err == f"error: {vectors}{message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["v.txt"]

    def test_binary_word2vec_of_another_width_names_file(self, workspace, tmp_path, capsys):
        vectors = tmp_path / "v.bin"
        vectors.write_bytes(b"1 2\nhappy " + np.asarray([0.1, 0.2], "<f4").tobytes())
        capsys.readouterr()
        code = run(["build-vocab", "--inputs", workspace["clean"], "--vocab", tmp_path / "vocab.tsv",
                    "--embedding-out", tmp_path / "emb", "--embeddings", vectors,
                    "--embeddings-format", "binary", "--embed-dim", "3"])
        assert code == 3
        assert capsys.readouterr().err == f"error: {vectors}: pretrained vector for 'happy' has length 2, expected 3\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["v.bin"]

    def test_manifest_not_an_object(self, workspace, tmp_path, capsys):
        stem = tmp_path / "bad"
        Path(f"{stem}.json").write_text("[]")
        Path(f"{stem}.bin").write_bytes(b"")
        capsys.readouterr()
        code = run(["predict", "--input", workspace["clean"], "--labeled", "--vocab",
                    workspace["vocab"], "--checkpoint", stem, "--output", tmp_path / "preds.txt"])
        assert code == 3
        assert f"error: {stem}.json: manifest is not a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("mangle", [
        lambda m: m.clear(),
        lambda m: m["tensors"][0].pop("dtype"),
        lambda m: m["tensors"][3].pop("name"),
        lambda m: m["tensors"][-1].update(shape=None),
        lambda m: m["tensors"][1].update(dtype="<f9"),
        lambda m: m.update(hyperparameters=[]),
        lambda m: m["hyperparameters"].update(routing_iters="5"),
    ], ids=["empty", "no-dtype", "no-name", "null-shape", "unknown-dtype", "hp-list", "hp-type"])
    def test_malformed_manifest_names_checkpoint(self, workspace, tmp_path, capsys, mangle):
        stem = tmp_path / "bad"
        manifest = json.loads((workspace["ckpt"] / "model.json").read_text())
        mangle(manifest)
        Path(f"{stem}.json").write_text(json.dumps(manifest))
        Path(f"{stem}.bin").write_bytes((workspace["ckpt"] / "model.bin").read_bytes())
        out = tmp_path / "preds.txt"
        capsys.readouterr()
        code = run(["predict", "--input", workspace["clean"], "--labeled", "--vocab",
                    workspace["vocab"], "--checkpoint", stem, "--output", out])
        assert code == 3
        assert f"error: {stem}.json: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_out_of_range_hyperparameter_names_manifest(self, workspace, tmp_path, capsys, command):
        stem = tmp_path / "model"
        manifest = json.loads((workspace["ckpt"] / "model.json").read_text())
        manifest["hyperparameters"]["routing_iters"] = 0
        Path(f"{stem}.json").write_text(json.dumps(manifest))
        Path(f"{stem}.bin").write_bytes((workspace["ckpt"] / "model.bin").read_bytes())
        out = tmp_path / "out"
        capsys.readouterr()
        code = run([command, "--input", workspace["clean"], "--vocab", workspace["vocab"],
                    "--checkpoint", stem, "--output", out] + (["--labeled"] if command == "predict" else []))
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {stem}.json: ") and "routing_iters" in err
        assert not out.exists()

    @pytest.mark.parametrize("name, dtype", [("dense/b", "<U1"), ("dense/W", "<i8"), ("capsule/W", "|b1")])
    def test_non_floating_model_tensor_is_refused(self, workspace, tmp_path, capsys, name, dtype):
        tensors, manifest = load_checkpoint(workspace["ckpt"] / "model")
        tensors[name] = np.ones(tensors[name].shape).astype(dtype)
        stem = tmp_path / "model"
        save_checkpoint(stem, tensors, manifest["hyperparameters"], manifest["seed"], manifest["vocab_sha256"])
        out = tmp_path / "preds.txt"
        capsys.readouterr()
        code = run(["predict", "--input", workspace["clean"], "--labeled", "--vocab", workspace["vocab"],
                    "--checkpoint", stem, "--output", out])
        assert code == 3
        err = capsys.readouterr().err
        assert err == f"error: {stem}.json: tensor {name!r} has unknown dtype {dtype!r}, not a floating-point one\n"
        assert not out.exists()

    def test_non_floating_embedding_payload_is_refused(self, workspace, tmp_path, capsys):
        tensors, manifest = load_checkpoint(workspace["payload"])
        stem = tmp_path / "emb"
        save_checkpoint(stem, {"embedding/W_e": np.full(tensors["embedding/W_e"].shape, "x")},
                        manifest["hyperparameters"], manifest["seed"], manifest["vocab_sha256"])
        out = tmp_path / "run"
        capsys.readouterr()
        code = run(["train", "--train-file", workspace["clean"], "--vocab", workspace["vocab"],
                    "--embeddings-payload", stem, "--checkpoint-dir", out] + TINY_FLAGS)
        assert code == 3
        err = capsys.readouterr().err
        assert err == f"error: {stem}.json: tensor 'embedding/W_e' has unknown dtype '<U1', not a floating-point one\n"
        assert not out.exists()

    def test_unwritable_checkpoint_dir_fails_before_the_first_step(self, workspace, capsys, monkeypatch):
        steps = []
        monkeypatch.setattr(training, "adam_step", lambda *a: steps.append(a))
        out = workspace["clean"] / "run"  # under a file: mkdir fails
        capsys.readouterr()
        code = run(["train", "--train-file", workspace["clean"], "--vocab", workspace["vocab"],
                    "--checkpoint-dir", out] + TINY_FLAGS)
        assert code == 3
        assert "Not a directory" in capsys.readouterr().err
        assert steps == []

    @pytest.mark.parametrize("existing", [False, True], ids=["made-by-train", "users-own"])
    def test_failed_training_removes_only_the_directories_it_made(self, workspace, tmp_path, capsys, existing):
        if existing:
            (tmp_path / "runs").mkdir()
        out = tmp_path / "runs" / "nanrun"
        capsys.readouterr()
        code = run(["train", "--train-file", workspace["clean"], "--vocab", workspace["vocab"],
                    "--checkpoint-dir", out, "--learning-rate", "1e200", "--clip-norm", "1e300"] + TINY_FLAGS)
        assert code == 4
        assert capsys.readouterr().err.startswith("numeric failure: epoch 0, batch ")
        assert not out.exists()
        assert (tmp_path / "runs").exists() == existing

    @pytest.mark.parametrize("existing", [False, True], ids=["made-by-train", "users-own"])
    def test_failed_save_removes_only_the_directories_it_made(self, workspace, tmp_path, capsys, monkeypatch, existing):
        def disk_full(*args):
            raise OSError("no space left on device")

        monkeypatch.setattr(cli, "save_checkpoint", disk_full)
        if existing:
            (tmp_path / "runs").mkdir()
        out = tmp_path / "runs" / "run"
        capsys.readouterr()
        code = run(["train", "--train-file", workspace["clean"], "--vocab", workspace["vocab"],
                    "--checkpoint-dir", out] + TINY_FLAGS)
        assert code == 3
        assert capsys.readouterr().err == "error: no space left on device\n"
        assert not out.exists()
        assert (tmp_path / "runs").exists() == existing

    def test_diverged_training_prints_only_the_numeric_failure(self, workspace, tmp_path):
        """Run as a process, so numpy's warnings would reach its stderr."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src") + os.pathsep + env.get("PYTHONPATH", "")
        out = tmp_path / "nanrun"
        done = subprocess.run(
            [sys.executable, "-m", "emocaps", "train", "--train-file", str(workspace["clean"]),
             "--vocab", str(workspace["vocab"]), "--checkpoint-dir", str(out),
             "--learning-rate", "1e200", "--clip-norm", "1e300", *TINY_FLAGS],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 4
        assert "RuntimeWarning" not in done.stderr
        assert done.stderr.startswith("numeric failure: epoch 0, batch ")
        assert done.stderr.count("\n") == 1, done.stderr
        assert not out.exists()

    def test_unwritable_payload_leaves_no_vocabulary(self, workspace, tmp_path, capsys):
        vocab = tmp_path / "v_new.tsv"
        capsys.readouterr()
        code = run(["build-vocab", "--inputs", workspace["clean"], "--vocab", vocab,
                    "--embedding-out", Path(workspace["clean"]) / "emb", "--profile", "desk"])
        assert code == 3
        assert "Not a directory" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_shape_beyond_int64_names_payload(self, workspace, tmp_path, capsys):
        stem = tmp_path / "huge"
        manifest = json.loads((workspace["ckpt"] / "model.json").read_text())
        manifest["tensors"][0]["shape"] = [2**32, 2**32]
        Path(f"{stem}.json").write_text(json.dumps(manifest))
        Path(f"{stem}.bin").write_bytes((workspace["ckpt"] / "model.bin").read_bytes())
        out = tmp_path / "preds.txt"
        capsys.readouterr()
        code = run(["predict", "--input", workspace["clean"], "--labeled", "--vocab",
                    workspace["vocab"], "--checkpoint", stem, "--output", out])
        assert code == 3
        assert f"error: {stem}.bin: payload ends inside tensor 'embedding/W_e'" in capsys.readouterr().err
        assert not out.exists()

    def test_blank_dev_line_rejected_before_training(self, workspace, tmp_path, capsys):
        dev = tmp_path / "dev.tsv"
        dev.write_text("anger\tangersig0\n\n")
        code = run(["train", "--train-file", workspace["clean"], "--dev-file", dev,
                    "--vocab", workspace["vocab"], "--checkpoint-dir", tmp_path / "ckpt"]
                   + TINY_FLAGS)
        assert code == 3
        assert f"{dev}:2:" in capsys.readouterr().err
        assert not (tmp_path / "ckpt").exists()

    def test_unparseable_flag_value(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(["train", "--train-file", "x", "--vocab", "v",
                 "--checkpoint-dir", "c", "--batch-size", "banana"])
        assert err.value.code == 2

    def test_config_value_out_of_range(self, workspace, tmp_path):
        code = run(["train", "--train-file", workspace["clean"],
                    "--vocab", workspace["vocab"],
                    "--checkpoint-dir", tmp_path / "ckpt",
                    "--spatial-dropout", "1.5"])
        assert code == 2

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_flag_is_bad_argument(self, workspace, tmp_path, capsys, value):
        capsys.readouterr()
        code = run(["train", "--train-file", workspace["clean"],
                    "--vocab", workspace["vocab"],
                    "--checkpoint-dir", tmp_path / "ckpt", "--clip-norm", value])
        assert code == 2
        assert "bad arguments: clip_norm must be finite" in capsys.readouterr().err
        assert not (tmp_path / "ckpt").exists()

    def test_non_finite_config_value_is_bad_argument(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"learning_rate": float("nan")}))  # written as NaN
        capsys.readouterr()
        code = run(["train", "--train-file", workspace["clean"],
                    "--vocab", workspace["vocab"],
                    "--checkpoint-dir", tmp_path / "ckpt", "--config", cfg])
        assert code == 2
        assert "bad arguments: learning_rate must be finite" in capsys.readouterr().err
        assert not (tmp_path / "ckpt").exists()

    def test_unknown_config_key(self, workspace, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"no_such_knob": 1}))
        code = run(["train", "--train-file", workspace["clean"],
                    "--vocab", workspace["vocab"],
                    "--checkpoint-dir", tmp_path / "ckpt", "--config", cfg])
        assert code == 3

    @pytest.mark.parametrize("content, says", [
        ([1], "expected a JSON object"),
        ({"profile": "huge"}, "profile must be one of desk, paper, got 'huge'"),
        ({"profile": ["desk"]}, "profile must be one of desk, paper"),
        ({"batch_size": "big"}, "batch_size must be int, got 'big'"),
        ({"batch_size": 2.0}, "batch_size must be int, got 2.0"),
        ({"batch_size": True}, "batch_size must be int, got True"),
        ({"learning_rate": "0.1"}, "learning_rate must be float, got '0.1'"),
        ({"noise_std": None}, "noise_std must be float, got None"),
        ({"no_such_knob": 1}, "unknown config keys: no_such_knob"),
        ({"clip_mode": "value", "dense_bias": False}, "unknown config keys: clip_mode, dense_bias"),
    ], ids=["list", "unknown-profile", "list-profile", "int-as-str", "int-as-float", "int-as-bool",
            "float-as-str", "float-as-null", "unknown-key", "retired-keys"])
    def test_bad_config_file_names_file_and_key(self, workspace, tmp_path, capsys, content, says):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(content))
        capsys.readouterr()
        code = run(["train", "--train-file", workspace["clean"],
                    "--vocab", workspace["vocab"],
                    "--checkpoint-dir", tmp_path / "ckpt", "--config", cfg])
        assert code == 3
        assert f"error: {cfg}: {says}" in capsys.readouterr().err
        assert not (tmp_path / "ckpt").exists()

    def test_unreadable_config_file(self, workspace, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{broken")
        code = run(["train", "--train-file", workspace["clean"],
                    "--vocab", workspace["vocab"],
                    "--checkpoint-dir", tmp_path / "ckpt", "--config", cfg])
        assert code == 3


# the files each command writes, in the order they land
LANDING = {
    "preprocess": ["clean.tsv"],
    "build-vocab": ["embed.bin", "embed.json", "vocab.tsv"],
    "train": ["model.bin", "model.json", "history.jsonl"],
    "evaluate": ["report.json"],
    "predict": ["preds.txt"],
}


def writing_argv(command, workspace, out):
    """`command` run as the workspace fixture runs it, writing into `out`;
    so preprocess, build-vocab and train write the workspace's bytes."""
    model = ["--vocab", workspace["vocab"], "--checkpoint", workspace["ckpt"] / "model"]
    return {
        "preprocess": ["preprocess", "--input", workspace["raw"], "--output", out / "clean.tsv"],
        "build-vocab": ["build-vocab", "--inputs", workspace["clean"], "--vocab", out / "vocab.tsv",
                        "--embedding-out", out / "embed", *TINY_FLAGS],
        "train": ["train", "--train-file", workspace["clean"], "--vocab", workspace["vocab"],
                  "--checkpoint-dir", out, *TINY_FLAGS],
        "evaluate": ["evaluate", "--input", workspace["clean"], *model, "--output", out / "report.json"],
        "predict": ["predict", "--input", workspace["clean"], "--labeled", *model, "--output", out / "preds.txt"],
    }[command]


class TestWholeOrUntouched:
    """A write that fails, when the disk fills or a rename is refused,
    leaves each output with its previous bytes, or absent, or whole."""

    @pytest.mark.parametrize("fault", ["disk-full", "full-on-flush", "rename"])
    @pytest.mark.parametrize("previous", [False, True], ids=["absent", "previous"])
    @pytest.mark.parametrize("command, failing", [(c, name) for c, names in LANDING.items() for name in names])
    def test_failed_write(self, workspace, tmp_path, capsys, monkeypatch, command, failing, fault, previous):
        out = tmp_path / "out"
        if previous or command != "train":  # train makes its directory; others write into one
            out.mkdir()
        for name in LANDING[command] if previous else ():
            (out / name).write_bytes(f"previous {name}\n".encode())
        full = []
        if fault == "disk-full":
            full = open_as(monkeypatch, out / f"{failing}.tmp", partial(DiskFull, room=5))
        elif fault == "full-on-flush":
            open_as(monkeypatch, out / f"{failing}.tmp", FullOnFlush)
        else:
            fail_rename(monkeypatch, out / failing)
        capsys.readouterr()

        code = run(writing_argv(command, workspace, out))
        monkeypatch.undo()
        assert code == 3
        # a full disk failed the command with a partial .tmp file on disk
        assert [f.on_disk_at_failure for f in full] == ([5] if fault == "disk-full" else [])
        errno_text = "[Errno 5] Input/output error" if fault == "rename" else "[Errno 28] No space left on device"
        assert capsys.readouterr().err == f"error: {errno_text}\n"

        if command == "train" and not previous:  # a failed run leaves no directory behind
            assert not out.exists()
            return
        # every write comes before the first rename: only a refused rename
        # comes after files that landed, and those are whole
        landed = LANDING[command][: LANDING[command].index(failing)] if fault == "rename" else []
        reference = workspace["ckpt"] if command == "train" else workspace["root"]
        for name in LANDING[command]:
            if name in landed:
                assert (out / name).read_bytes() == (reference / name).read_bytes(), name
            elif previous:
                assert (out / name).read_bytes() == f"previous {name}\n".encode(), name
            else:
                assert not (out / name).exists(), name


class TestConfiguration:
    def test_flags_override_config_file(self, workspace, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"learning_rate": 0.5, "max_epochs": 1}))
        ckpt = tmp_path / "ckpt"
        code = run(["train", "--train-file", workspace["clean"],
                    "--vocab", workspace["vocab"], "--checkpoint-dir", ckpt,
                    "--config", cfg, "--learning-rate", "0.25"] + TINY_FLAGS)
        assert code == 0
        hp = json.loads((ckpt / "model.json").read_text())["hyperparameters"]
        assert hp["learning_rate"] == 0.25
        # --max-epochs 2 came from the shared flag list, overriding the file's 1
        assert hp["max_epochs"] == 2

    def test_config_file_int_for_float_field(self, workspace, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"learning_rate": 1, "clip_norm": 2}))
        ckpt = tmp_path / "ckpt"
        code = run(["train", "--train-file", workspace["clean"],
                    "--vocab", workspace["vocab"], "--checkpoint-dir", ckpt,
                    "--config", cfg] + TINY_FLAGS)
        assert code == 0
        hp = json.loads((ckpt / "model.json").read_text())["hyperparameters"]
        assert hp["learning_rate"] == 1.0 and isinstance(hp["learning_rate"], float)
        assert hp["clip_norm"] == 2.0 and isinstance(hp["clip_norm"], float)

    @pytest.mark.parametrize("command, fixed", [
        ("train", ["--train-file", "--dev-file", "--vocab", "--embeddings-payload",
                   "--checkpoint-dir", "--wall-clock"]),
        ("build-vocab", ["--inputs", "--vocab", "--embedding-out", "--embeddings",
                         "--embeddings-format", "--unlabeled"]),
    ])
    def test_configuration_surface(self, command, fixed):
        """One flag per TrainConfig field plus the command's fixed options;
        a new option has to change this test on purpose."""
        fields = [
            "batch_size", "learning_rate", "beta1", "beta2", "epsilon", "clip_norm",
            "spatial_dropout", "capsule_dropout", "noise_std", "routing_iters",
            "max_epochs", "patience", "seed", "embed_dim", "hidden_dim",
            "num_capsules", "capsule_dim",
        ]
        assert [f.name for f in dataclasses.fields(TrainConfig)] == fields
        subparsers = next(a for a in build_parser()._actions if a.dest == "command")
        options = [o for a in subparsers.choices[command]._actions for o in a.option_strings]
        expected = ["-h", "--help"] + fixed + ["--config", "--profile"]
        expected += ["--" + name.replace("_", "-") for name in fields]
        assert options == expected

    @pytest.mark.parametrize("command, options, optional", [
        ("evaluate", ["--input", "--vocab", "--checkpoint", "--output"], ["--output"]),
        ("predict", ["--input", "--vocab", "--checkpoint", "--output", "--labeled"], ["--labeled"]),
    ])
    def test_model_input_options(self, command, options, optional):
        """evaluate and predict share --input, --vocab and --checkpoint, and
        each lists its options in this order."""
        subparsers = next(a for a in build_parser()._actions if a.dest == "command")
        parser = subparsers.choices[command]
        assert [o for a in parser._actions for o in a.option_strings] == ["-h", "--help"] + options
        required = [a.option_strings[0] for a in parser._actions if a.required]
        assert required == [o for o in options if o not in optional]

    def test_paper_profile_is_the_defaults(self):
        args = build_parser().parse_args(["train", "--train-file", "t", "--vocab", "v",
                                          "--checkpoint-dir", "c", "--profile", "paper"])
        assert cli._resolve_config(args) == TrainConfig()

    def test_desk_profile_sets_dimensions(self, workspace, tmp_path):
        ckpt = tmp_path / "ckpt"
        code = run(["train", "--train-file", workspace["clean"],
                    "--vocab", workspace["vocab"], "--checkpoint-dir", ckpt,
                    "--profile", "desk", "--max-epochs", "1",
                    "--routing-iters", "2", "--spatial-dropout", "0.0",
                    "--capsule-dropout", "0.0", "--noise-std", "0.0"])
        assert code == 0
        hp = json.loads((ckpt / "model.json").read_text())["hyperparameters"]
        assert hp["embed_dim"] == 50
        assert hp["hidden_dim"] == 32
        assert hp["num_capsules"] == 8
        assert hp["capsule_dim"] == 8
        assert hp["batch_size"] == 32

    def test_profile_key_inside_config_file(self, workspace, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"profile": "desk", "max_epochs": 1,
                                   "routing_iters": 2, "spatial_dropout": 0.0,
                                   "capsule_dropout": 0.0, "noise_std": 0.0}))
        ckpt = tmp_path / "ckpt"
        code = run(["train", "--train-file", workspace["clean"],
                    "--vocab", workspace["vocab"], "--checkpoint-dir", ckpt,
                    "--config", cfg])
        assert code == 0
        hp = json.loads((ckpt / "model.json").read_text())["hyperparameters"]
        assert hp["embed_dim"] == 50


class TestEntryPoint:
    def test_entry_raises_system_exit(self, tmp_path, monkeypatch, capsys):
        raw = tmp_path / "raw.txt"
        raw.write_text("hello\n")
        monkeypatch.setattr(sys, "argv", [
            "emocaps", "preprocess", "--input", str(raw),
            "--output", str(tmp_path / "out.txt"), "--unlabeled",
        ])
        with pytest.raises(SystemExit) as err:
            entry()
        assert err.value.code == 0

    @pytest.mark.parametrize("module", ["emocaps", "emocaps.cli"])
    def test_python_dash_m_prints_help(self, module):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        done = subprocess.run(
            [sys.executable, "-m", module, "--help"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        for command in ("preprocess", "build-vocab", "train", "evaluate", "predict"):
            assert command in done.stdout
