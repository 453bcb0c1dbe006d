import dataclasses
import hashlib
import json
import os
import random
import re
import shlex
import shutil
import subprocess
import sys
import warnings
from collections import Counter
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from conftest import DESK, DiskFull, FullOnFlush, fail_rename, make_toy_examples, open_as, write_labeled
from emocaps import cli, training
from emocaps.checkpoint import load_checkpoint, save_checkpoint
from emocaps.cli import build_parser, entry, load_dataset, main
from emocaps.embeddings import Vocabulary, load_word2vec
from emocaps.errors import EmocapsError, replacing, text_lines, whole_text
from emocaps.evaluation import LABELS
from emocaps.textprep import Lexicon
from emocaps.training import TrainConfig
from test_order_task import bag_of_words_labels, macro_f1

TINY_FLAGS = [  # train's width is its payload's: VOCAB_FLAGS' 8
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
VOCAB_FLAGS = ["--embed-dim", "8", "--seed", "0"]  # build-vocab reads only these two settings
# an embedding/W_e table that is not 2-D with columns, as each command reads one
WRONG_RANK = pytest.mark.parametrize("cut", [lambda t: t[:, 0], lambda t: t[..., None], lambda t: t[:, :0]],
                                     ids=["1-d", "3-d", "0-wide"])


def run(argv):
    return main([str(a) for a in argv])


def write_checkpoint_as(stem, tensors, manifest, dtypes):
    """Write `tensors` with `manifest` as a checkpoint pair whose payload
    holds each tensor named in `dtypes` as that dtype and every other as
    float64, with a matching digest, as a save that kept each array's own
    dtype wrote it."""
    dtypes = [np.dtype(dtypes.get(name, "<f8")) for name in tensors]
    payload = b"".join(np.ascontiguousarray(t, dtype).tobytes() for t, dtype in zip(tensors.values(), dtypes))
    digest = hashlib.sha256(payload)
    entries = [{"name": name, "shape": list(t.shape), "dtype": dtype.str}
               for (name, t), dtype in zip(tensors.items(), dtypes)]
    manifest = {**manifest, "tensors": entries, "payload_sha256": digest.hexdigest()}
    Path(f"{stem}.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    Path(f"{stem}.bin").write_bytes(payload + digest.digest())


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

    payload = root / "embed"
    assert run(
        ["build-vocab", "--inputs", clean, "--embedding-out", payload]
        + VOCAB_FLAGS
    ) == 0

    ckpt = root / "run1"
    assert run(
        ["train", "--train-file", clean, "--embeddings-payload", payload, "--checkpoint-dir", ckpt]
        + TINY_FLAGS
    ) == 0
    return {"root": root, "raw": raw, "clean": clean, "payload": payload, "ckpt": ckpt}


def vocabulary_of(stem) -> str:
    """The vocabulary text in the manifest of checkpoint `stem`."""
    return json.loads(Path(f"{stem}.json").read_text(encoding="utf-8"))["vocabulary"]


def vocab_of(stem) -> Vocabulary:
    return cli._load_with_vocabulary(stem)[0]


MISSING = object()


def copy_with_vocabulary(source, stem, vocabulary):
    """Copy checkpoint `source` to `stem` with `vocabulary` as its manifest's
    `vocabulary`, or with none when it is MISSING. The payload digest covers
    the tensors only, so the copy loads as far as its vocabulary."""
    manifest = json.loads(Path(f"{source}.json").read_text(encoding="utf-8"))
    manifest.pop("vocabulary")
    if vocabulary is not MISSING:
        manifest["vocabulary"] = vocabulary
    Path(f"{stem}.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    Path(f"{stem}.bin").write_bytes(Path(f"{source}.bin").read_bytes())


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
            ["evaluate", "--input", workspace["clean"],
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
            ["predict", "--input", workspace["clean"],
             "--checkpoint", workspace["ckpt"] / "model", "--output", preds_path]
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
            ["predict", "--input", bare,
             "--checkpoint", workspace["ckpt"] / "model", "--output", out]
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 2

    def test_predict_keeps_line_separator_inside_a_tweet(self, workspace):
        bare = workspace["root"] / "separator.txt"
        bare.write_text("angersig0\u2028the\njoysig1 to\n", encoding="utf-8")
        out = workspace["root"] / "separator_preds.txt"
        code = run(
            ["predict", "--input", bare,
             "--checkpoint", workspace["ckpt"] / "model", "--output", out]
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 2

    def test_embeddings_payload_feeds_training(self, workspace):
        ckpt = workspace["root"] / "from_payload"
        code = run(
            ["train", "--train-file", workspace["clean"],
             "--embeddings-payload", workspace["payload"], "--checkpoint-dir", ckpt]
            + TINY_FLAGS
        )
        assert code == 0
        manifest = json.loads((ckpt / "model.json").read_text())
        assert manifest["hyperparameters"]["embed_dim"] == 8
        names = [entry["name"] for entry in manifest["tensors"]]
        assert names == ["embedding/W_e", "gru/W_i", "gru/W_h", "gru/b", "capsule/W", "dense/W", "dense/b"]

    def test_payload_dimension_wins_over_flag(self, workspace, tmp_path):
        """train has no --embed-dim: the width is the payload's, as the row
        count is the vocabulary's. The default embed_dim 300 is replaced."""
        ckpt = tmp_path / "run"
        code = run(["train", "--train-file", workspace["clean"],
                    "--embeddings-payload", workspace["payload"], "--checkpoint-dir", ckpt] + TINY_FLAGS)
        assert code == 0
        tensors, manifest = load_checkpoint(ckpt / "model")
        assert manifest["hyperparameters"]["embed_dim"] == 8
        assert tensors["embedding/W_e"].shape[1] == 8 and tensors["gru/W_i"].shape[1] == 8

    def test_payload_dimension_override_is_reported(self, workspace, tmp_path, capsys):
        """The payload's width replacing the default embed_dim is reported
        by the checkpoint alone: predict loads it at width 8, and neither run
        writes to stderr."""
        ckpt, out = tmp_path / "run", tmp_path / "preds.txt"
        capsys.readouterr()
        assert run(["train", "--train-file", workspace["clean"],
                    "--embeddings-payload", workspace["payload"], "--checkpoint-dir", ckpt] + TINY_FLAGS) == 0
        assert run(["predict", "--input", workspace["clean"],
                    "--checkpoint", ckpt / "model", "--output", out]) == 0
        assert capsys.readouterr().err == ""
        assert json.loads((ckpt / "model.json").read_text())["hyperparameters"]["embed_dim"] == 8
        assert len(out.read_text().splitlines()) == 60

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_embedding_payload_is_float64_without_a_needless_copy(self, workspace, tmp_path, monkeypatch, capsys, dtype):
        """train builds its model on the table of a float64 payload as it was
        loaded. A payload of any other dtype is not converted: train exits 3
        before it builds a model or writes a file."""
        stem, out = tmp_path / "embed", tmp_path / "run"
        tensors, manifest = load_checkpoint(workspace["payload"])
        write_checkpoint_as(stem, tensors, manifest, {"embedding/W_e": dtype})
        loaded, tables = [], []

        def spy(path):
            result = load_checkpoint(path)
            loaded.append(result[0]["embedding/W_e"])
            return result

        monkeypatch.setattr(cli, "load_checkpoint", spy)
        monkeypatch.setattr(cli, "init_model", lambda cfg, table: tables.append(table) or training.init_model(cfg, table))
        capsys.readouterr()
        code = run(["train", "--train-file", workspace["clean"],
                    "--embeddings-payload", stem, "--checkpoint-dir", out] + TINY_FLAGS)
        if dtype == "float64":
            assert code == 0 and tables[0].weights is loaded[0]
        else:
            assert code == 3 and tables == [] and not out.exists()
            assert capsys.readouterr().err == f"error: {stem}.json: tensor 'embedding/W_e' has dtype '<f4', not '<f8'\n"

    @pytest.mark.parametrize("fmt, separator", [("binary", b"\n"), ("binary", b""), ("text", b"\n")],
                             ids=["binary-newline", "binary-no-newline", "text"])
    def test_build_vocab_keeps_first_vectors_of_vocabulary_words(self, workspace, tmp_path, capsys, fmt, separator):
        """build-vocab's bytes against an oracle: every vector of the file,
        the first of a repeated word, filtered to the vocabulary, over the
        seeded uniform rows."""
        vocab = vocab_of(workspace["payload"])
        words = vocab.id_to_word[7::2] + [f"zz{i}" for i in range(20)] + [vocab.id_to_word[9], "zz3"]
        vectors = np.random.default_rng(5).normal(size=(len(words), 8)).astype(np.float32)
        path = tmp_path / "vecs"
        with open(path, "wb") as fh:
            fh.write(f"{len(words)} 8\n".encode())
            for word, vec in zip(words, vectors):
                values = vec.astype("<f4").tobytes() if fmt == "binary" else " ".join(map(repr, vec.tolist())).encode()
                fh.write(word.encode() + b" " + values + separator)
        everything = {}
        for word, vec in zip(words, vectors):
            everything.setdefault(word, vec)
        kept = {word: vec for word, vec in everything.items() if word in vocab.word_to_id}
        weights = np.random.default_rng(0).uniform(-0.05, 0.05, size=(len(vocab), 8))
        for word, vec in kept.items():
            weights[vocab.word_to_id[word]] = vec
        weights[0] = 0.0

        capsys.readouterr()
        assert run(["build-vocab", "--inputs", workspace["clean"],
                    "--embedding-out", tmp_path / "emb", "--embeddings", path, "--embeddings-format", fmt]
                   + VOCAB_FLAGS) == 0
        assert capsys.readouterr().out == f"vocabulary: {len(vocab)} words ({len(kept)} pretrained) -> {tmp_path / 'emb.json'}\n"
        assert len(kept) == len(vocab.id_to_word[7::2])
        # the manifests, vocabularies included, differ only by the digest of the weights, which ends the payload
        manifest, plain = (json.loads(Path(f"{stem}.json").read_text()) for stem in (tmp_path / "emb", workspace["payload"]))
        digest = hashlib.sha256(weights.astype("<f8").tobytes())
        assert manifest == {**plain, "payload_sha256": digest.hexdigest()}
        assert (tmp_path / "emb.bin").read_bytes() == weights.astype("<f8").tobytes() + digest.digest()

    def test_checkpoints_hold_the_vocabulary_file_text(self, workspace, tmp_path):
        """build-vocab writes into the payload's manifest the text that
        Vocabulary.save writes to a file, and train copies it into the model's."""
        Vocabulary.build(text.split() for _, text in load_dataset(workspace["clean"])).save(tmp_path / "vocab.tsv")
        for stem in (workspace["payload"], workspace["ckpt"] / "model"):
            assert vocabulary_of(stem) == (tmp_path / "vocab.tsv").read_text(encoding="utf-8")

    def test_readme_migration_carries_a_version_3_pair_over(self, workspace, tmp_path, capsys):
        """README's "Checkpoints" lines, run with no package on the path in a
        directory holding run1/model.{json,bin} and vocab.tsv as version 3
        wrote them (rewritten here from a fresh pair), give the manifest
        bytes of the fresh pair, and evaluate --output its report bytes."""
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        checkpoints = readme[readme.index("\n### Checkpoints\n"):]
        snippet = re.search(r"^```python\n(.*?)^```", checkpoints, re.S | re.M).group(1)
        source, stem = workspace["ckpt"] / "model", tmp_path / "run1" / "model"
        stem.parent.mkdir()
        manifest = json.loads(Path(f"{source}.json").read_text(encoding="utf-8"))
        text = manifest.pop("vocabulary")
        words = [line.split("\t", 1)[1] for line in text.splitlines()]
        manifest.update(version=3, vocab_sha256=hashlib.sha256("\n".join(words).encode("utf-8")).hexdigest())
        Path(f"{stem}.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8")
        Path(f"{stem}.bin").write_bytes(Path(f"{source}.bin").read_bytes())
        (tmp_path / "vocab.tsv").write_text(text, encoding="utf-8")
        capsys.readouterr()
        assert run(["evaluate", "--input", workspace["clean"], "--checkpoint", stem]) == 3
        assert "unsupported manifest version: 3, whose vocabulary is a file of its own" in capsys.readouterr().err

        done = subprocess.run([sys.executable, "-I", "-c", snippet], cwd=tmp_path, capture_output=True, text=True,
                              timeout=60)
        assert done.returncode == 0, done.stderr
        assert Path(f"{stem}.json").read_bytes() == Path(f"{source}.json").read_bytes()
        reports = [tmp_path / "original.json", tmp_path / "carried.json"]
        for checkpoint, report in zip((source, stem), reports):
            assert run(["evaluate", "--input", workspace["clean"], "--checkpoint", checkpoint, "--output", report]) == 0
        assert reports[1].read_bytes() == reports[0].read_bytes()

    def test_repeated_training_is_byte_identical(self, workspace):
        dirs = [workspace["root"] / name for name in ("det_a", "det_b")]
        for d in dirs:
            assert run(
                ["train", "--train-file", workspace["clean"],
                 "--embeddings-payload", workspace["payload"], "--checkpoint-dir", d] + TINY_FLAGS
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

    @pytest.mark.parametrize("lexicon", [False, True], ids=["no-lexicon", "lexicon"])
    def test_output_text_holds_no_tab(self, tmp_path, lexicon):
        """The rule the later commands read a line by: preprocess puts no
        whitespace inside a token, so a labeled output line holds one tab
        and an --unlabeled one none, however many tabs the raw tweets hold.
        A tab inside the TIME, MONEY and PHONE patterns, which match any
        whitespace, ends up inside its tag."""
        rng = random.Random(48)
        pieces = ["It's", "[#TARGETWORD#]", "s**t", "*very*", ":-)", "<3", "@user1", "www.example.com",
                  "http://a.io/x?q=1", "3:30pm", "12/25/2018", "$20", "555-123-4567", "bob.smith+x@mail.org",
                  "OMG!!!", "U.S.A.", "2-0", "...", "happyyy", "#makeitrain", "#Blessed2018", "1,000", "caf\u00e9",
                  "na\u00efve", "\u0915\u093f", "3:30\tpm", "$\t5", "555\t1234"]
        tweets = []
        for _ in range(300):
            tweet = "".join(rng.choice(pieces) + rng.choice([" ", "\t", " \t ", "\t\t"]) for _ in range(rng.randint(1, 8)))
            for _ in range(rng.randint(0, 3)):
                k = rng.randint(0, len(tweet))
                tweet = tweet[:k] + "\t" + tweet[k:]
            tweets.append(tweet)
        labels = [rng.choice(LABELS) for _ in tweets]
        raw_tsv, raw_txt, lex = tmp_path / "raw.tsv", tmp_path / "raw.txt", tmp_path / "lex.tsv"
        raw_tsv.write_text("".join(f"{label.upper()}\t{t}\n" for label, t in zip(labels, tweets)), encoding="utf-8")
        raw_txt.write_text("".join(f"{t}\n" for t in tweets), encoding="utf-8")
        lex.write_text("make\t10\nit\t10\nrain\t10\nhappy\t9\nblessed\t4\nvery\t3\n")
        flags = ["--lexicon", lex] if lexicon else []
        assert run(["preprocess", "--input", raw_tsv, "--output", tmp_path / "clean.tsv", *flags]) == 0
        assert run(["preprocess", "--input", raw_txt, "--output", tmp_path / "clean.txt", "--unlabeled", *flags]) == 0
        labeled = (tmp_path / "clean.tsv").read_text(encoding="utf-8").splitlines()
        plain = (tmp_path / "clean.txt").read_text(encoding="utf-8").splitlines()
        assert [line.count("\t") for line in labeled] == [1] * len(tweets)
        assert [line.partition("\t")[::2] for line in labeled] == list(zip(labels, plain))
        for text in plain:
            assert "\t" not in text and (text == "" or text.split(" ") == text.split()), text
        assert {"<time>", "<money>", "<phone>"} <= {token for text in plain for token in text.split()}


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


def read_edited_vocabulary(command, workspace, tmp_path, edit):
    """`command`, predict or train, reading a copy of the workspace model or
    payload whose vocabulary text holds the lines `edit(lines)` of its own,
    each ended by a newline. Returns (argv, the copy's stem, the output)."""
    source = workspace["payload"] if command == "train" else workspace["ckpt"] / "model"
    stem, out = tmp_path / "edited", tmp_path / "out"
    copy_with_vocabulary(source, stem, "".join(f"{line}\n" for line in edit(vocabulary_of(source).splitlines())))
    return {"predict": ["predict", "--input", workspace["clean"], "--checkpoint", stem, "--output", out],
            "train": ["train", "--train-file", workspace["clean"], "--embeddings-payload", stem,
                      "--checkpoint-dir", out, *TINY_FLAGS]}[command], stem, out


def text_column(src, dst):
    """Write the text of each line of `src`, after its tab when it holds one, to `dst`."""
    dst.write_bytes(b"".join(line.split(b"\t", 1)[-1] for line in src.read_bytes().splitlines(keepends=True)))


class TestTabRule:
    """build-vocab and predict read a line with a tab as label<TAB>text and
    one without as plain text: the text preprocess writes holds no tab."""

    def test_mixed_lines_parse_by_their_tab(self, tmp_path):
        path = tmp_path / "data.tsv"
        path.write_text("JOY\tone two\nthree four\n\nsad\t\n")
        assert load_dataset(path, labeled=None) == [(3, "one two"), (None, "three four"), (None, ""), (4, "")]

    def test_predict_skips_the_label_column(self, workspace, tmp_path):
        """A labeled file gets the predictions of its text column: no gold
        label is read as the tweet's first word."""
        text, outs = tmp_path / "text.txt", [tmp_path / "labeled.txt", tmp_path / "text_preds.txt"]
        text_column(workspace["clean"], text)
        for source, out in zip((workspace["clean"], text), outs):
            assert run(["predict", "--input", source,
                        "--checkpoint", workspace["ckpt"] / "model", "--output", out]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert len(outs[0].read_text().splitlines()) == 60

    def test_build_vocab_reads_the_text_of_labeled_and_plain_files(self, workspace, tmp_path):
        """build-vocab over a labeled and a plain file writes what it writes
        over their text columns: no label name enters the vocabulary."""
        plain, text = tmp_path / "plain.txt", tmp_path / "text.txt"
        plain.write_text("angersig0 fresh words\nanother fresh line\n")
        text_column(workspace["clean"], text)
        for name, inputs in (("mixed", [workspace["clean"], plain]), ("text", [text, plain])):
            assert run(["build-vocab", "--inputs", *inputs,
                        "--embedding-out", tmp_path / name, *VOCAB_FLAGS]) == 0
        for suffix in (".json", ".bin"):
            assert (tmp_path / f"mixed{suffix}").read_bytes() == (tmp_path / f"text{suffix}").read_bytes()
        assert not set(LABELS) & set(vocab_of(tmp_path / "mixed").id_to_word)

    @pytest.mark.parametrize("command", ["build-vocab", "predict"])
    def test_unknown_label_before_a_tab_names_file_and_line(self, workspace, tmp_path, capsys, command):
        data = tmp_path / "data.tsv"
        data.write_text("angersig0 the\nhappy\tangersig0 the\n")
        argv = {"build-vocab": ["build-vocab", "--inputs", data,
                                "--embedding-out", tmp_path / "emb", *VOCAB_FLAGS],
                "predict": ["predict", "--input", data,
                            "--checkpoint", workspace["ckpt"] / "model", "--output", tmp_path / "preds.txt"]}[command]
        capsys.readouterr()
        assert run(argv) == 3
        assert capsys.readouterr().err == f"error: {data}:2: unknown label 'happy'; expected one of {', '.join(LABELS)}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.tsv"]


BOM = b"\xef\xbb\xbf"


@pytest.mark.parametrize("reader", ["labeled", "unlabeled", "vocabulary", "lexicon", "word2vec", "manifest"])
def test_byte_order_mark_is_skipped(tmp_path, reader):
    """Every reader reads a file that starts with a UTF-8 byte-order mark as
    it reads the same file without one."""
    content, read = {
        "labeled": (b"joy\tgood news\nsad\tbad news\n", load_dataset),
        "unlabeled": (b"good news\nbad news\n", lambda path: load_dataset(path, labeled=False)),
        "vocabulary": (b"0\t<pad>\n1\t<unk>\n2\tcat\n", lambda path: Vocabulary.load(path).id_to_word),
        "lexicon": (b"the\t5\ncat\t2\n", lambda path: dict(Lexicon.from_file(path).counts)),
        "word2vec": (b"2 2\ncat 0.5 1\ndog 1 2\n",
                     lambda path: {w: v.tolist() for w, v in load_word2vec(path, "text", {"cat", "dog"}, 2).items()}),
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
    with pytest.raises(EmocapsError, match="^" + re.escape(
            f"{path}:2: not UTF-8 text: can't decode byte 0xe9 at file offset 19 (invalid continuation byte)") + "$"):
        load_dataset(path)


@pytest.mark.parametrize("content", [
    b"a\r\nb\rc\n", "a\u2028b\u2029c\x85d\x0be\x0cf\x1cg\n".encode("utf-8"), BOM + b"a\nb\r\n",
    b"a\n\nb", b"", b"\n", b"\r\r\n\r",
], ids=["crlf-cr", "separators-inside", "byte-order-mark", "no-final-newline", "empty", "newline", "blank-lines"])
def test_whole_text_splits_into_the_lines_of_text_lines(tmp_path, content):
    """The lines of the whole-file reader, split at \\n, are the lines the
    line reader yields; a final newline or an empty file adds one ""."""
    path = tmp_path / "data.txt"
    path.write_bytes(content)
    text = whole_text(path)
    with text_lines(path) as numbered:
        lines = [line for _, line in numbered]
    assert text.split("\n") == lines + [""] * (text == "" or text.endswith("\n"))


def test_whole_text_names_the_line_of_a_byte_that_is_not_utf8(tmp_path):
    path = tmp_path / "data.txt"
    path.write_bytes(b"one\r\ntwo\rcaf\xe9\n")
    with pytest.raises(EmocapsError, match="^" + re.escape(
            f"{path}:3: not UTF-8 text: can't decode byte 0xe9 at file offset 12 (invalid continuation byte)") + "$"):
        whole_text(path)


@pytest.mark.parametrize("mode", ["x", "xb"])
def test_replacing_keeps_an_existing_tmp_file(tmp_path, mode):
    """A file already at `<path>.tmp` is not replacing's to write or remove:
    it keeps its bytes and `path` is not written."""
    path = tmp_path / "out.tsv"
    Path(f"{path}.tmp").write_bytes(b"a user's bytes")
    with pytest.raises(FileExistsError, match=re.escape(f"{path}.tmp")):
        with replacing(path, mode) as handle:
            handle.write(b"new" if "b" in mode else "new")
    assert Path(f"{path}.tmp").read_bytes() == b"a user's bytes"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.tsv.tmp"]
    Path(f"{path}.tmp").unlink()


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
        code = run(["train", "--train-file", empty,
                    "--embeddings-payload", workspace["payload"], "--checkpoint-dir", tmp_path / "ckpt"] + TINY_FLAGS)
        assert code == 3

    def test_vocabulary_checkpoint_mismatch(self, workspace, tmp_path, capsys):
        """A model manifest given the vocabulary of another build-vocab run,
        13 words where the model's table has 24 rows, is refused."""
        data = tmp_path / "two.tsv"
        data.write_text("anger\tone two\njoy\tthree\n")
        assert run(["build-vocab", "--inputs", data, "--embedding-out", tmp_path / "emb"] + VOCAB_FLAGS) == 0
        stem = tmp_path / "model"
        copy_with_vocabulary(workspace["ckpt"] / "model", stem, vocabulary_of(tmp_path / "emb"))
        capsys.readouterr()
        assert run(["evaluate", "--input", data, "--checkpoint", stem]) == 3
        assert "the vocabulary has 13 words, but embedding/W_e" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["predict", "evaluate", "train"])
    @pytest.mark.parametrize("vocabulary", [MISSING, None, ["<pad>", "<unk>"]], ids=["missing", "null", "list"])
    def test_manifest_without_vocabulary_is_refused(self, workspace, tmp_path, capsys, command, vocabulary):
        """A checkpoint is read with the vocabulary its manifest holds as a
        string, and one that holds none has no words to read its rows by."""
        stem = tmp_path / "old"
        source = workspace["payload"] if command == "train" else workspace["ckpt"] / "model"
        copy_with_vocabulary(source, stem, vocabulary)
        out = tmp_path / "out"
        argv = {
            "predict": ["predict", "--input", workspace["clean"], "--output", out, "--checkpoint", stem],
            "evaluate": ["evaluate", "--input", workspace["clean"], "--output", out, "--checkpoint", stem],
            "train": ["train", "--train-file", workspace["clean"], "--checkpoint-dir", out,
                      "--embeddings-payload", stem] + TINY_FLAGS,
        }[command]
        capsys.readouterr()
        assert run(argv) == 3
        assert capsys.readouterr().err == f"error: {stem}.json: manifest has no vocabulary string\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["predict", "evaluate", "train"])
    def test_vocabulary_of_another_size_names_both_files(self, workspace, tmp_path, capsys, command):
        """A manifest whose vocabulary is 4 words short of its table is
        refused by the word count, naming the manifest and the payload."""
        source = workspace["payload"] if command == "train" else workspace["ckpt"] / "model"
        lines = vocabulary_of(source).splitlines(keepends=True)
        stem = tmp_path / "old"
        copy_with_vocabulary(source, stem, "".join(lines[:-4]))
        out = tmp_path / "out"
        argv = {
            "predict": ["predict", "--input", workspace["clean"], "--output", out, "--checkpoint", stem],
            "evaluate": ["evaluate", "--input", workspace["clean"], "--output", out, "--checkpoint", stem],
            "train": ["train", "--train-file", workspace["clean"], "--checkpoint-dir", out,
                      "--embeddings-payload", stem] + TINY_FLAGS,
        }[command]
        capsys.readouterr()
        assert run(argv) == 3
        rows = len(lines)
        assert capsys.readouterr().err == (
            f"error: {stem}.json: the vocabulary has {rows - 4} words, but embedding/W_e in {stem}.bin has {rows} rows\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_vocabulary_line_ends_read_as_a_files_do(self, workspace, tmp_path, end):
        """A payload whose vocabulary lines end in \\r\\n or \\r trains the
        model the original payload trains, byte for byte: the manifest's
        text reads line ends as `errors.whole_text` reads a file's."""
        source, stem = workspace["payload"], tmp_path / "edited"
        copy_with_vocabulary(source, stem, vocabulary_of(source).replace("\n", end))
        assert Path(f"{stem}.bin").read_bytes() == Path(f"{source}.bin").read_bytes()
        for payload, out in ((source, tmp_path / "plain"), (stem, tmp_path / "out")):
            argv = ["train", "--train-file", workspace["clean"], "--embeddings-payload", payload,
                    "--checkpoint-dir", out, *TINY_FLAGS]
            assert run(argv) == 0
        for name in ("model.json", "model.bin", "history.jsonl"):
            assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes(), name

    @pytest.mark.parametrize("reader", ["input", "evaluate-input", "vocab", "lexicon", "manifest", "word2vec"])
    def test_file_that_is_not_utf8_names_file_and_line(self, workspace, tmp_path, capsys, reader):
        """Each file's first byte that is not UTF-8 is on the line given with
        it; the lexicon's lines end in \\r. A manifest's vocabulary is one
        JSON string on one line of the manifest."""
        model, clean = workspace["ckpt"] / "model", workspace["clean"]
        bad, out, raw = tmp_path / "bad", tmp_path / "out", tmp_path / "raw.tsv"
        raw.write_text("joy\tsome text\n")
        manifest = Path(f"{model}.json").read_bytes()
        if reader in ("vocab", "manifest"):
            bad = tmp_path / "model.json"
            (tmp_path / "model.bin").write_bytes(Path(f"{model}.bin").read_bytes())
        key = b'"vocabulary": "0' if reader == "vocab" else b'"seed"'
        content, line, argv = {
            "input": (b"joy\tgood\nsad\tcaf\xe9 x\n", 2, ["preprocess", "--input", bad, "--output", out]),
            "evaluate-input": (b"joy\tgood\nsad\tcaf\xe9 x\n", 2, ["evaluate", "--input", bad,
                                                                "--checkpoint", model, "--output", out]),
            "vocab": (manifest.replace(key, key + b"caf\xe9"), manifest[: manifest.index(key)].count(b"\n") + 1,
                      ["predict", "--input", clean, "--checkpoint", tmp_path / "model", "--output", out]),
            "lexicon": (b"the\t5\rit\t3\rcaf\xe9\t2\r", 3,
                        ["preprocess", "--input", raw, "--lexicon", bad, "--output", out]),
            "manifest": (manifest.replace(key, b'"s\xe9ed"'), manifest[: manifest.index(key)].count(b"\n") + 1,
                         ["predict", "--input", clean,
                          "--checkpoint", tmp_path / "model", "--output", out]),
            "word2vec": (b"1 2\ncaf\xe9 0.1 0.2\n", 2,
                         ["build-vocab", "--inputs", clean, "--embedding-out", tmp_path / "emb",
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
        argv, stem, out = read_edited_vocabulary("predict", workspace, tmp_path, lambda lines: lines[:3] + [bad] + lines[4:])
        capsys.readouterr()
        assert run(argv) == 3
        assert capsys.readouterr().err == f"error: {stem}.json: vocabulary:4: expected id<TAB>word, got {bad!r}\n"
        assert not out.exists()

    def test_repeated_vocabulary_word_names_file_and_line(self, workspace, tmp_path, capsys):
        argv, stem, out = read_edited_vocabulary(
            "train", workspace, tmp_path, lambda lines: lines[:3] + ["3\t" + lines[2].split("\t")[1]] + lines[4:])
        capsys.readouterr()
        assert run(argv) == 3
        assert capsys.readouterr().err == f"error: {stem}.json: vocabulary:4: word '<url>' repeats id 2\n"
        assert not out.exists()

    @pytest.mark.parametrize("reserved", [0, 1], ids=["no-pad", "no-unk"])
    def test_vocabulary_without_pad_or_unk_is_refused(self, workspace, tmp_path, capsys, reserved):
        expected = ["<pad>", "<unk>"][reserved]
        argv, stem, out = read_edited_vocabulary(
            "train", workspace, tmp_path, lambda lines: [*lines[:reserved], f"{reserved}\tcat", *lines[reserved + 1:]])
        capsys.readouterr()
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert err == f"error: {stem}.json: vocabulary:{reserved + 1}: id {reserved} must be {expected!r}, got 'cat'\n"
        assert not out.exists()

    @pytest.mark.parametrize("edit, says", [
        (lambda lines: lines[:3] + [""] + lines[4:], "5: non-contiguous vocabulary id: '4\\t<email>'"),
        (lambda lines: lines[:1], "2: file ends before id 1, '<unk>'"),
        (lambda lines: [], "1: file ends before id 0, '<pad>'"),
    ], ids=["non-contiguous", "ends-before-unk", "empty"])
    @pytest.mark.parametrize("command", ["predict", "train"])
    def test_vocabulary_that_skips_an_id_or_ends_early_is_refused(self, workspace, tmp_path, capsys, command, edit, says):
        """A vocabulary missing id 3 (a blank line in its place is skipped),
        or one that ends before <unk> or holds no line, as a file's would be."""
        argv, stem, out = read_edited_vocabulary(command, workspace, tmp_path, edit)
        capsys.readouterr()
        assert run(argv) == 3
        assert capsys.readouterr().err == f"error: {stem}.json: vocabulary:{says}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_embedding_payload_is_no_model(self, workspace, tmp_path, capsys, command):
        stem = workspace["payload"]
        out = tmp_path / "out"
        capsys.readouterr()
        code = run([command, "--input", workspace["clean"],
                    "--checkpoint", stem, "--output", out])
        assert code == 3
        missing = "gru/W_i, gru/W_h, gru/b, capsule/W, dense/W, dense/b"
        assert f"error: {stem}.json: missing tensors: {missing}\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_per_direction_model_is_refused(self, workspace, tmp_path, capsys, command):
        """A model written with one tensor per GRU direction and weight
        (gru_fwd/W_i ... gru_bwd/b) is not read, and nothing is written."""
        tensors, manifest = load_checkpoint(workspace["ckpt"] / "model")
        split = {}
        for name, t in tensors.items():
            kind, _, weight = name.partition("/")
            split.update({f"gru_fwd/{weight}": t[0], f"gru_bwd/{weight}": t[1]} if kind == "gru" else {name: t})
        stem = tmp_path / "model"
        save_checkpoint(stem, split, manifest["hyperparameters"], manifest["seed"], manifest["vocabulary"])
        out = tmp_path / "out"
        capsys.readouterr()
        code = run([command, "--input", workspace["clean"],
                    "--checkpoint", stem, "--output", out])
        assert code == 3
        assert capsys.readouterr().err == f"error: {stem}.json: missing tensors: gru/W_i, gru/W_h, gru/b\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_manifest_without_hyperparameters_is_refused(self, workspace, tmp_path, capsys, command):
        """Every model manifest holds all of its hyperparameters; one without
        them, or without one of them, would take a default (route with the
        default iterations), so it is not read."""
        stem = tmp_path / "model"
        original = json.loads((workspace["ckpt"] / "model.json").read_text())
        all_keys = ", ".join(dataclasses.asdict(TrainConfig()))
        for edit, says in [
            (lambda hp: None, "manifest has no hyperparameters object"),
            (lambda hp: {}, f"hyperparameters have missing keys {all_keys}"),
            (lambda hp: {k: v for k, v in hp.items() if k != "routing_iters"}, "hyperparameters have missing keys routing_iters"),
        ]:
            manifest = {k: v for k, v in original.items() if k != "hyperparameters"}
            if (hp := edit(original["hyperparameters"])) is not None:
                manifest["hyperparameters"] = hp
            Path(f"{stem}.json").write_text(json.dumps(manifest))
            Path(f"{stem}.bin").write_bytes((workspace["ckpt"] / "model.bin").read_bytes())
            out = tmp_path / "out"
            capsys.readouterr()
            code = run([command, "--input", workspace["clean"],
                        "--checkpoint", stem, "--output", out])
            assert code == 3
            assert capsys.readouterr().err == f"error: {stem}.json: {says}\n"
            assert not out.exists()

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_manifest_with_retired_options_is_refused(self, workspace, tmp_path, capsys, command):
        """Checkpoints written before the clip mode, the second noise site,
        the dense-bias switch and Adam's beta1, beta2 and epsilon were retired
        hold those keys; only a version-2 pair ever did, and it is refused
        before its keys are read. A manifest with those keys is not one that
        train writes, so it is not read either."""
        stem = tmp_path / "old"
        manifest = json.loads((workspace["ckpt"] / "model.json").read_text())
        manifest["hyperparameters"].update(
            {"clip_mode": "value", "second_noise_site": "logits", "dense_bias": False,
             "beta1": 0.5, "beta2": 0.5, "epsilon": 1.0}
        )
        Path(f"{stem}.json").write_text(json.dumps(manifest))
        Path(f"{stem}.bin").write_bytes((workspace["ckpt"] / "model.bin").read_bytes())
        out = tmp_path / "out"
        capsys.readouterr()
        code = run([command, "--input", workspace["clean"],
                    "--checkpoint", stem, "--output", out])
        assert code == 3
        unknown = "beta1, beta2, clip_mode, dense_bias, epsilon, second_noise_site"
        assert capsys.readouterr().err == f"error: {stem}.json: hyperparameters have unknown keys {unknown}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    @pytest.mark.parametrize("dtype", ["float32", "float16", ">f8"])
    def test_model_of_another_dtype_is_refused(self, workspace, tmp_path, capsys, command, dtype):
        """A model re-saved in a dtype other than little-endian float64 would
        run the forward pass in that precision (float16 changes predictions),
        or read byte-swapped values; it is refused before any output."""
        tensors, manifest = load_checkpoint(workspace["ckpt"] / "model")
        stem = tmp_path / "model"
        write_checkpoint_as(stem, tensors, manifest, dict.fromkeys(tensors, dtype))
        out = tmp_path / "out"
        capsys.readouterr()
        code = run([command, "--input", workspace["clean"],
                    "--checkpoint", stem, "--output", out])
        assert code == 3
        says = f"tensor 'embedding/W_e' has dtype {np.dtype(dtype).str!r}, not '<f8'"
        assert capsys.readouterr().err == f"error: {stem}.json: {says}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["predict", "evaluate", "train"])
    def test_version_2_pair_is_refused(self, workspace, tmp_path, capsys, command):
        """A version-2 pair (no digest in the manifest, none after the last
        tensor) cannot be told from a pair of two saves; every command that
        reads a checkpoint refuses it, naming the manifest."""
        source = workspace["payload"] if command == "train" else workspace["ckpt"] / "model"
        manifest = json.loads(Path(f"{source}.json").read_text())
        manifest["version"] = 2
        del manifest["payload_sha256"]
        stem = tmp_path / "old"
        Path(f"{stem}.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
        Path(f"{stem}.bin").write_bytes(Path(f"{source}.bin").read_bytes()[:-32])
        out = tmp_path / "out"
        argv = {
            "train": ["train", "--train-file", workspace["clean"],
                      "--embeddings-payload", stem, "--checkpoint-dir", out, *TINY_FLAGS],
            "predict": ["predict", "--input", workspace["clean"],
                        "--checkpoint", stem, "--output", out],
            "evaluate": ["evaluate", "--input", workspace["clean"],
                         "--checkpoint", stem, "--output", out],
        }[command]
        capsys.readouterr()
        assert run(argv) == 3
        assert capsys.readouterr().err == f"error: {stem}.json: unsupported manifest version: 2\n"
        assert not out.exists()

    @pytest.mark.parametrize("name, cut", [
        ("embedding/W_e", lambda t: t[..., None]),  # a source of the wrong rank fails its own check
        ("gru/W_i", lambda t: t[:-1]),
        ("gru/W_h", lambda t: t[..., None]),  # h's source
        ("gru/b", lambda t: t[:, :-1]),
        ("capsule/W", lambda t: t[:, :-1]),
        ("dense/W", lambda t: t[:-1]),
        ("dense/b", lambda t: t[:-1]),
    ])
    def test_tensor_of_the_wrong_shape_names_file_and_tensor(self, workspace, tmp_path, capsys, name, cut):
        tensors, manifest = load_checkpoint(workspace["ckpt"] / "model")
        expected = tensors[name].shape
        tensors[name] = cut(tensors[name])
        stem = tmp_path / "model"
        save_checkpoint(stem, tensors, manifest["hyperparameters"], manifest["seed"], manifest["vocabulary"])
        out = tmp_path / "preds.txt"
        capsys.readouterr()
        code = run(["predict", "--input", workspace["clean"],
                    "--checkpoint", stem, "--output", out])
        assert code == 3
        expected = "(rows, dim)" if name == "embedding/W_e" else expected
        err = capsys.readouterr().err
        assert err == f"error: {stem}.json: tensor {name} has shape {tensors[name].shape}, expected {expected}\n"
        assert not out.exists()

    @WRONG_RANK
    def test_embedding_payload_of_the_wrong_rank_is_refused(self, workspace, tmp_path, capsys, cut):
        tensors, manifest = load_checkpoint(workspace["payload"])
        W = cut(tensors["embedding/W_e"])
        stem = tmp_path / "emb"
        save_checkpoint(stem, {"embedding/W_e": W}, manifest["hyperparameters"], manifest["seed"], manifest["vocabulary"])
        out = tmp_path / "run"
        capsys.readouterr()
        code = run(["train", "--train-file", workspace["clean"],
                    "--embeddings-payload", stem, "--checkpoint-dir", out] + TINY_FLAGS)
        assert code == 3
        err = capsys.readouterr().err
        assert err == f"error: {stem}.json: tensor embedding/W_e has shape {W.shape}, expected (rows, dim)\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_nan_weight_is_a_numeric_failure(self, workspace, tmp_path, capsys, command):
        """A NaN weight loads (the payload is not hashed again) and makes
        every probability NaN: the command names a sequence, exits 4 and
        writes nothing, where argmax would have read class 0."""
        tensors, manifest = load_checkpoint(workspace["ckpt"] / "model")
        tensors["gru/W_h"][0, 0, 0] = np.nan
        stem = tmp_path / "model"
        save_checkpoint(stem, tensors, manifest["hyperparameters"], manifest["seed"], manifest["vocabulary"])
        out = tmp_path / "out"
        capsys.readouterr()
        code = run([command, "--input", workspace["clean"], "--checkpoint", stem,
                    "--output", out])
        assert code == 4
        captured = capsys.readouterr()
        assert re.fullmatch(r"numeric failure: sequence \d+: class probabilities are not finite\n", captured.err)
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.bin", "model.json"]

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    @WRONG_RANK
    def test_model_embedding_of_the_wrong_rank_is_refused(self, workspace, tmp_path, capsys, cut, command):
        """predict and evaluate hold a checkpoint's table to the rule train
        holds a payload to, and say so before the row count or another
        tensor's shape."""
        tensors, manifest = load_checkpoint(workspace["ckpt"] / "model")
        W = tensors["embedding/W_e"] = cut(tensors["embedding/W_e"])
        stem = tmp_path / "model"
        save_checkpoint(stem, tensors, manifest["hyperparameters"], manifest["seed"], manifest["vocabulary"])
        out = tmp_path / "out"
        capsys.readouterr()
        code = run([command, "--input", workspace["clean"], "--checkpoint", stem,
                    "--output", out])
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
            "build-vocab": ["build-vocab", "--inputs", data, "--embedding-out", tmp_path / "emb",
                            *VOCAB_FLAGS],
            "train": ["train", "--train-file", data,
                      "--embeddings-payload", workspace["payload"], "--checkpoint-dir", out, *TINY_FLAGS],
            "evaluate": ["evaluate", "--input", data,
                         "--checkpoint", workspace["ckpt"] / "model", "--output", out],
        }[command]
        capsys.readouterr()
        assert run(argv) == 3
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
        code = run(["train", "--train-file", workspace["clean"],
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
            "train": ["train", "--train-file", data, "--embeddings-payload", workspace["payload"],
                      "--checkpoint-dir", out] + TINY_FLAGS,
        }[command]
        if command != "train":
            argv += ["--checkpoint", workspace["ckpt"] / "model"]
        capsys.readouterr()
        assert run(argv) == 3
        assert f"{data}:2:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["predict", "evaluate", "train"])
    def test_bad_checkpoint_is_reported_before_bad_input(self, workspace, tmp_path, capsys, command):
        """Given a truncated checkpoint and an input whose second line has no
        tokens, each command names the checkpoint: its vocabulary encodes the
        input, so it is read first. train read its train file first before
        its vocabulary moved into the payload."""
        source = workspace["payload"] if command == "train" else workspace["ckpt"] / "model"
        stem, data, out = tmp_path / "cut", tmp_path / "data.tsv", tmp_path / "out"
        Path(f"{stem}.json").write_bytes(Path(f"{source}.json").read_bytes())
        Path(f"{stem}.bin").write_bytes(Path(f"{source}.bin").read_bytes()[:-40])
        data.write_text("anger\tangersig0 the\njoy\t\n")
        argv = {
            "predict": ["predict", "--input", data, "--checkpoint", stem, "--output", out],
            "evaluate": ["evaluate", "--input", data, "--checkpoint", stem, "--output", out],
            "train": ["train", "--train-file", data, "--embeddings-payload", stem, "--checkpoint-dir", out, *TINY_FLAGS],
        }[command]
        capsys.readouterr()
        assert run(argv) == 3
        assert capsys.readouterr().err.startswith(f"error: {stem}.bin: payload ends inside tensor ")
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

    @pytest.mark.parametrize("id_cell, count_cell", [("0_2", "1_000"), ("\u0662", "\u0663"), ("+2", " 7"), ("\uff12", "7 ")],
                             ids=["underscore", "arabic-indic", "sign-or-space", "fullwidth-or-space"])
    def test_id_or_count_that_is_not_ascii_digits_names_file_and_line(self, workspace, tmp_path, capsys, id_cell, count_cell):
        """An id or a count is an optional '-' and ASCII digits: a cell that
        int() reads otherwise, here the third vocabulary line's id 2, exits 3."""
        argv, stem, ckpt = read_edited_vocabulary(
            "train", workspace, tmp_path, lambda lines: lines[:2] + [id_cell + "\t" + lines[2].split("\t", 1)[1]] + lines[3:])
        capsys.readouterr()
        assert run(argv) == 3
        assert f"error: {stem}.json: vocabulary:3: expected id<TAB>word" in capsys.readouterr().err
        assert not ckpt.exists()

        lexicon = tmp_path / "lex.tsv"
        lexicon.write_text(f"the\t5\ncat\t{count_cell}\n", encoding="utf-8")
        raw = tmp_path / "raw.tsv"
        raw.write_text("joy\tsome text\n")
        out = tmp_path / "clean.tsv"
        assert run(["preprocess", "--input", raw, "--output", out, "--lexicon", lexicon]) == 3
        assert f"error: {lexicon}:2: expected 'word<TAB>count'" in capsys.readouterr().err
        assert not out.exists()

    def test_non_numeric_word2vec_value_names_file_and_line(self, workspace, tmp_path, capsys):
        vectors = tmp_path / "vec.txt"
        vectors.write_text("1 2\nhello 0.1 abc\n")
        capsys.readouterr()
        code = run(["build-vocab", "--inputs", workspace["clean"],
                    "--embedding-out", tmp_path / "emb", "--embeddings", vectors,
                    "--embeddings-format", "text", "--embed-dim", "2"])
        assert code == 3
        assert f"error: {vectors}:2: entry 'hello' has a non-numeric value 'abc'" in capsys.readouterr().err
        assert not (tmp_path / "emb.bin").exists()

    def test_binary_word2vec_word_not_utf8_names_file_and_entry(self, workspace, tmp_path, capsys):
        vectors = tmp_path / "vec.bin"
        vectors.write_bytes(b"2 1\nhappy " + bytes(4) + b"\ncaf\xe9 " + bytes(4))
        capsys.readouterr()
        code = run(["build-vocab", "--inputs", workspace["clean"],
                    "--embedding-out", tmp_path / "emb", "--embeddings", vectors,
                    "--embeddings-format", "binary", "--embed-dim", "1"])
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: {vectors}: entry 2 of 2: word b'caf\\xe9' is not UTF-8 (unexpected end of data)\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["vec.bin"]

    @pytest.mark.parametrize("vectors_text, embed_dim, message", [
        ("1 3\nhappy 0.1 0.2\n", "3", ":2: entry 'happy' has 2 values, expected 3"),
        ("1 2\nhappy 0.1 0.2\n", "3", ":1: vectors are 2-dimensional, expected 3"),
        # a NaN would pass build-vocab and stop train at its first gradient, naming no file
        ("2 2\nhappy 0.1 0.2\nzzz 0.3 nan\n", "2", ":3: entry 'zzz' has a non-finite value 'nan'"),
        ("0_2 \u0663\nhappy 0.1 0.2 0.3\nsad 1 2 3\n", "3", ":1: non-integer header fields: '0_2 \u0663'"),
        ("2 2\nhappy 0.1 0.2\nsad 1 2\nzzz 3 3\n", "2", ":4: a line follows the header's 2 entries"),
    ], ids=["value-count", "embed-dim", "nan", "header-cells", "extra-entry"])
    def test_bad_word2vec_writes_nothing(self, workspace, tmp_path, capsys, vectors_text, embed_dim, message):
        vectors = tmp_path / "v.txt"
        vectors.write_text(vectors_text)
        capsys.readouterr()
        code = run(["build-vocab", "--inputs", workspace["clean"],
                    "--embedding-out", tmp_path / "emb", "--embeddings", vectors,
                    "--embeddings-format", "text", "--embed-dim", embed_dim])
        assert code == 3
        assert capsys.readouterr().err == f"error: {vectors}{message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["v.txt"]

    def test_binary_word2vec_of_another_width_names_file(self, workspace, tmp_path, capsys):
        vectors = tmp_path / "v.bin"
        vectors.write_bytes(b"1 2\nhappy " + np.asarray([0.1, 0.2], "<f4").tobytes())
        capsys.readouterr()
        code = run(["build-vocab", "--inputs", workspace["clean"],
                    "--embedding-out", tmp_path / "emb", "--embeddings", vectors,
                    "--embeddings-format", "binary", "--embed-dim", "3"])
        assert code == 3
        assert capsys.readouterr().err == f"error: {vectors}:1: vectors are 2-dimensional, expected 3\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["v.bin"]

    # Each command gets an output path that resolves to one of its own
    # inputs, a copy in tmp_path. build-vocab's payload manifest would
    # replace the labeled tweets. In train-payload a file of the checkpoint
    # directory is also one of the payload's.
    @pytest.mark.parametrize("command", ["preprocess", "build-vocab", "train", "train-payload", "evaluate", "predict"])
    def test_output_over_an_input_is_bad_argument(self, workspace, tmp_path, capsys, command):
        ckpt = workspace["ckpt"] / "model"
        pair = workspace["payload"] if command == "train-payload" else ckpt  # predict's checkpoint, train's payload
        name, source = {"preprocess": ("raw.tsv", workspace["raw"]), "train": ("history.jsonl", workspace["clean"]),
                        "build-vocab": ("e.json", workspace["clean"]),
                        "train-payload": ("model.json", f"{pair}.json"),
                        "predict": ("model.json", f"{ckpt}.json")}.get(command, ("t.tsv", workspace["clean"]))
        victim, model = tmp_path / name, ["--checkpoint", ckpt]
        victim.write_bytes(Path(source).read_bytes())
        (tmp_path / "model.bin").write_bytes(Path(f"{pair}.bin").read_bytes())  # the other file of the copied pair
        argv, says = {
            "preprocess": (["preprocess", "--input", victim, "--output", f"{tmp_path}/./{name}"],
                           f"--output {tmp_path}/./{name} is also --input {victim}"),
            "build-vocab": (["build-vocab", "--inputs", victim,
                             "--embedding-out", tmp_path / "e", *VOCAB_FLAGS],
                            f"--inputs {victim} is a file of --embedding-out {tmp_path / 'e'}"),
            "train": (["train", "--train-file", victim, "--embeddings-payload",
                       workspace["payload"], "--checkpoint-dir", tmp_path, *TINY_FLAGS],
                      f"--train-file {victim} is a file of --checkpoint-dir {tmp_path}"),
            "train-payload": (["train", "--train-file", workspace["clean"],
                               "--embeddings-payload", tmp_path / "model", "--checkpoint-dir", tmp_path, *TINY_FLAGS],
                              f"{victim} is a file of --checkpoint-dir {tmp_path} and of --embeddings-payload {tmp_path / 'model'}"),
            "evaluate": (["evaluate", "--input", victim, *model, "--output", victim],
                         f"--output {victim} is also --input {victim}"),
            "predict": (["predict", "--input", workspace["clean"],
                         "--checkpoint", tmp_path / "model", "--output", victim],
                        f"--output {victim} is a file of --checkpoint {tmp_path / 'model'}"),
        }[command]
        before = sorted(p.name for p in tmp_path.iterdir())
        capsys.readouterr()
        assert run(argv) == 2
        assert capsys.readouterr().err == f"bad arguments: {says}\n"
        assert victim.read_bytes() == Path(source).read_bytes()
        assert (tmp_path / "model.bin").read_bytes() == Path(f"{pair}.bin").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == before  # nothing written, no .tmp file left

    # Each output is written through its `.tmp` file, so an input of that
    # name would be overwritten and then renamed away. Every other input is
    # missing: a run that read anything would exit 3.
    @pytest.mark.parametrize("command, name, output", [
        ("preprocess", "out.tsv.tmp", ["--output", "out.tsv"]),
        ("build-vocab", "emb.json.tmp", ["--embedding-out", "emb"]),
        ("build-vocab", "emb.bin.tmp", ["--embedding-out", "emb"]),
        ("train", "run/model.json.tmp", ["--checkpoint-dir", "run"]),
        ("train", "run/model.bin.tmp", ["--checkpoint-dir", "run"]),
        ("train", "run/history.jsonl.tmp", ["--checkpoint-dir", "run"]),
        ("evaluate", "report.json.tmp", ["--output", "report.json"]),
        ("predict", "preds.txt.tmp", ["--output", "preds.txt"]),
    ], ids=["preprocess", "payload-json", "payload-bin", "model-json", "model-bin", "history", "evaluate",
            "predict"])
    def test_input_named_as_an_outputs_tmp_file_is_bad_argument(self, workspace, tmp_path, capsys, command, name, output):
        victim, missing = tmp_path / name, tmp_path / "missing"
        victim.parent.mkdir(exist_ok=True)
        victim.write_bytes(workspace["clean"].read_bytes())
        flag, value = output[0], tmp_path / output[1]
        input_flag = {"preprocess": "--input", "build-vocab": "--inputs", "train": "--train-file"}.get(command, "--input")
        rest = {"preprocess": ["--lexicon", missing],
                "build-vocab": ["--embedding-out", tmp_path / "e"],
                "train": ["--embeddings-payload", missing],
                }.get(command, ["--checkpoint", missing])
        argv = [command, input_flag, victim, *rest, flag, value]
        before = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*"))
        capsys.readouterr()
        assert run(argv) == 2
        assert capsys.readouterr().err == f"bad arguments: {input_flag} {victim} is a file of {flag} {value}\n"
        assert victim.read_bytes() == workspace["clean"].read_bytes()
        assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == before
        victim.unlink()

    # A file at an output's `.tmp` path that no option names is refused
    # before anything is read: errors.replacing would not write over it.
    @pytest.mark.parametrize("command, name", [("preprocess", "out.tsv.tmp"), ("train", "run/model.bin.tmp")],
                             ids=["preprocess", "train"])
    def test_stale_tmp_file_of_an_output_is_bad_argument(self, workspace, tmp_path, capsys, command, name):
        stale = tmp_path / name
        stale.parent.mkdir(exist_ok=True)
        stale.write_bytes(b"a user's bytes")
        argv, output = {
            "preprocess": (["preprocess", "--input", workspace["raw"], "--output", tmp_path / "out.tsv"],
                           f"--output {tmp_path / 'out.tsv'}"),
            "train": (["train", "--train-file", workspace["clean"], "--embeddings-payload",
                       workspace["payload"], "--checkpoint-dir", tmp_path / "run", *TINY_FLAGS],
                      f"--checkpoint-dir {tmp_path / 'run'}"),
        }[command]
        before = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*"))
        capsys.readouterr()
        assert run(argv) == 2
        assert capsys.readouterr().err == f"bad arguments: {stale} exists and {output} is written through it: remove it first\n"
        assert stale.read_bytes() == b"a user's bytes"
        assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == before
        stale.unlink()

    # Sizes numpy can address but no machine can allocate (PiB): the test allocates nothing.
    @pytest.mark.parametrize("command", ["build-vocab", "train"])
    def test_setting_too_large_to_allocate_is_one_error_line(self, workspace, tmp_path, capsys, command):
        argv = {
            "build-vocab": ["build-vocab", "--inputs", workspace["clean"],
                            "--embedding-out", tmp_path / "emb", "--embed-dim", "10000000000000"],
            "train": ["train", "--train-file", workspace["clean"], "--embeddings-payload",
                      workspace["payload"], "--checkpoint-dir", tmp_path / "run", "--num-capsules", "10000000000000"],
        }[command]
        capsys.readouterr()
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate ") and " PiB " in err and err.count("\n") == 1, err
        assert list(tmp_path.iterdir()) == []

    def test_manifest_not_an_object(self, workspace, tmp_path, capsys):
        stem = tmp_path / "bad"
        Path(f"{stem}.json").write_text("[]")
        Path(f"{stem}.bin").write_bytes(b"")
        capsys.readouterr()
        code = run(["predict", "--input", workspace["clean"], "--checkpoint", stem, "--output", tmp_path / "preds.txt"])
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
        lambda m: m["tensors"][3].update(name={"x": 1}),
        lambda m: m["tensors"][3].update(name=["a"]),
        lambda m: m["tensors"][3].update(name=5),
        lambda m: m["tensors"][3].update(name=None),
    ], ids=["empty", "no-dtype", "no-name", "null-shape", "unknown-dtype", "hp-list", "hp-type",
            "dict-name", "list-name", "int-name", "null-name"])
    def test_malformed_manifest_names_checkpoint(self, workspace, tmp_path, capsys, mangle):
        stem = tmp_path / "bad"
        manifest = json.loads((workspace["ckpt"] / "model.json").read_text())
        mangle(manifest)
        Path(f"{stem}.json").write_text(json.dumps(manifest))
        Path(f"{stem}.bin").write_bytes((workspace["ckpt"] / "model.bin").read_bytes())
        out = tmp_path / "preds.txt"
        capsys.readouterr()
        code = run(["predict", "--input", workspace["clean"], "--checkpoint", stem, "--output", out])
        assert code == 3
        assert f"error: {stem}.json: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["routing_iters", "version"], ids=["nested", "top-level"])
    def test_repeated_manifest_key_names_manifest_and_key(self, workspace, tmp_path, capsys, key):
        """JSON would keep the last value: a routing_iters of 0 would never
        be checked."""
        stem = tmp_path / "model"
        text = (workspace["ckpt"] / "model.json").read_text()
        assert text.count(f'"{key}": ') == 1
        Path(f"{stem}.json").write_text(text.replace(f'"{key}": ', f'"{key}": 0, "{key}": '))
        Path(f"{stem}.bin").write_bytes((workspace["ckpt"] / "model.bin").read_bytes())
        out = tmp_path / "preds.txt"
        capsys.readouterr()
        code = run(["predict", "--input", workspace["clean"],
                    "--checkpoint", stem, "--output", out])
        assert code == 3
        assert capsys.readouterr().err == f"error: {stem}.json: repeated manifest key {key!r}\n"
        assert not out.exists()

    def test_tensor_listed_twice_names_manifest(self, workspace, tmp_path, capsys):
        """A second dense/b entry, its bytes appended to the payload, would
        silently replace the trained bias."""
        stem = tmp_path / "model"
        manifest = json.loads((workspace["ckpt"] / "model.json").read_text())
        manifest["tensors"].append(manifest["tensors"][-1])
        Path(f"{stem}.json").write_text(json.dumps(manifest))
        Path(f"{stem}.bin").write_bytes((workspace["ckpt"] / "model.bin").read_bytes() + bytes(6 * 8))
        out = tmp_path / "preds.txt"
        capsys.readouterr()
        code = run(["predict", "--input", workspace["clean"],
                    "--checkpoint", stem, "--output", out])
        assert code == 3
        assert capsys.readouterr().err == f"error: {stem}.json: tensor 'dense/b' is listed twice\n"
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
        code = run([command, "--input", workspace["clean"],
                    "--checkpoint", stem, "--output", out])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {stem}.json: ") and "routing_iters" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    @pytest.mark.parametrize("edits, says", [
        ({"hidden_dim": 999, "num_capsules": 3, "capsule_dim": 77, "embed_dim": 12}, "hidden_dim 999, tensors say 4"),
        ({"num_capsules": 3}, "num_capsules 3, tensors say 2"),
        ({"capsule_dim": 77}, "capsule_dim 77, tensors say 2"),
        ({"embed_dim": 12}, "embed_dim 12, tensors say 8"),
    ])
    def test_hyperparameters_contradicting_tensors_are_refused(self, workspace, tmp_path, capsys, command, edits, says):
        stem = tmp_path / "model"
        manifest = json.loads((workspace["ckpt"] / "model.json").read_text())
        manifest["hyperparameters"].update(edits)
        Path(f"{stem}.json").write_text(json.dumps(manifest))
        Path(f"{stem}.bin").write_bytes((workspace["ckpt"] / "model.bin").read_bytes())
        out = tmp_path / "out"
        capsys.readouterr()
        code = run([command, "--input", workspace["clean"],
                    "--checkpoint", stem, "--output", out])
        assert code == 3
        assert capsys.readouterr().err == f"error: {stem}.json: hyperparameters say {says}\n"
        assert not out.exists()

    @pytest.mark.parametrize("name, dtype", [("dense/b", "<U1"), ("dense/W", "<i8"), ("capsule/W", "|b1")])
    def test_non_floating_model_tensor_is_refused(self, workspace, tmp_path, capsys, name, dtype):
        tensors, manifest = load_checkpoint(workspace["ckpt"] / "model")
        stem = tmp_path / "model"
        write_checkpoint_as(stem, tensors, manifest, {name: dtype})
        out = tmp_path / "preds.txt"
        capsys.readouterr()
        code = run(["predict", "--input", workspace["clean"],
                    "--checkpoint", stem, "--output", out])
        assert code == 3
        assert capsys.readouterr().err == f"error: {stem}.json: tensor {name!r} has dtype {dtype!r}, not '<f8'\n"
        assert not out.exists()

    def test_non_floating_embedding_payload_is_refused(self, workspace, tmp_path, capsys):
        tensors, manifest = load_checkpoint(workspace["payload"])
        stem = tmp_path / "emb"
        write_checkpoint_as(stem, {"embedding/W_e": np.full(tensors["embedding/W_e"].shape, "x")}, manifest,
                            {"embedding/W_e": "<U1"})
        out = tmp_path / "run"
        capsys.readouterr()
        code = run(["train", "--train-file", workspace["clean"],
                    "--embeddings-payload", stem, "--checkpoint-dir", out] + TINY_FLAGS)
        assert code == 3
        assert capsys.readouterr().err == f"error: {stem}.json: tensor 'embedding/W_e' has dtype '<U1', not '<f8'\n"
        assert not out.exists()

    def test_unwritable_checkpoint_dir_fails_before_the_first_step(self, workspace, capsys, monkeypatch):
        steps = []
        monkeypatch.setattr(training, "adam_step", lambda *a: steps.append(a))
        out = workspace["clean"] / "run"  # under a file: mkdir fails
        capsys.readouterr()
        code = run(["train", "--train-file", workspace["clean"],
                    "--embeddings-payload", workspace["payload"], "--checkpoint-dir", out] + TINY_FLAGS)
        assert code == 3
        assert "Not a directory" in capsys.readouterr().err
        assert steps == []

    @pytest.mark.parametrize("existing", [False, True], ids=["made-by-train", "users-own"])
    def test_failed_training_removes_only_the_directories_it_made(self, workspace, tmp_path, capsys, existing):
        if existing:
            (tmp_path / "runs").mkdir()
        out = tmp_path / "runs" / "nanrun"
        capsys.readouterr()
        code = run(["train", "--train-file", workspace["clean"],
                    "--embeddings-payload", workspace["payload"], "--checkpoint-dir", out,
                    "--learning-rate", "1e200", "--clip-norm", "1e300"] + TINY_FLAGS)
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
        code = run(["train", "--train-file", workspace["clean"],
                    "--embeddings-payload", workspace["payload"], "--checkpoint-dir", out] + TINY_FLAGS)
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
             "--embeddings-payload", str(workspace["payload"]),
             "--checkpoint-dir", str(out),
             "--learning-rate", "1e200", "--clip-norm", "1e300", *TINY_FLAGS],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 4
        assert "RuntimeWarning" not in done.stderr
        assert done.stderr.startswith("numeric failure: epoch 0, batch ")
        assert done.stderr.count("\n") == 1, done.stderr
        assert not out.exists()

    def test_unwritable_payload_leaves_no_vocabulary(self, workspace, capsys):
        """The vocabulary is written inside the payload's manifest alone, so
        a payload that cannot be written leaves none."""
        capsys.readouterr()
        code = run(["build-vocab", "--inputs", workspace["clean"],
                    "--embedding-out", Path(workspace["clean"]) / "emb", *DESK["build-vocab"]])
        assert code == 3
        assert "Not a directory" in capsys.readouterr().err

    def test_shape_beyond_int64_names_payload(self, workspace, tmp_path, capsys):
        stem = tmp_path / "huge"
        manifest = json.loads((workspace["ckpt"] / "model.json").read_text())
        manifest["tensors"][0]["shape"] = [2**32, 2**32]
        Path(f"{stem}.json").write_text(json.dumps(manifest))
        Path(f"{stem}.bin").write_bytes((workspace["ckpt"] / "model.bin").read_bytes())
        out = tmp_path / "preds.txt"
        capsys.readouterr()
        code = run(["predict", "--input", workspace["clean"], "--checkpoint", stem, "--output", out])
        assert code == 3
        assert f"error: {stem}.bin: payload ends inside tensor 'embedding/W_e'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("shape", [[0, 10**30], [0, 2**62]], ids=["dimension", "bytes"])
    def test_empty_tensor_numpy_cannot_hold_names_manifest(self, workspace, tmp_path, capsys, shape):
        """A tensor of no elements passes the payload-size check, but numpy
        makes no array of a dimension beyond an intp, nor of dimensions whose
        bytes an intp cannot count, even an empty one."""
        stem = tmp_path / "huge"
        manifest = json.loads((workspace["ckpt"] / "model.json").read_text())
        manifest["tensors"].append({"name": "extra", "shape": shape, "dtype": "<f8"})
        Path(f"{stem}.json").write_text(json.dumps(manifest))
        Path(f"{stem}.bin").write_bytes((workspace["ckpt"] / "model.bin").read_bytes())
        capsys.readouterr()
        code = run(["predict", "--input", workspace["clean"], "--checkpoint", stem, "--output", tmp_path / "preds.txt"])
        assert code == 3
        assert capsys.readouterr().err == f"error: {stem}.json: tensor 'extra' has bad shape {shape!r}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["huge.bin", "huge.json"]

    def test_blank_dev_line_rejected_before_training(self, workspace, tmp_path, capsys):
        dev = tmp_path / "dev.tsv"
        dev.write_text("anger\tangersig0\n\n")
        code = run(["train", "--train-file", workspace["clean"], "--dev-file", dev,
                    "--embeddings-payload", workspace["payload"],
                    "--checkpoint-dir", tmp_path / "ckpt"] + TINY_FLAGS)
        assert code == 3
        assert f"{dev}:2:" in capsys.readouterr().err
        assert not (tmp_path / "ckpt").exists()

    def test_empty_dev_file_names_file_and_leaves_no_checkpoint_dir(self, workspace, tmp_path, capsys):
        dev = tmp_path / "empty.tsv"
        dev.write_text("")
        capsys.readouterr()
        code = run(["train", "--train-file", workspace["clean"], "--dev-file", dev,
                    "--embeddings-payload", workspace["payload"],
                    "--checkpoint-dir", tmp_path / "ckpt"] + TINY_FLAGS)
        assert code == 3
        assert capsys.readouterr().err == f"error: {dev} contains no examples\n"
        assert not (tmp_path / "ckpt").exists()

    def test_unparseable_flag_value(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(["train", "--train-file", "x", "--embeddings-payload", "e",
                 "--checkpoint-dir", "c", "--batch-size", "banana"])
        assert err.value.code == 2

    @pytest.mark.parametrize("payload, extra, says", [
        (False, [], "the following arguments are required: --embeddings-payload"),
        (True, ["--embed-dim", "8"], "unrecognized arguments: --embed-dim 8"),
    ], ids=["no-payload", "embed-dim"])
    def test_train_starts_only_from_a_payload_at_its_width(self, workspace, tmp_path, capsys, payload, extra, says):
        """train builds no embedding table of its own, and takes no width:
        both are the payload's, written by build-vocab."""
        argv = ["train", "--train-file", workspace["clean"],
                "--checkpoint-dir", tmp_path / "ckpt", *TINY_FLAGS, *extra]
        argv += ["--embeddings-payload", workspace["payload"]] if payload else []
        capsys.readouterr()
        with pytest.raises(SystemExit) as err:
            run(argv)
        assert err.value.code == 2
        assert says in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_retired_adam_flag_is_bad_argument(self, workspace, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            run(["train", "--train-file", workspace["clean"],
                 "--embeddings-payload", workspace["payload"], "--checkpoint-dir", tmp_path / "ckpt", "--beta1", "0.8"])
        assert err.value.code == 2
        assert "unrecognized arguments: --beta1 0.8" in capsys.readouterr().err
        assert not (tmp_path / "ckpt").exists()

    def test_config_value_out_of_range(self, workspace, tmp_path):
        code = run(["train", "--train-file", workspace["clean"],
                    "--embeddings-payload", workspace["payload"],
                    "--checkpoint-dir", tmp_path / "ckpt",
                    "--spatial-dropout", "1.5"])
        assert code == 2

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_flag_is_bad_argument(self, workspace, tmp_path, capsys, value):
        capsys.readouterr()
        code = run(["train", "--train-file", workspace["clean"],
                    "--embeddings-payload", workspace["payload"],
                    "--checkpoint-dir", tmp_path / "ckpt", "--clip-norm", value])
        assert code == 2
        assert "bad arguments: clip_norm must be finite" in capsys.readouterr().err
        assert not (tmp_path / "ckpt").exists()

    @pytest.mark.parametrize("command", ["build-vocab", "train"], ids=["build-vocab-flag", "train-flag"])
    def test_negative_seed_is_bad_argument_before_anything_is_read(self, tmp_path, capsys, command):
        missing = tmp_path / "missing.tsv"  # never opened: the config is checked first
        argv = {
            "build-vocab": ["build-vocab", "--inputs", missing,
                            "--embedding-out", tmp_path / "emb"],
            "train": ["train", "--train-file", missing, "--embeddings-payload", tmp_path / "emb",
                      "--checkpoint-dir", tmp_path / "ckpt"],
        }[command]
        capsys.readouterr()
        assert run(argv + ["--seed", "-1"]) == 2
        assert capsys.readouterr().err == "bad arguments: seed must be non-negative, got -1\n"
        assert list(tmp_path.iterdir()) == []

    def test_negative_seed_in_manifest_names_manifest(self, workspace, tmp_path, capsys):
        stem = tmp_path / "model"
        manifest = json.loads((workspace["ckpt"] / "model.json").read_text())
        manifest["hyperparameters"]["seed"] = -1
        Path(f"{stem}.json").write_text(json.dumps(manifest))
        Path(f"{stem}.bin").write_bytes((workspace["ckpt"] / "model.bin").read_bytes())
        capsys.readouterr()
        code = run(["predict", "--input", workspace["clean"],
                    "--checkpoint", stem, "--output", tmp_path / "out"])
        assert code == 3
        assert capsys.readouterr().err == f"error: {stem}.json: seed must be non-negative, got -1\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", ["[" * 100_000, '{"seed": ' + "9" * 5000 + "}"],
                             ids=["manifest-deep", "manifest-long"])
    def test_json_that_json_cannot_read_names_the_file(self, workspace, tmp_path, capsys, text):
        """Arrays nested past the recursion limit, and an int of more digits
        than Python converts, are unreadable JSON like any other."""
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        capsys.readouterr()
        assert run(["predict", "--input", workspace["clean"],
                    "--checkpoint", tmp_path / "bad", "--output", tmp_path / "preds.txt"]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: unreadable manifest: ") and err.count("\n") == 1, err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]


# the files each command writes, in the order they land
LANDING = {
    "preprocess": ["clean.tsv"],
    "build-vocab": ["embed.bin", "embed.json"],
    "train": ["model.bin", "model.json", "history.jsonl"],
    "evaluate": ["report.json"],
    "predict": ["preds.txt"],
}


def writing_argv(command, workspace, out):
    """`command` run as the workspace fixture runs it, writing into `out`;
    so preprocess, build-vocab and train write the workspace's bytes."""
    model = ["--checkpoint", workspace["ckpt"] / "model"]
    return {
        "preprocess": ["preprocess", "--input", workspace["raw"], "--output", out / "clean.tsv"],
        "build-vocab": ["build-vocab", "--inputs", workspace["clean"],
                        "--embedding-out", out / "embed", *VOCAB_FLAGS],
        "train": ["train", "--train-file", workspace["clean"],
                  "--embeddings-payload", workspace["payload"], "--checkpoint-dir", out, *TINY_FLAGS],
        "evaluate": ["evaluate", "--input", workspace["clean"], *model, "--output", out / "report.json"],
        "predict": ["predict", "--input", workspace["clean"], *model, "--output", out / "preds.txt"],
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

    def test_refused_manifest_rename_is_not_a_checkpoint(self, workspace, tmp_path, capsys, monkeypatch):
        """A second run's model.bin lands and its model.json is refused: the
        first run's manifest beside the second run's tensors, of the same
        shapes. predict refuses the pair, naming both files."""
        out = tmp_path / "out"
        out.mkdir()
        for name in ("model.json", "model.bin"):
            (out / name).write_bytes((workspace["ckpt"] / name).read_bytes())
        fail_rename(monkeypatch, out / "model.json")
        assert run(writing_argv("train", workspace, out) + ["--seed", "1"]) == 3
        monkeypatch.undo()
        assert (out / "model.json").read_bytes() == (workspace["ckpt"] / "model.json").read_bytes()
        assert (out / "model.bin").read_bytes() != (workspace["ckpt"] / "model.bin").read_bytes()

        capsys.readouterr()
        code = run(["predict", "--input", workspace["clean"],
                    "--checkpoint", out / "model", "--output", tmp_path / "preds.txt"])
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: {out / 'model.bin'}: its sha256 trailer is not the payload_sha256 of {out / 'model.json'}: "
            "the two files are not from one save\n"
        )
        assert not (tmp_path / "preds.txt").exists()


class TestConfiguration:
    @pytest.mark.parametrize("command, fixed", [
        ("train", ["--train-file", "--dev-file", "--embeddings-payload",
                   "--checkpoint-dir", "--wall-clock"]),
        ("build-vocab", ["--inputs", "--embedding-out", "--embeddings",
                         "--embeddings-format"]),
    ])
    def test_configuration_surface(self, command, fixed):
        """The command's fixed options, then a flag per
        setting it reads: for train every TrainConfig field but
        embed_dim, its payload's width, and for build-vocab only embed_dim
        and seed; a new option has to change this test on purpose."""
        fields = [
            "batch_size", "learning_rate", "clip_norm",
            "spatial_dropout", "capsule_dropout", "noise_std", "routing_iters",
            "max_epochs", "patience", "seed", "embed_dim", "hidden_dim",
            "num_capsules", "capsule_dim",
        ]
        assert [f.name for f in dataclasses.fields(TrainConfig)] == fields
        subparsers = next(a for a in build_parser()._actions if a.dest == "command")
        options = [o for a in subparsers.choices[command]._actions for o in a.option_strings]
        settings = {"train": [f for f in fields if f != "embed_dim"], "build-vocab": ["embed_dim", "seed"]}[command]
        expected = ["-h", "--help"] + fixed + ["--" + name.replace("_", "-") for name in settings]
        assert options == expected

    def test_build_vocab_refuses_settings_it_does_not_read(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(["build-vocab", "--inputs", "x", "--embedding-out", "e", "--hidden-dim", "4"])
        assert err.value.code == 2
        assert "unrecognized arguments: --hidden-dim 4" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["build-vocab", "train"])
    def test_config_file_option_is_gone(self, tmp_path, capsys, command):
        """Settings are flags alone: --config is an unknown option."""
        argv = {"build-vocab": ["build-vocab", "--inputs", "x", "--embedding-out", "e"],
                "train": ["train", "--train-file", "t", "--embeddings-payload", "e",
                          "--checkpoint-dir", tmp_path / "ckpt"]}[command]
        with pytest.raises(SystemExit) as err:
            run(argv + ["--config", "x.json"])
        assert err.value.code == 2
        assert "unrecognized arguments: --config x.json" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["build-vocab", "train"])
    def test_profile_option_is_gone(self, tmp_path, capsys, command):
        """No preset sits between the defaults and the flags: --profile is an unknown option."""
        argv = {"build-vocab": ["build-vocab", "--inputs", "x", "--embedding-out", "e"],
                "train": ["train", "--train-file", "t", "--embeddings-payload", "e",
                          "--checkpoint-dir", tmp_path / "ckpt"]}[command]
        with pytest.raises(SystemExit) as err:
            run(argv + ["--profile", "desk"])
        assert err.value.code == 2
        assert "unrecognized arguments: --profile desk" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["build-vocab", "train", "evaluate", "predict"])
    def test_vocab_option_is_gone(self, tmp_path, capsys, command):
        """The vocabulary travels in the manifests of the payload and the
        model, so no command takes a vocabulary file: --vocab is an unknown
        option."""
        argv = {"build-vocab": ["build-vocab", "--inputs", "x", "--embedding-out", "e"],
                "train": ["train", "--train-file", "t", "--embeddings-payload", "e",
                          "--checkpoint-dir", tmp_path / "ckpt"],
                "evaluate": ["evaluate", "--input", "t", "--checkpoint", "m"],
                "predict": ["predict", "--input", "t", "--checkpoint", "m", "--output", tmp_path / "preds.txt"]}[command]
        with pytest.raises(SystemExit) as err:
            run(argv + ["--vocab", "vocab.tsv"])
        assert err.value.code == 2
        assert "unrecognized arguments: --vocab vocab.tsv" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_train_refuses_a_model_too_large_to_build_before_reading(self, tmp_path, capsys):
        """A hidden_dim whose weight tensors numpy cannot address exits 2,
        naming the setting, before any input is read: none of them exists."""
        capsys.readouterr()
        assert run(["train", "--train-file", tmp_path / "missing.tsv",
                    "--embeddings-payload", tmp_path / "missing_emb", "--checkpoint-dir", tmp_path / "ckpt",
                    "--hidden-dim", "1000000000000000000"]) == 2
        assert capsys.readouterr().err.startswith("bad arguments: hidden_dim 1000000000000000000: ")
        assert list(tmp_path.iterdir()) == []

    def test_build_vocab_checks_its_settings_before_reading(self, tmp_path, capsys):
        missing = tmp_path / "missing.tsv"
        capsys.readouterr()
        assert run(["build-vocab", "--inputs", missing,
                    "--embedding-out", tmp_path / "emb", "--embed-dim", "0"]) == 2
        assert capsys.readouterr().err == "bad arguments: embed_dim must be at least 1, got 0\n"
        assert list(tmp_path.iterdir()) == []

    def test_readme_commands_parse(self):
        """Every `emocaps ...` line of README's sh blocks, its backslash
        continuations joined, parses: an example naming a removed flag fails."""
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"^```sh\n(.*?)^```", readme, re.S | re.M)
        lines = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()]
        commands = [shlex.split(line)[1:] for line in lines if line.startswith("emocaps ")]
        assert {argv[0] for argv in commands} == {"preprocess", "build-vocab", "train", "evaluate", "predict"}
        for argv in commands:
            build_parser().parse_args(argv)

    def test_readme_names_only_options_that_exist(self):
        """Every --option README names, in prose too, is an option of some
        subcommand; pip's --no-build-isolation is the one exception."""
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", readme)) - {"--no-build-isolation"}
        subparsers = next(a for a in build_parser()._actions if a.dest == "command")
        options = {o for parser in subparsers.choices.values() for a in parser._actions for o in a.option_strings}
        assert sorted(named - options) == []

    def test_readme_lists_every_config_key(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        count, keys = re.search(r"The keys are the (\d+) flag names with `_` for `-` \((.*?)\)", readme, re.S).groups()
        names = [f.name for f in dataclasses.fields(TrainConfig)]
        assert re.findall(r"`(\w+)`", keys) == names
        assert int(count) == len(names)

    @pytest.mark.parametrize("command, options, optional", [
        ("evaluate", ["--input", "--checkpoint", "--output"], ["--output"]),
        ("predict", ["--input", "--checkpoint", "--output"], []),
    ])
    def test_model_input_options(self, command, options, optional):
        """evaluate and predict share --input and --checkpoint, and
        each lists its options in this order."""
        subparsers = next(a for a in build_parser()._actions if a.dest == "command")
        parser = subparsers.choices[command]
        assert [o for a in parser._actions for o in a.option_strings] == ["-h", "--help"] + options
        required = [a.option_strings[0] for a in parser._actions if a.required]
        assert required == [o for o in options if o not in optional]

    def test_desk_flags_set_dimensions(self, workspace, tmp_path):
        """build-vocab's desk flag sets the width, train's the rest."""
        ckpt, payload = tmp_path / "ckpt", tmp_path / "emb"
        assert run(["build-vocab", "--inputs", workspace["clean"],
                    "--embedding-out", payload, *DESK["build-vocab"]]) == 0
        code = run(["train", "--train-file", workspace["clean"],
                    "--embeddings-payload", payload, "--checkpoint-dir", ckpt,
                    *DESK["train"], "--max-epochs", "1",
                    "--routing-iters", "2", "--spatial-dropout", "0.0",
                    "--capsule-dropout", "0.0", "--noise-std", "0.0"])
        assert code == 0
        hp = json.loads((ckpt / "model.json").read_text())["hyperparameters"]
        assert hp["embed_dim"] == 50
        assert hp["hidden_dim"] == 32
        assert hp["num_capsules"] == 8
        assert hp["capsule_dim"] == 8
        assert hp["batch_size"] == 32


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


def test_model_bytes_do_not_depend_on_blas_threads(tmp_path):
    """`train` at paper dims writes the same model.bin with the BLAS thread
    variables unset as with them set to 1: some backward-pass products round
    differently with the thread count, and the package pins one thread
    before numpy loads. On a 1-core machine BLAS runs one thread either way,
    so there this test cannot fail."""
    rng = np.random.default_rng(3)
    words = [f"w{k}" for k in range(300)]
    clean = tmp_path / "clean.tsv"
    clean.write_text("".join(
        f"{LABELS[rng.integers(len(LABELS))]}\t{' '.join(rng.choice(words, rng.integers(3, 20)))}\n"
        for _ in range(192)
    ), encoding="utf-8")
    assert run(["build-vocab", "--inputs", clean, "--embedding-out", tmp_path / "emb",
                "--embed-dim", "300", "--seed", "3"]) == 0
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {key: value for key, value in os.environ.items() if key not in blas}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src") + os.pathsep + env.get("PYTHONPATH", "")
    models = []
    for name, threads in (("unset", {}), ("one", dict.fromkeys(blas, "1"))):
        done = subprocess.run(
            [sys.executable, "-m", "emocaps", "train", "--train-file", str(clean),
             "--embeddings-payload", str(tmp_path / "emb"), "--checkpoint-dir", str(tmp_path / name),
             "--seed", "3", "--batch-size", "64", "--max-epochs", "2"],
            capture_output=True, text=True, env={**env, **threads}, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        models.append(hashlib.sha256((tmp_path / name / "model.bin").read_bytes()).hexdigest())
    assert models[0] == models[1]


def write_held_out_task(root, rng, dim):
    """A six-class task whose test cue words never occur in training, and a
    text word2vec file of width `dim` in which every cue word of a class
    lies near that class's centroid and the filler words lie anywhere.

    Each class has 10 cue words of the train and dev splits and 10 others
    of the test split alone. A tweet is 8-15 fillers, 1-2 cue words of its
    class and <targetword>. Writes train/dev/test as labeled .tsv files,
    test also as a text-only .txt file, and vectors.txt."""
    seen = [[f"{label}seen{k}" for k in range(10)] for label in LABELS]
    held = [[f"{label}held{k}" for k in range(10)] for label in LABELS]
    fillers = [f"filler{k}" for k in range(200)]
    for name, size, cues in (("train", 400, seen), ("dev", 100, seen), ("test", 300, held)):
        classes = rng.integers(len(LABELS), size=size)
        tweets = []
        for c in classes:
            words = [*rng.choice(fillers, rng.integers(8, 16)), *rng.choice(cues[c], rng.integers(1, 3)), "<targetword>"]
            tweets.append(" ".join(rng.permutation(words)))
        (root / f"{name}.tsv").write_text("".join(f"{LABELS[c]}\t{t}\n" for c, t in zip(classes, tweets)), "utf-8")
    (root / "test.txt").write_text("".join(f"{t}\n" for t in tweets), "utf-8")  # the last split's tweets
    centroids = rng.normal(size=(len(LABELS), dim))
    vectors = [(word, centroids[c] + 0.3 * rng.normal(size=dim)) for c in range(len(LABELS)) for word in seen[c] + held[c]]
    vectors += [(word, rng.normal(size=dim)) for word in fillers + ["<targetword>"]]
    (root / "vectors.txt").write_text(f"{len(vectors)} {dim}\n" + "".join(
        word + " " + " ".join(f"{x:.5f}" for x in 0.3 * v) + "\n" for word, v in vectors
    ), "utf-8")


@pytest.mark.parametrize("pretrained, bound", [(True, 0.65), (False, 0.30)], ids=["pretrained", "random"])
def test_pretrained_vectors_carry_the_class_to_words_training_never_saw(tmp_path, pretrained, bound):
    """Training moves only the rows of training words, so a test tweet is
    read through the pretrained rows of its cue words: the held-out
    macro-F1 is far above chance (1/6) with the vectors of
    write_held_out_task, and near it with random rows. Run through the
    commands a user runs, the vocabulary built over every split.

    Seed 0 read 0.863 and 0.165, about 1.5 s a side on a 2-vCPU Xeon;
    seeds 1-3 read 0.820-0.870 and 0.131-0.164. The bounds leave a margin
    of 0.17 below the lowest pretrained reading and 0.13 above the highest
    random one."""
    write_held_out_task(tmp_path, np.random.default_rng(0), dim=50)
    splits = [tmp_path / name for name in ("train.tsv", "dev.tsv", "test.txt")]  # as README's pipeline
    vectors = ["--embeddings", tmp_path / "vectors.txt", "--embeddings-format", "text"] if pretrained else []
    assert run(["build-vocab", "--inputs", *splits,
                "--embedding-out", tmp_path / "emb", *DESK["build-vocab"], "--seed", "3", *vectors]) == 0
    assert run(["train", "--train-file", tmp_path / "train.tsv", "--dev-file", tmp_path / "dev.tsv",
                "--embeddings-payload", tmp_path / "emb",
                "--checkpoint-dir", tmp_path / "run", *DESK["train"], "--seed", "3",
                "--max-epochs", "10", "--patience", "4"]) == 0
    assert run(["evaluate", "--input", tmp_path / "test.tsv",
                "--checkpoint", tmp_path / "run" / "model", "--output", tmp_path / "report.json"]) == 0
    macro_f1 = json.loads((tmp_path / "report.json").read_text())["macro"]["f1"]
    assert macro_f1 > bound if pretrained else macro_f1 < bound, macro_f1


def test_a_bag_of_words_cannot_read_words_training_never_saw(tmp_path):
    """The baseline of the test above: naive Bayes over token counts,
    fitted on write_held_out_task's train split, labels its test split
    near chance (1/6), as no test cue word occurs in training.

    Seeds 0-3 read 0.158-0.162 held-out, in well under a second, against
    0.863 for the pretrained run of seed 0. The bound leaves a margin of
    0.14 above seed 0's reading, and is the random-rows bound above."""
    write_held_out_task(tmp_path, np.random.default_rng(0), dim=50)
    train_split, test_split = ([(text.split(), label) for label, text in load_dataset(tmp_path / f"{name}.tsv")]
                               for name in ("train", "test"))
    score = macro_f1(test_split, bag_of_words_labels(train_split, test_split))
    assert score < 0.30, score


# Bytes an insertion puts in: separators, line ends, numbers that do not
# fit, JSON punctuation, and bytes that are not UTF-8.
FUZZ_INSERTS = [b"\t", b"\n", b"\r\n", b" ", b"0", b"-1", b"1e999", b"nan", b"\xff", b"\x00", b'"', b"{", b"]", b",",
                b"\xc3"]
FUZZ_CASES_PER_INPUT = 300  # 7-11 s in all on a shared 2-vCPU Xeon


def mutate(data: bytes, rng) -> bytes:
    """`data` after one byte flip, cut, insertion or line edit."""
    at = rng.randrange(len(data) + 1)
    kind = rng.choice(["flip", "cut", "insert", "line"]) if data else "insert"
    if kind == "flip":
        at = min(at, len(data) - 1)
        return data[:at] + bytes([data[at] ^ 1 << rng.randrange(8)]) + data[at + 1 :]
    if kind == "cut":  # the end, or a span of up to 16 bytes
        return data[:at] if rng.random() < 0.5 else data[:at] + data[at + rng.randint(1, 16) :]
    if kind == "insert":
        return data[:at] + rng.choice(FUZZ_INSERTS) + data[at:]
    lines = data.split(b"\n")
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    edit = rng.choice(["drop", "repeat", "swap", "blank"])
    if edit == "drop":
        del lines[i]
    elif edit == "repeat":
        lines.insert(i, lines[j])
    elif edit == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    else:
        lines[i] = b""
    return b"\n".join(lines)


def fuzz_inputs(workspace, root):
    """The fuzz guard's eight inputs, a labeled file under two commands, by
    name: (the file to mutate, the files copied beside it, the argv that
    reads the mutant given the case directory, the outputs it writes)."""
    ws, lexicon, vectors = workspace, root / "lex.tsv", root / "vectors.txt"
    words = sorted({w for _, text in load_dataset(ws["clean"]) for w in text.split()})
    lexicon.write_text("".join(f"{w}\t{3 + i % 5}\n" for i, w in enumerate(words)), encoding="utf-8")
    rows = np.random.default_rng(5).uniform(-1, 1, size=(12, 8))
    vectors.write_text("12 8\n" + "".join(f"{w} {' '.join(f'{x:.4f}' for x in row)}\n"
                                           for w, row in zip(words, rows)), encoding="utf-8")
    model, embed, vocab = ws["ckpt"] / "model", ws["payload"], root / "vocab.tsv"
    manifest = json.loads(model.with_suffix(".json").read_text(encoding="utf-8"))
    vocab.write_text(manifest["vocabulary"], encoding="utf-8")

    def evaluate(case, data=ws["clean"], stem=model):
        return ["evaluate", "--input", data, "--checkpoint", stem,
                "--output", case / "report.json"], ["report.json"]

    def evaluate_embedded(case):
        """evaluate with the model whose manifest holds the mutated vocab.tsv,
        a byte that is not UTF-8 read as a lone surrogate, which JSON escapes."""
        text = (case / "vocab.tsv").read_bytes().decode("utf-8", "surrogateescape")
        (case / "model.json").write_text(
            json.dumps({**manifest, "vocabulary": text}, sort_keys=True, indent=2) + "\n", encoding="utf-8")
        return evaluate(case, stem=case / "model")

    def build_vocab(case, data=ws["clean"], *vectors_flags):
        return (["build-vocab", "--inputs", data, "--embedding-out", case / "out",
                 *vectors_flags, *VOCAB_FLAGS], ["out.json", "out.bin"])

    def preprocess(case, data=ws["raw"], *lexicon_flags):
        return ["preprocess", "--input", data, "--output", case / "out.tsv", *lexicon_flags], ["out.tsv"]

    return {
        "vocabulary": (vocab, [model.with_suffix(".bin")], evaluate_embedded),
        "model manifest": (model.with_suffix(".json"), [model.with_suffix(".bin")],
                           lambda case: evaluate(case, stem=case / "model")),
        "model payload": (model.with_suffix(".bin"), [model.with_suffix(".json")],
                          lambda case: evaluate(case, stem=case / "model")),
        "embedding manifest": (embed.with_suffix(".json"), [embed.with_suffix(".bin")], lambda case: (
            ["train", "--train-file", ws["clean"], "--embeddings-payload", case / "embed",
             "--checkpoint-dir", case / "run", *TINY_FLAGS, "--max-epochs", "1"], ["run"])),
        "labeled file, evaluate": (ws["clean"], [], lambda case: evaluate(case, data=case / "clean.tsv")),
        "labeled file, build-vocab": (ws["clean"], [], lambda case: build_vocab(case, case / "clean.tsv")),
        "word2vec text": (vectors, [], lambda case: build_vocab(
            case, ws["clean"], "--embeddings", case / "vectors.txt", "--embeddings-format", "text")),
        "lexicon": (lexicon, [], lambda case: preprocess(case, ws["raw"], "--lexicon", case / "lex.tsv")),
        "raw file": (ws["raw"], [], lambda case: preprocess(case, case / "raw.tsv")),
    }


def test_mutated_inputs_end_in_exit_0_3_or_4(workspace, tmp_path, capsys):
    """A seeded fuzz guard: each case applies one or two byte flips, cuts,
    insertions or line edits to one input, taking the inputs in turn, and
    runs the command that reads it. Every case exits 0, 3 (a bad file) or
    4 (a numeric failure), never 2 or with an exception, and a case that
    does not exit 0 leaves no output and no `.tmp` file.

    The commands run with warnings recorded, as they are outside the test
    suite, not raised, and none may warn. A checkpoint's tensors are not
    hashed again when it loads (README, "Checkpoints"), so a changed
    tensor byte can compute with an overflowing or NaN weight: its
    probabilities are then not finite and the command exits 4, or a
    saturated `tanh` keeps them finite and it exits 0."""
    inputs = list(fuzz_inputs(workspace, tmp_path).items())
    rng = random.Random(0)
    codes = Counter()
    case = tmp_path / "case"
    for n in range(FUZZ_CASES_PER_INPUT * len(inputs)):
        name, (source, beside, argv_of) = inputs[n % len(inputs)]
        case.mkdir()
        data = source.read_bytes()
        for _ in range(rng.randint(1, 2)):
            data = mutate(data, rng)
        (case / source.name).write_bytes(data)
        for path in beside:
            (case / path.name).write_bytes(path.read_bytes())
        argv, outputs = argv_of(case)
        try:
            with warnings.catch_warnings(record=True) as warned:
                warnings.simplefilter("always")
                code = run(argv)
        except (Exception, SystemExit) as exc:  # name the case that let it escape
            raise AssertionError(f"case {n}, {name}: {exc!r}") from exc
        capsys.readouterr()
        assert not warned, f"case {n}, {name}: {[str(w.message) for w in warned]}"
        assert code in (0, 3, 4), f"case {n}, {name}: exit {code}"
        if code != 0:
            assert [p for p in case.iterdir() if p.name in outputs or p.suffix == ".tmp"] == [], f"case {n}, {name}"
        codes[code] += 1
        shutil.rmtree(case)
    assert codes[0] and codes[3], codes  # mutations both pass and fail: the guard is not vacuous
