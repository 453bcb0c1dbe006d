"""Command-line entry point: preprocess, build-vocab, train, evaluate, predict.

Configuration is the TrainConfig defaults, each overridden by its flag when
given. Each command has a flag per key it reads: `build-vocab` --embed-dim
and --seed, `train` all but embed_dim, which is its payload's width.
TrainConfig checks the config in effect.
The other commands read preprocessed (whitespace tokenized) files, so the
text pipeline runs exactly once, in `preprocess`. Its text holds no tab: a
line holds one when it is labeled, and train and evaluate need a label.
The vocabulary travels in the checkpoint manifests, from build-vocab's
payload to train's model, so a model is its two files.

Exit codes: 0 success, 2 bad arguments, 3 data or file error, 4 numeric
failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

from .checkpoint import load_checkpoint, save_checkpoint
from .embeddings import EmbeddingTable, Vocabulary, build_embedding, load_word2vec
from .errors import EmocapsError, NumericError, parse_blocks, replacing, text_lines
from .evaluation import LABELS, confusion, format_report, label_index, metrics
from .textprep import Lexicon, preprocess
from .training import ModelParams, TrainConfig, init_model, predict_dataset, train

CONFIG_KEYS = tuple(f.name for f in fields(TrainConfig))
# the files an option names besides its own path: a checkpoint stem's manifest and payload, train's outputs
FILES_OF = {"embedding_out": (".json", ".bin"), "embeddings_payload": (".json", ".bin"), "checkpoint": (".json", ".bin"),
            "checkpoint_dir": ("/model.json", "/model.bin", "/history.jsonl")}


def _add_config_flags(parser: argparse.ArgumentParser, names) -> None:
    """One flag per TrainConfig field in `names`, those the command reads."""
    for name in names:
        default = getattr(TrainConfig(), name)
        parser.add_argument(f"--{name.replace('_', '-')}", dest=name, type=type(default), help=f"default {default}")


def _resolve_config(args) -> TrainConfig:
    """The defaults, overridden by the flags given: typed, so TrainConfig raises only its range ValueError."""
    return TrainConfig(**{key: value for key, value in vars(args).items() if key in CONFIG_KEYS and value is not None})


def load_dataset(path, labeled: bool | None = True) -> list:
    """Parse "label<TAB>text" lines, label names in any case, into (label index, text) pairs;
    labeled=False reads every line as bare text, None a line with no tab: (None, text)."""
    with text_lines(path) as lines:
        if labeled is False:
            return [(None, line) for _, line in lines]
        examples = []
        for lineno, line in lines:
            label, tab, text = line.partition("\t")
            if not tab and labeled:
                raise EmocapsError(f"{path}:{lineno}: expected label<TAB>text")
            try:
                examples.append((label_index(label), text) if tab else (None, line))
            except EmocapsError as exc:
                raise EmocapsError(f"{path}:{lineno}: {exc}") from None
    return examples


def _encode(path, vocab: Vocabulary, labeled: bool | None = True):
    """The lines of `path`, read by load_dataset, as (ids, label) pairs on
    whitespace tokens. A line with no tokens cannot be classified, so it is
    rejected with its file and line number before any output is written.
    """
    encoded = []
    for lineno, (label, text) in enumerate(load_dataset(path, labeled), 1):
        tokens = text.split()
        if not tokens:
            raise EmocapsError(f"{path}:{lineno}: line has no tokens")
        encoded.append((vocab.encode(tokens), label))
    return encoded


def _require_nonempty(examples, path) -> None:
    if not examples:
        raise EmocapsError(f"{path} contains no examples")


def _load_with_vocabulary(stem):
    """load_checkpoint(stem) as (vocab, tensors, manifest), vocab parsed from
    the manifest's `vocabulary` string with each \\r\\n and \\r read as \\n,
    as `errors.whole_text` reads a file (errors name `<stem>.json: vocabulary:<line>:`).
    Refused unless embedding/W_e, when present, is 2-D with columns and a row per word."""
    tensors, manifest = load_checkpoint(stem)
    text = manifest.get("vocabulary")
    if not isinstance(text, str):
        raise EmocapsError(f"{stem}.json: manifest has no vocabulary string")
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    vocab = parse_blocks(f"{stem}.json: vocabulary", text, Vocabulary._parse)
    W = tensors.get("embedding/W_e")
    if W is not None and (W.ndim != 2 or W.shape[1] == 0):
        raise EmocapsError(f"{stem}.json: tensor embedding/W_e has shape {W.shape}, expected (rows, dim)")
    if W is not None and len(W) != len(vocab):
        raise EmocapsError(
            f"{stem}.json: the vocabulary has {len(vocab)} words, but embedding/W_e in {stem}.bin has {len(W)} rows"
        )
    return vocab, tensors, manifest


def _refuse_overwriting(args, outputs, inputs) -> None:
    """Refuse, before anything is read or written, an output file that is
    another output or one of the inputs: writing it would replace what the
    command reads or writes. `outputs` and `inputs` name options of `args`;
    one in FILES_OF names the files its value + each suffix, any other the
    path itself, and one left out is None. An output's `.tmp` file counts
    too, and one that exists is refused: errors.replacing would not write it."""
    written = {}
    for is_output, names in ((True, outputs), (False, inputs)):
        for name in names:
            flag, values = f"--{name.replace('_', '-')}", getattr(args, name)
            values = values if isinstance(values, list) else [] if values is None else [values]
            suffixes = FILES_OF.get(name, ("",))
            if is_output:  # each file is written through its .tmp file, errors.replacing's
                suffixes = [t for s in suffixes for t in (s, f"{s}.tmp")]
            for value, suffix in itertools.product(values, suffixes):
                path = Path(f"{value}{suffix}").resolve()
                if path in written:  # an option that names the path itself comes first
                    (fa, va, sa), (fb, vb, sb) = sorted((written[path], (flag, value, suffix)), key=lambda o: o[2] != "")
                    if sa:
                        raise ValueError(f"{va}{sa} is a file of {fa} {va} and of {fb} {vb}")
                    raise ValueError(f"{fa} {va} is {'a file of' if sb else 'also'} {fb} {vb}")
                if is_output:
                    written[path] = (flag, value, suffix)
    for path, (flag, value, suffix) in written.items():
        if suffix.endswith(".tmp") and path.exists():
            raise ValueError(f"{value}{suffix} exists and {flag} {value} is written through it: remove it first")


def cmd_preprocess(args) -> int:
    _refuse_overwriting(args, ["output"], ["input", "lexicon"])
    lex = Lexicon.from_file(args.lexicon) if args.lexicon else Lexicon()
    examples = load_dataset(args.input, labeled=not args.unlabeled)
    with replacing(args.output) as handle:
        for label, text in examples:
            tokens = " ".join(preprocess(text, lex))
            handle.write(f"{tokens}\n" if label is None else f"{LABELS[label]}\t{tokens}\n")
    print(f"wrote {len(examples)} lines to {args.output}")
    return 0


def cmd_build_vocab(args) -> int:
    _refuse_overwriting(args, ["embedding_out"], ["inputs", "embeddings"])
    cfg = _resolve_config(args)
    sequences = []
    for path in args.inputs:
        examples = load_dataset(path, labeled=None)
        _require_nonempty(examples, path)
        sequences.extend(text.split() for _, text in examples)
    vocab = Vocabulary.build(sequences)
    # read and check the vectors before writing anything: bad input leaves no output
    raw = load_word2vec(args.embeddings, args.embeddings_format, vocab.word_to_id, cfg.embed_dim) if args.embeddings else {}
    table = build_embedding(vocab, raw, cfg.embed_dim, cfg.seed)
    save_checkpoint(args.embedding_out, {"embedding/W_e": table.weights},
                    {"embed_dim": cfg.embed_dim, "vocab_size": len(vocab)}, cfg.seed, vocab.text())
    print(f"vocabulary: {len(vocab)} words ({len(raw)} pretrained) -> {args.embedding_out}.json")
    return 0


def cmd_train(args) -> int:
    _refuse_overwriting(args, ["checkpoint_dir"], ["train_file", "dev_file", "embeddings_payload"])
    cfg = _resolve_config(args)
    vocab, tensors, _ = _load_with_vocabulary(args.embeddings_payload)
    if "embedding/W_e" not in tensors:
        raise EmocapsError(f"{args.embeddings_payload}.json: missing tensors: embedding/W_e")
    train_set = _encode(args.train_file, vocab)
    _require_nonempty(train_set, args.train_file)
    dev_set = train_set
    if args.dev_file:
        dev_set = _encode(args.dev_file, vocab)
        _require_nonempty(dev_set, args.dev_file)

    W = tensors["embedding/W_e"]
    cfg = replace(cfg, embed_dim=W.shape[1])  # the payload sets the width, as the vocabulary sets the rows
    params = init_model(cfg, EmbeddingTable(weights=W))
    out = Path(args.checkpoint_dir)
    made = [d for d in (out, *out.parents) if not d.exists()]  # innermost first
    out.mkdir(parents=True, exist_ok=True)  # before the first step: a bad directory fails at once

    clock = time.perf_counter if args.wall_clock else None
    try:
        params, history = train(train_set, dev_set, params, cfg, clock=clock)
        with replacing(out / "history.jsonl") as fh:
            fh.writelines(json.dumps(row, sort_keys=True) + "\n" for row in history)
            fh.flush()  # written before the model, landing after it: a failed write lands neither
            save_checkpoint(out / "model", params.tensors(), cfg.__dict__.copy(), cfg.seed, vocab.text())
    except BaseException:
        for d in made:  # a failed run leaves no directory behind, but keeps the user's own
            for suffix in FILES_OF["checkpoint_dir"]:  # what landed before the failure
                Path(f"{d}{suffix}").unlink(missing_ok=True)
            d.rmdir()
        raise
    best = max(h["dev_macro_f1"] for h in history)
    print(f"trained {len(history)} epochs, best dev macro-F1 {best:.4f} -> {out}")
    return 0


def _load_model(checkpoint):
    """The checkpoint's vocabulary, model and config. Its tensors must make a model, then
    its hyperparameters hold exactly the CONFIG_KEYS train writes, valid and of those dims."""
    vocab, tensors, manifest = _load_with_vocabulary(checkpoint)
    params = ModelParams.from_tensors(tensors, f"{checkpoint}.json")
    hp = manifest.get("hyperparameters")
    if not isinstance(hp, dict):
        raise EmocapsError(f"{checkpoint}.json: manifest has no hyperparameters object")
    missing, unknown = [key for key in CONFIG_KEYS if key not in hp], sorted(set(hp) - set(CONFIG_KEYS))
    if missing or unknown:
        wrong = [f"{what} keys {', '.join(keys)}" for what, keys in (("missing", missing), ("unknown", unknown)) if keys]
        raise EmocapsError(f"{checkpoint}.json: hyperparameters have {' and '.join(wrong)}")
    try:
        cfg = TrainConfig(**hp)
    except (TypeError, ValueError) as exc:
        raise EmocapsError(f"{checkpoint}.json: {exc}") from None
    J, _, d_out = params.capsule.shape
    read = {"hidden_dim": params.gru.W_h.shape[1], "num_capsules": J, "capsule_dim": d_out,
            "embed_dim": params.embedding.weights.shape[1]}
    for key, size in read.items():
        if hp[key] != size:
            raise EmocapsError(f"{checkpoint}.json: hyperparameters say {key} {hp[key]}, tensors say {size}")
    return vocab, params, cfg


def _predict_input(args, labeled: bool | None):
    """Load the --checkpoint model with its vocabulary, encode --input and
    classify it; returns (golds, predictions), a gold None for an unlabeled
    line. --output, when given, is none of those files."""
    _refuse_overwriting(args, ["output"], ["input", "checkpoint"])
    vocab, params, cfg = _load_model(args.checkpoint)
    encoded = _encode(args.input, vocab, labeled)
    return [gold for _, gold in encoded], predict_dataset([ids for ids, _ in encoded], params, cfg)


def cmd_evaluate(args) -> int:
    golds, preds = _predict_input(args, labeled=True)
    _require_nonempty(golds, args.input)
    report = metrics(confusion(golds, preds))
    if args.output:
        with replacing(args.output) as handle:
            handle.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    print(format_report(report))
    print(f"macro-F1 {report['macro']['f1']:.4f}")
    return 0


def cmd_predict(args) -> int:
    _, preds = _predict_input(args, labeled=None)
    with replacing(args.output) as handle:
        handle.writelines(f"{LABELS[p]}\n" for p in preds)
    print(f"wrote {len(preds)} predictions to {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emocaps",
        description="implicit emotion classification with a BiGRU-capsule model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="tokenize and normalize raw tweets")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--lexicon", help="word<TAB>count file for hashtags and spelling")
    p.add_argument("--unlabeled", action="store_true", help="input has no label column")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("build-vocab", help="build vocabulary and embedding payload")
    p.add_argument("--inputs", nargs="+", required=True, help="preprocessed files, labeled or not")
    p.add_argument("--embedding-out", required=True, help="embedding payload stem; its manifest holds the vocabulary")
    p.add_argument("--embeddings", help="pretrained word2vec file")
    p.add_argument("--embeddings-format", choices=("binary", "text"), default="binary")
    _add_config_flags(p, ("embed_dim", "seed"))  # the two settings it reads
    p.set_defaults(func=cmd_build_vocab)

    p = sub.add_parser("train", help="train on preprocessed data")
    p.add_argument("--train-file", required=True)
    p.add_argument("--dev-file", help="defaults to the training file")
    p.add_argument("--embeddings-payload", required=True, help="stem written by build-vocab: the vocabulary and width")
    p.add_argument("--checkpoint-dir", required=True)
    p.add_argument(
        "--wall-clock",
        action="store_true",
        help="record real epoch durations (history files then differ across runs)",
    )
    _add_config_flags(p, [name for name in CONFIG_KEYS if name != "embed_dim"])  # the payload sets the width
    p.set_defaults(func=cmd_train)

    model_input = argparse.ArgumentParser(add_help=False)  # evaluate's and predict's
    model_input.add_argument("--input", required=True)
    model_input.add_argument("--checkpoint", required=True, help="checkpoint stem")

    p = sub.add_parser("evaluate", parents=[model_input], help="score a labeled file against a checkpoint")
    p.add_argument("--output", help="write the report as JSON")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", parents=[model_input], help="write one label per input line")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_predict)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except (EmocapsError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # a config value out of range or clashing output paths: an argument problem, not a data problem
        print(f"bad arguments: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
