"""Command-line entry point: preprocess, build-vocab, train, evaluate, predict.

Configuration is a flat JSON file; every key can be overridden by a flag of
the same name, and --profile picks between the full-scale and desk-scale
defaults. train/evaluate/predict consume preprocessed files (whitespace
tokenized), so the text pipeline runs exactly once, in `preprocess`.

Exit codes: 0 success, 2 bad arguments, 3 data or file error, 4 numeric
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .embeddings import EmbeddingTable, Vocabulary, build_embedding, load_word2vec
from .errors import (
    DimensionMismatch,
    EmocapsError,
    EmptyDataset,
    MalformedHeader,
    MalformedLine,
    NumericError,
    UnknownLabel,
    VocabularyMismatch,
    replacing,
    text_lines,
)
from .evaluation import LABELS, confusion, format_report, label_index, metrics
from .textprep import Lexicon, preprocess
from .training import ModelParams, TrainConfig, init_model, predict_dataset, train

PROFILES = {
    "paper": {},  # the TrainConfig defaults are the paper's dims and batch size
    "desk": {
        "embed_dim": 50,
        "hidden_dim": 32,
        "num_capsules": 8,
        "capsule_dim": 8,
        "batch_size": 32,
    },
}

def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """One flag per TrainConfig field, plus --config and --profile."""
    parser.add_argument("--config", help="flat JSON config file; flags override its keys")
    parser.add_argument("--profile", choices=sorted(PROFILES), help="dimension/batch preset")
    for f in fields(TrainConfig):
        parser.add_argument(
            f"--{f.name.replace('_', '-')}",
            dest=f.name,
            type=type(f.default),
            default=None,
            help=f"default {f.default}",
        )


def _typed_config(values: dict, where) -> dict:
    """Check each TrainConfig key in `values` against its field's type and
    return those entries. An int is accepted for a float field and becomes a
    float; a bool is not a number. Errors name `where` and the key."""
    out = {}
    for f in fields(TrainConfig):
        if f.name not in values:
            continue
        value, kind = values[f.name], type(f.default)
        if kind is float and type(value) is int:
            value = float(value)
        if type(value) is not kind:
            raise MalformedLine(f"{where}: {f.name} must be {kind.__name__}, got {value!r}")
        out[f.name] = value
    return out


def _read_config_file(path) -> dict:
    """The keys of a flat JSON config file: TrainConfig fields plus an
    optional "profile". Any other key, or a value of the wrong type, is an
    error naming the file."""
    with text_lines(path, keepends=True) as lines:
        text = "".join(line for _, line in lines)
    try:
        loaded = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedLine(f"{path}: {exc}") from exc
    if not isinstance(loaded, dict):
        raise MalformedLine(f"{path}: expected a JSON object of config keys")
    unknown = set(loaded) - {f.name for f in fields(TrainConfig)} - {"profile"}
    if unknown:
        raise MalformedLine(f"{path}: unknown config keys: {', '.join(sorted(unknown))}")
    profiles = sorted(PROFILES)
    if "profile" in loaded and loaded["profile"] not in profiles:
        raise MalformedLine(f"{path}: profile must be one of {', '.join(profiles)}, got {loaded['profile']!r}")
    return loaded


def _resolve_config(args) -> TrainConfig:
    """Defaults, then profile, then config file, then explicit flags."""
    names = {f.name for f in fields(TrainConfig)}
    values = {}
    if args.profile:
        values.update(PROFILES[args.profile])
    if args.config:
        loaded = _read_config_file(args.config)
        if "profile" in loaded and not args.profile:
            values.update(PROFILES[loaded["profile"]])
        values.update(_typed_config(loaded, args.config))
    for name in names:
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
    cfg = TrainConfig(**values)
    cfg.validate()
    return cfg


def load_dataset(path, labeled: bool = True) -> list:
    """Parse "label<TAB>text" lines (or bare text when labeled=False) into
    (label index or None, text) pairs; label names match case-insensitively."""
    with text_lines(path) as lines:
        if not labeled:
            return [(None, line) for _, line in lines]
        examples = []
        for lineno, line in lines:
            if "\t" not in line:
                raise MalformedLine(f"{path}:{lineno}: expected label<TAB>text", lineno)
            label, text = line.split("\t", 1)
            try:
                examples.append((label_index(label), text))
            except UnknownLabel as exc:
                raise UnknownLabel(f"{path}:{lineno}: {exc}") from None
    return examples


def _encode(path, vocab: Vocabulary, labeled: bool = True):
    """The lines of `path`, read by load_dataset, as (ids, label) pairs on
    whitespace tokens. A line with no tokens cannot be classified, so it is
    rejected with its file and line number before any output is written.
    """
    encoded = []
    for lineno, (label, text) in enumerate(load_dataset(path, labeled), 1):
        tokens = text.split()
        if not tokens:
            raise MalformedLine(f"{path}:{lineno}: line has no tokens", lineno)
        encoded.append((vocab.encode(tokens), label))
    return encoded


def _require_nonempty(examples, path) -> None:
    if not examples:
        raise EmptyDataset(f"{path} contains no examples")


def _vocab_sha256(vocab: Vocabulary) -> str:
    """Fingerprint of the id-ordered word list, stored in checkpoint manifests."""
    return hashlib.sha256("\n".join(vocab.id_to_word).encode("utf-8")).hexdigest()


def _load_for_vocab(stem, vocab: Vocabulary, vocab_path):
    """load_checkpoint(stem), refused when it was written with another
    vocabulary: its manifest records another fingerprint (a manifest that
    records none is accepted), or its embedding/W_e has another row count."""
    tensors, manifest = load_checkpoint(stem)
    recorded = manifest.get("vocab_sha256")
    fingerprint = _vocab_sha256(vocab)
    if recorded is not None and recorded != fingerprint:
        raise VocabularyMismatch(
            f"{vocab_path} is not the vocabulary checkpoint {stem} was written with "
            f"(vocabulary sha256 {fingerprint}, checkpoint records {recorded})"
        )
    W = tensors.get("embedding/W_e")
    if W is not None and W.shape[:1] != (len(vocab),):
        raise DimensionMismatch(
            f"{stem}.bin: embedding/W_e has shape {W.shape}, but vocabulary {vocab_path} has {len(vocab)} words"
        )
    return tensors, manifest


def cmd_preprocess(args) -> int:
    lex = Lexicon.from_file(args.lexicon) if args.lexicon else Lexicon.from_pairs([])
    examples = load_dataset(args.input, labeled=not args.unlabeled)
    with replacing(args.output) as handle:
        for label, text in examples:
            tokens = " ".join(preprocess(text, lex))
            handle.write(f"{tokens}\n" if label is None else f"{LABELS[label]}\t{tokens}\n")
    print(f"wrote {len(examples)} lines to {args.output}")
    return 0


def cmd_build_vocab(args) -> int:
    cfg = _resolve_config(args)
    sequences = []
    for path in args.inputs:
        examples = load_dataset(path, labeled=not args.unlabeled)
        _require_nonempty(examples, path)
        sequences.extend(text.split() for _, text in examples)
    vocab = Vocabulary.build(sequences)
    # read and check the vectors before writing anything: bad input leaves no output
    raw = load_word2vec(args.embeddings, fmt=args.embeddings_format) if args.embeddings else {}
    try:
        table = build_embedding(vocab, raw, cfg.embed_dim, cfg.seed)
    except DimensionMismatch as exc:
        raise DimensionMismatch(f"{args.embeddings}: {exc}") from None
    with replacing(args.vocab) as handle:
        vocab.write(handle)
        handle.flush()  # written before the payload, landing after it: a failed write lands neither
        save_checkpoint(
            args.embedding_out,
            {"embedding/W_e": table.weights},
            {"embed_dim": cfg.embed_dim, "vocab_size": len(vocab)},
            cfg.seed,
            _vocab_sha256(vocab),
        )
    covered = sum(1 for w in vocab.word_to_id if w in raw)
    print(f"vocabulary: {len(vocab)} words ({covered} pretrained) -> {args.vocab}")
    return 0


def _load_embedding_payload(stem, vocab: Vocabulary, vocab_path, cfg: TrainConfig) -> EmbeddingTable:
    tensors, _ = _load_for_vocab(stem, vocab, vocab_path)
    if "embedding/W_e" not in tensors:
        raise MalformedHeader(f"{stem}.json: missing tensors: embedding/W_e")
    W = tensors["embedding/W_e"]
    if W.ndim != 2 or W.shape[1] == 0:
        raise MalformedHeader(f"{stem}.json: tensor embedding/W_e has shape {W.shape}, expected (rows, dim)")
    if W.shape[1] != cfg.embed_dim:
        # payload wins; dims must agree with the model we are about to build
        print(
            f"warning: embedding payload {stem} is {W.shape[1]}-dimensional; "
            f"using that instead of embed_dim {cfg.embed_dim}",
            file=sys.stderr,
        )
        cfg.embed_dim = W.shape[1]
    return EmbeddingTable(weights=W.astype(np.float64, copy=False))


def cmd_train(args) -> int:
    cfg = _resolve_config(args)
    vocab = Vocabulary.load(args.vocab)
    train_set = _encode(args.train_file, vocab)
    _require_nonempty(train_set, args.train_file)
    dev_set = train_set
    if args.dev_file:
        dev_set = _encode(args.dev_file, vocab)
        _require_nonempty(dev_set, args.dev_file)

    if args.embeddings_payload:
        table = _load_embedding_payload(args.embeddings_payload, vocab, args.vocab, cfg)
    else:
        table = build_embedding(vocab, {}, cfg.embed_dim, cfg.seed)
    params = init_model(cfg, table)
    out = Path(args.checkpoint_dir)
    made = [d for d in (out, *out.parents) if not d.exists()]  # innermost first
    out.mkdir(parents=True, exist_ok=True)  # before the first step: a bad directory fails at once

    clock = time.perf_counter if args.wall_clock else None
    try:
        params, history = train(train_set, dev_set, params, cfg, clock=clock)
        with replacing(out / "history.jsonl") as fh:
            fh.writelines(json.dumps(row, sort_keys=True) + "\n" for row in history)
            fh.flush()  # written before the model, landing after it: a failed write lands neither
            save_checkpoint(out / "model", params.tensors(), cfg.__dict__.copy(), cfg.seed, _vocab_sha256(vocab))
    except BaseException:
        for d in made:  # a failed run leaves no directory behind, but keeps the user's own
            for name in ("model.bin", "model.json", "history.jsonl"):  # what landed before the failure
                (d / name).unlink(missing_ok=True)
            d.rmdir()
        raise
    best = max(h["dev_macro_f1"] for h in history)
    print(f"trained {len(history)} epochs, best dev macro-F1 {best:.4f} -> {out}")
    return 0


def _load_model(checkpoint, vocab: Vocabulary, vocab_path):
    tensors, manifest = _load_for_vocab(checkpoint, vocab, vocab_path)
    hp = manifest.get("hyperparameters", {})
    if not isinstance(hp, dict):
        raise MalformedHeader(f"{checkpoint}.json: hyperparameters are not a JSON object")
    # keys this version does not know (options since retired) are ignored
    cfg = TrainConfig(**_typed_config(hp, f"{checkpoint}.json"))
    try:
        cfg.validate()
    except ValueError as exc:
        raise MalformedHeader(f"{checkpoint}.json: {exc}") from None
    return ModelParams.from_tensors(tensors, f"{checkpoint}.json"), cfg


def _predict_input(args, labeled: bool):
    """Load --vocab and the --checkpoint model, encode --input and classify
    it; returns (golds, predictions), a gold None for an unlabeled line."""
    vocab = Vocabulary.load(args.vocab)
    params, cfg = _load_model(args.checkpoint, vocab, args.vocab)
    encoded = _encode(args.input, vocab, labeled)
    return [gold for _, gold in encoded], predict_dataset([ids for ids, _ in encoded], params, cfg)


def cmd_evaluate(args) -> int:
    golds, preds = _predict_input(args, labeled=True)
    _require_nonempty(golds, args.input)
    report = metrics(confusion(golds, preds))
    if args.output:
        with replacing(args.output) as handle:
            handle.write(json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n")
    print(format_report(report))
    print(f"macro-F1 {report.macro.f1:.4f}")
    return 0


def cmd_predict(args) -> int:
    _, preds = _predict_input(args, labeled=args.labeled)
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
    p.add_argument("--inputs", nargs="+", required=True, help="preprocessed files")
    p.add_argument("--vocab", required=True, help="vocabulary output path")
    p.add_argument("--embedding-out", required=True, help="embedding payload stem")
    p.add_argument("--embeddings", help="pretrained word2vec file")
    p.add_argument("--embeddings-format", choices=("binary", "text"), default="binary")
    p.add_argument("--unlabeled", action="store_true")
    _add_config_flags(p)
    p.set_defaults(func=cmd_build_vocab)

    p = sub.add_parser("train", help="train on preprocessed data")
    p.add_argument("--train-file", required=True)
    p.add_argument("--dev-file", help="defaults to the training file")
    p.add_argument("--vocab", required=True)
    p.add_argument("--embeddings-payload", help="stem written by build-vocab")
    p.add_argument("--checkpoint-dir", required=True)
    p.add_argument(
        "--wall-clock",
        action="store_true",
        help="record real epoch durations (history files then differ across runs)",
    )
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    model_input = argparse.ArgumentParser(add_help=False)  # evaluate's and predict's
    model_input.add_argument("--input", required=True)
    model_input.add_argument("--vocab", required=True)
    model_input.add_argument("--checkpoint", required=True, help="checkpoint stem")

    p = sub.add_parser("evaluate", parents=[model_input], help="score a labeled file against a checkpoint")
    p.add_argument("--output", help="write the report as JSON")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", parents=[model_input], help="write one label per input line")
    p.add_argument("--output", required=True)
    p.add_argument("--labeled", action="store_true", help="input has a label column to ignore")
    p.set_defaults(func=cmd_predict)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except (EmocapsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # config value out of range: an argument problem, not a data problem
        print(f"bad arguments: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
