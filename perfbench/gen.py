"""Seeded synthetic inputs for the emocaps benchmark.

Every file is written in the format the program's own loaders read, and the
same (workload, seed, toy) triple always gives byte-identical files:

* ``vocab.tsv``       id<TAB>word, read by ``Vocabulary.load``
* ``emb.{json,bin}``  embedding payload, read by ``load_checkpoint``
* ``model.{json,bin}`` paper-dims checkpoint, read by ``load_checkpoint``
* ``train.tsv`` / ``dev.tsv``  label<TAB>preprocessed text
* ``requests.txt``    one preprocessed tweet per line (some blank)
* ``lexicon.tsv``     word<TAB>count, read by ``Lexicon.from_file``
* ``raw.txt``         one raw tweet per line (some blank)

Run as a script to write one workload's inputs into a directory:

    python3 perfbench/gen.py --workload predict --seed 3 --out DIR
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

PAPER_DIMS = {"embed_dim": 300, "hidden_dim": 128, "num_capsules": 16, "capsule_dim": 32}
TOY_DIMS = {"embed_dim": 12, "hidden_dim": 6, "num_capsules": 3, "capsule_dim": 4}

# Why each workload exists is recorded in BENCHMARK.json; the numbers here
# size it. `length` is the inclusive token-count range of a tweet.
WORKLOADS = {
    "train-bigvocab": {
        "kind": "train", "vocab": 50_000, "train": 16, "dev": 32,
        "length": (10, 14), "batch_size": 16, "epochs": 2,
    },
    "train-longseq": {
        "kind": "train", "vocab": 2_000, "train": 32, "dev": 16,
        "length": (46, 54), "batch_size": 32, "epochs": 2,
    },
    "predict": {
        "kind": "predict", "vocab": 50_000, "lines": 6_000, "length": (5, 40),
    },
    "preprocess-oov": {
        "kind": "preprocess", "lexicon": 30_000, "lines": 6_000,
    },
}

TOY_SIZES = {
    "train-bigvocab": {"vocab": 300, "train": 12, "dev": 6, "length": (4, 7), "batch_size": 4},
    "train-longseq": {"vocab": 120, "train": 8, "dev": 6, "length": (10, 14), "batch_size": 8},
    "predict": {"vocab": 300, "lines": 400},
    "preprocess-oov": {"lexicon": 3_000, "lines": 300},
}

# One line in BLANK_EVERY is blank or whitespace-only. Real files hold such
# lines; the share is an assumption, not measured.
BLANK_EVERY = 50
BLANKS = ("", "   ", "\t")

_LETTERS = np.array(list("abcdefghijklmnopqrstuvwxyz"))
# Rough English letter frequencies, so random words look word-like and
# random edits rarely land on another word.
_LETTER_P = np.array([
    8.2, 1.5, 2.8, 4.3, 12.7, 2.2, 2.0, 6.1, 7.0, 0.2, 0.8, 4.0, 2.4,
    6.7, 7.5, 1.9, 0.1, 6.0, 6.3, 9.1, 2.8, 1.0, 2.4, 0.2, 2.0, 0.1,
])
_LETTER_P = _LETTER_P / _LETTER_P.sum()
_EMOTICONS = (":)", ":(", ":D", ";)", ":'(", ":P", ":/", "<3", "=)", ":-(")


def spec(workload: str, toy: bool = False) -> dict:
    """Sizes and dimensions of one workload."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
    out = dict(WORKLOADS[workload])
    out.update(TOY_SIZES[workload] if toy else {})
    out["dims"] = dict(TOY_DIMS if toy else PAPER_DIMS)
    return out


def zipf_p(n: int, s: float = 1.0) -> np.ndarray:
    p = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** s
    return p / p.sum()


def random_words(rng, count: int, lengths=(3, 10), taken=()) -> list[str]:
    """`count` distinct lowercase words, none of them in `taken`."""
    seen = set(taken)
    words: list[str] = []
    while len(words) < count:
        need = count - len(words)
        lens = rng.integers(lengths[0], lengths[1] + 1, size=2 * need)
        letters = rng.choice(_LETTERS, size=(2 * need, lengths[1]), p=_LETTER_P)
        for n, row in zip(lens, letters):
            word = "".join(row[:n])
            if word not in seen:
                seen.add(word)
                words.append(word)
                if len(words) == count:
                    break
    return words


def blank_or(index: int, line: str) -> str:
    if index % BLANK_EVERY == BLANK_EVERY - 1:
        return BLANKS[(index // BLANK_EVERY) % len(BLANKS)]
    return line


# ---------------------------------------------------------------- training data


def class_slices(n_words: int, n_fillers: int, n_classes: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Word ranks (0 = most frequent corpus word): a filler head shared by all
    classes, then the rest dealt round-robin so each class owns a Zipf slice
    that spans the whole vocabulary."""
    fillers = np.arange(n_fillers)
    rest = np.arange(n_fillers, n_words)
    return fillers, [rest[c::n_classes] for c in range(n_classes)]


def labeled_tweets(rng, count, length, fillers, slices, words, labels):
    """Tweets whose signature words come from their class's slice."""
    fill_p = zipf_p(len(fillers))
    slice_p = [zipf_p(len(s)) for s in slices]
    lines = []
    for i in range(count):
        c = i % len(labels)
        n = int(rng.integers(length[0], length[1] + 1))
        own = rng.random(n - 1) < 0.5
        sig = slices[c][rng.choice(len(slices[c]), size=n - 1, p=slice_p[c])]
        fill = fillers[rng.choice(len(fillers), size=n - 1, p=fill_p)]
        tokens = [words[int(r)] for r in np.where(own, sig, fill)]
        tokens.insert(int(rng.integers(0, n)), "<targetword>")
        lines.append((labels[c], " ".join(tokens)))
    order = rng.permutation(len(lines))
    return [lines[k] for k in order]


def embedding_table(rng, id_to_word, slices, n_reserved, dim, pad_id):
    """Pretrained-style rows: uniform noise plus a per-class direction for
    each class's signature words, so emotion words cluster."""
    weights = rng.uniform(-0.05, 0.05, size=(len(id_to_word), dim))
    directions = rng.normal(0.0, 0.02, size=(len(slices), dim))
    for c, ranks in enumerate(slices):
        weights[ranks + n_reserved] += directions[c]
    weights[pad_id] = 0.0
    return weights


def write_vocab(out: Path, id_to_word) -> None:
    from emocaps.embeddings import Vocabulary

    Vocabulary({w: i for i, w in enumerate(id_to_word)}, list(id_to_word)).save(out / "vocab.tsv")


def gen_train(rng, sp: dict, out: Path, seed: int) -> None:
    from emocaps.checkpoint import save_checkpoint
    from emocaps.embeddings import PAD, RESERVED
    from emocaps.evaluation import LABELS

    words = random_words(rng, sp["vocab"] - len(RESERVED), taken=RESERVED)
    id_to_word = list(RESERVED) + words
    write_vocab(out, id_to_word)
    fillers, slices = class_slices(len(words), max(len(words) // 50, 10), len(LABELS))
    dim = sp["dims"]["embed_dim"]
    W = embedding_table(rng, id_to_word, slices, len(RESERVED), dim, RESERVED.index(PAD))
    save_checkpoint(out / "emb", {"embedding/W_e": W}, {"embed_dim": dim, "vocab_size": len(id_to_word)}, seed)
    for name in ("train", "dev"):
        rows = labeled_tweets(rng, sp[name], sp["length"], fillers, slices, words, LABELS)
        (out / f"{name}.tsv").write_text("".join(f"{l}\t{t}\n" for l, t in rows), encoding="utf-8")


def gen_predict(rng, sp: dict, out: Path, seed: int) -> None:
    """A paper-dims checkpoint as `emocaps train` would save it, and a file of
    preprocessed tweets to classify."""
    from emocaps.checkpoint import save_checkpoint
    from emocaps.embeddings import PAD, RESERVED, EmbeddingTable
    from emocaps.evaluation import LABELS
    from emocaps.training import TrainConfig, init_model

    words = random_words(rng, sp["vocab"] - len(RESERVED), taken=RESERVED)
    id_to_word = list(RESERVED) + words
    write_vocab(out, id_to_word)
    fillers, slices = class_slices(len(words), max(len(words) // 50, 10), len(LABELS))
    cfg = TrainConfig(seed=seed, **sp["dims"])
    W = embedding_table(rng, id_to_word, slices, len(RESERVED), cfg.embed_dim, RESERVED.index(PAD))
    params = init_model(cfg, EmbeddingTable(weights=W))
    save_checkpoint(out / "model", params.tensors(), cfg.__dict__.copy(), cfg.seed)
    rows = labeled_tweets(rng, sp["lines"], sp["length"], fillers, slices, words, LABELS)
    lines = [blank_or(i, text) for i, (_, text) in enumerate(rows)]
    (out / "requests.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


# ------------------------------------------------------------ preprocessing data


def _edit(rng, word: str) -> str:
    i = int(rng.integers(0, len(word)))
    letter = str(rng.choice(_LETTERS, p=_LETTER_P))
    op = int(rng.integers(0, 4))
    if op == 0 and len(word) > 1:
        return word[:i] + word[i + 1 :]
    if op == 1 and i < len(word) - 1:
        return word[:i] + word[i + 1] + word[i] + word[i + 2 :]
    if op == 2:
        return word[:i] + letter + word[i + 1 :]
    return word[:i] + letter + word[i:]


def _near(word: str, known) -> bool:
    """True when a known word lies one edit away (the cheap spelling case)."""
    splits = [(word[:i], word[i:]) for i in range(len(word) + 1)]
    edits = [a + b[1:] for a, b in splits if b]
    edits += [a + b[1] + b[0] + b[2:] for a, b in splits if len(b) > 1]
    edits += [a + c + b[1:] for a, b in splits if b for c in "abcdefghijklmnopqrstuvwxyz"]
    edits += [a + c + b for a, b in splits for c in "abcdefghijklmnopqrstuvwxyz"]
    return any(w in known for w in edits)


def oov_pools(rng, lexicon_words, size: int) -> tuple[list[str], list[str]]:
    """Two pools of out-of-lexicon surfaces, each in Zipf rank order.

    Near forms are one-edit typos of 6 letters: a known word lies one edit
    away, so spell_correct stops after its first tier. Far forms are
    two-edit typos of 7 distinct letters with no known word one edit away,
    which send spell_correct through its edits-squared search. Fixed lengths
    keep the cost of each kind alike, so the seed changes which words appear
    but not how much work they are."""
    known = set(lexicon_words)
    head = lexicon_words[: max(len(lexicon_words) // 5, 50)]
    seen: set[str] = set()
    near: list[str] = []
    far: list[str] = []
    while len(near) < size or len(far) < size:
        base = head[int(rng.integers(0, len(head)))]
        if len(near) < size:
            form = _edit(rng, base)
            ok = len(form) == 6 and _near(form, known)
            bucket = near
        else:
            form = _edit(rng, _edit(rng, base))
            ok = len(form) == 7 and len(set(form)) == 7 and not _near(form, known)
            bucket = far
        if ok and form.isalpha() and form not in known and form not in seen:
            seen.add(form)
            bucket.append(form)
    return near, far


def raw_tweet(rng, words, word_p, near, far, pool_p, tags, tag_p, index: int) -> str:
    """Lexicon words with one near typo; every third tweet also carries one
    far typo, so the share of expensive tweets is the same for every seed."""
    n = int(rng.integers(7, 12))
    tokens = [words[k] for k in rng.choice(len(words), size=n, p=word_p)]
    if rng.random() < 0.5:
        tokens[0] = tokens[0].capitalize()
    extras = ["[#TARGETWORD#]", near[int(rng.choice(len(near), p=pool_p))]]
    if index % 3 == 0:
        extras.append(far[int(rng.choice(len(far), p=pool_p))])
    if rng.random() < 0.4:
        extras.append(tags[int(rng.choice(len(tags), p=tag_p))])
    if rng.random() < 0.3:
        extras.append(f"@user{int(rng.integers(0, 500))}")
    if rng.random() < 0.15:
        extras.append(f"http://t.co/x{index}")
    if rng.random() < 0.3:
        extras.append(_EMOTICONS[int(rng.integers(0, len(_EMOTICONS)))])
    for extra in extras:
        tokens.insert(int(rng.integers(0, len(tokens) + 1)), extra)
    if rng.random() < 0.3:
        tokens.append(("!", "!!", "...", "?")[int(rng.integers(0, 4))])
    return " ".join(tokens)


def gen_preprocess(rng, sp: dict, out: Path, seed: int) -> None:
    words = random_words(rng, sp["lexicon"])
    counts = np.maximum((2_000_000 * zipf_p(len(words))).astype(np.int64), 1)
    (out / "lexicon.tsv").write_text(
        "".join(f"{w}\t{int(c)}\n" for w, c in zip(words, counts)), encoding="utf-8"
    )
    near, far = oov_pools(rng, words, max(sp["lexicon"] // 150, 20))
    # Hashtags join three common 5-letter words: segment_hashtag's cost
    # grows with the square of the body's length, which is thus fixed.
    parts_pool = [w for w in words[:2_000] if len(w) == 5]
    tags = []
    for _ in range(max(sp["lexicon"] // 150, 10)):
        parts = [parts_pool[int(k)] for k in rng.integers(0, len(parts_pool), size=3)]
        camel = rng.random() < 0.5
        tags.append("#" + "".join(p.capitalize() if camel else p for p in parts))
    word_p, pool_p, tag_p = zipf_p(len(words)), zipf_p(len(near), 1.1), zipf_p(len(tags), 1.1)
    lines = [
        blank_or(i, raw_tweet(rng, words, word_p, near, far, pool_p, tags, tag_p, i))
        for i in range(sp["lines"])
    ]
    (out / "raw.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


GENERATORS = {"train": gen_train, "predict": gen_predict, "preprocess": gen_preprocess}


def generate(workload: str, seed: int, out, toy: bool = False) -> None:
    """Write the inputs of `workload` for `seed` into directory `out`."""
    sp = spec(workload, toy)
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    GENERATORS[sp["kind"]](rng, sp, out, seed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--toy", action="store_true", help="tiny sizes, for the smoke test")
    parser.add_argument("--src", default="src", help="directory holding the emocaps package")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    generate(args.workload, args.seed, args.out, args.toy)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
