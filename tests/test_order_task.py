"""A task the model must learn, and a bag of words cannot: the class is
decided by word order.

Each tweet is filler words around one target word, `<targetword>`, the tag
preprocessing makes of `[#TARGETWORD#]`. Three cue pairs share the six
classes between them: a tweet of class 2k holds word a of pair k before the
target and word b after it, and one of class 2k + 1 holds b before and a
after. Both classes of a pair hold the same words, so only their order
tells them apart: counts of tokens find the pair, and then guess.
"""

from __future__ import annotations

import numpy as np

from emocaps.embeddings import Vocabulary, build_embedding
from emocaps.evaluation import LABELS, confusion, metrics
from emocaps.textprep import TAG_SURFACES
from emocaps.training import TrainConfig, init_model, predict_dataset, train

TARGET = TAG_SURFACES["TARGETWORD"]
PAIRS = [(f"cue{k}a", f"cue{k}b") for k in range(len(LABELS) // 2)]


def order_task(rng, sizes=(360, 120, 300), fillers=30):
    """Seeded train, dev and test splits of `sizes` (tokens, class) pairs.
    Either side of the target holds 1-4 fillers and one cue word, placed
    at random among them; the fillers are drawn from `fillers` words."""
    words = [f"filler{k}" for k in range(fillers)]

    def side(cue):
        tokens = [str(w) for w in rng.choice(words, rng.integers(1, 5))]
        tokens.insert(int(rng.integers(len(tokens) + 1)), cue)
        return tokens

    def tweet(c):
        before, after = PAIRS[c // 2] if c % 2 == 0 else PAIRS[c // 2][::-1]
        return side(before) + [TARGET] + side(after)

    return [[(tweet(c), c) for c in rng.integers(len(LABELS), size=size).tolist()] for size in sizes]


def bag_of_words_labels(train_split, test_split) -> list[int]:
    """A multinomial naive Bayes over token counts, add-one smoothed,
    fitted on `train_split`; its label for each tweet of `test_split`."""
    vocab = {w: i for i, w in enumerate(sorted({w for tokens, _ in train_split + test_split for w in tokens}))}

    def counts(split):
        X = np.zeros((len(split), len(vocab)))
        for row, (tokens, _) in enumerate(split):
            np.add.at(X[row], [vocab[w] for w in tokens], 1.0)
        return X

    X, y = counts(train_split), np.array([c for _, c in train_split])
    per_class = np.stack([X[y == c].sum(axis=0) for c in range(len(LABELS))]) + 1.0
    log_word = np.log(per_class / per_class.sum(axis=1, keepdims=True))
    log_prior = np.log(np.bincount(y, minlength=len(LABELS)) + 1.0)
    return np.argmax(counts(test_split) @ log_word.T + log_prior, axis=1).tolist()


def macro_f1(split, labels) -> float:
    return metrics(confusion([c for _, c in split], labels))["macro"]["f1"]


def test_the_model_learns_word_order_a_bag_of_words_cannot():
    """Held-out macro-F1 after training at small dims, against naive Bayes
    on the same split.

    With seed k for both the task and the run, seeds 0-4 read 0.993-1.000
    held-out (19-23 epochs, 1.6-2.0 s each on a 2-vCPU Xeon) and 0.46-0.54
    for naive Bayes. The model's bound leaves a margin of 0.09 below its
    lowest reading; the baseline's leaves 0.16 above its highest, and is
    0.20 under the model's bound. A GRU whose recurrent terms were zeroed
    read 0.38-0.42 held-out on seeds 0-1."""
    train_split, dev_split, test_split = order_task(np.random.default_rng(0))
    vocab = Vocabulary.build(tokens for tokens, _ in train_split)
    encode = lambda split: [(vocab.encode(tokens), c) for tokens, c in split]  # noqa: E731
    cfg = TrainConfig(embed_dim=16, hidden_dim=16, num_capsules=4, capsule_dim=4, batch_size=16,
                      learning_rate=3e-3, patience=8, seed=0)
    params = init_model(cfg, build_embedding(vocab, {}, cfg.embed_dim, cfg.seed))
    params, history = train(encode(train_split), encode(dev_split), params, cfg)
    held_out = macro_f1(test_split, predict_dataset([ids for ids, _ in encode(test_split)], params, cfg))
    baseline = macro_f1(test_split, bag_of_words_labels(train_split, test_split))
    assert held_out > 0.90, (held_out, len(history))
    assert baseline < 0.70, baseline
