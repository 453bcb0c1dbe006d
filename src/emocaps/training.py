"""Training pipeline: cross-entropy loss, Adam, gradient clipping, the
regularizers (Gaussian noise, spatial dropout), the end-to-end
forward/backward composition, and the run: one state, one step, one epoch.

Training runs each batch in length-sorted chunks of at most
TRAIN_CHUNK_TOKENS tokens: one forward and one backward pass per chunk, and
the batch sums add one gradient per chunk. Every example still draws its
dropout masks and noise from its own stream, so a one-example chunk draws
what a pass over that example alone draws. The eval pass (`predict_dataset`,
and so the per-epoch dev score) runs chunks of at most EVAL_CHUNK_TOKENS
tokens and keeps no backward caches. In both, the Bi-GRU steps over packed
sequences with no padding, and only capsule routing pads each sequence with
zero rows, which leaves it exact. All randomness is drawn from streams
keyed by (seed, purpose, epoch, position), which makes runs reproducible.

Training updates only the embedding rows of the training set's ids: every
epoch visits every example, so `start_training` gathers these rows before
the first step into a table of their own, the embedding of
`TrainState.model`, which is trained as every other tensor is, with plain
dense arrays from the backward pass to Adam. Every other row would take a
zero gradient at every step, which dense Adam moves by exactly zero, so the
results are those of dense Adam over the whole table.

A run's own buffers are the four rows of one zeroed float64 block that
`start_training` allocates: Adam's `m` and `v`, the batch sums and the best
epoch's snapshot, each a name -> view dict in `ModelParams.tensors()` order,
and a better epoch is copied into its row in place. The block holds the
bytes separate arrays would; a single run is no faster, but jobs run back
to back in one process reuse its pages under glibc. The trained tensors
stay out of it: the model's arrays but the table are the caller's own.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from .capsule import CapsuleCache, capsule_layer, capsule_layer_backward
from .embeddings import PAD, RESERVED, EmbeddingTable, embed, embed_backward
from .errors import EmocapsError, NumericError
from .evaluation import confusion, metrics
from .nn import (
    N_CLASSES,
    BigruCache,
    GruParams,
    bigru_backward,
    bigru_forward,
    glorot_uniform,
    init_gru,
    predict_class,
    softmax,
)

PAD_ID = RESERVED.index(PAD)  # embedding row pinned to zero; its gradient is zeroed
BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8  # Adam's, fixed at Kingma & Ba's (2015) values


@dataclass(frozen=True)
class TrainConfig:
    """Every setting of a run. Frozen and checked when built, types first,
    so any config in hand is valid; `dataclasses.replace` makes a changed copy."""

    batch_size: int = 512
    learning_rate: float = 1e-3
    clip_norm: float = 1.0
    spatial_dropout: float = 0.3
    capsule_dropout: float = 0.25
    noise_std: float = 0.1
    routing_iters: int = 5
    max_epochs: int = 50
    patience: int = 5
    seed: int = 0
    embed_dim: int = 300
    hidden_dim: int = 128
    num_capsules: int = 16
    capsule_dim: int = 32

    def __post_init__(self) -> None:
        """Raise TypeError naming the first field of the wrong type, then
        ValueError naming the first setting out of its range, or the settings
        of a weight tensor too large for numpy."""
        for f in fields(self):  # an int field takes an int; a float field a float, or an int it converts
            value, kind = getattr(self, f.name), type(f.default)
            if kind is float and type(value) is int:
                object.__setattr__(self, f.name, float(value))
            elif type(value) is not kind:
                raise TypeError(f"{f.name} must be {kind.__name__}, got {value!r}")
        counts = ("batch_size", "routing_iters", "max_epochs", "embed_dim", "hidden_dim", "num_capsules", "capsule_dim")
        for names, in_range, rule in (
            (("learning_rate", "clip_norm", "noise_std"), math.isfinite, "finite"),
            (("spatial_dropout", "capsule_dropout"), lambda v: 0.0 <= v < 1.0, "in [0, 1)"),
            (("learning_rate", "clip_norm"), lambda v: v > 0.0, "positive"),
            (("noise_std", "patience", "seed"), lambda v: v >= 0, "non-negative"),
            (counts, lambda v: v >= 1, "at least 1"),
        ):
            for name in names:
                value = getattr(self, name)
                if not in_range(value):
                    raise ValueError(f"{name} must be {rule}, got {value}")
        # init_model's float64 weight tensors, hidden_dim's alone first: one
        # numpy cannot address is refused before any input is read
        h, J, d_out = self.hidden_dim, self.num_capsules, self.capsule_dim
        shapes = {"hidden_dim": (2, h, 3 * h), "num_capsules, hidden_dim, capsule_dim": (J, 2 * h, d_out),
                  "num_capsules, capsule_dim": (J * d_out, N_CLASSES), "embed_dim, hidden_dim": (2, self.embed_dim, 3 * h)}
        for names, shape in shapes.items():
            if 8 * math.prod(shape) > sys.maxsize:
                settings = ", ".join(f"{name} {getattr(self, name)}" for name in names.split(", "))
                raise ValueError(f"{settings}: a weight tensor of shape {shape} is larger than numpy can address")


@dataclass
class ModelParams:
    embedding: EmbeddingTable
    gru: GruParams
    capsule: np.ndarray  # (J, 2h, d_out) one transform per output capsule
    dense_W: np.ndarray  # (J * d_out, N_CLASSES) the head's weights
    dense_b: np.ndarray  # (N_CLASSES,) the head's bias

    def tensors(self) -> dict[str, np.ndarray]:
        """Flat name -> the model's own array of every trainable tensor, fixed order."""
        return {
            "embedding/W_e": self.embedding.weights,
            **{f"gru/{f.name}": getattr(self.gru, f.name) for f in fields(GruParams)},
            "capsule/W": self.capsule,
            "dense/W": self.dense_W,
            "dense/b": self.dense_b,
        }

    @classmethod
    def from_tensors(cls, tensors: dict[str, np.ndarray], where: str = "tensors") -> "ModelParams":
        """The model that holds the arrays of a name -> array dict themselves.
        EmocapsError names `where` and every missing tensor, or the first
        tensor whose shape disagrees with the dims the tensors imply: V and d
        from embedding/W_e, h from gru/W_h, J and d_out from capsule/W."""
        # a dim missing from its source's shape reads as 0, and h's source is
        # checked first, so a source of the wrong rank fails its own check
        E, W_h, C = (np.shape(tensors.get(name)) + (0, 0, 0) for name in ("embedding/W_e", "gru/W_h", "capsule/W"))
        d, h, J, d_out = E[1], W_h[1], C[0], C[2]
        expected = {
            "embedding/W_e": (E[0], d),
            "gru/W_i": (2, d, 3 * h),
            "gru/W_h": (2, h, 3 * h),
            "gru/b": (2, 2, 3 * h),
            "capsule/W": (J, 2 * h, d_out),
            "dense/W": (J * d_out, N_CLASSES),
            "dense/b": (N_CLASSES,),
        }
        missing = [name for name in expected if name not in tensors]
        if missing:
            raise EmocapsError(f"{where}: missing tensors: {', '.join(missing)}")
        for name in ("gru/W_h", *expected):
            if tensors[name].shape != expected[name]:
                raise EmocapsError(f"{where}: tensor {name} has shape {tensors[name].shape}, expected {expected[name]}")
        return cls(
            embedding=EmbeddingTable(weights=tensors["embedding/W_e"]),
            gru=GruParams(**{f.name: tensors[f"gru/{f.name}"] for f in fields(GruParams)}),
            capsule=tensors["capsule/W"],
            dense_W=tensors["dense/W"],
            dense_b=tensors["dense/b"],
        )


def init_model(cfg: TrainConfig, embedding: EmbeddingTable) -> ModelParams:
    if embedding.weights.shape[1] != cfg.embed_dim:
        raise EmocapsError(
            f"embedding table is {embedding.weights.shape[1]}-dimensional, config says {cfg.embed_dim}"
        )
    rng = np.random.default_rng([cfg.seed, 0])
    return ModelParams(
        embedding=embedding,
        gru=init_gru(cfg.embed_dim, cfg.hidden_dim, rng),
        capsule=glorot_uniform((cfg.num_capsules, 2 * cfg.hidden_dim, cfg.capsule_dim), rng),
        dense_W=glorot_uniform((cfg.num_capsules * cfg.capsule_dim, N_CLASSES), rng),
        dense_b=np.zeros(N_CLASSES),
    )


@dataclass
class AdamState:
    """Adam moments per tensor name, each of its tensor's shape."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0


def cross_entropy_loss(probs: np.ndarray, golds):
    """Negative log-likelihood of each row's gold class, for (B, N_CLASSES)
    probabilities and B gold classes; returns (losses (B,), dL/dlogits
    (B, N_CLASSES)), the gradient being that of the losses' sum."""
    golds = np.asarray(golds, dtype=np.intp)
    rows = np.arange(len(golds))
    losses = -np.log(np.maximum(probs[rows, golds], 1e-12))
    grad_logits = probs.copy()
    grad_logits[rows, golds] -= 1.0
    return losses, grad_logits


def clip_gradients(grads: dict, clip_norm: float) -> float:
    """Scale all gradients in place so their global L2 norm is at most
    clip_norm, and return that norm before clipping. Raises NumericError
    naming the tensors whose norm is not finite, before anything is scaled."""
    with np.errstate(over="ignore"):  # an overflow is reported below
        squares = {k: float(np.sum(g * g)) for k, g in grads.items()}
    bad = [k for k, sq in squares.items() if not math.isfinite(sq)]
    if bad:
        raise NumericError(f"gradient norm is not finite in {', '.join(bad)}")
    norm = np.sqrt(sum(squares.values()))
    if norm > clip_norm:
        scale = clip_norm / norm
        for g in grads.values():
            g *= scale
    return norm


def adam_step(tensors: dict, grads: dict, state: AdamState, cfg: TrainConfig) -> None:
    """Standard Adam with bias correction over name-keyed tensors; updates
    tensors and state in place and overwrites `grads`, its scratch space,
    which holds one array of each tensor's name and shape."""
    state.t += 1
    correct1 = 1.0 - BETA1 ** state.t
    correct2 = 1.0 - BETA2 ** state.t
    for name, theta in tensors.items():
        _adam_update(theta, grads[name], state.m[name], state.v[name], cfg.learning_rate, correct1, correct2)


def _adam_update(theta, g, m, v, lr: float, correct1: float, correct2: float) -> None:
    """One Adam step on `theta`, `m` and `v` in place, with `g` as scratch
    space (it is overwritten) and one more buffer. Every operation rounds as
    in `theta -= lr * (m / correct1) / (sqrt(v / correct2) + eps)`, so the
    result is bitwise that expression's."""
    scratch = np.multiply(g, g)
    scratch *= 1.0 - BETA2
    v *= BETA2
    v += scratch
    g *= 1.0 - BETA1
    m *= BETA1
    m += g
    np.divide(m, correct1, out=g)
    g *= lr
    np.divide(v, correct2, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += EPSILON
    g /= scratch
    theta -= g


@dataclass
class ForwardCache:
    """What a training pass keeps for `backward_full`, which consumes it."""

    ids: np.ndarray  # the sequences' ids back to back
    lengths: list[int]  # (B,) sequence lengths
    spatial_mask: np.ndarray  # (B, embed_dim) one mask per sequence
    bigru: BigruCache
    capsule: CapsuleCache | None  # None once backward_full has used it
    drop_mask: np.ndarray  # (B, J * d_out)
    c: np.ndarray  # (B, J * d_out) dense input, after dropout and noise


def _regularize(rows: np.ndarray, lengths, rngs, rate: float, std: float):
    """Spatial dropout and then Gaussian noise on each sequence's rows, the
    `lengths` of them back to back; returns (output, the (B, columns)
    dropout masks, one per sequence). Sequence b draws from its own stream
    rngs[b]: first one keep draw per column, applied across every row (on a
    one-row sequence, plain unit dropout), then its noise. The mask carries
    the 1/(1-rate) survivor scaling, so the backward pass is a plain
    multiply. At rate 0 the mask is all ones and at std 0 no noise is
    added; neither draws. Without streams (`rngs` None, the eval pass) it
    returns (rows, None)."""
    if rngs is None:
        return rows, None
    out = np.empty_like(rows)
    masks = np.ones((len(lengths), rows.shape[1]))
    start = 0
    for mask, n, rng in zip(masks, lengths, rngs):
        part = rows[start : start + n]
        if rate != 0.0:
            mask[:] = (rng.random(rows.shape[1]) >= rate) / (1.0 - rate)
            part = part * mask
        if std != 0.0:
            part = part + rng.normal(0.0, std, size=part.shape)
        out[start : start + n] = part
        start += n
    return out, masks


def forward_full(sequences, params: ModelParams, cfg: TrainConfig, *, rngs=None):
    """Whole pipeline over a chunk of id sequences: embed, spatial dropout,
    noise, bidirectional GRU, capsule routing, dropout, noise on the
    flattened capsule output, dense softmax. Returns (probs, cache), probs
    (B, N_CLASSES) one row per sequence.

    A pass given `rngs`, one generator per sequence, is a training pass:
    sequence b draws its spatial dropout mask, input noise, capsule dropout
    mask and capsule noise from rngs[b], in that order, and the pass keeps
    the caches `backward_full` needs. Without them the pass is the
    deterministic eval pass: every regularizer is an identity, and the
    cache is None. The sequences are those `_check_ids` passes.
    """
    lengths = [len(ids) for ids in sequences]
    ids = np.concatenate([np.asarray(s, dtype=np.intp) for s in sequences])
    X, spatial_mask = _regularize(embed(ids, params.embedding), lengths, rngs, cfg.spatial_dropout, cfg.noise_std)
    H, bigru_cache = bigru_forward(X, lengths, params.gru, keep_cache=rngs is not None)
    c, caps_cache = capsule_layer(H, lengths, params.capsule, cfg.routing_iters)
    c, drop_mask = _regularize(c, [1] * len(c), rngs, cfg.capsule_dropout, cfg.noise_std)
    probs = softmax(c @ params.dense_W + params.dense_b)
    if rngs is None:
        return probs, None
    return probs, ForwardCache(ids, lengths, spatial_mask, bigru_cache, caps_cache, drop_mask, c)


def backward_full(grad_logits: np.ndarray, cache: ForwardCache, params: ModelParams, grads: dict) -> None:
    """Add the gradients of every trainable tensor, given dL/dlogits
    (B, N_CLASSES) of a training pass and summed over its sequences, into
    `grads`, one array per ModelParams.tensors() key and of its shape.
    Additive noise backpropagates as identity.

    The cache is consumed: its capsule cache, whose routing blocks the
    capsule backward frees, is dropped once that backward has run, so it
    (and the capsule weight gradient, added to `grads` by then) is freed
    before the Bi-GRU backward allocates its own arrays. That backward
    consumes the Bi-GRU cache and grad_H, which no name here keeps. A cache
    backpropagates once."""
    grads["dense/W"] += cache.c.T @ grad_logits
    grads["dense/b"] += grad_logits.sum(axis=0)
    grad_c = grad_logits @ params.dense_W.T
    grad_H_and_W = list(capsule_layer_backward(grad_c * cache.drop_mask, cache.capsule, params.capsule))
    grads["capsule/W"] += grad_H_and_W.pop()
    cache.capsule = None
    # grad_H goes from the list straight to bigru_backward, which frees it once gathered
    grad_X, g_gru = bigru_backward(grad_H_and_W.pop(), cache.bigru, params.gru)
    grad_X *= np.repeat(cache.spatial_mask, cache.lengths, axis=0)
    rows, values = embed_backward(cache.ids, grad_X, params.embedding.weights.shape[0])
    grads["embedding/W_e"][rows] += values
    for f in fields(GruParams):
        grads[f"gru/{f.name}"] += getattr(g_gru, f.name)


# A chunk holds at most this many real tokens, and its zero-padded routing
# blocks at most twice as many rows; a longer sequence runs alone.
#
# Eval: that bounds the transient memory of a chunk's forward to about 6 MB
# at paper dims, whatever mix of lengths comes in, and still puts 8 or more
# tweets of up to 50 tokens into each GRU step and routing matmul.
EVAL_CHUNK_TOKENS = 512
# Training: a chunk's traced memory grows by about 20 KB a token at paper
# dims (backward caches of about 17 KB and the backward's transients), so a
# full chunk takes about 5 MB, and it runs 46-54-token tweets four or five
# at a time and a batch of sixteen 12-token tweets as one chunk. It stays
# at 256 because 512 measured no faster: on perfbench's train-longseq
# (2-vCPU host, 10 alternating 20-s pairs) items_per_ref_s read 132.7 ->
# 128.1, better in 2 of 10 pairs, and peak_rss_mb 85.6 -> 90.6.
TRAIN_CHUNK_TOKENS = 256


def _chunks(lengths: list[int], max_tokens: int) -> list[list[int]]:
    """Indices into `lengths`, stable-sorted by length and cut into chunks
    of at most `max_tokens` real tokens and 2 * `max_tokens` padded rows;
    a longer sequence runs alone."""
    chunks: list[list[int]] = []
    tokens = 0
    for index in sorted(range(len(lengths)), key=lengths.__getitem__):
        n = lengths[index]  # the longest so far: the chunk's block length
        if chunks and tokens + n <= max_tokens and (len(chunks[-1]) + 1) * n <= 2 * max_tokens:
            chunks[-1].append(index)
            tokens += n
        else:
            chunks.append([index])
            tokens = n
    return chunks


def _integer_type(kind: type) -> bool:
    """Whether `kind` is int or a numpy integer type; as in TrainConfig, bool is not one."""
    return issubclass(kind, (int, np.integer)) and kind is not bool


def _check_ids(sequences, vocab_size: int, item: str, whole: str = "") -> None:
    """The first id sequence that is empty, or holds an id that is not an
    integer (`_integer_type`) or ids outside [0, vocab_size), raises
    EmocapsError naming `item` and its 0-based index; for ids outside, it
    names `whole` instead when given, and lists those ids."""
    for index, ids in enumerate(sequences):
        if len(ids) == 0:
            raise EmocapsError(f"{item} {index} is empty: cannot classify an empty token sequence")
        if not all(map(_integer_type, set(map(type, ids)))):  # one test per type, not per id
            raise EmocapsError(f"{item} {index} holds {next(i for i in ids if not _integer_type(type(i)))!r}, not an integer id")
        if min(ids) < 0 or max(ids) >= vocab_size:
            bad = sorted({int(i) for i in ids if not 0 <= i < vocab_size})
            raise EmocapsError(f"{whole or f'{item} {index}'} holds ids outside [0, {vocab_size}): {bad}")


@np.errstate(all="ignore")
def predict_dataset(sequences, params: ModelParams, cfg: TrainConfig) -> list[int]:
    """Eval-mode class prediction for every id sequence, in order. Before
    any is run, a sequence that is empty, or holds an id that is not an
    integer row of the embedding table, raises EmocapsError naming its
    0-based index (`_check_ids`). Sequences run in length-sorted chunks
    (`_chunks`). A chunk whose probabilities are not all finite (weights
    holding a NaN, or large enough to overflow) raises NumericError naming
    the lowest index among its sequences that have one, with numpy's
    warnings off."""
    sequences = list(sequences)
    _check_ids(sequences, len(params.embedding.weights), "sequence")
    labels = np.zeros(len(sequences), dtype=np.intp)
    for chunk in _chunks([len(ids) for ids in sequences], EVAL_CHUNK_TOKENS):
        probs, _ = forward_full([sequences[i] for i in chunk], params, cfg)
        finite = np.isfinite(probs).all(axis=1)
        if not finite.all():
            raise NumericError(f"sequence {min(np.asarray(chunk)[~finite])}: class probabilities are not finite")
        labels[chunk] = predict_class(probs)
    return labels.tolist()


def dataset_macro_f1(dataset, params: ModelParams, cfg: TrainConfig) -> float:
    preds = predict_dataset([ids for ids, _ in dataset], params, cfg)
    golds = [gold for _, gold in dataset]
    return metrics(confusion(golds, preds))["macro"]["f1"]


def _check_dataset(dataset, name: str, vocab_size: int) -> np.ndarray:
    """Sorted unique ids of a train or dev dataset. An empty dataset, a
    label that is not an integer (`_integer_type`) in 0..N_CLASSES - 1, or
    an example `_check_ids` refuses raises EmocapsError naming the dataset
    and, but for ids outside the table, the example's 0-based index."""
    if len(dataset) == 0:
        raise EmocapsError(f"{name} dataset is empty")
    for index, (_, gold) in enumerate(dataset):
        if not _integer_type(type(gold)):
            raise EmocapsError(f"label {gold!r} is not an integer in {name} dataset example {index}")
        if not 0 <= gold < N_CLASSES:
            raise EmocapsError(f"label {gold} outside 0..{N_CLASSES - 1} in {name} dataset example {index}")
    _check_ids([ids for ids, _ in dataset], vocab_size, f"{name} dataset example", f"{name} dataset")
    return np.unique(np.concatenate([np.asarray(ids, dtype=np.intp) for ids, _ in dataset]))


@dataclass
class TrainState:
    """A training run: what `run_epoch` reads and advances, besides the dev
    set and the model whose table it writes back to. `adam.m`, `adam.v`,
    `sums` and `best` are views of one (4, n) block, n the size of
    model.tensors() together (`start_training`)."""

    slots: np.ndarray  # the training set's sorted unique ids: trained row i is the model's row slots[i]
    model: ModelParams  # the trained tensors: the trained-row table and the model's other arrays
    adam: AdamState
    examples: list  # the training set re-encoded to rows of the trained table
    sums: dict[str, np.ndarray]  # every batch's gradient sums, reused: one buffer per tensor of model.tensors()
    best: dict[str, np.ndarray]  # model.tensors() as of the best epoch, written over in place
    epoch: int = 0  # the next epoch to run
    best_f1: float = -1.0
    since_best: int = 0  # epochs since the best dev score


def start_training(train_set, dev_set, params: ModelParams) -> TrainState:
    """Check both datasets (`_check_dataset`) and set up a run: Adam's
    moments, the batch sums and the best snapshot zero, the rows of one
    block, and the training set re-encoded.
    Every epoch visits every training example, so the rows of the training
    set's ids are the embedding rows training can move: the state's model
    trains them as a table of their own, and the model's other arrays."""
    W = params.embedding.weights
    slots = _check_dataset(train_set, "train", len(W))
    _check_dataset(dev_set, "dev", len(W))
    model = replace(params, embedding=EmbeddingTable(weights=W[slots]))
    tensors = model.tensors()
    ends = np.cumsum([t.size for t in tensors.values()])
    m, v, sums, best = (
        {k: part.reshape(t.shape) for (k, t), part in zip(tensors.items(), np.split(row, ends[:-1]))}
        for row in np.zeros((4, ends[-1]))
    )
    examples = [(np.searchsorted(slots, ids), gold) for ids, gold in train_set]
    return TrainState(slots=slots, model=model, adam=AdamState(m=m, v=v), examples=examples, sums=sums, best=best)


def batch_gradients(state: TrainState, examples, start: int, cfg: TrainConfig) -> np.ndarray:
    """The (B,) losses, in batch order, of the re-encoded `examples` at
    `start` in epoch `state.epoch`'s order, and their gradients summed into
    `state.sums`, zeroed first. They run in length-sorted chunks (`_chunks`,
    TRAIN_CHUNK_TOKENS); offset i draws from the stream (seed, 2, epoch, start + i)."""
    for total in state.sums.values():
        total.fill(0.0)
    losses = np.empty(len(examples))
    for chunk in _chunks([len(ids) for ids, _ in examples], TRAIN_CHUNK_TOKENS):
        rngs = [np.random.default_rng([cfg.seed, 2, state.epoch, start + offset]) for offset in chunk]
        probs, cache = forward_full([examples[offset][0] for offset in chunk], state.model, cfg, rngs=rngs)
        losses[chunk], grad_logits = cross_entropy_loss(probs, [examples[offset][1] for offset in chunk])
        backward_full(grad_logits, cache, state.model, state.sums)
    return losses


def step(state: TrainState, size: int, cfg: TrainConfig) -> float:
    """One update from `state.sums`, the gradient sums of `size` examples,
    which it consumes: zero the `<pad>` slot's row (slot 0, if the training
    set holds it; Adam then moves it by exactly 0.0), average, clip, then
    Adam. Returns the norm before clipping; a non-finite one raises NumericError."""
    sums = state.sums
    sums["embedding/W_e"][: int(state.slots[0] == PAD_ID)] = 0.0
    for total in sums.values():
        total *= 1.0 / size
    norm = clip_gradients(sums, cfg.clip_norm)
    adam_step(state.model.tensors(), sums, state.adam, cfg)
    return norm


# a diverged run is reported once, by the NumericError naming its epoch and
# batch, not by numpy's warnings about the overflows that led to it
@np.errstate(all="ignore")
def run_epoch(state: TrainState, dev_set, params: ModelParams, cfg: TrainConfig) -> dict:
    """Epoch `state.epoch` over `state.examples`, shuffled from
    the stream (seed, 1, epoch), then a dev pass on `params`, to whose table
    the trained rows are first written back; returns the history record,
    without "seconds". A non-finite gradient norm raises NumericError naming
    the epoch and batch, with numpy's warnings off: a loss is not finite only
    when its probabilities are not, and then neither is that norm. The state
    counts the epoch and keeps the best dev score's tensors."""
    epoch = state.epoch
    order = np.random.default_rng([cfg.seed, 1, epoch]).permutation(len(state.examples))
    losses = []
    for start in range(0, len(order), cfg.batch_size):
        batch = order[start : start + cfg.batch_size]
        losses.extend(batch_gradients(state, [state.examples[index] for index in batch], start, cfg).tolist())
        try:
            step(state, len(batch), cfg)
        except NumericError as exc:
            raise NumericError(f"epoch {epoch}, batch {start // cfg.batch_size}: {exc}") from exc
    train_loss = float(np.mean(losses))
    params.embedding.weights[state.slots] = state.model.embedding.weights
    dev_f1 = dataset_macro_f1(dev_set, params, cfg)
    state.epoch += 1
    if dev_f1 > state.best_f1:
        state.best_f1, state.since_best = dev_f1, 0
        for name, t in state.model.tensors().items():
            state.best[name][...] = t
    else:
        state.since_best += 1
    return {"epoch": epoch, "train_loss": train_loss, "dev_macro_f1": dev_f1}


def finish_training(state: TrainState, params: ModelParams) -> None:
    """Restore the best epoch's tensors from `state.best` (epoch 0's dev
    macro-F1, at least 0, always writes them) and write the trained rows
    back to the model's table."""
    for name, t in state.model.tensors().items():
        t[...] = state.best[name]
    params.embedding.weights[state.slots] = state.model.embedding.weights


def train(train_set, dev_set, params: ModelParams, cfg: TrainConfig, clock=None):
    """`start_training`, then epochs (`run_epoch`) until `max_epochs`, or
    until the dev macro-F1 has failed to improve for more than `patience`
    epochs in a row, then `finish_training`. Returns (params, history), one
    record per epoch; `clock` supplies its seconds, which default to 0.0 so
    histories are byte-stable across machines."""
    dev_set = list(dev_set)
    state = start_training(list(train_set), dev_set, params)
    history: list[dict] = []
    while state.epoch < cfg.max_epochs and state.since_best <= cfg.patience:
        started = clock() if clock is not None else 0.0
        record = run_epoch(state, dev_set, params, cfg)
        record["seconds"] = (clock() - started) if clock is not None else 0.0
        history.append(record)
    finish_training(state, params)
    return params, history
