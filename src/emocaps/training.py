"""Training pipeline: cross-entropy loss, Adam, gradient clipping, the
regularizers (Gaussian noise, spatial dropout), the end-to-end
forward/backward composition, and the epoch loop.

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
epoch visits every example, so `train` gathers these rows into a table of
their own before the first step and trains it as it trains every other
tensor, with plain dense arrays from the backward pass to Adam. Every other
row would take a zero gradient at every step, which dense Adam moves by
exactly zero, so the results are those of dense Adam over the whole table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .capsule import CapsuleCache, capsule_layer, capsule_layer_backward, init_capsule
from .embeddings import PAD, RESERVED, EmbeddingTable, embed, embed_backward
from .errors import (
    DimensionMismatch,
    EmptyDataset,
    EmptySequence,
    IdOutOfRange,
    LabelOutOfRange,
    MalformedHeader,
    NumericError,
    ShapeMismatch,
)
from .evaluation import confusion, metrics
from .nn import (
    N_CLASSES,
    BigruCache,
    DenseParams,
    GruParams,
    bigru_backward,
    bigru_forward,
    dense_backward,
    dense_forward,
    init_dense,
    init_gru,
    predict_class,
    softmax,
)

PAD_ID = RESERVED.index(PAD)  # embedding row pinned to zero; its gradient is zeroed


@dataclass
class TrainConfig:
    batch_size: int = 512
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
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

    def validate(self) -> None:
        for name in ("learning_rate", "epsilon", "clip_norm", "noise_std"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        for name in ("spatial_dropout", "capsule_dropout", "beta1", "beta2"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {value}")
        if self.clip_norm <= 0.0:
            raise ValueError(f"clip_norm must be positive, got {self.clip_norm}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.noise_std < 0.0:
            raise ValueError("noise_std must be non-negative")
        if self.learning_rate <= 0.0 or self.epsilon <= 0.0:
            raise ValueError("learning_rate and epsilon must be positive")
        if self.routing_iters < 1 or self.max_epochs < 1 or self.patience < 0:
            raise ValueError("routing_iters/max_epochs must be >= 1, patience >= 0")
        for name in ("embed_dim", "hidden_dim", "num_capsules", "capsule_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")


# the names checkpoints, clipping and Adam give to gru.*[0] and gru.*[1]
GRU_PREFIXES = ("gru_fwd", "gru_bwd")


def _gru_tensors(gru: GruParams) -> dict[str, np.ndarray]:
    """One view per direction and weight: gru.W_i[0] is "gru_fwd/W_i"."""
    return {f"{prefix}/{f.name}": getattr(gru, f.name)[k] for k, prefix in enumerate(GRU_PREFIXES) for f in fields(gru)}


@dataclass
class ModelParams:
    embedding: EmbeddingTable
    gru: GruParams
    capsule: np.ndarray  # (J, 2h, d_out) one transform per output capsule
    dense: DenseParams

    def tensors(self) -> dict[str, np.ndarray]:
        """Flat name -> array view of every trainable tensor, fixed order."""
        return {
            "embedding/W_e": self.embedding.weights,
            **_gru_tensors(self.gru),
            "capsule/W": self.capsule,
            "dense/W": self.dense.W,
            "dense/b": self.dense.b,
        }

    @classmethod
    def from_tensors(cls, tensors: dict[str, np.ndarray], where: str = "tensors") -> "ModelParams":
        """The model held in a name -> array dict, each GRU direction pair
        stacked. MalformedHeader names `where` and every missing tensor, or
        the first tensor whose shape disagrees with the dims the tensors imply:
        V and d from embedding/W_e, h from gru_fwd/W_h, J and d_out from capsule/W."""
        # a dim missing from its source's shape reads as 0, so a source of
        # the wrong rank fails its own check
        E, W_h, C = (np.shape(tensors.get(name)) + (0, 0, 0) for name in ("embedding/W_e", "gru_fwd/W_h", "capsule/W"))
        d, h, J, d_out = E[1], W_h[0], C[0], C[2]
        gru = {"W_i": (d, 3 * h), "W_h": (h, 3 * h), "b": (2, 3 * h)}
        expected = {
            "embedding/W_e": (E[0], d),
            **{f"{prefix}/{name}": shape for prefix in GRU_PREFIXES for name, shape in gru.items()},
            "capsule/W": (J, 2 * h, d_out),
            "dense/W": (J * d_out, N_CLASSES),
            "dense/b": (N_CLASSES,),
        }
        missing = [name for name in expected if name not in tensors]
        if missing:
            raise MalformedHeader(f"{where}: missing tensors: {', '.join(missing)}")
        for name, shape in expected.items():
            if tensors[name].shape != shape:
                raise MalformedHeader(f"{where}: tensor {name} has shape {tensors[name].shape}, expected {shape}")
        return cls(
            embedding=EmbeddingTable(weights=tensors["embedding/W_e"]),
            gru=GruParams(**{f.name: np.stack([tensors[f"{p}/{f.name}"] for p in GRU_PREFIXES]) for f in fields(GruParams)}),
            capsule=tensors["capsule/W"],
            dense=DenseParams(W=tensors["dense/W"], b=tensors["dense/b"]),
        )


def init_model(cfg: TrainConfig, embedding: EmbeddingTable) -> ModelParams:
    if embedding.weights.shape[1] != cfg.embed_dim:
        raise DimensionMismatch(
            f"embedding table is {embedding.weights.shape[1]}-dimensional, config says {cfg.embed_dim}"
        )
    rng = np.random.default_rng([cfg.seed, 0])
    return ModelParams(
        embedding=embedding,
        gru=init_gru(cfg.embed_dim, cfg.hidden_dim, rng),
        capsule=init_capsule(cfg.num_capsules, 2 * cfg.hidden_dim, cfg.capsule_dim, rng),
        dense=init_dense(cfg.num_capsules * cfg.capsule_dim, rng),
    )


@dataclass
class AdamState:
    """Adam moments per tensor name, each of its tensor's shape."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0


def init_adam(tensors: dict[str, np.ndarray]) -> AdamState:
    """Zero moments for every tensor of a name -> array dict."""
    return AdamState(
        m={name: np.zeros_like(t) for name, t in tensors.items()},
        v={name: np.zeros_like(t) for name, t in tensors.items()},
    )


def cross_entropy_loss(probs: np.ndarray, golds):
    """Negative log-likelihood of each row's gold class, for (B, N_CLASSES)
    probabilities and B gold classes; returns (losses (B,), dL/dlogits
    (B, N_CLASSES)), the gradient being that of the losses' sum."""
    golds = np.asarray(golds, dtype=np.intp)
    if probs.ndim != 2 or golds.shape != probs.shape[:1]:
        raise ShapeMismatch(f"{golds.shape} gold classes for probabilities {probs.shape}")
    bad = golds[(golds < 0) | (golds >= N_CLASSES)]
    if bad.size:
        raise LabelOutOfRange(f"gold class {bad.tolist()} outside 0..{N_CLASSES - 1}")
    rows = np.arange(len(golds))
    losses = -np.log(np.maximum(probs[rows, golds], 1e-12))
    grad_logits = probs.copy()
    grad_logits[rows, golds] -= 1.0
    return losses, grad_logits


def clip_gradients(grads: dict, clip_norm: float = 1.0) -> dict:
    """Scale all gradients in place so their global L2 norm is at most
    clip_norm. Raises NumericError naming the tensors whose norm is not
    finite, before anything is scaled."""
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
    return grads


def adam_step(tensors: dict, grads: dict, state: AdamState, cfg: TrainConfig) -> None:
    """Standard Adam with bias correction over name-keyed tensors; updates
    tensors and state in place and leaves `grads` alone. A gradient of the
    wrong shape raises ShapeMismatch before anything is updated."""
    if set(grads) != set(tensors):
        raise ShapeMismatch("gradient keys do not match parameter keys")
    for name, theta in tensors.items():
        if grads[name].shape != theta.shape:
            raise ShapeMismatch(f"{name}: gradient {grads[name].shape}, expected {theta.shape}")
    state.t += 1
    correct1 = 1.0 - cfg.beta1 ** state.t
    correct2 = 1.0 - cfg.beta2 ** state.t
    for name, theta in tensors.items():
        _adam_update(theta, grads[name].copy(), state.m[name], state.v[name], cfg, correct1, correct2)


def _adam_update(theta, g, m, v, cfg: TrainConfig, correct1: float, correct2: float) -> None:
    """One Adam step on `theta`, `m` and `v` in place, with `g` as scratch
    space (it is overwritten) and one more buffer. Every operation rounds as
    in `theta -= lr * (m / correct1) / (sqrt(v / correct2) + eps)`, so the
    result is bitwise that expression's."""
    scratch = np.multiply(g, g)
    scratch *= 1.0 - cfg.beta2
    v *= cfg.beta2
    v += scratch
    g *= 1.0 - cfg.beta1
    m *= cfg.beta1
    m += g
    np.divide(m, correct1, out=g)
    g *= cfg.learning_rate
    np.divide(v, correct2, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += cfg.epsilon
    g /= scratch
    theta -= g


def gaussian_noise(x: np.ndarray, std: float, rng) -> np.ndarray:
    """Additive zero-mean noise drawn from rng; identity at std 0."""
    if std == 0.0:
        return x
    return x + rng.normal(0.0, std, size=x.shape)


def spatial_dropout(X: np.ndarray, rate: float, rng):
    """Channel dropout with inverted scaling: one keep/drop draw per column,
    applied across every row; returns (output, broadcastable (1, columns)
    mask). The mask carries the 1/(1-rate) survivor scaling, so the
    backward pass is a plain multiply. At rate 0 the output is X itself and
    the mask all ones, and nothing is drawn. On a one-row input it is plain
    unit dropout."""
    if rate == 0.0:
        return X, np.ones((1, X.shape[1]))
    keep = rng.random((1, X.shape[1])) >= rate
    mask = keep / (1.0 - rate)
    return X * mask, mask


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
    """Sequence b's rows through spatial dropout and then Gaussian noise,
    both drawn from its own stream rngs[b]; returns (output, the (B,
    columns) dropout masks, one per sequence)."""
    out = np.empty_like(rows)
    masks = []
    start = 0
    for n, rng in zip(lengths, rngs):
        part, mask = spatial_dropout(rows[start : start + n], rate, rng)
        out[start : start + n] = gaussian_noise(part, std, rng)
        masks.append(mask)
        start += n
    return out, np.concatenate(masks)


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
    cache is None.
    """
    if len(sequences) == 0:
        raise EmptySequence("no sequences to classify")
    if rngs is not None and len(rngs) != len(sequences):
        raise ValueError(f"a training pass needs one random stream per sequence, got {len(rngs)} for {len(sequences)}")
    lengths = [len(ids) for ids in sequences]
    if min(lengths) == 0:
        raise EmptySequence("cannot classify an empty token sequence")
    training_pass = rngs is not None
    ids = np.concatenate([np.asarray(s, dtype=np.intp) for s in sequences])
    X = embed(ids, params.embedding)
    if training_pass:
        X, spatial_mask = _regularize(X, lengths, rngs, cfg.spatial_dropout, cfg.noise_std)
    H, bigru_cache = bigru_forward(X, lengths, params.gru, keep_cache=training_pass)
    c, caps_cache = capsule_layer(H, lengths, params.capsule, cfg.routing_iters)
    if training_pass:
        c, drop_mask = _regularize(c, [1] * len(c), rngs, cfg.capsule_dropout, cfg.noise_std)
    probs = softmax(dense_forward(c, params.dense))
    if not training_pass:
        return probs, None
    cache = ForwardCache(
        ids=ids,
        lengths=lengths,
        spatial_mask=spatial_mask,
        bigru=bigru_cache,
        capsule=caps_cache,
        drop_mask=drop_mask,
        c=c,
    )
    return probs, cache


def backward_full(grad_logits: np.ndarray, cache: ForwardCache, params: ModelParams, grads: dict) -> None:
    """Add the gradients of every trainable tensor, given dL/dlogits
    (B, N_CLASSES) of a training pass and summed over its sequences, into
    `grads`, one array per ModelParams.tensors() key and of its shape.
    Additive noise backpropagates as identity.

    The cache is consumed: its capsule cache, whose routing blocks the
    capsule backward frees, is dropped once that backward has run, so it
    (and the capsule weight gradient, added to `grads` by then) is freed
    before the Bi-GRU backward allocates its own arrays. That backward
    consumes the Bi-GRU cache and grad_H, which no name here keeps. A second call raises
    ValueError."""
    if cache.capsule is None:
        raise ValueError("this forward cache has already been backpropagated")
    grad_c, gW_dense, gb_dense = dense_backward(grad_logits, cache.c, params.dense)
    grads["dense/W"] += gW_dense
    grads["dense/b"] += gb_dense
    grad_H_and_W = list(capsule_layer_backward(grad_c * cache.drop_mask, cache.capsule, params.capsule))
    grads["capsule/W"] += grad_H_and_W.pop()
    cache.capsule = None
    # grad_H goes from the list straight to bigru_backward, which frees it once gathered
    grad_X, g_gru = bigru_backward(grad_H_and_W.pop(), cache.bigru, params.gru)
    grad_X *= np.repeat(cache.spatial_mask, cache.lengths, axis=0)
    rows, values = embed_backward(cache.ids, grad_X, params.embedding.weights.shape[0])
    grads["embedding/W_e"][rows] += values
    for name, t in _gru_tensors(g_gru).items():
        grads[name] += t


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
# at a time and a batch of sixteen 12-token tweets as one chunk.
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


def predict_dataset(sequences, params: ModelParams, cfg: TrainConfig) -> list[int]:
    """Eval-mode class prediction for every id sequence, in order. An empty
    sequence raises EmptySequence naming its 0-based index, before any
    sequence is run. Sequences run in length-sorted chunks (`_chunks`)."""
    sequences = list(sequences)
    for index, ids in enumerate(sequences):
        if len(ids) == 0:
            raise EmptySequence(f"sequence {index} is empty: cannot classify an empty token sequence")
    labels = [0] * len(sequences)
    for chunk in _chunks([len(ids) for ids in sequences], EVAL_CHUNK_TOKENS):
        probs, _ = forward_full([sequences[i] for i in chunk], params, cfg)
        for index, row in zip(chunk, probs):
            labels[index] = predict_class(row)
    return labels


def dataset_macro_f1(dataset, params: ModelParams, cfg: TrainConfig) -> float:
    preds = predict_dataset([ids for ids, _ in dataset], params, cfg)
    golds = [gold for _, gold in dataset]
    return metrics(confusion(golds, preds)).macro.f1


def _check_dataset(dataset, name: str, vocab_size: int) -> np.ndarray:
    """Sorted unique ids of a train or dev dataset. An empty dataset, a
    label outside the classes, an empty example (named by its 0-based
    index) or an id outside [0, vocab_size) raises, naming the dataset."""
    if len(dataset) == 0:
        raise EmptyDataset(f"{name} dataset is empty")
    for index, (ids, gold) in enumerate(dataset):
        if not 0 <= gold < N_CLASSES:
            raise LabelOutOfRange(f"label {gold} outside 0..{N_CLASSES - 1} in {name} dataset")
        if len(ids) == 0:
            raise EmptySequence(f"{name} dataset example {index} is empty: cannot classify an empty token sequence")
    unique = np.unique(np.concatenate([np.asarray(ids, dtype=np.intp) for ids, _ in dataset]))
    bad = unique[(unique < 0) | (unique >= vocab_size)]
    if bad.size:
        raise IdOutOfRange(f"{name} dataset holds ids outside [0, {vocab_size}): {bad.tolist()}")
    return unique


# a diverged run is reported once, by the NumericError naming its epoch and
# batch, not by numpy's warnings about the overflows that led to it
@np.errstate(all="ignore")
def train(train_set, dev_set, params: ModelParams, cfg: TrainConfig, clock=None):
    """Epoch loop with early stopping on dev macro-F1.

    Examples are shuffled per epoch from a seeded stream; per-example noise
    and dropout draw from streams keyed by (seed, epoch, position in the
    shuffled order). A batch runs in length-sorted chunks (`_chunks`,
    TRAIN_CHUNK_TOKENS); its losses stay in batch order. Updates zero the
    padding row's gradient, average the chunks' gradient sums over the
    batch, clip, then apply Adam; a non-finite gradient norm raises
    NumericError naming the epoch and batch before Adam runs, and numpy's
    floating-point warnings stay off throughout. Stops once the dev score
    has failed to improve for more than `patience` consecutive epochs, and
    restores the best-scoring parameters before returning.

    An empty train or dev example raises EmptySequence, and a train or
    dev id outside the embedding table IdOutOfRange, before the first
    step (`_check_dataset`). Every epoch visits every training example,
    so the rows of the training set's ids are the embedding rows training
    can move: they are gathered once into a table of their own, the
    training set is re-encoded to its row indices, and training updates
    that table, the model's other tensors in place. The trained rows are
    written back to the model's table before each dev pass and after the
    best epoch is restored, so a run that raises leaves the table as the
    last dev pass saw it.

    `clock` supplies the per-epoch seconds in the history; the default
    reports 0.0 so histories are byte-stable across machines.

    Returns (params, history): one history dict per completed epoch.
    """
    cfg.validate()
    train_set = list(train_set)
    dev_set = list(dev_set)
    W = params.embedding.weights
    slots = _check_dataset(train_set, "train", len(W))
    _check_dataset(dev_set, "dev", len(W))

    trainable = replace(params, embedding=EmbeddingTable(weights=W[slots]))
    train_set = [(np.searchsorted(slots, ids), gold) for ids, gold in train_set]
    tensors = trainable.tensors()
    # a <pad> slot is slot 0; each batch zeroes its gradient, and Adam moves a
    # row whose gradient and moments are zero by exactly 0.0
    pad = int(slots[0] == PAD_ID)
    adam = init_adam(tensors)
    history: list[dict] = []
    best_f1 = -1.0
    since_best = 0

    for epoch in range(cfg.max_epochs):
        started = clock() if clock is not None else 0.0
        order = np.random.default_rng([cfg.seed, 1, epoch]).permutation(len(train_set))
        losses = []
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            sums = {k: np.zeros_like(t) for k, t in tensors.items()}
            batch_losses = np.empty(len(batch))
            for chunk in _chunks([len(train_set[index][0]) for index in batch], TRAIN_CHUNK_TOKENS):
                examples = [train_set[batch[offset]] for offset in chunk]
                rngs = [np.random.default_rng([cfg.seed, 2, epoch, start + offset]) for offset in chunk]
                probs, cache = forward_full([ids for ids, _ in examples], trainable, cfg, rngs=rngs)
                batch_losses[chunk], grad_logits = cross_entropy_loss(probs, [gold for _, gold in examples])
                backward_full(grad_logits, cache, trainable, sums)
            losses.extend(batch_losses.tolist())
            sums["embedding/W_e"][:pad] = 0.0
            inv = 1.0 / len(batch)
            for total in sums.values():
                total *= inv
            try:
                clip_gradients(sums, cfg.clip_norm)
            except NumericError as exc:
                raise NumericError(f"epoch {epoch}, batch {start // cfg.batch_size}: {exc}") from exc
            adam_step(tensors, sums, adam, cfg)

        train_loss = float(np.mean(losses))
        if not np.isfinite(train_loss):
            raise NumericError(f"training loss diverged at epoch {epoch}")
        W[slots] = tensors["embedding/W_e"]
        dev_f1 = dataset_macro_f1(dev_set, params, cfg)
        seconds = (clock() - started) if clock is not None else 0.0
        history.append(
            {"epoch": epoch, "train_loss": train_loss, "dev_macro_f1": dev_f1, "seconds": seconds}
        )

        if dev_f1 > best_f1:
            best_f1 = dev_f1
            since_best = 0
            best_tensors = {k: t.copy() for k, t in tensors.items()}
        else:
            since_best += 1
            if since_best > cfg.patience:
                break

    # epoch 0 always sets best_tensors: its dev macro-F1 is at least 0
    for name, values in best_tensors.items():
        tensors[name][...] = values
    W[slots] = tensors["embedding/W_e"]
    return params, history
