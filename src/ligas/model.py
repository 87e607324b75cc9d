"""Small deterministic transformer-encoder binary classifier.

The encoder maps token embeddings to acceptability logits through a stack
of post-norm self-attention blocks, pools the first position, and applies
a linear classifier. Each block runs all of its attention heads in one
``(..., n_heads, n, d/n_heads)`` stack (the batched multi-head attention
of Vaswani et al. 2017). The classifier reads only the pooled row, so the
last block computes only it: its query, attention output, layer norms and
feed-forward run on row 0, while its keys and values still come from
every row (the word-vector elimination of PoWER-BERT, Goyal et al. 2020,
arXiv:2001.08950, carried through to the last block).
``logits_from_embeddings`` is the attribution entry point: it exposes the
logits as a differentiable function of the embedding matrix, or of a stack
of them, each row computed as it would be on its own.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import config_digest, stream_rng, write_artifact
from .errors import DataError, NumericError, UsageError
from .tokenizer import Vocabulary

CLASSES = ("LA", "LUA")
LA, LUA = CLASSES

WEIGHTS_MAGIC = b"LIGASW01"


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    d_model: int = 32
    n_heads: int = 4
    n_layers: int = 2
    d_ff: int = 64
    max_seq_len: int = 32
    seed: int = 0
    n_classes: int = 2

    def __post_init__(self):
        for name in ("vocab_size", "d_model", "n_heads", "n_layers", "d_ff", "max_seq_len"):
            if getattr(self, name) <= 0:
                raise UsageError(f"ModelConfig.{name} must be positive")
        if self.d_model % self.n_heads != 0:
            raise UsageError(
                f"d_model {self.d_model} is not divisible by n_heads {self.n_heads}"
            )
        if self.n_classes != 2:
            raise UsageError("only binary acceptability classification is supported")
        if not (0 <= self.seed < 2**64):
            raise UsageError("seed must fit in 64 bits")


def tensor_shapes(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Named tensors of the model in their canonical (serialization) order."""
    d, ff = cfg.d_model, cfg.d_ff
    shapes: list[tuple[str, tuple[int, ...]]] = [
        ("tok_emb", (cfg.vocab_size, d)),
        ("pos_emb", (cfg.max_seq_len, d)),
    ]
    for i in range(cfg.n_layers):
        p = f"layer{i}"
        shapes += [
            (f"{p}.attn.wq", (d, d)),
            (f"{p}.attn.bq", (d,)),
            (f"{p}.attn.wk", (d, d)),
            (f"{p}.attn.wv", (d, d)),
            (f"{p}.attn.bv", (d,)),
            (f"{p}.attn.wo", (d, d)),
            (f"{p}.attn.bo", (d,)),
            (f"{p}.ln1.gain", (d,)),
            (f"{p}.ln1.bias", (d,)),
            (f"{p}.ff.w1", (d, ff)),
            (f"{p}.ff.b1", (ff,)),
            (f"{p}.ff.w2", (ff, d)),
            (f"{p}.ff.b2", (d,)),
            (f"{p}.ln2.gain", (d,)),
            (f"{p}.ln2.bias", (d,)),
        ]
    shapes += [("head.w", (d, cfg.n_classes)), ("head.b", (cfg.n_classes,))]
    return shapes


class ModelWeights:
    """Config plus the named parameter arrays, optionally with a vocabulary."""

    def __init__(self, config: ModelConfig, arrays: dict[str, np.ndarray],
                 vocab: Vocabulary | None = None):
        expected = tensor_shapes(config)
        names = [n for n, _ in expected]
        if names != list(arrays.keys()):
            extra = sorted(set(arrays) - set(names))
            missing = sorted(set(names) - set(arrays))
            raise DataError("weight tensor names do not match the model configuration"
                            f" (unexpected: {extra or 'none'}; missing: {missing or 'none'})")
        for name, shape in expected:
            if arrays[name].shape != shape:
                raise DataError(
                    f"tensor {name} has shape {arrays[name].shape}, expected {shape}"
                )
            if not np.isfinite(arrays[name]).all():
                raise DataError(f"tensor {name} contains non-finite values")
        self.config = config
        self.arrays = arrays
        self.vocab = vocab

    @property
    def names(self) -> list[str]:
        return list(self.arrays.keys())


def init(config: ModelConfig) -> ModelWeights:
    """Seeded initialization: uniform(-s, s) with s = 1/sqrt(d_model) for
    matrices, zeros for biases, identity affine for the layer norms."""
    rng = stream_rng(config.seed, "model-init")
    s = 1.0 / math.sqrt(config.d_model)
    arrays: dict[str, np.ndarray] = {}
    for name, shape in tensor_shapes(config):
        if name.endswith(".gain"):
            arrays[name] = np.ones(shape)
        elif len(shape) == 1:
            arrays[name] = np.zeros(shape)
        else:
            arrays[name] = rng.uniform(-s, s, size=shape)
    return ModelWeights(config, arrays)


@dataclass
class Prediction:
    logits: np.ndarray
    probs: np.ndarray
    predicted_class: str
    logits_tensor: Tensor = field(repr=False, default=None)
    probs_tensor: Tensor = field(repr=False, default=None)

    @property
    def predicted_index(self) -> int:
        return CLASSES.index(self.predicted_class)

    @property
    def predicted_prob(self) -> float:
        return float(self.probs[self.predicted_index])


def argmax_class(probs: np.ndarray) -> str:
    """Highest-probability class; an exact tie resolves to LUA."""
    la, lua = float(probs[0]), float(probs[1])
    if la == lua:
        return LUA
    return LA if la > lua else LUA


def _wrap(weights: ModelWeights, requires_grad: bool) -> dict[str, Tensor]:
    return {n: Tensor(a, requires_grad=requires_grad) for n, a in weights.arrays.items()}


def _attention(wts: dict[str, Tensor], prefix: str, x: Tensor, h: Tensor,
               n_heads: int) -> Tensor:
    """Self-attention output for the query rows ``x`` over the rows of ``h``.

    Every head runs in one stack: the projections are split into
    ``(..., n_heads, n, d/n_heads)`` heads, attended with one product,
    softmax and product over that stack, and merged back (Vaswani et al.
    2017).
    """
    q = ad.add(ad.matmul(x, wts[f"{prefix}.wq"]), wts[f"{prefix}.bq"])
    # no key bias: q·bk adds the same constant to every score in a row,
    # which the softmax removes
    k = ad.matmul(h, wts[f"{prefix}.wk"])
    v = ad.add(ad.matmul(h, wts[f"{prefix}.wv"]), wts[f"{prefix}.bv"])
    qh, kh, vh = (ad.split_heads(t, n_heads) for t in (q, k, v))
    scores = ad.scale(ad.matmul(qh, ad.transpose(kh)), 1.0 / math.sqrt(qh.shape[-1]))
    ctx = ad.merge_heads(ad.matmul(ad.softmax(scores, axis=-1), vh))
    return ad.add(ad.matmul(ctx, wts[f"{prefix}.wo"]), wts[f"{prefix}.bo"])


def _encode(wts: dict[str, Tensor], cfg: ModelConfig, e: Tensor,
            check: bool = True) -> Tensor:
    """The pooled first-position row, ``(..., 1, d)``, of the encoder stack.

    Only that row reaches the head, so the last layer computes only it
    (PoWER-BERT's word-vector elimination, Goyal et al. 2020): its query,
    residual, attention output, layer norms and feed-forward take row 0,
    and its keys and values every row of its input.
    """
    h = e
    for i in range(cfg.n_layers):
        p = f"layer{i}"
        x = ad.take_row(h, 0) if i == cfg.n_layers - 1 else h
        attn_out = _attention(wts, f"{p}.attn", x, h, cfg.n_heads)
        x = ad.layer_norm(ad.add(x, attn_out), wts[f"{p}.ln1.gain"], wts[f"{p}.ln1.bias"])
        up = ad.gelu(ad.add(ad.matmul(x, wts[f"{p}.ff.w1"]), wts[f"{p}.ff.b1"]))
        ff = ad.add(ad.matmul(up, wts[f"{p}.ff.w2"]), wts[f"{p}.ff.b2"])
        h = ad.layer_norm(ad.add(x, ff), wts[f"{p}.ln2.gain"], wts[f"{p}.ln2.bias"])
        if check:
            ad.check_finite(h, f"encoder layer {i}")
    return h


def _logits(wts: dict[str, Tensor], pooled: Tensor) -> Tensor:
    return ad.add(ad.matmul(pooled, wts["head.w"]), wts["head.b"])


def _check_ids(cfg: ModelConfig, ids: list[int], where: str = "embed") -> None:
    if not ids:
        raise DataError(f"{where}: empty token sequence")
    if len(ids) > cfg.max_seq_len:
        raise DataError(
            f"{where}: sequence of {len(ids)} tokens exceeds max_seq_len {cfg.max_seq_len}"
        )
    for t in ids:
        if not (0 <= t < cfg.vocab_size):
            raise DataError(f"{where}: token id {t} out of range [0, {cfg.vocab_size})")


def _embed(wts: dict[str, Tensor], ids: np.ndarray) -> Tensor:
    """Token + position embeddings of an ``(n,)`` id array, or of a ``(G, n)``
    stack of equal-length sentences, gathered from the two tables in ``wts``;
    a graph is recorded only when the tables track gradients."""
    positions = np.broadcast_to(np.arange(ids.shape[-1]), ids.shape)
    return ad.add(ad.rows(wts["tok_emb"], ids), ad.rows(wts["pos_emb"], positions))


def embed(weights: ModelWeights, token_ids) -> Tensor:
    """Token + position embeddings of a sentence; records no graph.

    Wrap the result's ``data`` in a gradient-tracking tensor to
    differentiate with respect to the embeddings.
    """
    ids = list(token_ids)
    _check_ids(weights.config, ids)
    tables = {n: Tensor(weights.arrays[n]) for n in ("tok_emb", "pos_emb")}
    return _embed(tables, np.asarray(ids, dtype=np.intp))


def logits_from_embeddings(weights: ModelWeights, e: Tensor) -> Tensor:
    """Logits of an ``(n, d)`` embedding matrix as a ``(1, n_classes)`` tensor,
    or of a ``(K, n, d)`` stack as ``(K, 1, n_classes)``; differentiable
    with respect to ``e``."""
    if not np.isfinite(e.data).all():
        raise NumericError("non-finite values in input embeddings")
    wts = _wrap(weights, requires_grad=False)
    return _logits(wts, _encode(wts, weights.config, e))


def prediction_of(logits: np.ndarray, probs: np.ndarray) -> Prediction:
    """The prediction for one row of logits and its softmax."""
    probs = probs.reshape(-1).copy()
    return Prediction(logits=logits.reshape(-1).copy(), probs=probs,
                      predicted_class=argmax_class(probs))


def forward_from_embeddings(weights: ModelWeights, e: Tensor) -> Prediction:
    """Run the encoder stack on an embedding matrix and classify.

    The returned prediction keeps tensor handles to the logits and
    probabilities so callers can differentiate either with respect to ``e``.
    """
    logits_t = logits_from_embeddings(weights, e)
    probs_t = ad.softmax(logits_t, axis=-1)
    pred = prediction_of(logits_t.data, probs_t.data)
    pred.logits_tensor, pred.probs_tensor = logits_t, probs_t
    return pred


def predict(weights: ModelWeights, token_ids) -> Prediction:
    return forward_from_embeddings(weights, embed(weights, token_ids))


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-3
    epochs: int = 30
    batch: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.lr <= 0 or self.epochs <= 0 or self.batch <= 0:
            raise UsageError("lr, epochs and batch must all be positive")
        if not math.isfinite(self.lr):
            raise UsageError(f"lr must be finite, got {self.lr!r}")


@dataclass
class TrainTrace:
    epoch_losses: list[float]
    final_accuracy: float


def _class_index(label: str) -> int:
    if label in CLASSES:
        return CLASSES.index(label)
    raise DataError(f"unknown class label {label!r}")


def _length_groups(examples: list[tuple[list[int], int]]) -> list[tuple[np.ndarray, list[int]]]:
    """Examples grouped by token count, each group as a ``(G, n)`` id array
    and its labels, in the order each length first appears; a group keeps
    its examples' order."""
    groups: dict[int, tuple[list, list]] = {}
    for ids, y in examples:
        rows, labels = groups.setdefault(len(ids), ([], []))
        rows.append(ids)
        labels.append(y)
    return [(np.array(rows, dtype=np.intp), labels) for rows, labels in groups.values()]


def _group_loss(wts: dict[str, Tensor], cfg: ModelConfig, ids: np.ndarray,
                labels: list[int]) -> Tensor:
    """Summed cross-entropy of a ``(G, n)`` stack of equal-length sentences."""
    logits = _logits(wts, _encode(wts, cfg, _embed(wts, ids), check=False))
    onehot = np.zeros(logits.shape)
    onehot[np.arange(len(labels)), 0, labels] = 1.0
    # stable log-sum-exp per row; the shift constants drop out of the gradient
    m = logits.data.max(axis=-1, keepdims=True)
    shifted = ad.sub(logits, Tensor(np.broadcast_to(m, logits.shape)))
    row_sums = ad.matmul(ad.exp(shifted), Tensor(np.ones((cfg.n_classes, 1))))
    lse = ad.add(ad.sum_all(ad.log(row_sums)), Tensor([m.sum()]))
    return ad.sub(lse, ad.sum_all(ad.mul(logits, Tensor(onehot))))


def _batch_loss(wts: dict[str, Tensor], cfg: ModelConfig,
                batch: list[tuple[list[int], int]]) -> Tensor:
    """Mean cross-entropy of a batch, one graph per length group."""
    total = None
    for ids, labels in _length_groups(batch):
        loss = _group_loss(wts, cfg, ids, labels)
        total = loss if total is None else ad.add(total, loss)
    return ad.scale(total, 1.0 / len(batch))


def train(weights: ModelWeights, corpus: list[tuple[list[int], str]],
          hyper: TrainConfig) -> tuple[ModelWeights, TrainTrace]:
    """Adam on cross-entropy; deterministic given the shuffle seed.

    ``corpus`` pairs token-id sequences with LA/LUA labels. Each batch is
    split into groups of equal-length sentences, and each group runs as one
    stack through the same embedding and encoder as :func:`predict`, with
    no padding; a batch's loss is the mean of its sentences' losses, with
    one backward pass per batch. Every sentence's ids are checked before
    the first step.
    """
    if not corpus:
        raise DataError("train: empty corpus")
    cfg = weights.config
    examples = [(list(ids), _class_index(label)) for ids, label in corpus]
    labels_present = {y for _, y in examples}
    if labels_present != {0, 1}:
        raise DataError("train: corpus must contain both LA and LUA examples")
    for i, (ids, _) in enumerate(examples):
        _check_ids(cfg, ids, f"train: example {i}")

    arrays = {n: a.copy() for n, a in weights.arrays.items()}
    adam_m = {n: np.zeros_like(a) for n, a in arrays.items()}
    adam_v = {n: np.zeros_like(a) for n, a in arrays.items()}
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    rng = stream_rng(hyper.seed, "train-shuffle")
    step = 0
    epoch_losses = []
    for epoch in range(hyper.epochs):
        order = rng.permutation(len(examples))
        loss_sum = 0.0
        for start in range(0, len(order), hyper.batch):
            batch = [examples[i] for i in order[start : start + hyper.batch]]
            wts = {n: Tensor(a, requires_grad=True) for n, a in arrays.items()}
            batch_loss = _batch_loss(wts, cfg, batch)
            value = batch_loss.item()
            if not math.isfinite(value):
                raise NumericError(f"training diverged at epoch {epoch}")
            loss_sum += value * len(batch)
            ad.backward(batch_loss)
            step += 1
            bc1 = 1.0 - beta1**step
            bc2 = 1.0 - beta2**step
            for name, t in wts.items():
                g = ad.grad_of(t)
                m = adam_m[name]
                v = adam_v[name]
                m *= beta1
                m += (1.0 - beta1) * g
                v *= beta2
                v += (1.0 - beta2) * (g * g)
                arrays[name] -= hyper.lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
        epoch_losses.append(loss_sum / len(examples))

    trained = ModelWeights(cfg, arrays, weights.vocab)
    return trained, TrainTrace(epoch_losses, accuracy(trained, corpus))


def accuracy(weights: ModelWeights, corpus: list[tuple[list[int], str]]) -> float:
    """Share of sentences whose :func:`predict` class is their label, from
    one forward pass per length group."""
    examples = [(list(ids), _class_index(label)) for ids, label in corpus]
    if not examples:
        raise DataError("accuracy: empty corpus")
    for i, (ids, _) in enumerate(examples):
        _check_ids(weights.config, ids, f"accuracy: example {i}")
    tables = {n: Tensor(weights.arrays[n]) for n in ("tok_emb", "pos_emb")}
    correct = 0
    for ids, labels in _length_groups(examples):
        # each row of the stack equals its own predict pass, bit for bit
        probs = ad.softmax(logits_from_embeddings(weights, _embed(tables, ids)), axis=-1)
        correct += sum(1 for row, y in zip(probs.data, labels)
                       if argmax_class(row[0]) == CLASSES[y])
    return correct / len(examples)


# ---------------------------------------------------------------------------
# weight container format
# ---------------------------------------------------------------------------


def save_weights(weights: ModelWeights, path: str) -> None:
    """Write the bit-exact weight container.

    Layout: 8-byte magic, little-endian u64 header length, UTF-8 JSON header
    (config, optional vocabulary, tensor directory with payload offsets),
    then the tensors as little-endian float64 in directory order.
    """
    entries = []
    blobs = []
    offset = 0
    for name, arr in weights.arrays.items():
        blob = np.ascontiguousarray(arr, dtype="<f8").tobytes()
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += len(blob)
        blobs.append(blob)
    config = asdict(weights.config)
    header: dict = {
        "config": config,
        "config_digest": config_digest(config),
        "tensors": entries,
        "payload_bytes": offset,
    }
    if weights.vocab is not None:
        header["vocab"] = weights.vocab.tokens
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with write_artifact(path, binary=True) as fh:
        fh.write(WEIGHTS_MAGIC)
        fh.write(struct.pack("<Q", len(head)))
        fh.write(head)
        for blob in blobs:
            fh.write(blob)


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def load_weights(path: str) -> ModelWeights:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != WEIGHTS_MAGIC:
        raise DataError(f"{path}: bad magic, not a weight container")
    if len(blob) < 16:
        raise DataError(f"{path}: truncated header")
    (head_len,) = struct.unpack("<Q", blob[8:16])
    if len(blob) < 16 + head_len:
        raise DataError(f"{path}: truncated header ({head_len} bytes declared)")
    try:
        header = json.loads(blob[16 : 16 + head_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"{path}: unreadable header: {exc}") from exc
    try:
        cfg = ModelConfig(**header["config"])
        entries = header["tensors"]
        declared = header["payload_bytes"]
    except (KeyError, TypeError, UsageError) as exc:
        raise DataError(f"{path}: malformed header: {exc}") from exc
    payload = blob[16 + head_len :]
    if len(payload) != declared:
        raise DataError(
            f"{path}: payload is {len(payload)} bytes, header declares {declared}"
        )
    if not isinstance(entries, list):
        raise DataError(f"{path}: malformed header: 'tensors' is not a list")
    arrays: dict[str, np.ndarray] = {}
    for i, entry in enumerate(entries):
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("shape"), list)
                and all(_is_count(n) for n in entry["shape"])
                and _is_count(entry.get("offset"))):
            raise DataError(f"{path}: tensor entry {i} is malformed: it needs a string "
                            f"'name', a 'shape' list of non-negative integers and a "
                            f"non-negative integer 'offset'")
        name, shape, start = entry["name"], tuple(entry["shape"]), entry["offset"]
        count = math.prod(shape)
        end = start + count * 8
        if end > len(payload):
            raise DataError(f"{path}: tensor {name} overruns the payload")
        arrays[name] = (
            np.frombuffer(payload[start:end], dtype="<f8").astype(np.float64).reshape(shape)
        )
    vocab = header.get("vocab")
    if vocab is not None:
        if not (isinstance(vocab, list) and all(isinstance(t, str) for t in vocab)):
            raise DataError(f"{path}: malformed header: 'vocab' is not a list of strings")
        if len(vocab) > cfg.vocab_size:
            raise DataError(f"{path}: vocabulary has {len(vocab)} tokens but the "
                            f"embedding table has {cfg.vocab_size} rows")
        vocab = Vocabulary(vocab)
    try:
        return ModelWeights(cfg, arrays, vocab)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
