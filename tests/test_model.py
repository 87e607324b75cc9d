"""Encoder behavior: init, forward paths, training, weight container."""

import json
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ligas.autodiff as ad
import ligas.model
from ligas.autodiff import Tensor
from ligas.config import stream_rng
from ligas.errors import DataError, NumericError, UsageError
from ligas.model import (
    CLASSES,
    ModelConfig,
    ModelWeights,
    TrainConfig,
    accuracy,
    argmax_class,
    embed,
    forward_from_embeddings,
    init,
    load_weights,
    logits_from_embeddings,
    predict,
    save_weights,
    tensor_shapes,
    train,
)
from ligas.model import _batch_loss, _group_loss, _wrap
from ligas.tokenizer import Vocabulary, build_vocab, tokenize

SMALL = ModelConfig(vocab_size=40, d_model=16, n_heads=2, n_layers=2,
                    d_ff=24, max_seq_len=12, seed=5)


def test_config_validation():
    with pytest.raises(UsageError, match="divisible"):
        ModelConfig(vocab_size=10, d_model=30, n_heads=4)
    with pytest.raises(UsageError, match="positive"):
        ModelConfig(vocab_size=0)


def test_init_is_seeded_and_shaped():
    w1 = init(SMALL)
    w2 = init(SMALL)
    for name, shape in tensor_shapes(SMALL):
        assert w1.arrays[name].shape == shape
        assert np.array_equal(w1.arrays[name], w2.arrays[name])
    assert np.array_equal(w1.arrays["layer0.ln1.gain"], np.ones(16))
    assert np.array_equal(w1.arrays["layer0.attn.bq"], np.zeros(16))
    bound = 1.0 / np.sqrt(SMALL.d_model)
    assert np.abs(w1.arrays["tok_emb"]).max() <= bound
    different_seed = init(ModelConfig(vocab_size=40, d_model=16, n_heads=2,
                                      n_layers=2, d_ff=24, max_seq_len=12, seed=6))
    assert not np.array_equal(w1.arrays["tok_emb"], different_seed.arrays["tok_emb"])


def test_predict_equals_forward_of_embed_bitwise():
    weights = init(SMALL)
    ids = [2, 7, 9, 11, 3]
    via_predict = predict(weights, ids)
    via_compose = forward_from_embeddings(weights, embed(weights, ids))
    assert np.array_equal(via_predict.logits, via_compose.logits)
    assert np.array_equal(via_predict.probs, via_compose.probs)
    assert via_predict.predicted_class == via_compose.predicted_class


def test_probabilities_are_normalized():
    weights = init(SMALL)
    p = predict(weights, [2, 5, 3])
    assert p.probs.shape == (2,)
    assert abs(p.probs.sum() - 1.0) <= 1e-12
    assert p.predicted_class in CLASSES


def test_argmax_tie_resolves_to_lua():
    assert argmax_class(np.array([0.5, 0.5])) == "LUA"
    assert argmax_class(np.array([0.7, 0.3])) == "LA"
    assert argmax_class(np.array([0.3, 0.7])) == "LUA"


def test_embed_validates_inputs():
    weights = init(SMALL)
    with pytest.raises(DataError, match="empty"):
        embed(weights, [])
    with pytest.raises(DataError, match="max_seq_len"):
        embed(weights, [2] * 13)
    with pytest.raises(DataError, match="out of range"):
        embed(weights, [2, 40, 3])


def test_inference_records_no_graph():
    weights = init(SMALL)
    for t in (embed(weights, [2, 5, 3]), predict(weights, [2, 5, 3]).logits_tensor):
        assert not t.requires_grad
        assert t._node is None


def test_embedding_gradient_flows_through_encoder():
    weights = init(SMALL)
    e = Tensor(embed(weights, [2, 7, 9, 3]).data, requires_grad=True)
    pred = forward_from_embeddings(weights, e)
    ad.backward(ad.pick(pred.logits_tensor, 0))
    g = ad.grad_of(e)
    assert g.shape == e.data.shape
    assert np.abs(g).max() > 0.0


def test_encoder_gradient_matches_finite_differences():
    # full-stack check: d logit / d embeddings vs central differences
    weights = init(SMALL)
    ids = [2, 7, 9, 11, 3]
    base = embed(weights, ids).data

    def value(arr: np.ndarray) -> float:
        pred = forward_from_embeddings(weights, Tensor(arr))
        return float(pred.logits[0])

    e = Tensor(base.copy(), requires_grad=True)
    pred = forward_from_embeddings(weights, e)
    ad.backward(ad.pick(pred.logits_tensor, 0))
    got = ad.grad_of(e)

    eps = 1e-3
    fd = np.zeros_like(base)
    flat, fd_flat = base.reshape(-1), fd.reshape(-1)
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + eps
        up = value(base)
        flat[i] = saved - eps
        down = value(base)
        flat[i] = saved
        fd_flat[i] = (up - down) / (2.0 * eps)
    scale = np.maximum(1.0, np.maximum(np.abs(got), np.abs(fd)))
    assert float((np.abs(got - fd) / scale).max()) <= 1e-3


def full_row_logits(weights: ModelWeights, e: Tensor) -> Tensor:
    """Reference encoder that runs every layer on every row, the last one
    included, then applies the head to row 0."""
    cfg = weights.config
    wts = _wrap(weights, requires_grad=False)
    dh = cfg.d_model // cfg.n_heads
    h = e
    for i in range(cfg.n_layers):
        p = f"layer{i}"
        q = ad.add(ad.matmul(h, wts[f"{p}.attn.wq"]), wts[f"{p}.attn.bq"])
        k = ad.matmul(h, wts[f"{p}.attn.wk"])
        v = ad.add(ad.matmul(h, wts[f"{p}.attn.wv"]), wts[f"{p}.attn.bv"])
        heads = []
        for lo in range(0, cfg.d_model, dh):
            scores = ad.matmul(ad.slice_cols(q, lo, lo + dh),
                               ad.transpose(ad.slice_cols(k, lo, lo + dh)))
            probs = ad.softmax(ad.scale(scores, 1.0 / math.sqrt(dh)), axis=-1)
            heads.append(ad.matmul(probs, ad.slice_cols(v, lo, lo + dh)))
        attn = ad.add(ad.matmul(ad.concat_cols(heads), wts[f"{p}.attn.wo"]),
                      wts[f"{p}.attn.bo"])
        h = ad.layer_norm(ad.add(h, attn), wts[f"{p}.ln1.gain"], wts[f"{p}.ln1.bias"])
        up = ad.gelu(ad.add(ad.matmul(h, wts[f"{p}.ff.w1"]), wts[f"{p}.ff.b1"]))
        ff = ad.add(ad.matmul(up, wts[f"{p}.ff.w2"]), wts[f"{p}.ff.b2"])
        h = ad.layer_norm(ad.add(h, ff), wts[f"{p}.ln2.gain"], wts[f"{p}.ln2.bias"])
    return ad.add(ad.matmul(ad.take_row(h, 0), wts["head.w"]), wts["head.b"])


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_layers=st.sampled_from([1, 2]),
       rows=st.integers(1, 3), tokens=st.integers(1, 6))
@example(seed=0, n_layers=1, rows=1, tokens=1)
@example(seed=1, n_layers=2, rows=2, tokens=1)
@example(seed=2, n_layers=1, rows=3, tokens=5)
@example(seed=3, n_layers=2, rows=3, tokens=6)
def test_pooled_last_layer_equals_the_full_row_encoder(seed, n_layers, rows, tokens):
    cfg = ModelConfig(vocab_size=10, d_model=8, n_heads=2, n_layers=n_layers, d_ff=12,
                      max_seq_len=8, seed=seed % 1000)
    rng = np.random.default_rng(seed)
    weights = ModelWeights(cfg, {n: a + 0.1 * rng.standard_normal(a.shape)
                                 for n, a in init(cfg).arrays.items()})
    stack = rng.standard_normal((rows, tokens, cfg.d_model))
    probe = Tensor(rng.standard_normal((rows, 1, cfg.n_classes)))
    got_e, want_e = Tensor(stack, requires_grad=True), Tensor(stack, requires_grad=True)
    got = logits_from_embeddings(weights, got_e)
    want = full_row_logits(weights, want_e)
    ad.backward(ad.sum_all(ad.mul(got, probe)))
    ad.backward(ad.sum_all(ad.mul(want, probe)))
    # rtol per entry, and the same share of the tensor's largest entry for
    # entries that cancel to near zero
    for a, b in ((got.data, want.data), (ad.grad_of(got_e), ad.grad_of(want_e))):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * np.abs(b).max())


def test_last_layer_runs_on_the_pooled_row_only(monkeypatch):
    seen = []

    def recorded(name, fn):
        def wrapper(a, *args, **kwargs):
            seen.append((name, a.shape))
            return fn(a, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(ad, "gelu", recorded("gelu", ad.gelu))
    monkeypatch.setattr(ad, "layer_norm", recorded("layer_norm", ad.layer_norm))
    K, n, d, ff = 3, 5, SMALL.d_model, SMALL.d_ff
    e = np.random.default_rng(4).standard_normal((K, n, d))
    logits_from_embeddings(init(SMALL), Tensor(e, requires_grad=True))
    assert SMALL.n_layers == 2
    assert seen == [("layer_norm", (K, n, d)), ("gelu", (K, n, ff)), ("layer_norm", (K, n, d)),
                    ("layer_norm", (K, 1, d)), ("gelu", (K, 1, ff)), ("layer_norm", (K, 1, d))]


def test_attention_runs_every_head_in_one_stack(monkeypatch):
    calls = []

    def recorded(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    names = ("split_heads", "merge_heads", "transpose", "softmax", "slice_cols", "concat_cols")
    for name in names:
        monkeypatch.setattr(ad, name, recorded(name, getattr(ad, name)))
    e = np.random.default_rng(6).standard_normal((3, 5, SMALL.d_model))
    logits_from_embeddings(init(SMALL), Tensor(e, requires_grad=True))
    per_layer = ["split_heads"] * 3 + ["transpose", "softmax", "merge_heads"]
    assert SMALL.n_heads == 2
    assert calls == per_layer * SMALL.n_layers


def test_weight_gradients_match_finite_differences_on_loss():
    # a two-sentence group with both labels, run as one stack
    weights = init(SMALL)
    ids = np.array([[2, 7, 9, 3], [2, 9, 7, 3]])
    labels = [0, 1]
    wts = _wrap(weights, requires_grad=True)
    loss = _group_loss(wts, SMALL, ids, labels)
    ad.backward(loss)

    rng = np.random.default_rng(0)
    eps = 1e-4
    for name in ("tok_emb", "pos_emb", "head.w", "layer1.ff.w1", "layer0.attn.wq"):
        arr = weights.arrays[name]
        grad = ad.grad_of(wts[name])
        for _ in range(5):
            i = tuple(int(rng.integers(s)) for s in arr.shape)
            saved = arr[i]

            def loss_at(v: float) -> float:
                arr[i] = v
                out = _group_loss(_wrap(weights, False), SMALL, ids, labels)
                arr[i] = saved
                return out.item()

            fd = (loss_at(saved + eps) - loss_at(saved - eps)) / (2.0 * eps)
            assert abs(grad[i] - fd) <= 1e-4 * max(1.0, abs(fd), abs(grad[i]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_forward_reports_nonfinite_layer():
    weights = init(SMALL)
    weights.arrays["layer1.ff.b2"][0] = np.nan
    with pytest.raises(NumericError, match="layer 1"):
        predict(weights, [2, 7, 3])


def perturbed(seed: int) -> ModelWeights:
    """SMALL weights with every tensor moved off its init, biases included."""
    rng = np.random.default_rng(seed)
    arrays = {n: a + 0.1 * rng.standard_normal(a.shape) for n, a in init(SMALL).arrays.items()}
    return ModelWeights(SMALL, arrays)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       sentences=st.lists(st.tuples(st.integers(1, 6), st.integers(0, 1)),
                          min_size=1, max_size=10))
def test_grouped_batch_gradients_equal_the_per_sentence_sum(seed, sentences):
    rng = np.random.default_rng(seed)
    weights = perturbed(seed)
    batch = [([int(t) for t in rng.integers(0, SMALL.vocab_size, size=n)], y) for n, y in sentences]
    grouped = _wrap(weights, requires_grad=True)
    ad.backward(_batch_loss(grouped, SMALL, batch))
    summed = {n: np.zeros_like(a) for n, a in weights.arrays.items()}
    for ids, y in batch:  # each sentence as a group of one
        wts = _wrap(weights, requires_grad=True)
        ad.backward(_group_loss(wts, SMALL, np.array([ids]), [y]))
        for n in summed:
            summed[n] += ad.grad_of(wts[n])
    for n, total in summed.items():
        want = total / len(batch)
        got = ad.grad_of(grouped[n])
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), n


def test_encoder_runs_once_per_length_in_each_batch_and_in_accuracy(monkeypatch):
    lengths = [4, 2, 4, 3, 5, 2, 2, 4, 3, 6, 4]
    corpus = [([2] + [5 + i % 7] * (n - 1), "LA" if i % 2 else "LUA")
              for i, n in enumerate(lengths)]
    events = []

    def encode(wts, cfg, e, check=True):
        events.append(e.shape[:2])  # (sentences in the stack, tokens)
        return encode.real(wts, cfg, e, check)

    def backward(out):
        events.append("backward")
        return backward.real(out)

    encode.real, backward.real = ligas.model._encode, ad.backward
    monkeypatch.setattr(ligas.model, "_encode", encode)
    monkeypatch.setattr(ad, "backward", backward)
    hyper = TrainConfig(epochs=3, batch=4, seed=7)
    train(init(SMALL), corpus, hyper)

    def groups(batch_lengths):  # lengths in order of first appearance
        return [(batch_lengths.count(n), n) for n in dict.fromkeys(batch_lengths)]

    expected = []
    rng = stream_rng(hyper.seed, "train-shuffle")
    for _ in range(hyper.epochs):
        order = rng.permutation(len(corpus))
        for start in range(0, len(order), hyper.batch):
            expected += groups([lengths[i] for i in order[start : start + hyper.batch]])
            expected.append("backward")
    expected += groups(lengths)  # the final accuracy
    assert events == expected


def test_accuracy_counts_each_sentence_as_predict_does(trained_model, synth_corpus):
    weights, vocab = trained_model
    corpus = [(tokenize(s.text, vocab).token_ids, s.gold) for s in synth_corpus]
    assert len({len(ids) for ids, _ in corpus}) > 1
    correct = sum(1 for ids, gold in corpus if predict(weights, ids).predicted_class == gold)
    assert accuracy(weights, corpus) == correct / len(corpus)
    # LA and LUA sentences swap places: every prediction now scores the other way
    flipped = [(ids, "LUA" if gold == "LA" else "LA") for ids, gold in corpus]
    assert accuracy(weights, flipped) == (len(corpus) - correct) / len(corpus)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_accuracy_reports_nonfinite_layer():
    weights = init(SMALL)
    weights.arrays["layer1.ff.b2"][0] = np.nan
    with pytest.raises(NumericError, match="encoder layer 1"):
        accuracy(weights, [([2, 7, 3], "LA"), ([2, 5], "LUA"), ([2, 9, 3], "LUA")])


def test_accuracy_checks_every_sentence():
    corpus = [([2, 7, 3], "LA"), ([2, 5], "LUA"), ([2, 40, 3], "LUA")]
    with pytest.raises(DataError, match=r"accuracy: example 2: token id 40 out of range"):
        accuracy(init(SMALL), corpus)


def test_training_memorizes_a_tiny_corpus():
    weights = init(SMALL)
    corpus = [
        ([2, 7, 9, 3], "LA"),
        ([2, 9, 7, 3], "LUA"),
        ([2, 11, 9, 3], "LA"),
        ([2, 9, 11, 3], "LUA"),
    ]
    trained, trace = train(weights, corpus, TrainConfig(lr=5e-3, epochs=60, batch=2, seed=1))
    assert trace.final_accuracy == 1.0
    assert trace.epoch_losses[-1] < trace.epoch_losses[0]
    # the input weights are untouched; training returns a new container
    assert np.array_equal(weights.arrays["tok_emb"], init(SMALL).arrays["tok_emb"])


def test_training_is_bit_deterministic():
    corpus = [([2, 7, 9, 3], "LA"), ([2, 9, 7, 3], "LUA"),
              ([2, 11, 3], "LA"), ([2, 5, 3], "LUA")]
    hyper = TrainConfig(lr=1e-3, epochs=3, batch=3, seed=9)
    a, _ = train(init(SMALL), corpus, hyper)
    b, _ = train(init(SMALL), corpus, hyper)
    assert a.names == b.names
    for name in a.names:
        assert np.array_equal(a.arrays[name], b.arrays[name])


def test_training_validates_corpus():
    weights = init(SMALL)
    with pytest.raises(DataError, match="empty"):
        train(weights, [], TrainConfig())
    with pytest.raises(DataError, match="both"):
        train(weights, [([2, 3], "LA")], TrainConfig())
    with pytest.raises(DataError, match="max_seq_len"):
        train(weights, [([2] * 13, "LA"), ([2, 3], "LUA")], TrainConfig())


@pytest.mark.parametrize("label", [1, 0, True])
def test_training_takes_only_la_and_lua_labels(label):
    # labels are the strings LA/LUA: an int is ambiguous, as CoLA's "1" means LA
    corpus = [([2, 3], "LA"), ([2, 4], "LUA"), ([2, 5], label)]
    with pytest.raises(DataError, match=f"unknown class label {label!r}"):
        train(init(SMALL), corpus, TrainConfig(epochs=1, batch=2, seed=0))
    with pytest.raises(DataError, match=f"unknown class label {label!r}"):
        accuracy(init(SMALL), corpus)


@pytest.mark.parametrize("bad_id", [SMALL.vocab_size, -1])
def test_training_rejects_out_of_range_ids_before_the_first_step(bad_id, monkeypatch):
    def no_step(out):
        raise AssertionError("a training step ran before the ids were checked")

    monkeypatch.setattr(ad, "backward", no_step)
    corpus = [([2, 7, 9, 3], "LA"), ([2, 9, 7, 3], "LUA"), ([2, bad_id, 3], "LA")]
    with pytest.raises(DataError, match=rf"train: example 2: token id {bad_id} out of range"):
        train(init(SMALL), corpus, TrainConfig(epochs=1, batch=2, seed=0))


@pytest.mark.parametrize("lr", [math.nan, math.inf])
def test_train_config_rejects_a_non_finite_lr(lr):
    with pytest.raises(UsageError, match=f"lr must be finite, got {lr!r}"):
        TrainConfig(lr=lr)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_training_divergence_is_a_numeric_error():
    # layer norm squashes most blow-ups; only a step near the float ceiling
    # actually drives activations non-finite
    corpus = [([2, 7, 9, 3], "LA"), ([2, 9, 7, 3], "LUA")]
    with pytest.raises(NumericError, match="epoch"):
        train(init(SMALL), corpus, TrainConfig(lr=1e308, epochs=3, batch=2, seed=0))


def test_save_load_round_trip_is_bit_exact(tmp_path):
    weights = init(SMALL)
    vocab = build_vocab(["the dog barks ."], max_size=40)
    weights.vocab = Vocabulary(vocab.tokens[:40]) if len(vocab) > 40 else vocab
    path = str(tmp_path / "w.bin")
    save_weights(weights, path)
    loaded = load_weights(path)
    assert loaded.config == weights.config
    assert loaded.names == weights.names
    for name in weights.names:
        assert np.array_equal(loaded.arrays[name], weights.arrays[name])
    assert loaded.vocab is not None
    assert loaded.vocab.tokens == weights.vocab.tokens
    # a second save of the loaded weights is byte-identical
    path2 = str(tmp_path / "w2.bin")
    save_weights(loaded, path2)
    assert (tmp_path / "w.bin").read_bytes() == (tmp_path / "w2.bin").read_bytes()


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(DataError, match="magic"):
        load_weights(str(path))


def test_load_rejects_truncation(tmp_path):
    weights = init(SMALL)
    path = tmp_path / "w.bin"
    save_weights(weights, str(path))
    blob = path.read_bytes()
    clipped = tmp_path / "clipped.bin"
    clipped.write_bytes(blob[: len(blob) - 512])
    with pytest.raises(DataError, match="payload|truncated"):
        load_weights(str(clipped))


def _with_edited_header(tmp_path, edit) -> str:
    """Save small weights, apply ``edit`` to the parsed JSON header, and
    write the result back around the unchanged payload."""
    path = tmp_path / "w.bin"
    weights = init(SMALL)
    weights.vocab = build_vocab(["the dog barks ."], max_size=40)
    save_weights(weights, str(path))
    blob = path.read_bytes()
    (head_len,) = struct.unpack("<Q", blob[8:16])
    header = json.loads(blob[16 : 16 + head_len])
    edit(header)
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    broken = tmp_path / "broken.bin"
    broken.write_bytes(blob[:8] + struct.pack("<Q", len(head)) + head
                       + blob[16 + head_len :])
    return str(broken)


@pytest.mark.parametrize("key", ["name", "shape", "offset"])
def test_load_rejects_a_tensor_entry_without_a_field(tmp_path, key):
    path = _with_edited_header(tmp_path, lambda h: h["tensors"][1].pop(key))
    with pytest.raises(DataError, match=rf"{re.escape(path)}: tensor entry 1"):
        load_weights(path)


@pytest.mark.parametrize("edit,fragment", [
    (lambda h: h["config"].update(d_model=0), "d_model must be positive"),
    (lambda h: h.update(vocab=5), "'vocab' is not a list of strings"),
], ids=["config-value", "vocab-type"])
def test_load_rejects_bad_header_values(tmp_path, edit, fragment):
    path = _with_edited_header(tmp_path, edit)
    with pytest.raises(DataError, match=rf"{re.escape(path)}: malformed header: .*{fragment}"):
        load_weights(path)


@pytest.mark.parametrize("side", [4294967296, 3037000500])
def test_load_rejects_a_shape_whose_size_overflows_int64(tmp_path, side):
    # side * side wraps to 0 (or a negative count) in int64 arithmetic
    path = _with_edited_header(tmp_path, lambda h: h["tensors"][0].update(shape=[side, side]))
    with pytest.raises(DataError, match=rf"{re.escape(path)}: tensor tok_emb overruns"):
        load_weights(path)


def test_load_rejects_a_vocabulary_longer_than_the_embedding_table(tmp_path):
    def grow(header):
        header["vocab"] += [f"extra{i}" for i in range(SMALL.vocab_size + 1)]
    path = _with_edited_header(tmp_path, grow)
    with pytest.raises(DataError, match=rf"{re.escape(path)}: vocabulary has \d+ tokens but "
                                        rf"the embedding table has {SMALL.vocab_size} rows"):
        load_weights(path)


def test_weights_container_validates_shapes():
    weights = init(SMALL)
    arrays = {n: a.copy() for n, a in weights.arrays.items()}
    arrays["head.b"] = np.zeros(3)
    with pytest.raises(DataError, match="head.b"):
        ModelWeights(SMALL, arrays)
