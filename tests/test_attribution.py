"""Quadrature tables, path integrals, and the per-sentence attribution layer.

Closed-form oracles: a linear model (constant gradient) must be attributed
exactly by every rule, and a bilinear one exactly by the trapezoid rule;
everything downstream (word sums, completeness) is checked as bit-level
identities rather than tolerances wherever the arithmetic allows it.
"""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ligas.attribution
import ligas.autodiff as ad
import ligas.model
from ligas.attribution import (
    IGConfig,
    PathIntegral,
    attribution_record,
    integrated_gradients,
    interpolation_points,
    make_baseline,
    path_integral,
    read_attributions_jsonl,
    word_scores,
    write_attributions_jsonl,
)
from ligas.autodiff import Tensor
from ligas.errors import DataError, NumericError, UsageError
from ligas.model import (CLASSES, ModelConfig, embed, forward_from_embeddings, init,
                         logits_from_embeddings, predict)
from ligas.tokenizer import CLS_ID, PAD_ID, SEP_ID, TokenizedSentence, tokenize


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_config_defaults():
    cfg = IGConfig()
    assert cfg.steps == 64
    assert cfg.rule == "trapezoid"
    assert cfg.baseline_mode == "pad_embeddings"
    assert cfg.target_class is None
    assert cfg.target_space == "logit"


@pytest.mark.parametrize(
    "kwargs",
    [
        {"steps": 0},
        {"steps": -3},
        {"rule": "simpson"},
        {"baseline_mode": "average"},
        {"target_class": "YES"},
        {"target_space": "log-odds"},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(UsageError):
        IGConfig(**kwargs)


def test_config_to_dict_spells_out_predicted_target():
    assert IGConfig().to_dict()["target_class"] == "predicted"
    assert IGConfig(target_class="LA").to_dict()["target_class"] == "LA"


# ---------------------------------------------------------------------------
# interpolation tables
# ---------------------------------------------------------------------------


def test_single_step_right_rule_is_the_gradient_at_the_input():
    assert interpolation_points(1, "right") == [(1.0, 1.0)]


def test_single_step_left_rule_is_the_gradient_at_the_baseline():
    assert interpolation_points(1, "left") == [(0.0, 1.0)]


def test_two_step_trapezoid_table():
    assert interpolation_points(2, "trapezoid") == [
        (0.0, 0.25),
        (0.5, 0.5),
        (1.0, 0.25),
    ]


def test_uniform_rules_have_equal_weights():
    for alpha, w in interpolation_points(4, "right"):
        assert w == 0.25
    assert [a for a, _ in interpolation_points(4, "right")] == [0.25, 0.5, 0.75, 1.0]
    assert [a for a, _ in interpolation_points(4, "left")] == [0.0, 0.25, 0.5, 0.75]


@pytest.mark.parametrize("rule", ["left", "right", "trapezoid"])
@pytest.mark.parametrize(
    "m", list(range(1, 65)) + [100, 127, 128, 255, 256, 333, 512, 1000, 1024]
)
def test_weights_sum_to_exactly_one(rule, m):
    points = interpolation_points(m, rule)
    assert math.fsum(w for _, w in points) == 1.0


@given(
    m=st.integers(min_value=1, max_value=2048),
    rule=st.sampled_from(["left", "right", "trapezoid"]),
)
@settings(max_examples=60, deadline=None)
def test_table_shape_and_range(m, rule):
    points = interpolation_points(m, rule)
    assert len(points) == (m + 1 if rule == "trapezoid" else m)
    alphas = [a for a, _ in points]
    assert alphas == sorted(alphas)
    assert all(0.0 <= a <= 1.0 for a in alphas)
    assert all(w > 0.0 for _, w in points)
    assert math.fsum(w for _, w in points) == 1.0


def test_table_rejects_nonpositive_steps():
    with pytest.raises(UsageError):
        interpolation_points(0, "right")


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------


def test_zero_baseline_is_all_zeros(trained_model):
    weights, vocab = trained_model
    sent = tokenize("the cat slept .", vocab)
    base = make_baseline(weights, sent.token_ids, "zero")
    assert base.data.shape == (len(sent.token_ids), weights.config.d_model)
    assert not base.data.any()


def test_pad_baseline_keeps_the_enclosing_specials(trained_model):
    weights, vocab = trained_model
    sent = tokenize("the cat slept .", vocab)
    x = embed(weights, list(sent.token_ids)).data
    base = make_baseline(weights, sent.token_ids, "pad_embeddings").data
    assert np.array_equal(base[0], x[0])
    assert np.array_equal(base[-1], x[-1])
    padded = [CLS_ID] + [PAD_ID] * (len(sent.token_ids) - 2) + [SEP_ID]
    assert np.array_equal(base, embed(weights, padded).data)
    interior_differs = x[1:-1] != base[1:-1]
    assert interior_differs.any()


# ---------------------------------------------------------------------------
# path integral on analytic functions
# ---------------------------------------------------------------------------


def linear_f(W):
    def f(e):
        return float(np.vdot(W, e)), W.copy()

    return f


@pytest.mark.parametrize("rule", ["left", "right", "trapezoid"])
@pytest.mark.parametrize("m", [1, 3, 64])
def test_linear_function_is_attributed_exactly(rule, m):
    rng = np.random.default_rng(7)
    W = rng.normal(size=(5, 4))
    x = rng.normal(size=(5, 4))
    baseline = rng.normal(size=(5, 4))
    result = path_integral(linear_f(W), x, baseline, m, rule)
    expected = W * (x - baseline)
    assert np.max(np.abs(result.attributions - expected)) <= 1e-9
    assert result.completeness_gap <= 1e-9


def bilinear_f(e):
    # f(u, v) = u * v on a 1x2 input
    u, v = e[0, 0], e[0, 1]
    return u * v, np.array([[v, u]])


@pytest.mark.parametrize("m", [1, 2, 7, 64])
def test_trapezoid_is_exact_for_a_bilinear_function(m):
    x = np.array([[2.0, 3.0]])
    zero = np.zeros((1, 2))
    result = path_integral(bilinear_f, x, zero, m, "trapezoid")
    # each gradient component is linear along the path, so any trapezoid
    # rule integrates it without error: attribution (3, 3), total 6
    assert np.max(np.abs(result.attributions - np.array([[3.0, 3.0]]))) <= 1e-12
    assert abs(result.total - 6.0) <= 1e-12
    assert result.completeness_gap <= 1e-12


def test_rule_bias_on_a_quadratic():
    # f(u) = u^2 from 0 to 1: gradient 2a along the path
    def f(e):
        return float(e[0, 0] ** 2), np.array([[2.0 * e[0, 0]]])

    x = np.array([[1.0]])
    zero = np.zeros((1, 1))
    assert path_integral(f, x, zero, 1, "right").attributions[0, 0] == 2.0
    assert path_integral(f, x, zero, 1, "left").attributions[0, 0] == 0.0
    assert path_integral(f, x, zero, 1, "trapezoid").attributions[0, 0] == 1.0


def test_identical_input_and_baseline_attribute_to_zero():
    rng = np.random.default_rng(3)
    W = rng.normal(size=(4, 3))
    x = rng.normal(size=(4, 3))
    result = path_integral(linear_f(W), x, x.copy(), 16, "trapezoid")
    assert not result.attributions.any()
    assert result.completeness_gap == 0.0


@pytest.mark.parametrize("rule, extra", [("trapezoid", 0), ("left", 1), ("right", 1)])
def test_each_interpolation_point_is_evaluated_once(rule, extra):
    W = np.array([[1.0, -2.0], [0.5, 3.0]])
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    baseline = np.array([[0.5, 0.0], [-1.0, 1.0]])
    linear = linear_f(W)
    seen = []

    def f(e):
        seen.append(e)
        return linear(e)

    result = path_integral(f, x, baseline, 8, rule)
    assert len(seen) == len(interpolation_points(8, rule)) + extra
    assert any(e is x for e in seen)  # F(x) is evaluated at x itself
    assert result.output_value == float(np.vdot(W, x))
    assert result.baseline_value == float(np.vdot(W, baseline))


def test_gradients_are_reduced_in_step_order():
    # weighted gradients 1, 2^53, -2^53, 0: in step order 1 + 2^53 rounds
    # to 2^53 and the sum is 0; any other order of the middle terms gives 1
    big = 4.0 * 2.0**53
    grad_at = {0.25: 4.0, 0.5: big, 0.75: -big, 1.0: 0.0, 0.0: 0.0}

    def f(e):
        return 0.0, np.array([[grad_at[float(e[0, 0])]]])

    result = path_integral(f, np.array([[1.0]]), np.zeros((1, 1)), 4, "right")
    assert result.attributions[0, 0] == 0.0


def test_shape_mismatch_is_a_data_error():
    with pytest.raises(DataError, match="shape"):
        path_integral(bilinear_f, np.zeros((1, 2)), np.zeros((2, 2)), 4, "right")


def test_nonfinite_gradient_names_the_step():
    def f(e):
        u = e[0, 0]
        if u == 0.0:
            return 0.0, np.array([[np.inf]])
        return u, np.array([[1.0]])

    x = np.array([[1.0]])
    zero = np.zeros((1, 1))
    with pytest.raises(NumericError, match="interpolation step 0"):
        path_integral(f, x, zero, 4, "trapezoid")

    def g(e):
        u = e[0, 0]
        if u == 1.0:
            return u, np.array([[np.nan]])
        return u, np.array([[1.0]])

    with pytest.raises(NumericError, match="interpolation step 3"):
        path_integral(g, x, zero, 4, "right")


def test_completeness_gap_is_an_absolute_residual():
    pi = PathIntegral(np.array([[1.0, 2.0]]), output_value=10.0, baseline_value=6.0)
    assert pi.total == 3.0
    assert pi.completeness_gap == 1.0


# ---------------------------------------------------------------------------
# word aggregation
# ---------------------------------------------------------------------------


def test_word_scores_sum_subword_spans_exactly():
    scores = [0.0, 0.2, 0.05, -0.1, 0.0]
    alignment = [(0, (1, 3)), (1, (3, 4))]
    got = word_scores(scores, alignment)
    assert got == [math.fsum([0.2, 0.05]), -0.1]
    assert got[0] == 0.25


def test_word_scores_reject_out_of_range_spans():
    with pytest.raises(DataError, match=r"span \[1, 9\)"):
        word_scores([0.0, 1.0, 2.0], [(0, (1, 9))])


# ---------------------------------------------------------------------------
# end-to-end attribution on the trained model
# ---------------------------------------------------------------------------


def test_sentence_attribution_identities(trained_model):
    weights, vocab = trained_model
    sent = tokenize("alice chased the ball .", vocab)
    att = integrated_gradients(weights, sent, IGConfig(steps=32))

    assert att.words == list(sent.words)
    assert len(att.word_ligas) == len(sent.words)
    assert att.per_token.shape == (len(sent.token_ids), weights.config.d_model)

    # aggregation identities hold bit for bit
    for row, score in zip(att.per_token, att.token_scores):
        assert score == math.fsum(row.tolist())
    assert att.word_ligas == word_scores(att.token_scores, sent.alignment)
    assert att.sentence_ligas == math.fsum(att.word_ligas)
    total = math.fsum(att.token_scores)
    assert att.completeness_gap == abs(
        total - (att.output_value - att.baseline_value)
    )

    # the target is the class the model actually output, in logit space
    pred = predict(weights, list(sent.token_ids))
    assert att.target_class == pred.predicted_class
    assert att.output_value == pred.logits[CLASSES.index(att.target_class)]


def test_attribution_is_deterministic(trained_model):
    weights, vocab = trained_model
    sent = tokenize("the dog barks loudly .", vocab)
    cfg = IGConfig(steps=24)
    first = integrated_gradients(weights, sent, cfg)
    second = integrated_gradients(weights, sent, cfg)
    assert first.word_ligas == second.word_ligas
    assert first.sentence_ligas == second.sentence_ligas
    assert first.completeness_gap == second.completeness_gap


def test_gap_shrinks_with_more_steps(trained_model):
    weights, vocab = trained_model
    sent = tokenize("bob admired the garden .", vocab)
    coarse = integrated_gradients(weights, sent, IGConfig(steps=8))
    fine = integrated_gradients(weights, sent, IGConfig(steps=128))
    assert fine.completeness_gap <= coarse.completeness_gap + 1e-9


def test_fixed_target_class_changes_the_output_value(trained_model):
    weights, vocab = trained_model
    sent = tokenize("the cat slept .", vocab)
    la = integrated_gradients(weights, sent, IGConfig(steps=8, target_class="LA"))
    lua = integrated_gradients(weights, sent, IGConfig(steps=8, target_class="LUA"))
    assert la.target_class == "LA"
    assert lua.target_class == "LUA"
    assert la.output_value == la.prediction.logits[0]
    assert lua.output_value == lua.prediction.logits[1]
    assert la.output_value != lua.output_value


def test_probability_space_targets_the_probability(trained_model):
    weights, vocab = trained_model
    sent = tokenize("the cat slept .", vocab)
    att = integrated_gradients(
        weights, sent, IGConfig(steps=16, target_space="probability")
    )
    idx = CLASSES.index(att.target_class)
    assert att.output_value == att.prediction.probs[idx]
    assert 0.0 <= att.output_value <= 1.0


def test_all_pad_interior_means_no_attribution(trained_model):
    weights, _ = trained_model
    sent = TokenizedSentence(
        token_ids=(CLS_ID, PAD_ID, PAD_ID, SEP_ID),
        tokens=("[CLS]", "[PAD]", "[PAD]", "[SEP]"),
        words=("a", "b"),
        alignment=((0, (1, 2)), (1, (2, 3))),
    )
    att = integrated_gradients(weights, sent, IGConfig(steps=4))
    assert att.word_ligas == [0.0, 0.0]
    assert att.sentence_ligas == 0.0
    assert att.completeness_gap == 0.0


# ---------------------------------------------------------------------------
# batched evaluation against the per-point tape
# ---------------------------------------------------------------------------


def per_point_target(weights, target_index: int, target_space: str):
    """The oracle F: one 2-D tape forward and backward per path point."""
    def f(e_array):
        e = Tensor(e_array, requires_grad=True)
        pred = forward_from_embeddings(weights, e)
        source = pred.probs_tensor if target_space == "probability" else pred.logits_tensor
        out = ad.pick(source, target_index)
        value = out.item()
        ad.backward(out)
        return value, ad.grad_of(e)

    return f


def per_point_attribution(weights, sentence, cfg):
    """Integrated gradients point by point: a prediction pass on x, then
    ``path_integral`` over the oracle F."""
    ids = list(sentence.token_ids)
    x = embed(weights, ids)
    prediction = forward_from_embeddings(weights, x)
    target_class = cfg.target_class or prediction.predicted_class
    baseline = make_baseline(weights, ids, cfg.baseline_mode)
    f = per_point_target(weights, CLASSES.index(target_class), cfg.target_space)
    return prediction, target_class, path_integral(f, x.data, baseline.data,
                                                   cfg.steps, cfg.rule)


ORACLE_SENTENCES = ("alice chased the ball .", "the dog barks loudly .")


def assert_matches_oracle(weights, sent, cfg, att):
    prediction, target_class, oracle = per_point_attribution(weights, sent, cfg)
    assert att.per_token.tobytes() == oracle.attributions.tobytes()
    assert (att.output_value, att.baseline_value) == \
        (oracle.output_value, oracle.baseline_value)
    assert att.prediction.logits.tobytes() == prediction.logits.tobytes()
    assert att.prediction.probs.tobytes() == prediction.probs.tobytes()
    assert att.prediction.predicted_class == prediction.predicted_class
    assert att.target_class == target_class


@pytest.mark.parametrize("rule", ["left", "right", "trapezoid"])
@pytest.mark.parametrize("target_space", ["logit", "probability"])
@pytest.mark.parametrize("baseline_mode", ["pad_embeddings", "zero"])
def test_chunked_records_are_identical_and_match_the_oracle(
        trained_model, monkeypatch, rule, target_space, baseline_mode):
    weights, vocab = trained_model
    cfg = IGConfig(steps=20, rule=rule, target_space=target_space,
                   baseline_mode=baseline_mode)  # 21 evaluations per sentence
    for text in ORACLE_SENTENCES:
        sent = tokenize(text, vocab)
        outputs = []
        for chunk in (1, 7, 16, 21, 64):
            monkeypatch.setattr(ligas.attribution, "CHUNK_ROWS", chunk)
            att = integrated_gradients(weights, sent, cfg)
            outputs.append((att.per_token.tobytes(),
                            json.dumps(attribution_record("x", "CIA", "LA", att))))
        assert all(out == outputs[0] for out in outputs)
        assert_matches_oracle(weights, sent, cfg, att)


@pytest.mark.parametrize("target_class", ["LA", "LUA"])
@pytest.mark.parametrize("rule", ["left", "trapezoid"])
def test_fixed_target_class_matches_the_oracle(trained_model, target_class, rule):
    weights, vocab = trained_model
    cfg = IGConfig(steps=20, rule=rule, target_class=target_class)
    for text in ORACLE_SENTENCES:
        sent = tokenize(text, vocab)
        assert_matches_oracle(weights, sent, cfg, integrated_gradients(weights, sent, cfg))


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    rows=st.integers(min_value=1, max_value=6),
    tokens=st.integers(min_value=1, max_value=8),
    target=st.integers(min_value=0, max_value=1),
    space=st.sampled_from(["logit", "probability"]),
)
@settings(max_examples=25, deadline=None)
def test_each_stack_row_is_its_own_2d_pass(seed, rows, tokens, target, space):
    rng = np.random.default_rng(seed)
    weights = init(ModelConfig(vocab_size=10, d_model=8, n_heads=2, n_layers=2,
                               d_ff=12, seed=seed))
    stack = rng.standard_normal((rows, tokens, 8))
    e = Tensor(stack, requires_grad=True)
    logits = logits_from_embeddings(weights, e)
    probs = ad.softmax(logits, axis=-1)
    source = probs if space == "probability" else logits
    ad.backward(ad.sum_all(ad.slice_cols(source, target, target + 1)))
    f = per_point_target(weights, target, space)
    for k in range(rows):
        pred = forward_from_embeddings(weights, Tensor(stack[k]))
        assert logits.data[k].tobytes() == pred.logits_tensor.data.tobytes()
        assert probs.data[k].tobytes() == pred.probs_tensor.data.tobytes()
        value, grad = f(stack[k])
        assert source.data[k, 0, target] == value
        assert ad.grad_of(e)[k].tobytes() == grad.tobytes()


@pytest.mark.parametrize("rule", ["left", "right", "trapezoid"])
@pytest.mark.parametrize("m", [1, 15, 16, 64])
def test_one_forward_and_backward_per_chunk(trained_model, monkeypatch, rule, m):
    weights, vocab = trained_model
    calls = {"backward": 0, "encode": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ad, "backward", counted("backward", ad.backward))
    monkeypatch.setattr(ligas.model, "_encode", counted("encode", ligas.model._encode))
    integrated_gradients(weights, tokenize("the cat slept .", vocab),
                         IGConfig(steps=m, rule=rule))
    chunks = math.ceil((m + 1) / 16)  # m + 1 evaluations: every rule needs F(x) and F(x')
    assert calls == {"backward": chunks, "encode": chunks}  # no separate prediction pass


# ---------------------------------------------------------------------------
# report file format
# ---------------------------------------------------------------------------


def test_record_schema(trained_model):
    weights, vocab = trained_model
    sent = tokenize("the cat slept .", vocab)
    att = integrated_gradients(weights, sent, IGConfig(steps=4))
    rec = attribution_record("CIA-0001-LA", "CIA", "LA", att)
    assert set(rec) == {
        "id", "category", "gold", "predicted", "prob",
        "sentence_ligas", "completeness_gap", "words",
    }
    assert rec["id"] == "CIA-0001-LA"
    assert rec["predicted"] in CLASSES
    assert [w["text"] for w in rec["words"]] == list(sent.words)
    assert all(set(w) == {"text", "ligas"} for w in rec["words"])


def test_jsonl_round_trip_preserves_floats(tmp_path):
    records = [
        {
            "id": "SVA-0000-LA", "category": "SVA", "gold": "LA",
            "predicted": "LA", "prob": 0.9482937462819374,
            "sentence_ligas": 1.234567890123453e-3,  # the exact sum of the word scores
            "completeness_gap": 3.0814879110195774e-17,
            "words": [{"text": "the", "ligas": -0.1},
                      {"text": "dog", "ligas": 0.10123456789012346}],
        },
    ]
    header = {"config_digest": "abc123def456", "steps": 64}
    path = tmp_path / "attributions.jsonl"
    write_attributions_jsonl(str(path), records, header=header)
    got_header, got = read_attributions_jsonl(str(path))
    assert got_header == header
    assert got == records


def test_jsonl_without_header(tmp_path):
    rec = {
        "id": "x", "category": "CIA", "gold": "LA", "predicted": "LUA",
        "prob": 0.5, "sentence_ligas": 0.0, "completeness_gap": 0.0, "words": [],
    }
    path = tmp_path / "plain.jsonl"
    write_attributions_jsonl(str(path), [rec])
    header, got = read_attributions_jsonl(str(path))
    assert header == {}
    assert got == [rec]


def test_jsonl_reports_the_offending_line(tmp_path):
    path = tmp_path / "broken.jsonl"
    path.write_text('{"config_digest": "x"}\nnot json\n', encoding="utf-8")
    with pytest.raises(DataError, match=r":2: invalid JSON"):
        read_attributions_jsonl(str(path))


def test_jsonl_rejects_incomplete_records(tmp_path):
    path = tmp_path / "missing.jsonl"
    path.write_text('{"id": "a", "category": "CIA"}\n', encoding="utf-8")
    with pytest.raises(DataError, match="missing"):
        read_attributions_jsonl(str(path))


def test_jsonl_rejects_second_headerlike_line(tmp_path):
    path = tmp_path / "two_headers.jsonl"
    path.write_text('{"config_digest": "x"}\n{"config_digest": "y"}\n',
                    encoding="utf-8")
    with pytest.raises(DataError, match="missing 'id'"):
        read_attributions_jsonl(str(path))


GOOD_RECORD = {
    "id": "CIA-0000-LA", "category": "CIA", "gold": "LA", "predicted": "LA",
    "prob": 0.75, "sentence_ligas": 0.5, "completeness_gap": 0.0,
    "words": [{"text": "the", "ligas": 0.25}, {"text": "dog", "ligas": 0.25}],
}


@pytest.mark.parametrize("change,bad", [
    ({"id": 5}, ["id"]),
    ({"category": None}, ["category"]),
    ({"gold": 1}, ["gold"]),
    ({"predicted": ["LA"]}, ["predicted"]),
    ({"prob": "high"}, ["prob"]),
    ({"prob": True}, ["prob"]),
    ({"sentence_ligas": float("nan")}, ["sentence_ligas"]),
    ({"completeness_gap": float("inf")}, ["completeness_gap"]),
    ({"words": 5}, ["words"]),
    ({"words": ["the"]}, ["words"]),
    ({"words": [{"text": 1, "ligas": 0.0}]}, ["words"]),
    ({"words": [{"text": "the"}]}, ["words"]),
    ({"words": [{"text": "the", "ligas": float("nan")}]}, ["words"]),
    ({"gold": None, "prob": None}, ["gold", "prob"]),
    ({"words": [{"text": "the", "ligas": 10 ** 400}]}, ["words"]),
    ({"prob": -10 ** 400}, ["prob"]),
])
def test_jsonl_rejects_malformed_fields(tmp_path, change, bad):
    path = tmp_path / "bad.jsonl"
    record = {**GOOD_RECORD, "id": "b", **change}
    write_attributions_jsonl(str(path), [GOOD_RECORD, record], header={"config_digest": "x"})
    message = f"bad.jsonl:3: record {record['id']!r}: missing or malformed {bad}"
    with pytest.raises(DataError, match=re.escape(message)):
        read_attributions_jsonl(str(path))


def test_jsonl_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "dup.jsonl"
    write_attributions_jsonl(str(path), [GOOD_RECORD, GOOD_RECORD])
    with pytest.raises(DataError, match=r"dup\.jsonl:2: duplicate record id 'CIA-0000-LA'"):
        read_attributions_jsonl(str(path))


@pytest.mark.parametrize("change,problem", [
    ({"category": "XYZ"}, "category 'XYZ' is not one of ('CIA', 'RAA', 'SVA', 'SVO', 'WHE')"),
    ({"gold": "good"}, "gold 'good' is not one of ('LA', 'LUA')"),
    ({"predicted": "la"}, "predicted 'la' is not one of ('LA', 'LUA')"),
    ({"prob": 1.5}, "prob 1.5 is outside [0, 1]"),
    ({"prob": -0.25}, "prob -0.25 is outside [0, 1]"),
    ({"category": "XYZ", "prob": 2}, "category 'XYZ' is not one of ('CIA', 'RAA', 'SVA', "
                                     "'SVO', 'WHE'); prob 2 is outside [0, 1]"),
    ({"completeness_gap": -1.0}, "completeness_gap -1.0 is negative"),
    ({"completeness_gap": -5e-324}, "completeness_gap -5e-324 is negative"),
    ({"sentence_ligas": 5.0}, "sentence_ligas 5.0 is not the sum of its word scores, 0.5"),
    ({"sentence_ligas": 0.5000000000000001},
     "sentence_ligas 0.5000000000000001 is not the sum of its word scores, 0.5"),
    ({"words": [{"text": w, "ligas": v} for w, v in (("a", 1e16), ("b", 1.0), ("c", -1e16))],
      "sentence_ligas": 1e16 + 1.0 - 1e16},
     "sentence_ligas 0.0 is not the sum of its word scores, 1.0"),
    ({"sentence_ligas": 5.0, "completeness_gap": -1.0},
     "completeness_gap -1.0 is negative; sentence_ligas 5.0 is not the sum of its "
     "word scores, 0.5"),
    ({"words": [{"text": w, "ligas": 1e308} for w in ("a", "b")], "sentence_ligas": 1e308},
     "word scores do not sum to a finite float"),
    ({"words": [{"text": w, "ligas": -1.7e308} for w in ("a", "b")], "prob": 2.0},
     "prob 2.0 is outside [0, 1]; word scores do not sum to a finite float"),
])
def test_jsonl_rejects_out_of_range_values(tmp_path, change, problem):
    path = tmp_path / "bad.jsonl"
    record = {**GOOD_RECORD, "id": "b", **change}
    write_attributions_jsonl(str(path), [GOOD_RECORD, record], header={"config_digest": "x"})
    message = f"bad.jsonl:3: record 'b': {problem}"
    with pytest.raises(DataError, match=re.escape(message)):
        read_attributions_jsonl(str(path))


def test_jsonl_accepts_exact_totals(tmp_path):
    path = tmp_path / "exact.jsonl"
    records = [
        {**GOOD_RECORD, "id": "zero-gap", "completeness_gap": 0},
        # fsum is exact where plain left-to-right addition is not
        {**GOOD_RECORD, "id": "fsum", "sentence_ligas": 1.0,
         "words": [{"text": w, "ligas": v} for w, v in (("a", 1e16), ("b", 1), ("c", -1e16))]},
        {**GOOD_RECORD, "id": "empty", "sentence_ligas": 0, "words": []},
        # a partial sum overflows, but the exact total fits
        {**GOOD_RECORD, "id": "partial-overflow", "sentence_ligas": 1e308,
         "words": [{"text": w, "ligas": v} for w, v in (("a", 1e308), ("b", 1e308),
                                                         ("c", -1e308))]},
    ]
    write_attributions_jsonl(str(path), records)
    assert read_attributions_jsonl(str(path)) == ({}, records)


def test_jsonl_accepts_probabilities_at_both_ends(tmp_path):
    path = tmp_path / "ends.jsonl"
    records = [{**GOOD_RECORD, "id": "zero", "prob": 0.0}, {**GOOD_RECORD, "id": "one", "prob": 1}]
    write_attributions_jsonl(str(path), records)
    assert read_attributions_jsonl(str(path)) == ({}, records)
