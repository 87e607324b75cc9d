"""Integrated gradients between the classifier output and the embedding layer.

The attribution of token ``i``, dimension ``j`` is

    (x - x')[i, j] * sum_k w_k * dF/de[i, j]  at  e = x' + a_k (x - x')

where F is the chosen class output (logit by default), x the input
embeddings, x' a baseline, and (a_k, w_k) a Riemann-type quadrature rule.
By the completeness property the attributions sum to F(x) - F(x') up to
quadrature error; the residual is reported per sentence as a diagnostic.

``integrated_gradients`` evaluates the path points as stacked chunks, one
tape forward and backward per chunk; ``path_integral`` is the same
quadrature for any per-point F. Both reduce the weighted gradients in
step order through one reducer, so the chunking never changes a bit.

Per-token scores are plain sums over embedding dimensions; word scores are
exact sums over each word's subword span (compensated summation throughout,
so the aggregation identities hold bit-for-bit).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import CATEGORIES, read_lines, write_artifact
from .errors import DataError, NumericError, UsageError
from .model import (CLASSES, ModelWeights, Prediction, embed, logits_from_embeddings,
                    prediction_of)
from .tokenizer import PAD_ID, TokenizedSentence
from .trees import exact_fsum

RULES = ("left", "right", "trapezoid")
TARGET_SPACES = ("logit", "probability")
BASELINE_MODES = ("pad_embeddings", "zero")
# interpolation points per forward/backward in integrated_gradients; peak
# memory grows with it, by about 0.07 MB per point for a 7-token sentence
CHUNK_ROWS = 16


@dataclass(frozen=True)
class IGConfig:
    steps: int = 64
    rule: str = "trapezoid"
    baseline_mode: str = "pad_embeddings"
    target_class: str | None = None  # None: class predicted for the clean input
    target_space: str = "logit"

    def __post_init__(self):
        if self.steps < 1:
            raise UsageError(f"steps must be >= 1, got {self.steps}")
        if self.rule not in RULES:
            raise UsageError(f"unknown quadrature rule {self.rule!r}; expected one of {RULES}")
        if self.baseline_mode not in BASELINE_MODES:
            raise UsageError(f"unknown baseline mode {self.baseline_mode!r}")
        if self.target_class is not None and self.target_class not in CLASSES:
            raise UsageError(f"unknown target class {self.target_class!r}")
        if self.target_space not in TARGET_SPACES:
            raise UsageError(f"unknown target space {self.target_space!r}")

    def to_dict(self) -> dict:
        return {
            "steps": self.steps,
            "rule": self.rule,
            "baseline_mode": self.baseline_mode,
            "target_class": self.target_class or "predicted",
            "target_space": self.target_space,
        }


def interpolation_points(m: int, rule: str) -> list[tuple[float, float]]:
    """The (alpha_k, weight_k) table for an m-step quadrature rule.

    Weights are produced as consecutive differences of correctly rounded
    cumulative fractions (int / int rounds correctly), so their compensated
    sum is exactly 1.0.
    """
    if m < 1:
        raise UsageError(f"interpolation_points: m must be >= 1, got {m}")
    if rule == "right":
        alphas = [k / m for k in range(1, m + 1)]
        cumulative = alphas
    elif rule == "left":
        alphas = [(k - 1) / m for k in range(1, m + 1)]
        cumulative = [k / m for k in range(1, m + 1)]
    elif rule == "trapezoid":
        alphas = [k / m for k in range(0, m + 1)]
        cumulative = [(2 * k + 1) / (2 * m) for k in range(0, m)] + [1.0]
    else:
        raise UsageError(f"unknown quadrature rule {rule!r}; expected one of {RULES}")
    weights = [c - prev for c, prev in zip(cumulative, [0.0] + cumulative)]
    return list(zip(alphas, weights))


def make_baseline(weights: ModelWeights, token_ids, mode: str) -> Tensor:
    """Reference embeddings the interpolation path starts from.

    ``pad_embeddings`` re-embeds the sentence with every interior token
    replaced by [PAD], keeping the first and last positions (the enclosing
    specials) as in the input; ``zero`` is the all-zeros matrix.
    """
    ids = list(token_ids)
    if mode == "zero":
        return Tensor(np.zeros((len(ids), weights.config.d_model)))
    if mode == "pad_embeddings":
        padded = list(ids)
        for i in range(1, len(padded) - 1):
            padded[i] = PAD_ID
        return embed(weights, padded)
    raise UsageError(f"unknown baseline mode {mode!r}")


@dataclass
class PathIntegral:
    """Raw quadrature output for one input/baseline pair."""

    attributions: np.ndarray
    output_value: float
    baseline_value: float

    @property
    def total(self) -> float:
        return math.fsum(self.attributions.reshape(-1).tolist())

    @property
    def completeness_gap(self) -> float:
        return abs(self.total - (self.output_value - self.baseline_value))


ValueAndGrad = Callable[[np.ndarray], tuple[float, np.ndarray]]


def _path_inputs(x: np.ndarray, baseline: np.ndarray,
                 points: list[tuple[float, float]]) -> tuple[list[float], list[np.ndarray]]:
    """The alphas and arrays F is evaluated at along the straight path.

    Every rule point and both endpoints, by alpha from 1 down to 0: ``x``
    itself comes first and ``baseline`` itself last, so F(x) and F(x') are
    the first and last evaluations.
    """
    if x.shape != baseline.shape:
        raise DataError(f"input shape {x.shape} != baseline shape {baseline.shape}")
    diff = x - baseline
    alphas = sorted({alpha for alpha, _ in points} | {0.0, 1.0}, reverse=True)
    inputs = [x] + [baseline + alpha * diff for alpha in alphas[1:-1]] + [baseline]
    return alphas, inputs


def _integrate(x: np.ndarray, baseline: np.ndarray, points: list[tuple[float, float]],
               alphas: list[float], values, grads) -> PathIntegral:
    """Reduce the weighted gradients in step order into attributions.

    ``values`` and ``grads`` hold F and its gradient at each of ``alphas``
    (from :func:`_path_inputs`), in that order.
    """
    row = {alpha: i for i, alpha in enumerate(alphas)}
    acc = np.zeros_like(x)
    for k, (alpha, w) in enumerate(points):
        g = grads[row[alpha]]
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient at interpolation step {k}")
        acc += w * g
    return PathIntegral((x - baseline) * acc, float(values[0]), float(values[-1]))


def path_integral(f: ValueAndGrad, x: np.ndarray, baseline: np.ndarray,
                  m: int, rule: str) -> PathIntegral:
    """Quadrature core: attributions of ``f`` along the straight path.

    ``f`` maps an embedding array to (scalar output, gradient array). The
    weighted gradients are reduced in step order. ``f`` runs once per
    interpolation point, with the alpha = 1 point evaluated at ``x`` itself;
    F(x) and F(x') are read from the grid where the rule puts them on it,
    so only an endpoint the rule leaves out costs one more evaluation.
    """
    x = np.asarray(x, dtype=np.float64)
    baseline = np.asarray(baseline, dtype=np.float64)
    points = interpolation_points(m, rule)
    alphas, inputs = _path_inputs(x, baseline, points)
    values, grads = zip(*(f(e) for e in inputs))
    return _integrate(x, baseline, points, alphas, values, grads)


@dataclass
class SentenceAttribution:
    sentence: TokenizedSentence
    per_token: np.ndarray = field(repr=False)
    token_scores: list[float]
    word_ligas: list[float]
    sentence_ligas: float
    completeness_gap: float
    prediction: Prediction
    target_class: str
    target_space: str
    output_value: float
    baseline_value: float

    @property
    def words(self) -> list[str]:
        return list(self.sentence.words)


def word_scores(token_scores, alignment) -> list[float]:
    """Exact per-word sums of subword token scores.

    ``alignment`` pairs each word index with its half-open token span;
    special tokens fall outside every span and are excluded here (they still
    count toward the completeness total).
    """
    scores = list(token_scores)
    out: list[float] = []
    for word_index, (lo, hi) in alignment:
        if not (0 <= lo < hi <= len(scores)):
            raise DataError(
                f"word {word_index}: token span [{lo}, {hi}) out of range for "
                f"{len(scores)} tokens"
            )
        out.append(math.fsum(scores[lo:hi]))
    return out


def integrated_gradients(weights: ModelWeights, sentence: TokenizedSentence,
                         cfg: IGConfig) -> SentenceAttribution:
    """Attribute one tokenized sentence at the embedding layer.

    The path points are stacked from x down to x' and evaluated
    ``CHUNK_ROWS`` at a time, one forward and one backward per chunk. The
    prediction, and so the default target class, is read from row 0, x itself.
    """
    ids = list(sentence.token_ids)
    x = embed(weights, ids).data
    baseline = make_baseline(weights, ids, cfg.baseline_mode).data
    points = interpolation_points(cfg.steps, cfg.rule)
    alphas, inputs = _path_inputs(x, baseline, points)
    stack = np.stack(inputs)
    values = np.empty(len(stack))
    grads = np.empty_like(stack)
    for lo in range(0, len(stack), CHUNK_ROWS):
        hi = lo + CHUNK_ROWS
        e = Tensor(stack[lo:hi], requires_grad=True)
        logits = logits_from_embeddings(weights, e)
        probs = ad.softmax(logits, axis=-1)
        if lo == 0:
            prediction = prediction_of(logits.data[0], probs.data[0])
            target_class = cfg.target_class or prediction.predicted_class
            target = CLASSES.index(target_class)
        source = probs if cfg.target_space == "probability" else logits
        # the rows are independent, so the gradient of their summed targets
        # is each row's own gradient
        ad.backward(ad.sum_all(ad.slice_cols(source, target, target + 1)))
        values[lo:hi] = source.data[:, 0, target]
        grads[lo:hi] = ad.grad_of(e)
    result = _integrate(x, baseline, points, alphas, values, grads)

    token_scores = [math.fsum(row.tolist()) for row in result.attributions]
    ligas = word_scores(token_scores, sentence.alignment)
    total = math.fsum(token_scores)
    gap = abs(total - (result.output_value - result.baseline_value))
    return SentenceAttribution(
        sentence=sentence,
        per_token=result.attributions,
        token_scores=token_scores,
        word_ligas=ligas,
        sentence_ligas=math.fsum(ligas),
        completeness_gap=gap,
        prediction=prediction,
        target_class=target_class,
        target_space=cfg.target_space,
        output_value=result.output_value,
        baseline_value=result.baseline_value,
    )


# ---------------------------------------------------------------------------
# attribution report format (JSON lines)
# ---------------------------------------------------------------------------


def attribution_record(sentence_id: str, category: str, gold: str,
                       attribution: SentenceAttribution) -> dict:
    return {
        "id": sentence_id,
        "category": category,
        "gold": gold,
        "predicted": attribution.prediction.predicted_class,
        "prob": attribution.prediction.predicted_prob,
        "sentence_ligas": attribution.sentence_ligas,
        "completeness_gap": attribution.completeness_gap,
        "words": [
            {"text": w, "ligas": s}
            for w, s in zip(attribution.words, attribution.word_ligas)
        ],
    }


def write_attributions_jsonl(path: str, records: Iterable[dict],
                             header: dict | None = None) -> None:
    """One JSON object per line; an optional id-less header object leads."""
    with write_artifact(path) as fh:
        if header is not None:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
        for record in records:
            fh.write(json.dumps(record) + "\n")


def _is_finite(value) -> bool:  # a JSON number a float can hold; bool is not one here
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def read_attributions_jsonl(path: str) -> tuple[dict, list[dict]]:
    """Returns (header, records); the header is {} when absent.

    Each record must carry unique string ids and labels, finite numbers and
    a list of ``{"text", "ligas"}`` words. Its category must be one of
    ``CATEGORIES``, its gold and predicted labels ``CLASSES``, its prob
    must lie in [0, 1], its completeness gap must not be negative, and its
    ``sentence_ligas`` must be the correctly rounded sum of its word scores,
    which must fit in a float, so a command that reads the file fails
    before it writes anything. A header that declares a ``records`` count
    must match the records read, so a file cut short at a line boundary is
    rejected.
    """
    header: dict = {}
    records: list[dict] = []
    ids: set[str] = set()
    for line_no, line in read_lines(path):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}:{line_no}: invalid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise DataError(f"{path}:{line_no}: expected a JSON object")
        if "id" not in obj:
            if line_no == 1:
                header = obj
                continue
            raise DataError(f"{path}:{line_no}: record is missing 'id'")
        words = obj.get("words")
        bad = [k for k in ("id", "category", "gold", "predicted")
               if type(obj.get(k)) is not str]
        bad += [k for k in ("prob", "sentence_ligas", "completeness_gap")
                if not _is_finite(obj.get(k))]
        if type(words) is not list or not all(
                type(w) is dict and type(w.get("text")) is str
                and _is_finite(w.get("ligas")) for w in words):
            bad.append("words")
        if bad:
            raise DataError(f"{path}:{line_no}: record {obj['id']!r}: missing or "
                            f"malformed {bad} (want string ids and labels, finite "
                            f"scores, and words as {{'text': string, 'ligas': number}} "
                            f"objects)")
        bad_values = [f"{k} {obj[k]!r} is not one of {allowed}"
                      for k, allowed in (("category", CATEGORIES), ("gold", CLASSES),
                                         ("predicted", CLASSES))
                      if obj[k] not in allowed]
        if not 0.0 <= obj["prob"] <= 1.0:
            bad_values.append(f"prob {obj['prob']!r} is outside [0, 1]")
        if obj["completeness_gap"] < 0:
            bad_values.append(f"completeness_gap {obj['completeness_gap']!r} is negative")
        # the writer stores the exact sum, and JSON round-trips floats
        try:
            total = exact_fsum([w["ligas"] for w in words])
        except OverflowError:
            bad_values.append("word scores do not sum to a finite float")
        else:
            if obj["sentence_ligas"] != total:
                bad_values.append(f"sentence_ligas {obj['sentence_ligas']!r} is not the "
                                  f"sum of its word scores, {total!r}")
        if bad_values:
            raise DataError(f"{path}:{line_no}: record {obj['id']!r}: "
                            + "; ".join(bad_values))
        if obj["id"] in ids:
            raise DataError(f"{path}:{line_no}: duplicate record id {obj['id']!r}")
        ids.add(obj["id"])
        records.append(obj)
    if "records" in header and header["records"] != len(records):
        raise DataError(f"{path}: header declares {header['records']!r} records, "
                        f"the file holds {len(records)}")
    return header, records
