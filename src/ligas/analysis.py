"""Sign statistics over sentence LIGAS, scatter export, and heatmaps.

Sentences are bucketed by classification outcome (CC = predicted equals
gold, MC otherwise) and by the sign of their sentence-level LIGAS. A score
of exactly zero counts as non-positive: zero attribution is no evidence
toward the prediction. Percentages are computed in full float precision
and rendered half-even to two decimals; both rules are restated in the
report footers.

Callers pass values from records that ``read_attributions_jsonl``
accepted: known categories, LA/LUA labels, probabilities in [0, 1] and
finite scores. Nothing here checks them again; the one data error left is
a per-label |LIGAS| total out of float range, which no single record shows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal
from typing import Iterable

from .config import CATEGORIES, write_artifact
from .errors import DataError
from .model import CLASSES


def outcome(predicted: str, gold: str) -> str:
    return "CC" if predicted == gold else "MC"


@dataclass(frozen=True)
class CategoryStats:
    category: str
    cc_plus: int
    cc_minus: int
    mc_plus: int
    mc_minus: int

    @property
    def cc(self) -> int:
        return self.cc_plus + self.cc_minus

    @property
    def mc(self) -> int:
        return self.mc_plus + self.mc_minus

    @property
    def total(self) -> int:
        return self.cc + self.mc

    @property
    def cc_plus_pct(self) -> float | None:
        return 100.0 * self.cc_plus / self.cc if self.cc else None

    @property
    def mc_plus_pct(self) -> float | None:
        return 100.0 * self.mc_plus / self.mc if self.mc else None


def sign_stats(records: Iterable[tuple[str, str, float]]) -> list[CategoryStats]:
    """Per-category sign counts from (category, outcome, sentence_ligas).

    Categories appear in canonical order; categories with no records are
    omitted entirely (empty input gives an empty list).
    """
    counts: dict[str, dict[str, int]] = {}
    for category, out, ligas in records:
        bucket = counts.setdefault(category, {"CC+": 0, "CC-": 0, "MC+": 0, "MC-": 0})
        key = out + ("+" if ligas > 0.0 else "-")
        bucket[key] += 1
    return [
        CategoryStats(c, counts[c]["CC+"], counts[c]["CC-"],
                      counts[c]["MC+"], counts[c]["MC-"])
        for c in CATEGORIES
        if c in counts
    ]


def aggregate_mc_positive(stats: Iterable[CategoryStats]) -> float | None:
    """Percentage of misclassified sentences with positive LIGAS, pooled
    over all categories. ``None`` when there are no misclassifications."""
    mc_plus = 0
    mc = 0
    for s in stats:
        mc_plus += s.mc_plus
        mc += s.mc
    return 100.0 * mc_plus / mc if mc else None


def format_pct(value: float | None) -> str:
    if value is None:
        return ""
    return str(Decimal(value).quantize(Decimal("0.01"), rounding=ROUND_HALF_EVEN))


def mean_abs_ligas_by_gold(records: Iterable[tuple[str, float]]) -> dict[str, float | None]:
    """Mean |sentence_ligas| per gold label, for the LA/LUA magnitude
    comparison reported alongside the stats. A label whose total is out of
    float range is a data error."""
    sums = {label: [] for label in CLASSES}
    for gold, ligas in records:
        sums[gold].append(abs(ligas))
    means: dict[str, float | None] = {}
    for label, vals in sums.items():
        try:
            means[label] = math.fsum(vals) / len(vals) if vals else None
        except OverflowError:  # no partial sum of non-negative values exceeds the total
            raise DataError(f"gold label {label}: total |sentence_ligas| is out of "
                            f"float range") from None
    return means


def write_stats_csv(path: str, stats: list[CategoryStats],
                    mean_abs: dict[str, float | None],
                    comment: str | None = None) -> None:
    agg = aggregate_mc_positive(stats)
    with write_artifact(path, comment) as fh:
        fh.write("category,C,CC,MC,CCplus,CCminus,MCplus,MCminus,CCplus_pct,MCplus_pct\n")
        for s in stats:
            fh.write(
                f"{s.category},{s.total},{s.cc},{s.mc},"
                f"{s.cc_plus},{s.cc_minus},{s.mc_plus},{s.mc_minus},"
                f"{format_pct(s.cc_plus_pct)},{format_pct(s.mc_plus_pct)}\n"
            )
        fh.write(f"# aggregate_MCplus_pct={format_pct(agg)}\n")
        la, lua = mean_abs["LA"], mean_abs["LUA"]
        fh.write(
            f"# mean_abs_sentence_ligas LA={'' if la is None else repr(la)} "
            f"LUA={'' if lua is None else repr(lua)}\n"
        )
        if la and lua is not None:
            fh.write(f"# mean_abs_ratio_LUA_over_LA={lua / la!r}\n")
        fh.write("# zero sentence LIGAS counts as non-positive\n")
        fh.write("# percentages computed in full precision, rounded half-even to 2 decimals\n")


# ---------------------------------------------------------------------------
# scatter export
# ---------------------------------------------------------------------------


def scatter_tables(records: Iterable[tuple[float, float, str]]
                   ) -> tuple[list[tuple[float, float]], list[tuple[float, float]]]:
    """Split (prob, ligas, outcome) records into CC and MC tables,
    preserving input order."""
    cc: list[tuple[float, float]] = []
    mc: list[tuple[float, float]] = []
    for prob, ligas, out in records:
        (cc if out == "CC" else mc).append((prob, ligas))
    return cc, mc


def write_scatter_csv(path: str, rows: list[tuple[float, float]],
                      comment: str | None = None) -> None:
    with write_artifact(path, comment) as fh:
        fh.write("prob,ligas\n")
        for prob, ligas in rows:
            fh.write(f"{prob!r},{ligas!r}\n")


def render_scatter_svg(rows: list[tuple[float, float]], title: str,
                       color: str = "#2f7d32") -> str:
    """A fixed-size scatter plot; the x axis is the [0, 1] probability,
    the y axis spans the data's LIGAS range (symmetric unit range when
    empty or degenerate). One circle element per row."""
    width, height, margin = 640, 480, 48
    if rows:
        lo = min(l for _, l in rows)
        hi = max(l for _, l in rows)
        if lo == hi:
            lo, hi = lo - 1.0, hi + 1.0
    else:
        lo, hi = -1.0, 1.0
    span = (hi - lo) or 1.0  # a flat value of 2**53 or more does not move by 1

    def sx(p: float) -> float:
        return margin + p * (width - 2 * margin)

    def sy(l: float) -> float:
        return height - margin - (l - lo) / span * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<title>{title}</title>',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 12}" text-anchor="middle" '
        f'font-size="14">prediction probability</text>',
        f'<text x="16" y="{height // 2}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 16 {height // 2})">sentence LIGAS</text>',
    ]
    if lo < 0.0 < hi:
        zero_y = sy(0.0)
        parts.append(
            f'<line x1="{margin}" y1="{zero_y!r}" x2="{width - margin}" '
            f'y2="{zero_y!r}" stroke="#bbbbbb" stroke-dasharray="4 4"/>'
        )
    for prob, ligas in rows:
        parts.append(
            f'<circle cx="{sx(prob)!r}" cy="{sy(ligas)!r}" r="3" '
            f'fill="{color}" fill-opacity="0.6"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# attribution heatmap
# ---------------------------------------------------------------------------

_POSITIVE = (46, 125, 50)   # toward green
_NEGATIVE = (198, 40, 40)   # toward red


def _blend(channel: int, intensity: float) -> int:
    return round(255 + intensity * (channel - 255))


def heatmap_render(record: dict) -> str:
    """HTML fragment for one attribution record ({id, predicted, prob,
    words: [{text, ligas}]}). One span per word; positive scores shade
    toward green and negative toward red, scaled by the sentence's max
    |ligas| (all white when that is zero); the exact score sits in the
    span's title attribute."""
    words = record["words"]
    peak = max((abs(w["ligas"]) for w in words), default=0.0)
    spans = []
    for w in words:
        ligas = w["ligas"]
        intensity = abs(ligas) / peak if peak > 0.0 else 0.0
        target = _POSITIVE if ligas > 0 else _NEGATIVE
        rgb = tuple(_blend(c, intensity) for c in target)
        spans.append(
            f'<span title="{ligas!r}" style="background-color: '
            f'rgb({rgb[0]},{rgb[1]},{rgb[2]}); padding: 1px 3px; '
            f'border-radius: 3px;">{_escape(w["text"])}</span>'
        )
    legend = (
        f'<div style="font-size: 12px; color: #444;">id={_escape(record["id"])} '
        f'predicted={record["predicted"]} prob={record["prob"]!r}</div>'
    )
    body = " ".join(spans)
    return (
        f'<div style="font-family: sans-serif; margin: 8px 0;">{legend}'
        f'<div style="margin-top: 2px;">{body}</div></div>\n'
    )


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        .replace('"', "&quot;")
    )
