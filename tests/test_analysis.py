"""Sign statistics, percentage rendering, scatter export, and heatmaps."""

import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ligas.analysis import (
    CategoryStats,
    aggregate_mc_positive,
    format_pct,
    heatmap_render,
    mean_abs_ligas_by_gold,
    outcome,
    render_scatter_svg,
    scatter_tables,
    sign_stats,
    write_scatter_csv,
    write_stats_csv,
)
from ligas.config import CATEGORIES
from ligas.errors import DataError


# ---------------------------------------------------------------------------
# outcomes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "predicted,gold,expected",
    [("LA", "LA", "CC"), ("LUA", "LUA", "CC"), ("LA", "LUA", "MC"), ("LUA", "LA", "MC")],
)
def test_outcome_table(predicted, gold, expected):
    assert outcome(predicted, gold) == expected


# ---------------------------------------------------------------------------
# sign counts
# ---------------------------------------------------------------------------


def records_for(category, cc_plus=0, cc_minus=0, mc_plus=0, mc_minus=0):
    return (
        [(category, "CC", 1.0)] * cc_plus
        + [(category, "CC", -1.0)] * cc_minus
        + [(category, "MC", 0.5)] * mc_plus
        + [(category, "MC", -0.5)] * mc_minus
    )


def test_sign_stats_counts_one_category():
    stats = sign_stats(records_for("SVA", cc_plus=3, cc_minus=1, mc_plus=2, mc_minus=4))
    assert len(stats) == 1
    s = stats[0]
    assert (s.category, s.cc_plus, s.cc_minus, s.mc_plus, s.mc_minus) == ("SVA", 3, 1, 2, 4)
    assert s.cc == 4 and s.mc == 6 and s.total == 10
    assert s.cc_plus_pct == 75.0
    assert s.mc_plus_pct == pytest.approx(100.0 * 2 / 6)


def test_zero_ligas_counts_as_non_positive():
    stats = sign_stats([("CIA", "CC", 0.0), ("CIA", "MC", 0.0), ("CIA", "CC", 1e-300)])
    s = stats[0]
    assert s.cc_plus == 1      # the tiny positive one
    assert s.cc_minus == 1     # the exact zero
    assert s.mc_minus == 1
    assert s.mc_plus == 0


def test_categories_come_out_in_canonical_order():
    records = records_for("WHE", cc_plus=1) + records_for("CIA", cc_plus=1) + \
        records_for("SVO", mc_minus=1)
    stats = sign_stats(records)
    assert [s.category for s in stats] == ["CIA", "SVO", "WHE"]


def test_empty_input_gives_empty_stats():
    assert sign_stats([]) == []


def test_percentages_are_none_without_a_denominator():
    stats = sign_stats(records_for("RAA", cc_plus=2))
    assert stats[0].mc_plus_pct is None
    assert stats[0].cc_plus_pct == 100.0
    only_mc = CategoryStats("RAA", 0, 0, 1, 1)
    assert only_mc.cc_plus_pct is None


@given(
    raw=st.lists(
        st.tuples(
            st.sampled_from(CATEGORIES),
            st.sampled_from(["CC", "MC"]),
            st.floats(allow_nan=False, allow_infinity=False),
        ),
        max_size=60,
    ),
    seed=st.randoms(),
)
@settings(max_examples=100, deadline=None)
def test_counts_match_a_recount_and_ignore_order(raw, seed):
    stats = sign_stats(raw)
    shuffled = list(raw)
    seed.shuffle(shuffled)
    assert sign_stats(shuffled) == stats
    for s in stats:
        mine = [(c, o, l) for c, o, l in raw if c == s.category]
        assert s.total == len(mine)
        assert s.cc_plus == sum(1 for _, o, l in mine if o == "CC" and l > 0.0)
        assert s.mc_minus == sum(1 for _, o, l in mine if o == "MC" and l <= 0.0)
    assert {s.category for s in stats} == {c for c, _, _ in raw}


def test_aggregate_pools_misclassified_counts():
    stats = [
        CategoryStats("CIA", 0, 0, 7, 13),
        CategoryStats("RAA", 0, 0, 2, 42),
    ]
    assert aggregate_mc_positive(stats) == pytest.approx(100.0 * 9 / 64)
    assert aggregate_mc_positive([]) is None
    assert aggregate_mc_positive([CategoryStats("CIA", 5, 5, 0, 0)]) is None


# ---------------------------------------------------------------------------
# rendering rules
# ---------------------------------------------------------------------------


def test_format_pct_rounds_half_even():
    assert format_pct(0.125) == "0.12"   # ties to even: 2
    assert format_pct(0.375) == "0.38"   # ties to even: 8
    assert format_pct(100.0) == "100.00"
    assert format_pct(4.545454545454545) == "4.55"
    assert format_pct(88.88888888888889) == "88.89"
    assert format_pct(None) == ""


def test_format_pct_uses_the_full_binary_value():
    # the double nearest 0.145 is below it, the one nearest 12.345 is above;
    # no tie occurs in either case, whatever the printed literal suggests
    assert format_pct(0.145) == "0.14"
    assert format_pct(12.345) == "12.35"


def test_mean_abs_by_gold():
    got = mean_abs_ligas_by_gold([("LA", 1.0), ("LA", -3.0), ("LUA", -8.0)])
    assert got["LA"] == 2.0
    assert got["LUA"] == 8.0
    assert mean_abs_ligas_by_gold([("LA", 1.0)])["LUA"] is None


def test_mean_abs_by_gold_rejects_a_total_out_of_float_range():
    # each mean would fit, but the label's total does not
    with pytest.raises(DataError, match=re.escape(
            "gold label LUA: total |sentence_ligas| is out of float range")):
        mean_abs_ligas_by_gold([("LA", 1.0), ("LUA", 1e308), ("LUA", -1e308)])


# ---------------------------------------------------------------------------
# stats file
# ---------------------------------------------------------------------------


def test_stats_csv_layout(tmp_path):
    stats = sign_stats(
        records_for("CIA", cc_plus=3, cc_minus=1, mc_plus=1, mc_minus=1)
        + records_for("WHE", cc_plus=2)
    )
    mean_abs = {"LA": 0.5, "LUA": 2.0}
    path = tmp_path / "stats.csv"
    write_stats_csv(str(path), stats, mean_abs=mean_abs, comment="config_digest=abc")
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# config_digest=abc"
    assert lines[1] == "category,C,CC,MC,CCplus,CCminus,MCplus,MCminus,CCplus_pct,MCplus_pct"
    assert lines[2] == "CIA,6,4,2,3,1,1,1,75.00,50.00"
    assert lines[3] == "WHE,2,2,0,2,0,0,0,100.00,"   # empty cell, not 0
    assert "# aggregate_MCplus_pct=50.00" in lines
    assert "# mean_abs_sentence_ligas LA=0.5 LUA=2.0" in lines
    assert "# mean_abs_ratio_LUA_over_LA=4.0" in lines
    assert "# zero sentence LIGAS counts as non-positive" in lines
    assert "# percentages computed in full precision, rounded half-even to 2 decimals" in lines


def test_stats_csv_round_trip(tmp_path):
    stats = sign_stats(records_for("SVO", cc_plus=9, mc_plus=1))
    path = tmp_path / "stats.csv"
    write_stats_csv(str(path), stats, {"LA": 1.0, "LUA": None})
    lines = [l for l in path.read_text(encoding="utf-8").splitlines() if l]
    comments = [l[1:].strip() for l in lines if l.startswith("#")]
    header, *body = [l.split(",") for l in lines if not l.startswith("#")]
    rows = [dict(zip(header, cells)) for cells in body]
    assert rows == [
        {
            "category": "SVO", "C": "10", "CC": "9", "MC": "1",
            "CCplus": "9", "CCminus": "0", "MCplus": "1", "MCminus": "0",
            "CCplus_pct": "100.00", "MCplus_pct": "100.00",
        }
    ]
    assert any(c.startswith("aggregate_MCplus_pct=") for c in comments)


# ---------------------------------------------------------------------------
# scatter
# ---------------------------------------------------------------------------


def test_scatter_tables_split_by_outcome_in_order():
    cc, mc = scatter_tables(
        [(0.9, 1.0, "CC"), (0.6, -0.5, "MC"), (0.7, 2.0, "CC"), (0.5, 0.0, "MC")]
    )
    assert cc == [(0.9, 1.0), (0.7, 2.0)]
    assert mc == [(0.6, -0.5), (0.5, 0.0)]


def test_scatter_csv_floats_round_trip(tmp_path):
    rows = [(0.1, -2.3456789012345678), (1.0, 0.0)]
    path = tmp_path / "scatter.csv"
    write_scatter_csv(str(path), rows, comment="d")
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# d"
    assert lines[1] == "prob,ligas"
    parsed = [tuple(float(c) for c in line.split(",")) for line in lines[2:]]
    assert parsed == rows


def test_scatter_svg_has_one_marker_per_row():
    rows = [(0.1, -0.5), (0.5, 0.0), (0.9, 1.5)]
    svg = render_scatter_svg(rows, "correctly classified")
    assert svg.count("<circle") == 3
    assert "<title>correctly classified</title>" in svg
    assert svg.count("stroke-dasharray") == 1  # zero line: data spans 0


def test_scatter_svg_degenerate_inputs():
    empty = render_scatter_svg([], "empty")
    assert "<circle" not in empty
    assert "<svg" in empty and "</svg>" in empty

    flat = render_scatter_svg([(0.5, 2.0), (0.6, 2.0)], "flat")
    assert flat.count("<circle") == 2
    assert "nan" not in flat

    # past 2**53, widening a flat range by 1 leaves it flat
    huge = render_scatter_svg([(0.5, 2.0**53 + 4)], "huge")
    assert huge.count("<circle") == 1
    assert "nan" not in huge


def test_scatter_svg_range_wider_than_float_range():
    # 1e308 - -1e308 overflows; the positions come from halved values
    svg = render_scatter_svg([(0.5, 1e308), (0.5, -1e308)], "wide")
    assert "nan" not in svg and "inf" not in svg
    assert 'cy="48.0"' in svg and 'cy="432.0"' in svg
    assert 'y1="240.0"' in svg and 'y2="240.0"' in svg  # the zero line


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=6))
def test_scatter_svg_positions_on_a_finite_span(values):
    lo, hi = min(values), max(values)
    if lo == hi or not math.isfinite(hi - lo):
        return
    svg = render_scatter_svg([(0.5, v) for v in values], "t")
    expected = [repr(480 - 48 - (v - lo) / (hi - lo) * (480 - 2 * 48)) for v in values]
    assert re.findall(r'cy="([^"]*)"', svg) == expected


# ---------------------------------------------------------------------------
# heatmaps
# ---------------------------------------------------------------------------


def record(words):
    return {
        "id": "CIA-0000-LA",
        "predicted": "LA",
        "prob": 0.875,
        "words": [{"text": t, "ligas": v} for t, v in words],
    }


def test_heatmap_one_span_per_word():
    html = heatmap_render(record([("the", 0.1), ("dog", 0.9), ("ran", -0.4),
                                  ("away", 0.0), (".", 0.2)]))
    assert html.count("<span") == 5
    assert "id=CIA-0000-LA" in html
    assert "predicted=LA" in html
    assert "prob=0.875" in html


def test_heatmap_peak_word_gets_the_full_shade():
    html = heatmap_render(record([("dull", 0.45), ("peak", -0.9)]))
    # the largest |score| is negative: full red; the other is half green
    assert "rgb(198,40,40)" in html
    assert "rgb(255,255,255)" not in html


def test_heatmap_all_zero_scores_render_white():
    html = heatmap_render(record([("a", 0.0), ("b", 0.0)]))
    assert html.count("rgb(255,255,255)") == 2


def test_heatmap_title_carries_the_exact_score():
    html = heatmap_render(record([("word", 0.1234567890123456)]))
    assert 'title="0.1234567890123456"' in html


def test_heatmap_escapes_markup_in_words():
    html = heatmap_render(record([("<b>", 1.0), ("a&b", -1.0)]))
    assert "&lt;b&gt;" in html
    assert "a&amp;b" in html
    assert "<b>" not in html.replace("<body", "")
