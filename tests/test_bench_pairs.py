"""tools/bench_pairs.py: seed ranges and the summary of paired runs."""

import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def test_seed_ranges_include_both_ends():
    assert bench_pairs.parse_seeds(["31101-31103", "7"]) == [31101, 31102, 31103, 7]


def test_summary_counts_better_pairs_by_direction():
    metrics = [{"name": "command_s", "better": "lower"}, {"name": "quality", "better": "higher"}]
    parent = [{"metrics": {"command_s": s, "quality": 1.0}} for s in (0.50, 0.52, 0.48, 0.51)]
    change = [{"metrics": {"command_s": s, "quality": q}}
              for s, q in ((0.45, 1.0), (0.53, 1.0), (0.44, 0.9), (0.46, 1.0))]
    summary = bench_pairs.summarize(parent, change, metrics)
    assert summary["command_s"] == {
        # quartiles by statistics.quantiles' default (exclusive) method
        "parent_median": 0.505, "parent_iqr": 0.0325, "change_median": 0.455,
        "change_iqr": 0.07, "change_better_pairs": "3/4",
    }
    # equal values count for neither side; a lower quality is worse
    assert summary["quality"]["change_better_pairs"] == "0/4"
