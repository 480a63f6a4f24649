"""tools/bench_record.py's summary of alternated benchmark pairs, on fixed
records: no benchmark runs here."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import bench_record  # noqa: E402

sys.path.pop(0)


def run(wall_s, steps_per_s, correct=True, failed=0):
    return {"correct": correct, "attempted": 30, "failed": failed,
            "wall_s": wall_s, "steps_per_s": steps_per_s}


PAIRS = [  # (parent, change) runs; pair 2 ties on wall_s, pair 3 the parent wins
    {"first": "parent", "parent": run(0.50, 200.0), "change": run(0.40, 250.0)},
    {"first": "change", "change": run(0.41, 244.0), "parent": run(0.48, 208.0)},
    {"first": "parent", "parent": run(0.45, 222.0), "change": run(0.45, 222.0)},
    {"first": "change", "change": run(0.52, 192.0), "parent": run(0.47, 213.0)},
    {"first": "parent", "parent": run(0.49, 204.0), "change": run(0.39, 256.0)},
]


def test_summary_gives_quartiles_and_pairs_won_per_metric():
    summary = bench_record.summarize(PAIRS, {"wall_s": "lower", "steps_per_s": "higher"})
    wall = summary["wall_s"]
    assert wall["better"] == "lower" and wall["pairs"] == 5
    # statistics.quantiles' exclusive method on 0.45, 0.47, 0.48, 0.49, 0.50
    assert wall["parent"] == pytest.approx({"median": 0.48, "q1": 0.46, "q3": 0.495})
    # and on 0.39, 0.40, 0.41, 0.45, 0.52
    assert wall["change"]["median"] == 0.41
    assert wall["change_better_in_pairs"] == 3  # a tie is no win
    speed = summary["steps_per_s"]
    assert speed["better"] == "higher" and speed["change_better_in_pairs"] == 3
    assert speed["parent"]["median"] == 208.0 and speed["change"]["median"] == 244.0


def test_faults_name_each_incorrect_or_failing_run():
    assert bench_record.faults(PAIRS) == []
    bad = PAIRS[:1] + [{"first": "change", "change": run(0.4, 250.0, correct=False),
                        "parent": run(0.5, 200.0, failed=2)}]
    assert bench_record.faults(bad) == [
        "pair 1 parent: correct=True failed=2",
        "pair 1 change: correct=False failed=0",
    ]
