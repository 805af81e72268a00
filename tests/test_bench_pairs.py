import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def test_summary_reproduces_a_recorded_bench_file():
    # BENCH_25.json was assembled by hand: its medians and quartiles must
    # follow from its runs by the same rule
    doc = json.loads((ROOT / "BENCH_25.json").read_text())
    checked = 0
    for entries in doc["workloads"].values():
        for entry in entries:
            for side in ("parent", "change"):
                for m in END_TO_END:
                    recorded = entry[side][m["name"]]
                    got = bench_pairs.summary(recorded["runs"])
                    for key in ("median", "q1", "q3"):
                        assert got[key] == pytest.approx(recorded[key], abs=2e-6)
                    checked += 1
    assert checked == 4 * 2 * 3


def test_summary_of_one_run_and_of_an_even_count():
    assert bench_pairs.summary([0.5]) == {"median": 0.5, "q1": 0.5, "q3": 0.5, "runs": [0.5]}
    # inclusive quartiles of 1..4 interpolate between the order statistics
    assert bench_pairs.summary([4, 1, 3, 2]) == {"median": 2.5, "q1": 1.75, "q3": 3.25,
                                                 "runs": [4, 1, 3, 2]}


def _run(setup, ref, rss, correct=True, failed=0):
    return {"correct": correct, "attempted": 100, "failed": failed,
            "metrics": {"setup_s": {"value": setup}, "certify_ref": {"value": ref},
                        "peak_rss_mb": {"value": rss}}}


def test_workload_entry_counts_better_pairs_and_sums_counts():
    parent = [_run(0.2, 1.0, 56.0), _run(0.2, 1.0, 56.2), _run(0.1, 1.0, 56.1)]
    change = [_run(0.1, 1.1, 38.0), _run(0.3, 0.9, 38.4), _run(0.1, 1.0, 38.2, False, 2)]
    entry = bench_pairs.workload_entry(7, parent, change, END_TO_END)
    assert entry["seed"] == 7 and entry["pairs"] == 3
    # equal values are not better; every end-to-end metric is lower-is-better
    assert entry["change_better_in_pairs"] == {"setup_s": 1, "certify_ref": 1, "peak_rss_mb": 3}
    assert entry["parent"]["attempted"] == 300 and entry["parent"]["all_correct"]
    assert entry["change"]["failed"] == 2 and not entry["change"]["all_correct"]
    assert entry["change"]["peak_rss_mb"]["median"] == 38.2
    assert list(entry["parent"]) == ["failed", "attempted", "all_correct", "setup_s",
                                     "certify_ref", "peak_rss_mb"]


def _pairs(parent_refs, change_refs):
    """Runs that differ only in certify_ref, so the other metrics tie."""
    return ([_run(0.1, r, 20.0) for r in parent_refs], [_run(0.1, r, 20.0) for r in change_refs])


@pytest.mark.parametrize("change_refs,expected", [
    # 9 of 10 pairs won (the last one lost); the medians, 1.0 and 0.8,
    # differ by more than the parent's q3 - q1 = 1.0375 - 0.9625
    ([0.8] * 9 + [1.2], "better"),
    # median 1.3 against 1.0: worse by more than the 0.25 bound
    ([1.3] * 10, "worse"),
    # 8 wins, a loss and a tie (1.1 against 1.1) are too few for better,
    # and nothing is worse
    ([0.8] * 8 + [1.1] * 2, "unresolved"),
])
def test_workload_entry_verdicts(change_refs, expected):
    parent, change = _pairs([0.9, 0.95, 0.95, 1.0, 1.0, 1.0, 1.0, 1.05, 1.05, 1.1], change_refs)
    entry = bench_pairs.workload_entry(1, parent, change, END_TO_END)
    assert entry["verdict"] == {"setup_s": "unresolved", "certify_ref": expected,
                                "peak_rss_mb": "unresolved"}


def test_a_gain_within_the_parents_spread_is_unresolved():
    # the change wins every pair, but by less than the parent's q3 - q1
    parent, change = _pairs([1.0, 1.2, 1.4, 1.6], [0.9, 1.1, 1.3, 1.5])
    entry = bench_pairs.workload_entry(1, parent, change, END_TO_END)
    assert entry["change_better_in_pairs"]["certify_ref"] == 4
    assert entry["verdict"]["certify_ref"] == "unresolved"


def test_workload_entry_needs_whole_pairs():
    with pytest.raises(ValueError):
        bench_pairs.workload_entry(1, [_run(0.1, 1.0, 1.0)], [], END_TO_END)


def test_a_seed_list_writes_one_entry_per_seed_and_workload(tmp_path, monkeypatch):
    # both revisions and every run are stubbed; the file lands in tmp_path
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "export", lambda rev, into: rev * 8)
    calls = []

    def run_once(checkout, workload, seed, seconds):
        calls.append((checkout.name, workload, seed))
        return _run(0.1, 0.9 if checkout.name == "change" else 1.0, 20.0 + seed)

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    assert bench_pairs.main(["p", "c", "--pr", "7", "--workloads", "w1,w2", "--pairs", "2",
                             "--seed", "1,5"]) == 0
    doc = json.loads((tmp_path / "BENCH_7.json").read_text())
    assert (doc["parent_rev"], doc["change_rev"]) == ("p" * 8, "c" * 8)
    for workload in ("w1", "w2"):
        entries = doc["workloads"][workload]
        assert [e["seed"] for e in entries] == [1, 5]
        assert [e["parent"]["peak_rss_mb"]["median"] for e in entries] == [21.0, 25.0]
        assert all(e["pairs"] == 2 and e["change_better_in_pairs"]["certify_ref"] == 2
                   for e in entries)
    pair = [("parent", "change"), ("change", "parent")]
    assert calls == [(side, w, seed) for w in ("w1", "w2") for seed in (1, 5)
                     for order in pair for side in order]
    assert bench_pairs.seeds("3") == [3]
    with pytest.raises(SystemExit):
        bench_pairs.main(["p", "c", "--pr", "7", "--seed", "1,x"])
