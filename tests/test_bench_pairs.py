"""The summary step of tools/bench_pairs.py, on hand-made result lines (no benchmark runs)."""

import importlib.util
import pathlib

import pytest

PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "img_per_s", "better": "higher", "bound": 0.25},
              {"name": "peak_rss_mb", "better": "lower", "bound": 0.2}]


def run(side, pair, img_per_s, peak_rss_mb, failed=0, workload="infer-64"):
    metrics = {"img_per_s": {"value": img_per_s, "unit": "images/s"},
               "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"}}
    return {"side": side, "workload": workload, "seed": 100 + pair, "pair": pair,
            "result": {"correct": failed == 0, "attempted": 50, "failed": failed, "metrics": metrics}}


def pairs(parent, change):
    """Alternating runs: parent first in even-indexed pairs."""
    runs = []
    for i, (p, c) in enumerate(zip(parent, change)):
        sides = [run("parent", i, *p), run("change", i, *c)]
        runs += sides if i % 2 == 0 else sides[::-1]
    return runs


def test_medians_quartiles_and_wins():
    runs = pairs(parent=[(100, 80), (110, 80), (120, 80), (130, 80), (140, 80)],
                 change=[(101, 90), (109, 70), (125, 80), (135, 80), (150, 80)])
    s = bench_pairs.summarize(runs, END_TO_END)["infer-64"]
    assert (s["pairs"], s["failed_ops"], s["all_correct"]) == (5, 0, True)
    img = s["img_per_s"]
    assert img["parent"] == {"median": 120, "q1": 110, "q3": 130}
    assert img["change"] == {"median": 125, "q1": 109, "q3": 135}
    assert img["change_wins"] == 4  # higher is better
    assert img["change_vs_parent_pct"] == pytest.approx(4.17)
    assert img["within_bound"] and not img["resolved"]  # 5 < either side's spread
    rss = s["peak_rss_mb"]
    assert rss["change_wins"] == 1  # lower is better; ties count for neither side
    assert rss["change_vs_parent_pct"] == 0.0 and rss["within_bound"] and not rss["resolved"]


def test_a_gap_beyond_the_bound_and_the_spread():
    runs = pairs(parent=[(100, 80), (101, 80), (102, 80)], change=[(50, 100), (51, 100), (52, 100)])
    s = bench_pairs.summarize(runs, END_TO_END)["infer-64"]
    assert s["img_per_s"]["change_wins"] == 0
    assert not s["img_per_s"]["within_bound"] and s["img_per_s"]["resolved"]
    assert s["peak_rss_mb"]["change_vs_parent_pct"] == 25.0
    assert not s["peak_rss_mb"]["within_bound"] and s["peak_rss_mb"]["resolved"]


def test_failures_and_workloads_are_kept_apart():
    runs = pairs(parent=[(100, 80), (100, 80)], change=[(100, 80), (100, 80)])
    runs[1]["result"]["failed"] = 3
    runs[1]["result"]["correct"] = False
    crashed = run("parent", 0, 0, 0, workload="train-64")
    crashed["result"] = {"correct": False, "attempted": 0, "failed": 0, "error": "exit status 1"}
    s = bench_pairs.summarize(runs + [crashed], END_TO_END)
    assert (s["infer-64"]["pairs"], s["infer-64"]["failed_ops"], s["infer-64"]["all_correct"]) == (2, 3, False)
    assert s["train-64"] == {"pairs": 0, "failed_ops": 0, "all_correct": False}


def test_each_run_keeps_the_load_it_saw(tmp_path):
    # A stand-in for perfbench/run.py that prints an env line and a result line.
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        'import json\n'
        'print("env " + json.dumps({"nproc": 2, "loadavg_1m_before": 1.25, "loadavg_1m_after": 1.5}))\n'
        'print(json.dumps({"correct": True, "attempted": 3, "failed": 0}))\n')
    result, env = bench_pairs.run_once(str(tmp_path), "infer-64", 5, 1)
    entry = bench_pairs.run_entry("change", "infer-64", 5, 0, result, env)
    assert entry == {"side": "change", "workload": "infer-64", "seed": 5, "pair": 0,
                     "result": {"correct": True, "attempted": 3, "failed": 0},
                     "loadavg_1m_before": 1.25, "loadavg_1m_after": 1.5}
    crashed = bench_pairs.run_entry("parent", "infer-64", 5, 0, {"correct": False}, {})
    assert crashed["loadavg_1m_before"] is None and crashed["loadavg_1m_after"] is None


@pytest.mark.parametrize("text, seeds", [("7-9", [7, 8, 9]), ("4,2", [4, 2]), ("5", [5])])
def test_seed_lists(text, seeds):
    assert bench_pairs.parse_seeds(text) == seeds
