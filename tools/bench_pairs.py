"""Run the benchmark in alternating parent/change pairs and summarise them.

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE --workload infer-64 \
        [--workload train-64 ...] --seeds 2101-2110 --out BENCH_21.json

Each tree is a git checkout. The files committed at its HEAD are copied
to a temporary directory of their own, outside both checkouts, so a run
never reads uncommitted files or another tree's leftovers, and both sides
start from the same kind of directory (``setup_s`` follows the directory a
run starts from). For every workload and seed, the pair runs

    python3 perfbench/run.py --workload W --seed S --seconds N --trace 0

once in each copy, with N the parent's ``BENCHMARK.json`` ``run_seconds``,
the parent first in even-indexed pairs and the change first in odd ones.

The output holds every run's JSON result line with the 1-minute load
average its ``env`` line reported before and after its work (a pair run
under load can then be told from a slow change), and, per workload and per
end-to-end metric of the parent's ``BENCHMARK.json``, each side's median
and quartiles, the pairs the change won (ties count for neither side), the
change of the median in percent, whether it stays within the metric's bound
and whether the gap between medians is wider than either side's spread
between quartiles (``resolved``). The file is rewritten after every run.
Only the standard library is used.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

SIDES = ("parent", "change")
RUN_TIMEOUT_S = 1800


def parse_seeds(text: str) -> list[int]:
    """``A-B`` (inclusive) or a comma-separated list of seeds."""
    if "-" in text:
        first, last = (int(part) for part in text.split("-", 1))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def head(tree: str) -> str:
    return subprocess.run(["git", "-C", tree, "rev-parse", "HEAD"], check=True,
                          capture_output=True, text=True).stdout.strip()


def copy_committed(tree: str, dest: str) -> None:
    """Extract the files committed at ``tree``'s HEAD into ``dest``."""
    tar = subprocess.run(["git", "-C", tree, "archive", "--format=tar", "HEAD"],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def run_once(copy: str, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(result, env) of one benchmark run in ``copy``. A run that exits
    non-zero or prints no JSON line counts as incorrect."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=copy, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    if proc.returncode == 0 and lines:
        try:
            return json.loads(lines[-1]), env
        except json.JSONDecodeError:
            pass
    tail = (proc.stderr.strip().splitlines() or [""])[-1]
    return {"correct": False, "attempted": 0, "failed": 0,
            "error": f"exit status {proc.returncode}; {tail}"}, env


def _stats(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 \
        else values * 3
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload: pairs with both sides run, failed operations, whether
    every run was correct, and each end-to-end metric's statistics over the
    pairs whose two runs both reported metrics."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        by_pair: dict[int, dict[str, dict]] = {}
        for r in mine:
            by_pair.setdefault(r["pair"], {})[r["side"]] = r["result"]
        out = {"pairs": sum(len(sides) == len(SIDES) for sides in by_pair.values()),
               "failed_ops": sum(r["result"].get("failed", 0) for r in mine),
               "all_correct": all(r["result"].get("correct") is True for r in mine)}
        measured = [sides for sides in by_pair.values()
                    if all("metrics" in sides.get(side, {}) for side in SIDES)]
        for metric in end_to_end if measured else ():
            name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
            values = {side: [sides[side]["metrics"][name]["value"] for sides in measured]
                      for side in SIDES}
            stats = {side: _stats(values[side]) for side in SIDES}
            base, new = stats["parent"]["median"], stats["change"]["median"]
            pct = 100.0 * (new / base - 1.0)
            pairs = zip(values["parent"], values["change"])
            out[name] = {**stats,
                         "change_wins": sum(sign * (c - p) < 0 for p, c in pairs),
                         "change_vs_parent_pct": round(pct, 2),
                         "within_bound": sign * pct <= 100.0 * metric["bound"],
                         "resolved": abs(new - base) > max(s["q3"] - s["q1"] for s in stats.values())}
        summary[workload] = out
    return summary


def machine(env: dict) -> dict:
    return {"cores": env.get("nproc"),
            "blas": f"{env.get('blas')} {env.get('blas_version')}",
            "numpy": env.get("numpy"), "python": env.get("python")}


def run_entry(side: str, workload: str, seed: int, pair: int, result: dict, env: dict) -> dict:
    """One run as the report keeps it, with the 1-minute load average the
    run saw before and after its work (None when it printed no ``env`` line)."""
    return {"side": side, "workload": workload, "seed": seed, "pair": pair, "result": result,
            **{key: env.get(key) for key in ("loadavg_1m_before", "loadavg_1m_after")}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_tree")
    parser.add_argument("change_tree")
    parser.add_argument("--workload", action="append", required=True,
                        help="a perfbench workload; repeat for more")
    parser.add_argument("--seeds", type=parse_seeds, required=True,
                        help="one pair per seed, for every workload: A-B or A,B,...")
    parser.add_argument("--out", required=True, help="the JSON file to write")
    args = parser.parse_args(argv)
    trees = dict(zip(SIDES, (args.parent_tree, args.change_tree)))
    with open(os.path.join(trees["parent"], "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    report = {
        "what": "Alternating parent/change pairs, each tree run from a copy of its committed "
                "files in a temporary directory; parent first in even-indexed pairs. "
                "'result' is the last (JSON) line of each run; 'loadavg_1m_before'/'after' "
                "come from its 'env' line.",
        "command": f"python3 perfbench/run.py --workload <workload> --seed <seed> "
                   f"--seconds {seconds:g} --trace 0",
        "commits": {side: head(tree) for side, tree in trees.items()},
        "machine": {},
        "summary_untraced": {},
        "runs": [],
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        copies = {side: os.path.join(tmp, side) for side in SIDES}
        for side in SIDES:
            copy_committed(trees[side], copies[side])
        for workload in args.workload:
            for pair, seed in enumerate(args.seeds):
                for side in (SIDES if pair % 2 == 0 else SIDES[::-1]):
                    result, env = run_once(copies[side], workload, seed, seconds)
                    report["machine"] = report["machine"] or machine(env)
                    report["runs"].append(run_entry(side, workload, seed, pair, result, env))
                    report["summary_untraced"] = summarize(report["runs"], bench["end_to_end"])
                    with open(args.out, "w", encoding="utf-8") as f:
                        json.dump(report, f, indent=1)
                        f.write("\n")
                    print(f"{workload} pair {pair} seed {seed} {side}: correct={result.get('correct')}",
                          flush=True)
    return 0 if all(s["all_correct"] for s in report["summary_untraced"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
