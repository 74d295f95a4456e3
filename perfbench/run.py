"""Run the localfocus benchmark.

    python3 perfbench/run.py --workload infer-64 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py                      # every workload, one process each

With ``--workload`` the run sets up, measures and checks that one
workload in this process and prints, last, one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` splits the time between an
untraced and a traced measurement and reports the per-layer metrics.
The program is imported from ``src/`` next to this directory and
nowhere else; without it the run exits with a non-zero status.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
DEFAULT_SECONDS = 30


def import_program():
    """Import ``localfocus`` from this checkout's ``src/``, or exit non-zero."""
    if not os.path.isfile(os.path.join(SRC, "localfocus", "__init__.py")):
        sys.exit(f"perfbench: no program source at {SRC}/localfocus")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import localfocus
    if os.path.dirname(os.path.dirname(os.path.abspath(localfocus.__file__))) != SRC:
        sys.exit(f"perfbench: localfocus imported from {localfocus.__file__}, not {SRC}")
    return localfocus


def environment() -> dict:
    """Machine, BLAS and interpreter facts a result depends on."""
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _bench_pool(lf, prep, nproc: int) -> dict[str, float]:
    """Images/s of the program's bench() with one worker and with two
    (never more workers than cores)."""
    model = lf.load_checkpoint(prep.checkpoint)
    w1 = lf.bench(model, prep.images, batch_size=32, workers=1).images_per_second
    w2 = lf.bench(model, prep.images, batch_size=32, workers=2).images_per_second \
        if nproc >= 2 else 0.0
    return {"train.bench_w1_img_per_s": w1, "train.bench_w2_img_per_s": w2}


def run_workload(w, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Set up, measure and check workload ``w`` in this process.

    Returns the result object and the human-readable lines that go
    before it.
    """
    lf = import_program()
    import tracing as tr
    import workloads as wl

    name = w.name
    load_before = os.getloadavg()[0]
    workdir = os.path.join(OUT_DIR, "work", f"{name}-seed{seed}-pid{os.getpid()}")
    try:
        prep, setup_times = wl.timed_setups(w, seed, workdir)
        if trace:
            tracer = tr.Tracer()
            plain = wl.measure(w, prep, seconds / 2)
            traced = wl.measure(w, prep, seconds / 2, tracer, lambda t: tr.installed(t, lf))
            observed = [plain, traced]
        else:
            observed = [wl.measure(w, prep, seconds)]
        attempted = failed = 0
        notes: dict = {}
        for obs in observed:
            a, f, notes = wl.check(w, prep, obs)
            attempted, failed = attempted + a, failed + f
        if trace:
            per_layer = tracer.metrics()
            e2e_plain, e2e_traced = (wl.end_to_end(o, setup_times) for o in observed)
            per_layer["trace.img_per_s_overhead_pct"] = \
                100.0 * (e2e_plain["img_per_s"] / e2e_traced["img_per_s"] - 1.0)
            # A training run scores its held-out split untraced.
            per_layer["trace.infer_ms_p50_overhead_pct"] = 0.0 if w.trains else \
                100.0 * (e2e_traced["infer_ms_p50"] / e2e_plain["infer_ms_p50"] - 1.0)
            per_layer.update(_bench_pool(lf, prep, os.cpu_count() or 1) if w.bench_pool else
                             {"train.bench_w1_img_per_s": 0.0, "train.bench_w2_img_per_s": 0.0})
            units = tr.per_layer_units()
            metrics = {k: {"value": per_layer[k], "unit": units[k]} for k in units}
            spans_path = os.path.join(OUT_DIR, f"{name}-seed{seed}-spans.jsonl")
            tracer.write(spans_path)
        else:
            values = wl.end_to_end(observed[0], setup_times)
            metrics = {k: {"value": v, "unit": wl.E2E_UNITS[k]} for k, v in values.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment()
    env["loadavg_1m_before"] = load_before
    env["loadavg_1m_after"] = os.getloadavg()[0]
    main_name = "train_img_per_s" if w.trains else "eval_img_per_s"
    lines = [f"workload {name} seed {seed} seconds {seconds} trace {int(trace)}",
             "env " + json.dumps(env)]
    for key, m in metrics.items():
        alias = f"  ({main_name})" if key == "img_per_s" else ""
        lines.append(f"{key} {m['value']:.6g} {m['unit']}{alias}")
    lines.append(f"infer_samples {len(observed[0].infer_ms)} count")
    lines += [f"ops_attempted {attempted} count", f"ops_failed {failed} count"]
    lines += [f"{k} {v:.6g}" for k, v in notes.items()]
    if trace:
        lines.append(f"spans {os.path.relpath(spans_path, ROOT)}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, lines


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Run every workload in its own process, so that each one's peak
    memory is its own, and print each one's lines."""
    import workloads as wl
    results = {}
    for name in wl.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="localfocus benchmark")
    parser.add_argument("--workload", help="one workload to run here; default: all, one process each")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    import_program()
    import workloads as wl
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace))
    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}")
    os.makedirs(OUT_DIR, exist_ok=True)
    result, lines = run_workload(wl.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
