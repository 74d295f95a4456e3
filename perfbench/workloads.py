"""Benchmark workloads: inputs from the seed, set-up, timed loops and checks.

Every workload is a closed loop with one caller: the next call into the
program starts only after the previous one returned. Inputs come from
``--seed`` alone, through the program's own synthetic generators, and
reach the program only as PPM files, a manifest, a checkpoint and (for
training) the records ``load_dataset`` returns.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import os
import resource
import shutil
import statistics
import time

import numpy as np

import localfocus as lf
import reference

SCORE_TOL = 1e-5          # the score bound test_score_drift_stays_tiny uses
MIN_INFER_SAMPLES = 110   # so that at least 10 samples lie beyond p90
TRACED_MIN_SAMPLES = 10
AUC_FLOOR = 0.95          # held-out ranking of a trained model
SETUP_REPEATS = 5
WARMUP_IMAGES = 2

_REAL_TAG, _FAKE_TAG, _TRAIN_REAL_TAG, _TRAIN_FAKE_TAG, _WEIGHT_TAG = 1, 2, 3, 4, 5


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``n_per_class`` real and as many fake images are scored (the held-out
    split when ``train_per_class`` > 0 makes this a training workload).
    ``main_share`` of the run's seconds goes to the main phase: repeated
    ``eval`` passes, or repeated ``train()`` calls. The rest goes to
    per-image inference with the model resident.
    """

    name: str
    why: str
    size: int
    n_per_class: int
    main_share: float
    train_per_class: int = 0
    epochs: int = 2
    batch_size: int = 32
    lr: float = 1e-3
    acc_floor: float = 0.0
    bench_pool: bool = False

    @property
    def trains(self) -> bool:
        return self.train_per_class > 0


WORKLOADS = {w.name: w for w in (
    Workload("infer-64",
             "many cheap calls: per-call Python overhead, graph recording and GC dominate",
             size=64, n_per_class=64, main_share=0.5, bench_pool=True),
    Workload("infer-256",
             "large maps (30x30, conv1 output beyond cache): bandwidth-bound, overhead negligible",
             size=256, n_per_class=4, main_share=0.4),
    Workload("train-64",
             "only workload running backward, stochastic top-k pooling and Adam",
             size=64, n_per_class=64, main_share=0.5, train_per_class=128, acc_floor=0.5),
)}


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng((seed, tag))


def quantize(image: np.ndarray) -> np.ndarray:
    """The pixels a P6 file stores for ``image``, widened back to [0, 1]."""
    return np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8) / 255.0


def seeded_weights(model, seed: int) -> list[np.ndarray]:
    """Overwrite ``model``'s parameters with draws from the benchmark's own
    seed, rounded to float32 so a checkpoint round trip keeps them exact."""
    rng = _rng(seed, _WEIGHT_TAG)
    out = []
    for p in model.parameters():
        shape = p.data.shape
        if len(shape) == 4:
            std = np.sqrt(2.0 / np.prod(shape[1:]))
        elif len(shape) == 2:
            std = 4.0 / np.sqrt(shape[1])
        else:
            std = 0.05
        arr = rng.normal(0.0, std, size=shape).astype(np.float32).astype(np.float64)
        p.data = arr.copy()
        out.append(arr)
    return out


def f32_params(model) -> list[np.ndarray]:
    return [p.data.astype(np.float32).astype(np.float64) for p in model.parameters()]


def _write_split(records, prefix: str, workdir: str) -> tuple[str, list[str]]:
    entries, paths = [], []
    for i, rec in enumerate(records):
        name = f"{prefix}_{i:04d}.ppm"
        lf.save_ppm(rec.image, os.path.join(workdir, name))
        entries.append((name, rec.label, rec.source_tag))
        paths.append(os.path.join(workdir, name))
    manifest = os.path.join(workdir, f"{prefix}_manifest.tsv")
    lf.write_manifest(lf.DatasetManifest(root=workdir, entries=entries), manifest)
    return manifest, paths


def _gen(n: int, size: int, seed: int, real_tag: int, fake_tag: int):
    reals = lf.gen_real(n, size, _rng(seed, real_tag))
    return reals + lf.gen_fake(reals, _rng(seed, fake_tag))


@dataclasses.dataclass
class Prepared:
    """What one set-up leaves behind for the timed phases."""

    manifest: str
    paths: list[str]
    images: list[np.ndarray]       # the pixels the program will read
    labels: list[int]
    checkpoint: str
    params: list[np.ndarray] | None = None   # reference weights (inference)
    train_records: list | None = None
    train_cfg: object = None


def train_config(w: Workload, seed: int):
    return lf.TrainConfig(lr=w.lr, batch_size=w.batch_size, epochs=w.epochs, seed=seed,
                          pooling="tkp", rbld=True, rks=True)


def setup(w: Workload, seed: int, workdir: str) -> Prepared:
    """Generate inputs, write PPMs and manifests, build and checkpoint the
    model, and warm up the path the timed phases run."""
    os.makedirs(workdir, exist_ok=True)
    records = _gen(w.n_per_class, w.size, seed, _REAL_TAG, _FAKE_TAG)
    manifest, paths = _write_split(records, "score", workdir)
    prep = Prepared(manifest=manifest, paths=paths,
                    images=[quantize(r.image) for r in records],
                    labels=[r.label for r in records],
                    checkpoint=os.path.join(workdir, "model.lfm"))
    if w.trains:
        train = _gen(w.train_per_class, w.size, seed, _TRAIN_REAL_TAG, _TRAIN_FAKE_TAG)
        train_manifest, _ = _write_split(train, "train", workdir)
        prep.train_records = lf.load_dataset(lf.read_manifest(train_manifest))
        prep.train_cfg = train_config(w, seed)
        model = lf.build_model(prep.train_cfg)
        lf.save_checkpoint(model, prep.checkpoint)
        warm = prep.train_records[:WARMUP_IMAGES] + prep.train_records[-WARMUP_IMAGES:]
        model.forward_train([r.image for r in warm], [r.label for r in warm], _rng(seed, 0))
    else:
        model = lf.LfmModel()
        prep.params = seeded_weights(model, seed)
        lf.save_checkpoint(model, prep.checkpoint)
    resident = lf.load_checkpoint(prep.checkpoint)
    for path in paths[:WARMUP_IMAGES]:
        resident.infer(lf.load_ppm(path))
    return prep


def timed_setups(w: Workload, seed: int, root: str, repeats: int = SETUP_REPEATS
                 ) -> tuple[Prepared, list[float]]:
    """Set up ``repeats`` times from scratch; keep the last set-up's files."""
    times, prep = [], None
    for i in range(repeats):
        workdir = os.path.join(root, f"setup{i}")
        t0 = time.perf_counter()
        prep = setup(w, seed, workdir)
        times.append(time.perf_counter() - t0)
        if i + 1 < repeats:
            shutil.rmtree(workdir)
    return prep, times


# -- timed phases -------------------------------------------------------------


@dataclasses.dataclass
class Observed:
    """Raw outputs and timings of one measurement, checked afterwards."""

    # (images, seconds) of each eval pass or train() call
    passes: list[tuple[int, float]] = dataclasses.field(default_factory=list)
    infer_ms: list[float] = dataclasses.field(default_factory=list)
    infer_obs: list[tuple[int, float, int]] = dataclasses.field(default_factory=list)
    eval_obs: list[tuple[list[float], object]] = dataclasses.field(default_factory=list)
    train_obs: list[tuple[list, list[float]]] = dataclasses.field(default_factory=list)
    best_params: list[np.ndarray] | None = None
    # Read after the first MIN_INFER_SAMPLES per-image samples: later ones
    # repeat the same loop, but how many fit depends on the machine's
    # speed, and the peak creeps up with them until a full collection runs.
    peak_rss_mb: float = 0.0


def _eval_pass(prep: Prepared, obs: Observed) -> float:
    """One ``localfocus eval`` pass; returns its wall time."""
    scores: list = []
    # The command line runs each pass in a fresh interpreter. Collecting
    # first gives every pass the same clean heap, so peak memory does not
    # depend on how many passes fit in the run.
    gc.collect()
    t0 = time.perf_counter()
    dataset = lf.load_dataset(lf.read_manifest(prep.manifest))
    model = lf.load_checkpoint(prep.checkpoint)
    orig = model.score

    def score(image):
        scores.append(orig(image))
        return scores[-1]

    model.score = score
    report = lf.evaluate(model, dataset)
    dt = time.perf_counter() - t0
    obs.eval_obs.append(([float(s) for s in scores], report))
    obs.passes.append((len(dataset), dt))
    return dt


def _train_call(prep: Prepared, obs: Observed) -> tuple[float, object]:
    """One ``train()`` call on a freshly built model; returns its wall time."""
    model = lf.build_model(prep.train_cfg)
    orig = model.forward_train
    reports = []

    def step(images, labels, rng):
        out = orig(images, labels, rng)
        reports.append(out[2])
        return out

    model.forward_train = step
    gc.collect()
    t0 = time.perf_counter()
    result = lf.train(model, prep.train_records, prep.train_cfg)
    dt = time.perf_counter() - t0
    obs.train_obs.append((reports, list(result.epoch_losses)))
    obs.passes.append((len(prep.train_records) * prep.train_cfg.epochs, dt))
    return dt, result


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _infer_loop(prep: Prepared, obs: Observed, budget: float, min_samples: int, tracer) -> None:
    """Score images one at a time with the model resident (load_ppm ->
    LfmModel.infer) until ``budget`` seconds and ``min_samples`` are reached."""
    model = lf.load_checkpoint(prep.checkpoint)
    n = len(prep.paths)
    gc.collect()
    t_end = time.perf_counter() + budget
    i = 0
    while i < min_samples or time.perf_counter() < t_end:
        idx = i % n
        if tracer is not None:
            tracer.request = tracer.new_request()
            tracer.ops += 1
        t0 = time.perf_counter()
        p, label = model.infer(lf.load_ppm(prep.paths[idx]))
        obs.infer_ms.append(1e3 * (time.perf_counter() - t0))
        obs.infer_obs.append((idx, p, label))
        i += 1
        if i == MIN_INFER_SAMPLES:
            obs.peak_rss_mb = _peak_rss_mb()
    if tracer is not None:
        tracer.request = None


def measure(w: Workload, prep: Prepared, seconds: float, tracer=None, installed=None) -> Observed:
    """Run the workload's timed phases for about ``seconds``.

    ``installed(tracer)`` is a context manager routing the program's
    calls through ``tracer``; it covers the phases that belong to the
    workload's own path (the held-out scoring after training is left
    untraced so per-layer numbers on a training workload are training's).
    """
    obs = Observed()
    traced = installed(tracer) if tracer is not None else contextlib.nullcontext()
    main_budget = seconds * w.main_share
    # A training run scores every held-out image for its accuracy floor.
    # A traced run needs only a median per-image time, for the overhead.
    min_samples = max(len(prep.paths) if w.trains else 0,
                      MIN_INFER_SAMPLES if tracer is None else TRACED_MIN_SAMPLES)
    t_start = time.perf_counter()
    with traced:
        last = 0.0
        while not obs.passes or time.perf_counter() - t_start + last <= main_budget:
            if w.trains:
                last, result = _train_call(prep, obs)
            else:
                last = _eval_pass(prep, obs)
        if w.trains:
            lf.save_checkpoint(result.best_model, prep.checkpoint)
            obs.best_params = f32_params(result.best_model)
        else:
            remaining = seconds - (time.perf_counter() - t_start)
            _infer_loop(prep, obs, max(remaining, 0.0), min_samples, tracer)
    if w.trains:
        remaining = seconds - (time.perf_counter() - t_start)
        _infer_loop(prep, obs, max(remaining, 0.0), min_samples, None)
    if not obs.peak_rss_mb:
        obs.peak_rss_mb = _peak_rss_mb()
    return obs


# -- correctness ---------------------------------------------------------------


def _score_ok(p: float, label: int, ref: float, threshold: float) -> bool:
    if not abs(p - ref) <= SCORE_TOL:
        return False
    if label != int(p >= threshold):
        return False
    if abs(ref - threshold) > SCORE_TOL and label != int(ref >= threshold):
        return False
    return True


def check(w: Workload, prep: Prepared, obs: Observed) -> tuple[int, int, dict]:
    """Check every output of ``obs``; returns (attempted, failed, notes).

    One op is one image scored or one training step. Scores must match
    the plain-numpy reference forward within SCORE_TOL; training losses
    must be finite and decompose exactly, and every train() call of the
    run must give the same epoch losses. A training run whose best model
    misses the held-out accuracy or AUC floor fails all its steps.
    """
    threshold = 0.5
    params = obs.best_params if w.trains else prep.params
    refs = [reference.score(img, params) for img in prep.images]
    attempted = failed = 0
    notes: dict = {}

    for scores, report in obs.eval_obs:
        attempted += len(prep.images)
        n_fake = sum(prep.labels)
        expect_acc = np.mean([(s >= threshold) == (y == 1) for s, y in zip(scores, prep.labels)]) \
            if len(scores) == len(prep.labels) else -1.0
        whole_ok = (len(scores) == len(prep.labels) and report.n_fake == n_fake
                    and report.n_real == len(prep.labels) - n_fake
                    and report.acc == expect_acc and np.isfinite(report.ap))
        if not whole_ok:
            failed += len(prep.images)
            continue
        failed += sum(not _score_ok(s, int(s >= threshold), r, threshold)
                      for s, r in zip(scores, refs))

    for idx, p, label in obs.infer_obs:
        attempted += 1
        failed += not _score_ok(p, label, refs[idx], threshold)

    if w.trains:
        # The first len(paths) samples score each held-out image once.
        first = obs.infer_obs[:len(prep.paths)]
        acc = np.mean([label == prep.labels[idx] for idx, _, label in first])
        fake = np.array([p for idx, p, _ in first if prep.labels[idx] == 1])
        real = np.array([p for idx, p, _ in first if prep.labels[idx] == 0])
        auc = np.mean(fake[:, None] > real[None, :])
        notes.update(held_out_acc=acc, held_out_auc=auc)
        learned = acc >= w.acc_floor and auc >= AUC_FLOOR
        first_losses = obs.train_obs[0][1]
        for reports, epoch_losses in obs.train_obs:
            steps = len(reports)
            attempted += steps
            if not learned or epoch_losses != first_losses \
                    or not all(np.isfinite(epoch_losses)):
                failed += steps
                continue
            failed += sum(not (np.isfinite([r.loss_a, r.loss_b, r.total]).all()
                               and r.total == r.loss_a + r.alpha * r.loss_b)
                          for r in reports)
    return attempted, failed, notes


# -- metrics ---------------------------------------------------------------------


def end_to_end(obs: Observed, setup_times: list[float]) -> dict[str, float]:
    """End-to-end metrics of one measurement: throughput over the whole
    main phase, median and p90 over every per-image sample, and the
    median set-up time."""
    return {
        "setup_s": statistics.median(setup_times),
        "img_per_s": sum(n for n, _ in obs.passes) / sum(t for _, t in obs.passes),
        "infer_ms_p50": statistics.median(obs.infer_ms),
        "infer_ms_p90": statistics.quantiles(obs.infer_ms, n=10, method="inclusive")[8],
        "peak_rss_mb": obs.peak_rss_mb,
    }


E2E_UNITS = {"setup_s": "s", "img_per_s": "images/s", "infer_ms_p50": "ms",
             "infer_ms_p90": "ms", "peak_rss_mb": "MiB"}
