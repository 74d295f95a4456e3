"""Acceptance gate: ten go/no-go checks over the whole detector.

Each test prints exactly one PASS/FAIL line (visible with -s, or in the
captured output on failure) and asserts the same condition, so the
pytest -v listing doubles as the acceptance report. Tolerances are
pinned here and nowhere else.
"""

import dataclasses
import time

import numpy as np
import pytest

from localfocus import (LfmModel, NprConfig, ParseError, SNetConfig,
                        Tensor, TkpConfig, TrainConfig, bce_loss_mean,
                        build_model, conv2d, evaluate, gen_fake, gen_real,
                        linear, load_checkpoint, load_ppm, maxpool2d,
                        npr_extract, save_checkpoint, save_ppm, train)
from localfocus.gradcheck import check_gradient
from localfocus.metrics import accuracy, average_precision
from localfocus.model import total_param_count
from localfocus.pooling import gap_pool, gmp_pool, tkp_pool
from localfocus.snet import snet_param_count

TINY_SNET = SNetConfig(num_conv_layers=3, channel_plan=(8, 16, 64),
                       pool_after=frozenset({1, 2}))


def report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:02d}] {name}: {status} ({detail})"
    print(line)
    assert ok, line


def separated(rng, shape, gap=0.02):
    """Values whose pairwise distances and distances from zero all
    exceed ``gap``, so finite differences at h=1e-3 cross no kink of
    abs/relu/max/top-k."""
    n = int(np.prod(shape))
    mags = gap * np.arange(1, n + 1)
    signs = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    return (rng.permutation(mags) * signs).reshape(shape)


# -- criterion 1: finite differences validate every op's gradient ---------------


def test_criterion_01_gradient_suite():
    rng = np.random.default_rng(20260814)
    budget_start = time.perf_counter()
    worst = {}

    def run(op_name, build, x0):
        t = Tensor(x0.copy(), requires_grad=True)
        out = build(t)
        out.backward()
        err = check_gradient(lambda a: float(build(Tensor(a)).data), x0, t.grad)
        worst[op_name] = max(worst.get(op_name, 0.0), err)

    for i in range(20):
        shape = (3, 4)
        c = Tensor(separated(rng, shape))
        run("add", lambda t, c=c: (t + c).sum(), separated(rng, shape))
        run("mul", lambda t, c=c: (t * c).sum(), separated(rng, shape))
        run("sub", lambda t, c=c: (t - c).sum(), separated(rng, shape))
        run("sum", lambda t: t.sum(), rng.normal(size=shape))
        run("relu", lambda t: t.relu().sum(), separated(rng, shape))
        run("abs", lambda t: t.abs().sum(), separated(rng, shape))
        run("sigmoid", lambda t: t.sigmoid().sum(), rng.normal(size=shape))

        # conv2d: rotate which argument is checked; vary stride/padding
        stride, padding = [(1, 0), (1, 1), (2, 0), (2, 1)][i % 4]
        x0 = rng.normal(size=(2, 5, 5))
        w0 = rng.normal(size=(3, 2, 2, 2))
        b0 = rng.normal(size=(3,))
        wt, bt = Tensor(w0), Tensor(b0)
        run("conv2d", lambda t: conv2d(t, wt, bt, stride=stride, padding=padding).sum(), x0)
        xt = Tensor(x0)
        run("conv2d", lambda t: conv2d(xt, t, bt, stride=stride, padding=padding).sum(), w0)
        run("conv2d", lambda t: conv2d(xt, wt, t, stride=stride, padding=padding).sum(), b0)

        run("maxpool2d", lambda t: maxpool2d(t, 2, 2).sum(), separated(rng, (2, 4, 6)))

        xv = rng.normal(size=(4, 6))
        wv = rng.normal(size=(1, 6))
        bv = rng.normal(size=(1,))
        wvt, bvt = Tensor(wv), Tensor(bv)
        run("linear", lambda t: linear(t, wvt, bvt).sum(), xv)
        run("linear", lambda t: linear(Tensor(xv), t, bvt).sum(), wv)
        run("linear", lambda t: linear(Tensor(xv), wvt, t).sum(), bv)

        labels = [j % 2 for j in range(6)]
        run("bce_loss_mean", lambda t, l=labels: bce_loss_mean(t.sigmoid(), l),
            rng.normal(size=(6,)))

        run("npr_extract", lambda t: npr_extract(t, NprConfig()).sum(),
            separated(rng, (2, 6, 6)))
        run("npr_extract", lambda t: npr_extract(t, NprConfig(take_abs=False)).sum(),
            rng.normal(size=(2, 6, 6)))

        cfg = TkpConfig(k=3, rbld_enabled=True, rks_enabled=True)
        uv = Tensor(rng.normal(size=(2, 2 * 3)))
        us = Tensor(rng.normal(size=(2, 2 * 3)))

        def tkp_scalar(t, cfg=cfg, uv=uv, us=us):
            vec, star, _ = tkp_pool(t, cfg, np.random.default_rng(9876))
            return (vec * uv).sum() + (star * us).sum()

        run("tkp_pool", tkp_scalar, separated(rng, (2, 2, 4, 4)))

        un = Tensor(rng.normal(size=(2, 3)))
        run("gap_pool", lambda t, un=un: (gap_pool(t) * un).sum(), rng.normal(size=(2, 3, 4, 4)))
        run("gmp_pool", lambda t, un=un: (gmp_pool(t) * un).sum(), separated(rng, (2, 3, 4, 4)))

    elapsed = time.perf_counter() - budget_start
    worst_err = max(worst.values())
    ok = worst_err < 1e-4 and elapsed < 60.0
    report(1, "finite-difference gradients for every op", ok,
           f"14 op families x 20 instances, worst rel err {worst_err:.2e}, {elapsed:.1f}s")


# -- criterion 2: top-k selection matches an independent oracle -----------------


def test_criterion_02_topk_matches_oracle():
    rng = np.random.default_rng(2)
    mismatches = 0
    checked = 0
    for trial in range(1000):
        c, h, w = 4, 5, 5
        maps = rng.normal(size=(c, h, w))
        if trial % 2 == 0:  # force heavy ties half the time
            maps = np.round(maps * 2.0) / 2.0
        n = h * w
        for k in (1, 4, n):
            vec, _, pooled = tkp_pool(Tensor(maps[None]), TkpConfig(k=k))
            for ch in range(c):
                row = maps[ch].reshape(-1)
                expect = sorted(range(n), key=lambda i: (row[i], i))[n - k:]
                got = pooled.selected_indices[ch].tolist()
                vals = vec.data[0][ch * k:(ch + 1) * k]
                checked += 1
                if got != expect or not np.array_equal(vals, row[expect]):
                    mismatches += 1
    ok = mismatches == 0
    report(2, "top-k pooling equals sort-based oracle", ok,
           f"{checked} channel selections over 1000 maps, k in {{1, 4, 25}}, {mismatches} mismatches")


# -- criterion 3: rank-based dropout hits its per-rank rates --------------------


def test_criterion_03_rbld_rates():
    k, p_min, p_max = 8, 0.1, 0.3
    cfg = TkpConfig(k=k, p_min=p_min, p_max=p_max,
                    rbld_enabled=True, rks_enabled=False)
    rng = np.random.default_rng(3)
    calls = 300
    channels = 64
    drops = np.zeros(k)
    for _ in range(calls):
        maps = rng.uniform(0.5, 1.5, size=(channels, 5, 5))
        _, _, pooled = tkp_pool(Tensor(maps[None]), cfg, rng)
        drops += pooled.dropped.sum(axis=0)
    rates = drops / (calls * channels)
    expected = p_min + (p_max - p_min) * np.arange(k) / (k - 1)
    dev = float(np.abs(rates - expected).max())
    ok = dev <= 0.015
    report(3, "rank-based dropout empirical rates", ok,
           f"{calls * channels} observations per rank, max |rate - p_i| = {dev:.4f} (tol 0.015)")


# -- criterion 4: random-k sampling is uniform without replacement --------------


def test_criterion_04_rks_marginals():
    k, h, w = 8, 5, 5
    n = h * w
    cfg = TkpConfig(k=k, rbld_enabled=False, rks_enabled=True)
    rng = np.random.default_rng(4)
    calls = 300
    channels = 64
    counts = np.zeros(n)
    replacement_errors = 0
    for _ in range(calls):
        maps = rng.normal(size=(channels, h, w))
        _, _, pooled = tkp_pool(Tensor(maps[None]), cfg, rng)
        for ch in range(channels):
            picks = pooled.star_indices[ch]
            if len(set(picks.tolist())) != k:
                replacement_errors += 1
            counts[picks] += 1
    marginals = counts / (calls * channels)
    dev = float(np.abs(marginals - k / n).max())
    ok = dev <= 0.015 and replacement_errors == 0
    report(4, "random-k sampling marginal inclusion", ok,
           f"target k/n = {k / n}, max deviation {dev:.4f} (tol 0.015), "
           f"{replacement_errors} with-replacement draws")


# -- criterion 5: reported loss decomposes exactly ------------------------------


def test_criterion_05_loss_decomposition():
    cfg = TrainConfig(seed=5)
    model = build_model(cfg, snet_cfg=TINY_SNET, tkp_cfg=TkpConfig(k=4))
    rng = np.random.default_rng(55)
    worst = 0.0
    for step in range(100):
        images = [rng.random((3, 16, 16)) for _ in range(2)]
        labels = [0, 1]
        _, _, rep = model.forward_train(images, labels, np.random.default_rng((5, step)))
        worst = max(worst, abs(rep.total - (rep.loss_a + rep.alpha * rep.loss_b)))
    ok = worst <= 1e-12
    report(5, "total loss equals loss_a + alpha * loss_b", ok,
           f"100 batches, alpha {model.alpha}, worst residual {worst:.2e} (tol 1e-12)")


# -- criterion 6: metrics agree exactly with brute-force oracles ----------------


def oracle_accuracy(scores, threshold):
    hits = sum(1 for s, y in scores if (s >= threshold) == (y == 1))
    return hits / len(scores)


def oracle_average_precision(scores):
    total_pos = sum(y for _, y in scores)
    ap = 0.0
    recall_prev = 0.0
    for t in sorted({s for s, _ in scores}, reverse=True):
        kept = [(s, y) for s, y in scores if s >= t]
        tp = sum(y for _, y in kept)
        recall = tp / total_pos
        precision = tp / len(kept)
        ap += (recall - recall_prev) * precision
        recall_prev = recall
    return ap


def test_criterion_06_metric_oracles():
    rng = np.random.default_rng(6)
    exact = 0
    trials = 1000
    for trial in range(trials):
        n = int(rng.integers(2, 40))
        scores = rng.random(n)
        if trial % 2 == 0:
            scores = np.round(scores * 10.0) / 10.0  # force ties
        labels = rng.integers(0, 2, size=n)
        labels[0], labels[1] = 0, 1  # both classes present
        pairs = list(zip(scores.tolist(), labels.tolist()))
        thr = float(rng.random())
        acc_ok = accuracy(pairs, thr) == oracle_accuracy(pairs, thr)
        ap_ok = average_precision(pairs) == oracle_average_precision(pairs)
        # order-preserving transforms must not move either metric
        moved = [(2.0 * s + 1.0, y) for s, y in pairs]
        inv_ok = (average_precision(moved) == average_precision(pairs)
                  and accuracy(moved, 2.0 * thr + 1.0) == accuracy(pairs, thr))
        exact += acc_ok and ap_ok and inv_ok
    ok = exact == trials
    report(6, "accuracy and average precision vs oracles", ok,
           f"{exact}/{trials} lists exactly equal incl. monotone-transform invariance")


# -- criterion 7: the detector learns the synthetic task ------------------------


def test_criterion_07_end_to_end_learning():
    t_start = time.perf_counter()
    gen_seed = 42
    train_reals = gen_real(1000, 64, np.random.default_rng((gen_seed, 10)))
    train_fakes = gen_fake(train_reals, np.random.default_rng((gen_seed, 11)))
    test_reals = gen_real(250, 64, np.random.default_rng((gen_seed, 20)))
    test_fakes = gen_fake(test_reals, np.random.default_rng((gen_seed, 21)))
    train_set = train_reals + train_fakes
    test_set = test_reals + test_fakes

    reports = {}
    for pooling in ("tkp", "gap"):
        cfg = TrainConfig(lr=1e-3, batch_size=32, epochs=3, seed=7, pooling=pooling)
        model = build_model(cfg, tkp_cfg=TkpConfig(k=16))
        result = train(model, train_set, cfg)
        reports[pooling] = evaluate(result.best_model, test_set)

    elapsed = time.perf_counter() - t_start
    tkp, gap = reports["tkp"], reports["gap"]
    ok = (tkp.acc >= 0.95 and tkp.ap >= 0.98 and tkp.acc >= gap.acc
          and elapsed < 900.0)
    report(7, "end-to-end training on 2000/500 synthetic images", ok,
           f"tkp acc {tkp.acc:.4f} (>= 0.95), ap {tkp.ap:.4f} (>= 0.98), "
           f"gap acc {gap.acc:.4f} (tkp >= gap), {elapsed:.0f}s (< 900s)")


# -- criterion 8: pooling adds no learnable parameters --------------------------


def test_criterion_08_pooling_is_parameter_free():
    checked = []
    for snet_cfg in (SNetConfig(), TINY_SNET):
        for pooling, k in (("tkp", 1), ("tkp", 4), ("tkp", 16), ("gap", 16), ("gmp", 16)):
            model = LfmModel(snet_cfg=snet_cfg, tkp_cfg=TkpConfig(k=k), pooling=pooling)
            width = 64 * k if pooling == "tkp" else 64
            expect = snet_param_count(snet_cfg) + width + 1
            checked.append(total_param_count(model) == expect)
    ok = all(checked)
    report(8, "pooling contributes zero parameters", ok,
           f"{len(checked)} model configs: count always conv stack + head width + 1")


# -- criterion 9: fixed seeds reproduce everything bit for bit ------------------


def test_criterion_09_determinism(tmp_path):
    data = (gen_real(4, 32, np.random.default_rng(90))
            + gen_fake(gen_real(4, 32, np.random.default_rng(90)), np.random.default_rng(91)))
    blobs = []
    evals = []
    infers = []
    for run in range(2):
        cfg = TrainConfig(lr=1e-3, batch_size=4, epochs=2, seed=17)
        model = build_model(cfg, snet_cfg=TINY_SNET, tkp_cfg=TkpConfig(k=4))
        result = train(model, data, cfg)
        path = str(tmp_path / f"run{run}.lfm")
        save_checkpoint(result.model, path)
        blobs.append(open(path, "rb").read())
        evals.append(evaluate(result.model, data).to_json())
        infers.append(result.model.infer(data[0].image))

    model = build_model(TrainConfig(seed=17), snet_cfg=TINY_SNET, tkp_cfg=TkpConfig(k=4))
    base = model.score(data[0].image)
    flags_off = LfmModel(npr_cfg=model.npr_cfg, snet_cfg=model.snet_cfg,
                         tkp_cfg=dataclasses.replace(model.tkp_cfg, rbld_enabled=False,
                                                     rks_enabled=False),
                         pooling=model.pooling, seed=17)
    for p, q in zip(flags_off.parameters(), model.parameters()):
        p.data = q.data.copy()
    flag_invariant = flags_off.score(data[0].image) == base

    ok = (blobs[0] == blobs[1] and evals[0] == evals[1]
          and infers[0] == infers[1] and flag_invariant)
    report(9, "same seed, same bytes", ok,
           f"checkpoints identical: {blobs[0] == blobs[1]}, eval reports identical: "
           f"{evals[0] == evals[1]}, inference identical: {infers[0] == infers[1]}, "
           f"rbld/rks flags inert at inference: {flag_invariant}")


# -- criterion 10: serialization round trips and rejects corruption -------------


def test_criterion_10_serialization(tmp_path):
    model = LfmModel(snet_cfg=TINY_SNET, tkp_cfg=TkpConfig(k=3),
                     decision_threshold=0.4, alpha=0.2, seed=10)
    ckpt = str(tmp_path / "m.lfm")
    save_checkpoint(model, ckpt)
    blob = open(ckpt, "rb").read()
    loaded = load_checkpoint(ckpt)
    again = str(tmp_path / "m2.lfm")
    save_checkpoint(loaded, again)
    ckpt_stable = open(again, "rb").read() == blob
    config_back = (loaded.snet_cfg == model.snet_cfg and loaded.tkp_cfg == model.tkp_cfg
                   and loaded.decision_threshold == model.decision_threshold
                   and loaded.alpha == model.alpha)

    tampered = tmp_path / "bad.lfm"
    tampered.write_bytes(blob[:16] + bytes([blob[16] ^ 1]) + blob[17:])
    try:
        load_checkpoint(str(tampered))
        tamper_caught = False
    except ParseError:
        tamper_caught = True
    truncated = tmp_path / "cut.lfm"
    truncated.write_bytes(blob[:-5])
    try:
        load_checkpoint(str(truncated))
        truncation_caught = False
    except ParseError:
        truncation_caught = True

    image = np.random.default_rng(100).random((3, 24, 24))
    ppm = str(tmp_path / "img.ppm")
    save_ppm(image, ppm)
    back = load_ppm(ppm)
    ppm_close = float(np.abs(back - image).max()) <= 1.0 / 510.0
    ppm2 = str(tmp_path / "img2.ppm")
    save_ppm(back, ppm2)
    ppm_stable = open(ppm2, "rb").read() == open(ppm, "rb").read()
    corrupt = tmp_path / "bad.ppm"
    corrupt.write_bytes(b"P5" + open(ppm, "rb").read()[2:])
    try:
        load_ppm(str(corrupt))
        ppm_caught = False
    except ParseError:
        ppm_caught = True

    ok = all([ckpt_stable, config_back, tamper_caught, truncation_caught,
              ppm_close, ppm_stable, ppm_caught])
    report(10, "serialization round trips, corruption rejected", ok,
           f"checkpoint byte-stable: {ckpt_stable}, config restored: {config_back}, "
           f"tamper/truncation caught: {tamper_caught}/{truncation_caught}, "
           f"ppm within 1/510 and byte-stable: {ppm_close}/{ppm_stable}, "
           f"bad magic caught: {ppm_caught}")
