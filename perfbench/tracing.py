"""Span tracing around the program's public functions, from outside it.

``installed(tracer, lf)`` swaps each traced function for a timing
wrapper at the name its caller looks it up under, and restores every
original on exit. Backward passes are timed by wrapping the
``_backward`` closure of each tensor a traced op returns. A span is
``[name, start, end, parent, request]``: ``parent`` indexes the span that
was open when it started and ``request`` is the image or training step
it served. Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import json
import time

CONV_LAYERS = 5
POOL_LAYERS = 3

# (span name, per-call time metric, calls-per-op metric, report self time)
SPAN_METRICS = (
    [("npr.fwd", "npr.fwd_ms", "npr.fwd_calls", False),
     ("snet.fwd", "snet.fwd_ms", "snet.fwd_calls", False)]
    + [(f"ops.conv{i}.{d}", f"ops.conv{i}.{d}_ms", f"ops.conv{i}.{d}_calls", False)
       for d in ("fwd", "bwd") for i in range(1, CONV_LAYERS + 1)]
    + [(f"ops.pool{i}.{d}", f"ops.pool{i}.{d}_ms", f"ops.pool{i}.{d}_calls", False)
       for d in ("fwd", "bwd") for i in range(1, POOL_LAYERS + 1)]
    + [(f"{s}.{d}", f"{s}.{d}_ms", f"{s}.{d}_calls", False)
       for s in ("tensor.relu", "ops.head", "tensor.sigmoid", "ops.bce", "pooling.tkp")
       for d in ("fwd", "bwd")]
    + [("model.score", "model.score_ms", "model.score_calls", False),
       ("model.forward_train", "model.forward_train_ms", "model.forward_train_calls", False),
       ("tensor.backward", "tensor.backward_self_ms", "tensor.backward_calls", True),
       ("optim.step", "optim.step_ms", "optim.step_calls", False),
       ("train.loop", "train.loop_self_ms", "train.loop_calls", True),
       ("tensor.gc", "tensor.gc_ms", "tensor.gc_collections", False),
       ("ppm.load", "ppm.load_ms", "ppm.load_calls", False),
       ("data.load_dataset", "data.load_dataset_ms", "data.load_dataset_calls", False),
       ("checkpoint.load", "checkpoint.load_ms", "checkpoint.load_calls", False),
       ("checkpoint.save", "checkpoint.save_ms", "checkpoint.save_calls", False),
       ("train.evaluate", "train.evaluate_ms", "train.evaluate_calls", False),
       ("metrics", "metrics.ms", "metrics.calls", False)]
)

# Metrics that are not one span's time or count.
DERIVED_METRICS = (
    ("model.infer_graph_nodes", "count"),
    ("ops.conv.gflop", "GFLOP/op"),
    ("ops.conv.im2col_mb", "MiB/op"),
    ("ops.conv.gflop_per_s", "GFLOP/s"),
    ("train.step_coverage_pct", "%"),
    ("train.bench_w1_img_per_s", "images/s"),
    ("train.bench_w2_img_per_s", "images/s"),
    ("trace.img_per_s_overhead_pct", "%"),
    ("trace.infer_ms_p50_overhead_pct", "%"),
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for _, ms_name, calls_name, _ in SPAN_METRICS:
        units[ms_name] = "ms"
        units[calls_name] = "1/op"
    units.update(DERIVED_METRICS)
    return units


class Tracer:
    """In-memory span recorder plus the counters measured at the same wrappers."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.request = None
        self._next_request = 0
        self.ops = 0                 # images scored or training steps, traced
        self.score_depth = 0
        self.score_graph_nodes = 0
        self.conv_flop = 0.0
        self.im2col_bytes = 0.0
        self.conv_index: dict[int, int] = {}
        self.last_conv = 0

    def new_request(self) -> int:
        self._next_request += 1
        return self._next_request - 1

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        rec = [name, 0.0, 0.0, parent, self.request]
        self.spans.append(rec)
        idx = len(self.spans) - 1
        self._stack.append(idx)
        rec[1] = time.perf_counter()
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def hook_backward(self, t, name: str, flop: float = 0.0) -> None:
        """Time ``t``'s backward closure as span ``name`` when it runs."""
        if t is None or t._backward is None:
            return
        orig = t._backward

        def timed_backward():
            self.conv_flop += flop
            self.call(name, orig)

        t._backward = timed_backward

    def count_graph(self, *outs) -> None:
        if self.score_depth:
            self.score_graph_nodes += sum(1 for t in outs if t is not None and t._backward is not None)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self.open("tensor.gc")
        elif self._stack and self.spans[self._stack[-1]][0] == "tensor.gc":
            self.close(self._stack[-1])

    # -- results ------------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [(end - start) - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def step_coverage(self) -> float:
        """Smallest share, in %, of a training step's wall time that the
        self times of its spans account for.

        A step runs from its forward_train start to the next one's start
        within the same train() call; the last step of each call has no
        such end and is left out.
        """
        selfs = self.self_times()
        covered: dict[int, float] = {}
        starts: list[tuple[float, int, int | None]] = []
        loop = None
        for i, (name, start, _, parent, req) in enumerate(self.spans):
            if name == "train.loop":
                loop = i
            if req is not None and name == "model.forward_train":
                starts.append((start, req, loop))
            if req is not None:
                covered[req] = covered.get(req, 0.0) + selfs[i]
        shares = [100.0 * covered[req] / (nxt - start)
                  for (start, req, loop_a), (nxt, _, loop_b) in zip(starts, starts[1:])
                  if loop_a == loop_b]
        return min(shares) if shares else 0.0

    def metrics(self) -> dict[str, float]:
        """Per-call mean times and per-op call counts of every span, plus
        the counters measured at the wrappers."""
        selfs = self.self_times()
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (end - start)
            total[name + "#self"] = total.get(name + "#self", 0.0) + selfs[i]
        ops = max(self.ops, 1)
        out = {}
        for span, ms_name, calls_name, use_self in SPAN_METRICS:
            n = calls.get(span, 0)
            t = total.get(span + "#self" if use_self else span, 0.0)
            out[ms_name] = 1e3 * t / n if n else 0.0
            out[calls_name] = n / ops
        conv_s = sum(total.get(f"ops.conv{i}.{d}", 0.0)
                     for i in range(1, CONV_LAYERS + 1) for d in ("fwd", "bwd"))
        scores = calls.get("model.score", 0)
        out["model.infer_graph_nodes"] = self.score_graph_nodes / scores if scores else 0.0
        out["ops.conv.gflop"] = self.conv_flop / 1e9 / ops
        out["ops.conv.im2col_mb"] = self.im2col_bytes / 2**20 / ops
        out["ops.conv.gflop_per_s"] = self.conv_flop / 1e9 / conv_s if conv_s else 0.0
        out["train.step_coverage_pct"] = self.step_coverage()
        return out

    def write(self, path) -> None:
        """One JSON line per span, in start order."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, req) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "request": req}) + "\n")


def _conv_cost(x, weight) -> tuple[float, float, float]:
    """Forward flop, backward flop and im2col bytes of one stride-1,
    unpadded conv2d call, computed from shapes."""
    xs = x.data.shape
    n = xs[0] if len(xs) == 4 else 1
    cin, h, w = xs[-3:]
    cout, _, kh, kw = weight.data.shape
    pixels = n * (h - kh + 1) * (w - kw + 1)
    fwd = 2.0 * pixels * cout * cin * kh * kw
    bwd = fwd * (int(weight.requires_grad) + int(x.requires_grad))
    return fwd, bwd, 8.0 * pixels * cin * kh * kw


@contextlib.contextmanager
def installed(tracer: Tracer, lf):
    """Route the program's traced calls through ``tracer`` for the block."""
    # The package re-exports functions named like its modules (train), so
    # look the modules up by their full names.
    data_mod, model_mod, optim_mod, snet_mod, tensor_mod, train_mod = (
        importlib.import_module(f"localfocus.{m}")
        for m in ("data", "model", "optim", "snet", "tensor", "train"))
    Tensor, Adam = tensor_mod.Tensor, optim_mod.Adam

    saved = []

    def patch(owner, attr, make):
        orig = getattr(owner, attr)
        saved.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    def plain(name):
        return lambda orig: lambda *a, **k: tracer.call(name, orig, *a, **k)

    def op(name):
        def make(orig):
            def wrapper(*a, **k):
                out = tracer.call(name, orig, *a, **k)
                # tkp_pool returns (vector, random-sample vector, records).
                outs = out[:2] if isinstance(out, tuple) else (out,)
                tracer.count_graph(*outs)
                for t in outs:
                    tracer.hook_backward(t, name.replace(".fwd", ".bwd"))
                return out
            return wrapper
        return make

    def conv(orig):
        def wrapper(x, weight, bias=None, *a, **k):
            i = tracer.conv_index[id(weight)]
            tracer.last_conv = i
            out = tracer.call(f"ops.conv{i}.fwd", orig, x, weight, bias, *a, **k)
            fwd, bwd, col = _conv_cost(x, weight)
            tracer.conv_flop += fwd
            tracer.im2col_bytes += col
            tracer.count_graph(out)
            tracer.hook_backward(out, f"ops.conv{i}.bwd", bwd)
            return out
        return wrapper

    def pool(orig):
        def wrapper(*a, **k):
            i = tracer.last_conv
            out = tracer.call(f"ops.pool{i}.fwd", orig, *a, **k)
            tracer.count_graph(out)
            tracer.hook_backward(out, f"ops.pool{i}.bwd")
            return out
        return wrapper

    def snet_forward(orig):
        def wrapper(self, x):
            tracer.conv_index = {id(w): i for i, (w, _) in enumerate(self.layers, start=1)}
            return tracer.call("snet.fwd", orig, self, x)
        return wrapper

    def score(orig):
        def wrapper(self, image):
            own = tracer.request is None
            if own:
                tracer.request = tracer.new_request()
                tracer.ops += 1
            tracer.score_depth += 1
            try:
                return tracer.call("model.score", orig, self, image)
            finally:
                tracer.score_depth -= 1
                if own:
                    tracer.request = None
        return wrapper

    def forward_train(orig):
        def wrapper(*a, **k):
            tracer.request = tracer.new_request()
            tracer.ops += 1
            return tracer.call("model.forward_train", orig, *a, **k)
        return wrapper

    def train(orig):
        def wrapper(*a, **k):
            try:
                return tracer.call("train.loop", orig, *a, **k)
            finally:
                tracer.request = None
        return wrapper

    try:
        patch(snet_mod, "conv2d", conv)
        patch(snet_mod, "maxpool2d", pool)
        patch(snet_mod.SNet, "forward", snet_forward)
        patch(model_mod, "npr_extract", op("npr.fwd"))
        patch(model_mod, "tkp_pool", op("pooling.tkp.fwd"))
        patch(model_mod, "linear", op("ops.head.fwd"))
        patch(model_mod, "bce_loss_mean", op("ops.bce.fwd"))
        patch(model_mod.LfmModel, "score", score)
        patch(model_mod.LfmModel, "forward_train", forward_train)
        patch(Tensor, "relu", op("tensor.relu.fwd"))
        patch(Tensor, "sigmoid", op("tensor.sigmoid.fwd"))
        patch(Tensor, "backward", plain("tensor.backward"))
        patch(Adam, "step", plain("optim.step"))
        patch(data_mod, "load_ppm", plain("ppm.load"))
        patch(train_mod, "accuracy", plain("metrics"))
        patch(train_mod, "average_precision", plain("metrics"))
        patch(lf, "load_ppm", plain("ppm.load"))
        patch(lf, "load_dataset", plain("data.load_dataset"))
        patch(lf, "load_checkpoint", plain("checkpoint.load"))
        patch(lf, "save_checkpoint", plain("checkpoint.save"))
        patch(lf, "evaluate", plain("train.evaluate"))
        patch(lf, "train", train)
        gc.callbacks.append(tracer._on_gc)
        yield tracer
    finally:
        if tracer._on_gc in gc.callbacks:
            gc.callbacks.remove(tracer._on_gc)
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)
