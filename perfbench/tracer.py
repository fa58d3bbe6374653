"""Span tracer that times dgnet_lab's layers from outside the package.

`install()` replaces the public functions and methods of the modules tensor,
model, trainer, speckle, rng, data_io and metrics with timing wrappers, and
wraps the backward closure each traced op attaches to its output, so the
backward pass is timed per op as well. `uninstall()` restores the originals.
Spans are kept in memory and written out at the end of the run.

A training step runs from the latent-noise draw to the end of the Adam step
(the mini-batch stack before it and the loss bookkeeping after it are the
loop's glue). Step-level numbers are averaged over traced steps; a few steps
run under tracemalloc to measure their allocation peak and are left out of
every timing.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
from collections import Counter, defaultdict
from pathlib import Path

from dgnet_lab import data_io, metrics, model, speckle, tensor, trainer
from dgnet_lab.rng import Rng
from dgnet_lab.tensor import Tensor

_now = time.perf_counter

# Step indices (counted over the whole traced run) measured under tracemalloc.
ALLOC_PROBE_STEPS = frozenset({2, 3, 4})

LAYER_OPS = ("conv2d", "conv2d_transpose", "batchnorm2d", "dense")
POINTWISE_METHODS = ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__",
                     "__rmul__", "__truediv__", "__pow__", "exp", "log", "clamp", "sigmoid",
                     "leaky_relu", "reshape", "slice_cols", "sum", "mean")
# Spans whose self times partition a step's computation: every op's forward
# and backward, the graph walk and the optimizer.
STEP_LEAVES = frozenset(
    [f"tensor.{op}.{d}" for op in LAYER_OPS for d in ("fwd", "bwd")]
    + ["tensor.pointwise.fwd", "tensor.pointwise.bwd", "tensor.backward",
       "trainer.adam_step", "trainer.zero_grad"])


def _rg(t) -> int:
    return int(t.requires_grad)


def _conv_flop(x, w, b, stride=1, pad=0):
    n, c, h, wd = x.shape
    f, _, kk, _ = w.shape
    out_h = (h + 2 * pad - kk) // stride + 1
    out_w = (wd + 2 * pad - kk) // stride + 1
    fwd = 2 * n * f * c * kk * kk * out_h * out_w
    return fwd, fwd * (_rg(w) + _rg(x))


def _deconv_flop(x, w, b, stride=1, pad=0):
    n, c, h, wd = x.shape
    _, f, kk, _ = w.shape
    fwd = 2 * n * c * f * kk * kk * h * wd
    return fwd, fwd * (_rg(w) + _rg(x))


def _dense_flop(x, w, b):
    n, d = x.shape
    fwd = 2 * n * d * w.shape[1]
    return fwd, fwd * (_rg(w) + _rg(x))


_FLOPS = {"conv2d": _conv_flop, "conv2d_transpose": _deconv_flop, "dense": _dense_flop}


class Tracer:
    def __init__(self):
        self.spans = []            # [name, start, end, parent span, step]
        self.stack = []
        self.step = -1             # index of the step in progress, -1 outside steps
        self.step_spans = []       # span index of each step
        self.in_train = 0
        self.counts = Counter()
        self.alloc_peaks = []      # bytes, one per probed step
        self._undo = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name) -> int:
        i = len(self.spans)
        self.spans.append([name, _now(), 0.0, self.stack[-1] if self.stack else -1, self.step])
        self.stack.append(i)
        return i

    def end(self, i) -> None:
        self.spans[i][2] = _now()
        self.stack.pop()

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr, make):
        orig = getattr(owner, attr)
        self._undo.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    def _timed(self, name, after=None):
        def make(orig):
            def wrapper(*a, **k):
                i = self.begin(name)
                try:
                    out = orig(*a, **k)
                finally:
                    self.end(i)
                if after is not None:
                    after(out, a, k)
                return out
            return wrapper
        return make

    def _timed_backward(self, out, name, flop=0):
        fn = getattr(out, "_backward_fn", None)
        if fn is None or getattr(fn, "traced", False):
            return

        def timed():
            i = self.begin(name)
            try:
                fn()
            finally:
                self.end(i)
            if self.step >= 0:
                self.counts["flop"] += flop

        timed.traced = True
        out._backward_fn = timed

    def _op(self, op):
        flops = _FLOPS.get(op)

        def after(out, a, k):
            fwd, bwd = flops(*a, **k) if flops else (0, 0)
            if self.step >= 0:
                self.counts["flop"] += fwd
            self._timed_backward(out, f"tensor.{op}.bwd", bwd)
        return self._timed(f"tensor.{op}.fwd", after)

    def install(self) -> None:
        for op in LAYER_OPS:
            self._patch(tensor, op, self._op(op))
        pointwise_after = (lambda out, a, k: self._timed_backward(out, "tensor.pointwise.bwd"))
        for meth in POINTWISE_METHODS:
            self._patch(Tensor, meth, self._timed("tensor.pointwise.fwd", pointwise_after))
        self._patch(Tensor, "backward", self._timed("tensor.backward"))

        def count_tensors(orig):
            def init(t, *a, **k):
                if self.step >= 0:
                    self.counts["tensors"] += 1
                orig(t, *a, **k)
            return init
        self._patch(Tensor, "__init__", count_tensors)

        def by_mode(name):
            def make(orig):
                def wrapper(net, x, train=True):
                    i = self.begin(name if train else f"{name}_eval")
                    try:
                        return orig(net, x, train=train)
                    finally:
                        self.end(i)
                return wrapper
            return make
        self._patch(model.DGNet, "encode", by_mode("model.encode"))
        self._patch(model.DGNet, "decode", by_mode("model.decode"))
        self._patch(model, "elbo_loss", self._timed("model.elbo_loss"))
        for fn in ("sample_latent", "kl_term", "seg_nll"):
            self._patch(model, fn, self._timed("model.loss_terms"))
        self._patch(model, "latent_point_estimate", self._timed("model.point_estimate"))

        def noise(orig):
            wrapped = self._timed("model.latent_noise")(orig)

            def wrapper(*a, **k):
                if self.in_train:
                    self._begin_step()
                return wrapped(*a, **k)
            return wrapper
        self._patch(model, "frozen_latent_noise", noise)

        def train(orig):
            wrapped = self._timed("trainer.train")(orig)

            def wrapper(*a, **k):
                self.in_train += 1
                try:
                    return wrapped(*a, **k)
                finally:
                    self.in_train -= 1
            return wrapper
        self._patch(trainer, "train", train)

        def adam_step(orig):
            wrapped = self._timed("trainer.adam_step")(orig)

            def wrapper(*a, **k):
                wrapped(*a, **k)
                if self.step >= 0:
                    self._end_step()
            return wrapper
        self._patch(trainer.Adam, "step", adam_step)
        self._patch(trainer.Adam, "zero_grad", self._timed("trainer.zero_grad"))
        self._patch(trainer, "segment", self._timed("trainer.segment"))

        self._patch(speckle, "synth_scene", self._timed("speckle.synth_scene"))

        def count_smoothing(orig):
            def wrapper(*a, **k):
                self.counts["smoothing_passes"] += 1
                return orig(*a, **k)
            return wrapper
        self._patch(speckle, "gaussian_filter", count_smoothing)

        def count_split(out, a, k):
            if self.in_train:
                self.counts["train_splits"] += 1
        self._patch(Rng, "split", self._timed("rng.split", count_split))

        for fn in ("read_pgm", "write_pgm", "load_dataset", "load_checkpoint"):
            self._patch(data_io, fn, self._timed(f"data_io.{fn}"))

        def checkpoint_size(out, a, k):
            self.counts["checkpoint_bytes"] += Path(a[1]).stat().st_size
        self._patch(data_io, "save_checkpoint", self._timed("data_io.save_checkpoint",
                                                            checkpoint_size))

        def eval_images(out, a, k):
            self.counts["batch_eval_images"] += len(a[0])
        self._patch(metrics, "batch_eval", self._timed("metrics.batch_eval", eval_images))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- steps ---------------------------------------------------------------

    def _begin_step(self) -> None:
        index = len(self.step_spans)
        i = self.begin("trainer.step")
        self.spans[i][4] = index
        self.step_spans.append(i)
        self.step = index
        if index in ALLOC_PROBE_STEPS:
            tracemalloc.start()

    def _end_step(self) -> None:
        if self.step in ALLOC_PROBE_STEPS:
            self.alloc_peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        self.end(self.step_spans[self.step])
        self.step = -1

    # -- results -------------------------------------------------------------

    def write(self, path) -> None:
        """One line per span: name, start and end (s, from the first span),
        parent span index (-1 for none) and step index (-1 outside steps)."""
        origin = self.spans[0][1] if self.spans else 0.0
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("name\tstart_s\tend_s\tparent\tstep\n")
            for name, t0, t1, parent, step in self.spans:
                fh.write(f"{name}\t{t0 - origin:.9f}\t{t1 - origin:.9f}\t{parent}\t{step}\n")

    def layer_metrics(self) -> dict:
        """Per-layer numbers, as {name: (value, unit)}."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, t0, t1, parent, step in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        timed_steps = [s for s in range(len(self.step_spans)) if s not in ALLOC_PROBE_STEPS]
        timed = set(timed_steps)
        step_self = defaultdict(float)         # name -> self time inside timed steps
        step_incl = defaultdict(float)         # name -> inclusive time inside timed steps
        leaf_per_step = defaultdict(float)     # step -> leaf self time
        incl = defaultdict(list)               # name -> inclusive durations, all spans
        for i, (name, t0, t1, parent, step) in enumerate(spans):
            dur = t1 - t0
            if step >= 0:
                if step in timed:
                    step_self[name] += dur - child[i]
                    step_incl[name] += dur
                    if name in STEP_LEAVES:
                        leaf_per_step[step] += dur - child[i]
            incl[name].append(dur)

        n = len(timed_steps)
        step_ms = [1e3 * (spans[self.step_spans[s]][2] - spans[self.step_spans[s]][1])
                   for s in timed_steps]
        leaf_ms = [1e3 * leaf_per_step[s] for s in timed_steps]

        def per_step(d, name):
            return 1e3 * d[name] / n

        def mean_ms(name):
            return 1e3 * statistics.fmean(incl[name])

        def pct(values, q):
            return statistics.quantiles(values, n=100, method="inclusive")[q - 1]

        out = {}
        for op in LAYER_OPS:
            for d in ("fwd", "bwd"):
                out[f"tensor.{op}.{d}_ms"] = (per_step(step_self, f"tensor.{op}.{d}"), "ms")
        out["tensor.pointwise_ms"] = (per_step(step_self, "tensor.pointwise.fwd")
                                      + per_step(step_self, "tensor.pointwise.bwd"), "ms")
        out["tensor.graph_walk_ms"] = (per_step(step_self, "tensor.backward"), "ms")
        out["tensor.tensors_per_step"] = (self.counts["tensors"] / len(self.step_spans), "count")
        flop_per_step = self.counts["flop"] / len(self.step_spans)
        matmul_s = sum(step_incl[f"tensor.{op}.{d}"] for op in _FLOPS for d in ("fwd", "bwd")) / n
        out["tensor.matmul_gflop_per_step"] = (flop_per_step / 1e9, "GFLOP")
        out["tensor.matmul_gflops"] = (flop_per_step / matmul_s / 1e9, "GFLOP/s")
        out["tensor.step_alloc_peak_mb"] = (statistics.median(self.alloc_peaks) / 2 ** 20, "MB")
        out["model.encode_ms"] = (per_step(step_incl, "model.encode"), "ms")
        out["model.decode_ms"] = (per_step(step_incl, "model.decode"), "ms")
        out["model.loss_terms_ms"] = (per_step(step_incl, "model.loss_terms"), "ms")
        out["model.encode_eval_ms"] = (mean_ms("model.encode_eval"), "ms")
        out["model.decode_eval_ms"] = (mean_ms("model.decode_eval"), "ms")
        out["trainer.step_ms_p50"] = (statistics.median(step_ms), "ms")
        out["trainer.step_ms_p99"] = (pct(step_ms, 99), "ms")
        out["trainer.backward_ms"] = (per_step(step_incl, "tensor.backward"), "ms")
        out["trainer.adam_step_ms"] = (per_step(step_incl, "trainer.adam_step"), "ms")
        out["trainer.zero_grad_ms"] = (per_step(step_incl, "trainer.zero_grad"), "ms")
        segment_ms = [1e3 * d for d in incl["trainer.segment"]]
        out["trainer.segment_ms_p50"] = (statistics.median(segment_ms), "ms")
        out["trainer.segment_ms_p99"] = (pct(segment_ms, 99), "ms")
        out["trainer.step_accounted_pct"] = (
            100.0 * statistics.median(leaf_ms) / statistics.median(step_ms), "%")
        scenes = len(incl["speckle.synth_scene"])
        out["speckle.synth_scene_ms"] = (mean_ms("speckle.synth_scene"), "ms")
        out["speckle.blob_layers_per_scene"] = (self.counts["smoothing_passes"] / scenes, "count")
        out["rng.split_calls_per_step"] = (self.counts["train_splits"] / len(self.step_spans),
                                           "count")
        out["rng.split_us"] = (1e6 * statistics.fmean(incl["rng.split"]), "us")
        for fn in ("read_pgm", "write_pgm", "load_dataset", "save_checkpoint", "load_checkpoint"):
            out[f"data_io.{fn}_ms"] = (mean_ms(f"data_io.{fn}"), "ms")
        out["data_io.checkpoint_mb"] = (
            self.counts["checkpoint_bytes"] / len(incl["data_io.save_checkpoint"]) / 2 ** 20, "MB")
        out["metrics.batch_eval_ms_per_image"] = (
            1e3 * sum(incl["metrics.batch_eval"]) / self.counts["batch_eval_images"], "ms")
        return out
