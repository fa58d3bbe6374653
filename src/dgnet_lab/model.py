"""Inference/generative segmentation network and its training loss.

The encoder maps an intensity image through four conv+BN+LeakyReLU blocks of
fixed geometry (4x4 kernel, stride 2, padding 1, slope 0.2) and a dense head to
the latent posterior's parameters: one channel (log-mean) for the exponential
family, two (location and log-scale) for the Gaussian. The decoder
inverts that path with transposed convolutions and a final sigmoid, emitting a
per-pixel oil probability map.

Two latent families are supported: a Gaussian baseline with an N(0,1) prior
and an exponential family with an Exp(1) prior, matching the physical
backscatter law. The loss is the negative single-sample ELBO estimate: the
per-pixel Bernoulli NLL of the mask plus the KL weighted by the caller's beta.
`grad_check` compares that loss's gradients with central differences.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from . import tensor as T
from .rng import Rng
from .tensor import Tensor

FAMILIES = ("gauss", "exp")

_CLAMP = 6.0              # latent log-parameter clamp
_PROB_EPS = 1e-7          # probability clamp for the Bernoulli NLL


@dataclass(frozen=True)
class ModelConfig:
    input_size: int = 256
    channels: tuple[int, ...] = (16, 32, 64, 128)
    latent_dim: int = 128
    family: str = "exp"

    # Fixed block geometry: the four blocks must halve the side exactly.
    kernel: ClassVar[int] = 4
    stride: ClassVar[int] = 2
    pad: ClassVar[int] = 1
    leaky_slope: ClassVar[float] = 0.2

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if self.latent_dim < 1:
            raise ValueError("latent_dim must be >= 1")
        if len(self.channels) != 4:
            raise ValueError(f"expected 4 encoder channel counts, got {self.channels}")
        if min(self.channels) < 1:
            raise ValueError(f"channel counts must be >= 1, got {self.channels}")
        if self.input_size % 16 != 0 or self.input_size < 16:
            raise ValueError(f"input_size must be a positive multiple of 16, got {self.input_size}")

    @property
    def seed_size(self) -> int:
        """Spatial side of the decoder's starting feature map."""
        return self.input_size // 16


@dataclass
class LatentParams:
    """Per-sample latent posterior parameters: two channels for the Gaussian
    family, one for the exponential (an exponential's scale is its mean)."""

    c0: Tensor            # location (gauss) / log-mean (exp)
    c1: Tensor | None     # log-scale (gauss); None for exp
    family: str


_BUFFERS = (".running_mean", ".running_var")


def state_layout(config: ModelConfig):
    """Yield (name, shape, init) for every parameter in network order, then
    every batch-norm buffer. This is the checkpoint's tensor order and
    `DGNet.state_tensors()`'s.

    `init` is a constant fill value, or (rng label, fan-in) for a weight drawn
    uniformly from +-sqrt(1/fan-in). A third item, the drawn shape, makes the
    weight the leading columns of a wider draw. Names ending in `.running_mean`
    or `.running_var` are buffers.
    """
    k = config.kernel
    norms = []
    chans = (1,) + tuple(config.channels)
    for i in range(4):
        c_in, c_out = chans[i], chans[i + 1]
        yield f"enc.conv{i}.w", (c_out, c_in, k, k), (f"enc{i}", c_in * k * k)
        yield f"enc.conv{i}.b", (c_out,), 0.0
        yield f"enc.bn{i}.gamma", (c_out,), 1.0
        yield f"enc.bn{i}.beta", (c_out,), 0.0
        norms.append((f"enc.bn{i}", c_out))
    flat = config.channels[-1] * config.seed_size ** 2
    head = config.latent_dim * (2 if config.family == "gauss" else 1)
    # The exp head is the c0 half of the Gaussian-width draw: a draw of its own
    # shape would give every seed other weights, curves and masks.
    yield "enc.fc.w", (flat, head), ("encfc", flat, (flat, 2 * config.latent_dim))
    yield "enc.fc.b", (head,), 0.0
    yield "dec.fc.w", (config.latent_dim, flat), ("decfc", config.latent_dim)
    yield "dec.fc.b", (flat,), 0.0
    dchans = tuple(reversed(config.channels)) + (1,)
    for i in range(4):
        c_in, c_out = dchans[i], dchans[i + 1]
        yield f"dec.deconv{i}.w", (c_in, c_out, k, k), (f"dec{i}", c_in * k * k)
        yield f"dec.deconv{i}.b", (c_out,), 0.0
        if i < 3:
            yield f"dec.bn{i}.gamma", (c_out,), 1.0
            yield f"dec.bn{i}.beta", (c_out,), 0.0
            norms.append((f"dec.bn{i}", c_out))
    for name, channels in norms:
        yield f"{name}.running_mean", (channels,), 0.0
        yield f"{name}.running_var", (channels,), 1.0


def grad_check(model, image, gt_mask, rng):
    """Finite-difference check of the model's full training loss.

    Runs the graph in float64 (the engine's verification precision) with a
    frozen latent noise draw so both gradient estimates differentiate the same
    deterministic function. Parameters are jittered away from their initial
    values first: freshly initialised biases sit exactly on the leaky-ReLU
    kink, where the piecewise derivative and the central difference disagree
    by construction. Returns the max relative error over parameters.
    """
    state = {name: a.astype(np.float64) for name, a in model.state_tensors().items()}
    jitter_rng = rng.split("jitter")
    # Jitter is drawn in the Gaussian layout's shapes and cropped to the
    # model's, as the exp head's init is, so a seed's jitter of each weight
    # that the loss reads does not depend on the head's width.
    gauss = replace(model.config, family="gauss")
    drawn = {name: shape for name, shape, _ in state_layout(gauss)}
    for name in model.params:
        a = state[name]
        state[name] = a + 0.05 * jitter_rng.normal(drawn[name])[..., :a.shape[-1]]
    m64 = DGNet(model.config, state=state)
    img = Tensor(np.asarray(image, dtype=np.float64))
    gt = Tensor(np.asarray(gt_mask, dtype=np.float64))
    noise = frozen_latent_noise(m64, img.shape[0], rng.split("noise"))

    def loss_fn():
        return elbo_loss(m64, img, gt, noise, 1.0)[0]

    return T.finite_difference_check(loss_fn, m64.params, h=1e-5)


# Elements per block of a weight's draw, so its float64 temporaries stay small.
_DRAW_BLOCK = 8192


class DGNet:
    """Encoder + decoder with named parameters and batch-norm buffers."""

    def __init__(self, config: ModelConfig, seed: int = 0, state=None):
        """A fresh model drawn from `seed`, or, given `state` (name -> array
        for every name in `state_layout(config)`), a model wrapping those
        arrays: parameters become trainable Tensors, buffers stay arrays."""
        self.config = config
        self.params: "OrderedDict[str, Tensor]" = OrderedDict()
        self.buffers: "OrderedDict[str, np.ndarray]" = OrderedDict()
        rng = Rng(seed)
        for name, shape, init in state_layout(config):
            if state is not None:
                data = state[name]
            elif isinstance(init, float):
                data = np.full(shape, init, dtype=np.float32)
            else:
                # Keyed by the weight's own label, so the draw does not depend
                # on the layout order. Drawn in blocks of rows: the stream gives
                # the same numbers, without a float64 copy of the whole weight.
                key, fan_in, *drawn = init
                bound, stream = math.sqrt(1.0 / fan_in), rng.split(key)
                width = (drawn[0] if drawn else shape)[-1]
                data = np.empty(shape, dtype=np.float32)
                rows = data.reshape(-1, shape[-1])
                step = max(1, _DRAW_BLOCK // width)
                for lo in range(0, len(rows), step):
                    u = stream.uniform((min(step, len(rows) - lo), width))[:, :shape[-1]]
                    rows[lo:lo + len(u)] = (u * 2.0 - 1.0) * bound
            if name.endswith(_BUFFERS):
                self.buffers[name] = data
            else:
                self.params[name] = Tensor(data, requires_grad=True)

    def state_tensors(self) -> "OrderedDict[str, np.ndarray]":
        """All named arrays (parameters, then buffers) in `state_layout` order."""
        out = OrderedDict((name, p.data) for name, p in self.params.items())
        out.update(self.buffers)
        return out

    # -- forward -------------------------------------------------------------

    def encode(self, image: Tensor, train: bool = True) -> LatentParams:
        cfg = self.config
        if image.data.ndim != 4 or image.shape[1] != 1:
            raise T.ShapeError(f"encode expects [N,1,H,W], got {image.shape}")
        if image.shape[2] != cfg.input_size or image.shape[3] != cfg.input_size:
            raise T.ShapeError(
                f"encode expects {cfg.input_size}x{cfg.input_size} input, "
                f"got {image.shape[2]}x{image.shape[3]}")
        x = image
        for i in range(4):
            x = T.conv2d(x, self.params[f"enc.conv{i}.w"], self.params[f"enc.conv{i}.b"],
                         stride=cfg.stride, pad=cfg.pad)
            x = T.batchnorm2d(x, self.params[f"enc.bn{i}.gamma"], self.params[f"enc.bn{i}.beta"],
                              self.buffers[f"enc.bn{i}.running_mean"],
                              self.buffers[f"enc.bn{i}.running_var"], train=train)
            x = x.leaky_relu(cfg.leaky_slope)
        n = x.shape[0]
        x = x.reshape(n, cfg.channels[-1] * cfg.seed_size ** 2)
        head = T.dense(x, self.params["enc.fc.w"], self.params["enc.fc.b"])
        if cfg.family == "exp":
            return LatentParams(c0=head, c1=None, family=cfg.family)
        c0 = head.slice_cols(0, cfg.latent_dim)
        c1 = head.slice_cols(cfg.latent_dim, 2 * cfg.latent_dim)
        return LatentParams(c0=c0, c1=c1, family=cfg.family)

    def decode(self, z: Tensor, train: bool = True) -> Tensor:
        cfg = self.config
        if z.data.ndim != 2 or z.shape[1] != cfg.latent_dim:
            raise T.ShapeError(f"decode expects [N,{cfg.latent_dim}], got {z.shape}")
        n = z.shape[0]
        x = T.dense(z, self.params["dec.fc.w"], self.params["dec.fc.b"])
        x = x.reshape(n, cfg.channels[-1], cfg.seed_size, cfg.seed_size)
        for i in range(4):
            x = T.conv2d_transpose(x, self.params[f"dec.deconv{i}.w"],
                                   self.params[f"dec.deconv{i}.b"],
                                   stride=cfg.stride, pad=cfg.pad)
            if i < 3:
                x = T.batchnorm2d(x, self.params[f"dec.bn{i}.gamma"],
                                  self.params[f"dec.bn{i}.beta"],
                                  self.buffers[f"dec.bn{i}.running_mean"],
                                  self.buffers[f"dec.bn{i}.running_var"], train=train)
                x = x.leaky_relu(cfg.leaky_slope)
            else:
                x = x.sigmoid()
        return x


# -- latent sampling and loss terms -------------------------------------------


def frozen_latent_noise(model: DGNet, batch: int, rng: Rng) -> np.ndarray:
    """Pre-draw the latent noise used by sample_latent, for deterministic replays."""
    shape = (batch, model.config.latent_dim)
    if model.config.family == "gauss":
        return rng.normal(shape)
    return rng.uniform(shape)


def sample_latent(lp: LatentParams, noise: np.ndarray) -> Tensor:
    """Reparameterized draw from the latent posterior, given `noise` drawn by
    frozen_latent_noise: eps ~ N(0,1) (gauss) or u ~ U(0,1) (exp).

    Gaussian: z = c0 + exp(clamp(c1)) * eps.
    Exponential: z = -mean * ln(1-u) with mean = exp(clamp(c0)), from the one
    channel c0 (an exponential's scale is its mean).
    """
    if lp.family not in FAMILIES:
        raise ValueError(f"unknown latent family {lp.family!r}")
    dtype = lp.c0.dtype
    if lp.family == "gauss":
        s = lp.c1.clamp(-_CLAMP, _CLAMP).exp()
        return lp.c0 + s * Tensor(np.asarray(noise, dtype=dtype))
    factor = -np.log1p(-np.asarray(noise, dtype=np.float64))
    m = lp.c0.clamp(-_CLAMP, _CLAMP).exp()
    return m * Tensor(factor.astype(dtype))


def kl_term(lp: LatentParams) -> Tensor:
    """KL(posterior || prior), summed over latent dimensions, mean over batch.

    Gaussian vs N(0,1): sum 0.5 * (mu^2 + s^2 - ln s^2 - 1).
    Exponential with mean m vs the rate-1 prior: sum (m - ln m - 1),
    i.e. KL(Exp(1/m) || Exp(1)).
    """
    n = lp.c0.shape[0]
    if lp.family == "gauss":
        c1 = lp.c1.clamp(-_CLAMP, _CLAMP)
        per_elem = 0.5 * (lp.c0 * lp.c0 + (2.0 * c1).exp() - 2.0 * c1 - 1.0)
    else:
        c0 = lp.c0.clamp(-_CLAMP, _CLAMP)
        per_elem = c0.exp() - c0 - 1.0
    return per_elem.sum() / n


def seg_nll(prob: Tensor, gt_mask: Tensor) -> Tensor:
    """Mean per-pixel Bernoulli negative log-likelihood of the mask."""
    if prob.shape != gt_mask.shape:
        raise T.ShapeError(f"shape mismatch: prob {prob.shape} vs mask {gt_mask.shape}")
    p = prob.clamp(_PROB_EPS, 1.0 - _PROB_EPS)
    y = gt_mask
    per_pixel = -(y * p.log() + (1.0 - y) * (1.0 - p).log())
    return per_pixel.mean()


def elbo_loss(model: DGNet, image: Tensor, gt_mask: Tensor, noise: np.ndarray,
              beta: float):
    """Negative single-sample ELBO estimate in train mode, with the latent drawn
    from `noise` (see frozen_latent_noise): (loss, kl, nll), loss = nll + beta*kl."""
    lp = model.encode(image, train=True)
    z = sample_latent(lp, noise)
    prob = model.decode(z, train=True)
    nll = seg_nll(prob, gt_mask)
    kl = kl_term(lp)
    loss = nll + beta * kl
    return loss, kl, nll


def latent_point_estimate(lp: LatentParams) -> Tensor:
    """Deterministic latent for inference: c0 (gauss) or the posterior mean exp(c0) (exp)."""
    if lp.family == "gauss":
        return lp.c0
    return lp.c0.clamp(-_CLAMP, _CLAMP).exp()
