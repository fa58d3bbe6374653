"""Mini-batch ELBO training with Adam, plus deterministic inference.

One Adam optimizer updates encoder and decoder parameters jointly on the
single composed loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import data_io
from . import model as M
from .rng import Rng
from .tensor import Tensor


@dataclass
class TrainConfig:
    epochs: int = 160
    batch_size: int = 1
    learning_rate: float = 1e-4
    beta: float = 1.0
    family: str = "exp"
    seed: int = 0
    curve_path: str | None = None
    checkpoint_path: str | None = None

    def __post_init__(self):
        for name in ("learning_rate", "beta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.beta < 0:
            raise ValueError("beta must be non-negative")
        if self.family not in M.FAMILIES:
            raise ValueError(f"family must be one of {M.FAMILIES}, got {self.family!r}")


_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8
# Elements per block of the update: a float32 block of each of m, v, the
# gradient, the parameter and the scratch buffer is 640 KiB, inside L2.
_BLOCK = 32768


class Adam:
    """Adam with bias correction (beta1=0.9, beta2=0.999, eps=1e-8).

    Every operation runs in the parameter's own dtype: the bias-correction
    scalars are Python floats, which numpy casts to the array's dtype (NEP 50
    treats them as weakly typed). A numpy scalar such as `np.sqrt(bc2)` is a
    strongly typed float64 and would promote each float32 operation to a
    float64 cast loop, slower and with bytes that follow numpy's promotion
    rules. Each parameter is updated in blocks of `_BLOCK` elements through
    one preallocated scratch buffer per dtype, so a step allocates no arrays.
    """

    def __init__(self, params: dict):
        self.params = {name: p for name, p in params.items() if p.requires_grad}
        self.step_count = 0
        # C order, so that the flat views `step` walks are views, not copies.
        self.m = {name: np.zeros(p.shape, p.dtype) for name, p in self.params.items()}
        self.v = {name: np.zeros(p.shape, p.dtype) for name, p in self.params.items()}
        self._scratch = {p.dtype: np.empty(_BLOCK, p.dtype) for p in self.params.values()}

    def step(self, lr: float) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - _BETA1 ** t
        bc2 = 1.0 - _BETA2 ** t
        # theta -= lr * m_hat / (sqrt(v_hat) + eps), with the bias corrections
        # folded into the step size: m_hat/(sqrt(v_hat)+eps)
        # == m*sqrt(bc2)/bc1 / (sqrt(v) + eps*sqrt(bc2)).
        sqrt_bc2 = math.sqrt(bc2)
        step_size = lr * sqrt_bc2 / bc1
        eps = _EPS * sqrt_bc2
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            if g.shape != p.data.shape:
                raise ValueError(f"gradient shape mismatch for {name}")
            g = g.reshape(-1)
            m = self.m[name].reshape(-1)
            v = self.v[name].reshape(-1)
            theta = p.data.reshape(-1)    # a copy only if p.data is not C-contiguous
            scratch = self._scratch[p.data.dtype]
            for lo in range(0, theta.size, _BLOCK):
                hi = lo + _BLOCK
                gb, mb, vb = g[lo:hi], m[lo:hi], v[lo:hi]
                s = scratch[:gb.size]
                mb *= _BETA1
                np.multiply(gb, 1.0 - _BETA1, out=s)
                mb += s
                vb *= _BETA2
                np.square(gb, out=s)
                s *= 1.0 - _BETA2
                vb += s
                np.sqrt(vb, out=s)
                s += eps
                np.divide(mb, s, out=s)
                s *= step_size
                theta[lo:hi] -= s
            if not p.data.flags.c_contiguous:
                p.data[...] = theta.reshape(p.shape)

    def zero_grad(self) -> None:
        """Zero each gradient in place, so its buffer is reused by the next step."""
        for p in self.params.values():
            if p.grad is not None:
                p.grad.fill(0)


@dataclass
class EpochRecord:
    epoch: int
    loss: float
    kl: float
    nll: float


def _batch_tensors(dataset, indices, dtype=np.float32):
    images = np.stack([np.asarray(dataset[i][0], dtype=dtype) for i in indices])[:, None]
    masks = np.stack([np.asarray(dataset[i][1], dtype=dtype) for i in indices])[:, None]
    return Tensor(images), Tensor(masks)


def curve_csv_text(records) -> str:
    lines = ["epoch,loss,kl,nll"]
    for r in records:
        lines.append(f"{r.epoch},{r.loss:.9g},{r.kl:.9g},{r.nll:.9g}")
    return "".join(line + "\n" for line in lines)


def train(dataset, model_config: M.ModelConfig, train_config: TrainConfig):
    """Run epoch-based mini-batch training; returns (model, records).

    `dataset` is a sequence of (image, mask) 2-D array pairs already sized to
    model_config.input_size. Shuffle order is keyed on (seed, epoch) so runs
    are reproducible at any batch size. Writes the learning curve CSV and the
    final checkpoint when paths are configured.
    """
    if len(dataset) == 0:
        raise ValueError("training dataset is empty")
    model_config = replace(model_config, family=train_config.family)
    model = M.DGNet(model_config, seed=train_config.seed)
    master = Rng(train_config.seed)
    noise_rng = master.split("latent-noise")
    opt = Adam(model.params)

    n = len(dataset)
    records: list[EpochRecord] = []
    for epoch in range(train_config.epochs):
        order = master.split(("shuffle", epoch)).permutation(n)
        sums = np.zeros(3, dtype=np.float64)
        batches = 0
        for start in range(0, n, train_config.batch_size):
            idx = order[start:start + train_config.batch_size]
            images, masks = _batch_tensors(dataset, idx)
            noise = M.frozen_latent_noise(model, len(idx), noise_rng.split(("draw", epoch, start)))
            loss, kl, nll = M.elbo_loss(model, images, masks, noise, train_config.beta)
            opt.zero_grad()
            loss.backward()
            opt.step(train_config.learning_rate)
            sums += (loss.item(), kl.item(), nll.item())
            batches += 1
        records.append(EpochRecord(epoch=epoch, loss=sums[0] / batches,
                                   kl=sums[1] / batches, nll=sums[2] / batches))

    if train_config.curve_path:
        data_io.write_atomic(train_config.curve_path, curve_csv_text(records).encode("ascii"))
    if train_config.checkpoint_path:
        data_io.save_checkpoint(model, train_config.checkpoint_path)
    return model, records


def segment(model: M.DGNet, image, threshold: float = 0.5):
    """Deterministic segmentation of one [H,W] image or an [N,H,W] stack.

    Eval-mode encode, latent point estimate (no sampling), decode, threshold;
    ties go to oil. Returns (probability map, binary mask) of the input's
    shape. Every op is row-independent, so each image's bytes are the same
    whether it is segmented alone or in a stack of any size.
    """
    img = np.asarray(image, dtype=np.float32)
    if img.ndim not in (2, 3):
        raise ValueError(f"segment expects an [H,W] image or [N,H,W] stack, got shape {img.shape}")
    x = Tensor(img.reshape(-1, 1, *img.shape[-2:]))
    lp = model.encode(x, train=False)
    z = M.latent_point_estimate(lp)
    prob = model.decode(z, train=False).data.reshape(img.shape)
    mask = (prob >= threshold).astype(np.uint8)
    return prob, mask
