"""Exponential intensity model for SAR backscatter and synthetic scene generation.

Single-look SAR intensity follows an exponential law whose mean is the product
of the detection-system constant and the per-pixel radar cross section. Those
two factors are not separately identifiable from intensity data, so the model
stores the single rate parameter (rate = 1 / mean intensity).

Scenes are built as irregular dark blobs (oil) on a brighter sea background,
optionally with unlabeled look-alike patches of intermediate darkness. Each
blob is white noise smoothed by a periodic Gaussian blur in numpy
(`gaussian_filter`) and thresholded at a quantile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from . import data_io
from .rng import Rng


@dataclass(frozen=True)
class ExponentialModel:
    """One-parameter intensity distribution; mean == std == 1/rate."""

    rate: float

    def __post_init__(self):
        if not (self.rate > 0 and math.isfinite(self.rate)):
            raise ValueError(f"rate must be a positive finite float, got {self.rate}")

    @property
    def mean(self) -> float:
        return 1.0 / self.rate


def exp_sample(model: ExponentialModel, rng: Rng, n: int) -> np.ndarray:
    """Inverse-CDF sampling: x = -ln(1 - u) / rate, u uniform in [0, 1)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    u = rng.uniform(n)
    return -np.log1p(-u) / model.rate


def exp_fit_mle(samples) -> ExponentialModel:
    """Maximum-likelihood fit: rate = n / sum(x)."""
    x = np.asarray(samples, dtype=np.float64)
    if x.size == 0:
        raise ValueError("cannot fit an exponential model to zero samples")
    if np.any(x < 0):
        raise ValueError("exponential samples must be non-negative")
    total = float(x.sum())
    if total == 0.0:
        raise ValueError("cannot fit an exponential model to all-zero samples")
    return ExponentialModel(rate=x.size / total)


def exp_kl(p: ExponentialModel, q: ExponentialModel) -> float:
    """KL(Exp(rate_p) || Exp(rate_q)) = ln(rate_p/rate_q) + rate_q/rate_p - 1."""
    return math.log(p.rate / q.rate) + q.rate / p.rate - 1.0


@dataclass(frozen=True)
class SceneConfig:
    """Settings of a synthetic scene. The blob geometry is fixed by two class
    constants, not fields: oil is 1 to 3 blob layers, covering a fraction of
    the scene within `mask_fraction_bounds`."""

    size: int = 64
    oil_contrast: float = 5.0          # sea mean / oil mean
    lookalike_prob: float = 0.0
    lookalike_contrast: float = 2.0
    seed: int = 0                      # keys `synth_dataset`'s per-scene streams

    blob_count_range: ClassVar[tuple[int, int]] = (1, 3)
    mask_fraction_bounds: ClassVar[tuple[float, float]] = (0.05, 0.30)

    def __post_init__(self):
        for name in ("oil_contrast", "lookalike_contrast"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.size < 8:
            raise ValueError(f"scene size must be >= 8, got {self.size}")
        if self.oil_contrast <= 1:
            raise ValueError(f"oil_contrast must exceed 1, got {self.oil_contrast}")
        if not 0.0 <= self.lookalike_prob <= 1.0:
            raise ValueError("lookalike_prob must lie in [0, 1]")
        if not 1.0 < self.lookalike_contrast < self.oil_contrast:
            raise ValueError("lookalike_contrast must lie strictly between 1 and oil_contrast")


@dataclass
class SceneSample:
    image: np.ndarray                  # 2-D float32 intensity, >= 0
    mask: np.ndarray                   # 2-D uint8, 1 = oil
    meta: dict = field(default_factory=dict)   # "lookalike_mask": 2-D bool


_MAX_BLOB_RETRIES = 30


def gaussian_filter(field: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian blur of a square field with periodic boundaries.

    The kernel is a Gaussian truncated at radius int(4*sigma + 0.5), with
    weights exp(-t^2 / 2 sigma^2) normalised to sum 1. It is folded onto the
    n-cycle, so a kernel wider than the field still wraps, and applied along
    both axes as one circulant matrix: C @ field @ C.T. perfbench's tracer
    counts smoothing passes by wrapping this name, so `_blob_layer` calls it
    through the module.
    """
    n = field.shape[0]
    radius = int(4.0 * sigma + 0.5)
    t = np.arange(-radius, radius + 1)
    w = np.exp(-0.5 / sigma ** 2 * t ** 2)
    w /= w.sum()
    taps = np.bincount(t % n, weights=w, minlength=n)
    # out[i] = sum_t w[t] field[(i + t) % n], so C[i, j] = taps[(j - i) % n].
    idx = np.arange(n)
    circulant = taps[(idx[None, :] - idx[:, None]) % n]
    return circulant @ field @ circulant.T


def _blob_layer(size: int, fraction: float, rng: Rng) -> np.ndarray:
    """One irregular blob field: smoothed white noise thresholded at a quantile."""
    sigma = float(rng.uniform()) * 0.06 * size + 0.04 * size
    noise = rng.normal((size, size))
    smooth = gaussian_filter(noise, sigma)
    level = np.quantile(smooth, 1.0 - fraction)
    return smooth > level


def _blob_mask(size, fraction_bounds, count_range, rng: Rng) -> np.ndarray:
    lo, hi = fraction_bounds
    target = lo + float(rng.uniform()) * (hi - lo)
    count = int(rng.integers(count_range[0], count_range[1]))
    # Per-layer quota so the union of independent layers lands near the target.
    per_layer = 1.0 - (1.0 - target) ** (1.0 / count)
    for _ in range(_MAX_BLOB_RETRIES):
        mask = np.zeros((size, size), dtype=bool)
        for _ in range(count):
            mask |= _blob_layer(size, per_layer, rng)
        if lo <= mask.mean() <= hi:
            return mask
    # A one-layer target within a pixel of a bound can threshold to just
    # outside it on every retry; one layer aimed at the middle of the bounds
    # lands inside them whenever they are more than a pixel or two apart.
    mask = _blob_layer(size, 0.5 * (lo + hi), rng)
    if lo <= mask.mean() <= hi:
        return mask
    raise RuntimeError(
        f"could not hit mask fraction bounds {fraction_bounds} after {_MAX_BLOB_RETRIES} attempts")


def synth_scene(config: SceneConfig, rng: Rng) -> SceneSample:
    """Generate one intensity image + oil mask pair, drawn from `rng` alone.

    Per-pixel intensity is exponential with mean 1 outside blobs,
    1/oil_contrast inside oil, and 1/lookalike_contrast inside look-alike
    patches (labeled background; returned as meta["lookalike_mask"]). Only
    these ratios matter: `synth_dataset` rescales each image by its own 99.9th
    percentile, and draws scene i from Rng(config.seed).split(("scene", i)).
    """
    size = config.size
    # Outputs first, filled in place: freed scratch then lies above the scenes callers keep.
    image, mask = np.empty((size, size), np.float32), np.empty((size, size), np.uint8)
    lookalike = np.zeros((size, size), dtype=bool)
    oil = _blob_mask(size, config.mask_fraction_bounds, config.blob_count_range,
                     rng.split("oil"))

    la_rng = rng.split("lookalike")
    if float(la_rng.uniform()) < config.lookalike_prob:
        lo, hi = config.mask_fraction_bounds
        lookalike[...] = _blob_mask(size, (lo / 2, hi / 2), (1, 1), la_rng.split("blobs")) & ~oil

    mean_map = np.ones((size, size), dtype=np.float64)
    mean_map[oil] = 1.0 / config.oil_contrast
    mean_map[lookalike] = 1.0 / config.lookalike_contrast

    image[...] = mean_map * -np.log1p(-rng.split("speckle").uniform((size, size)))
    mask[...] = oil
    return SceneSample(image=image, mask=mask, meta={"lookalike_mask": lookalike})


def synth_dataset(config: SceneConfig, count: int, out_dir) -> str:
    """Write `count` image/mask PGM pairs plus manifest.tsv and meta.txt.

    Per-sample randomness is derived from (config.seed, index), so the same
    config always regenerates byte-identical files. Returns the manifest path.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    master = Rng(config.seed)
    out_dir = data_io.ensure_dir(out_dir)
    images_dir = data_io.ensure_dir(out_dir / "images")
    masks_dir = data_io.ensure_dir(out_dir / "masks")

    manifest_lines = []
    meta_lines = [f"# size={config.size} oil_contrast={config.oil_contrast!r} "
                  f"lookalike_prob={config.lookalike_prob!r} "
                  f"lookalike_contrast={config.lookalike_contrast!r} seed={config.seed}"]
    for i in range(count):
        sample = synth_scene(config, rng=master.split(("scene", i)))
        name = f"{i:05d}.pgm"
        scale = float(np.percentile(sample.image, 99.9))
        if scale <= 0:
            scale = 1.0
        quantized = np.clip(sample.image / scale, 0.0, 1.0)
        data_io.write_pgm(quantized, images_dir / name, bit_depth=16)
        data_io.write_pgm(sample.mask.astype(np.float64), masks_dir / name, bit_depth=8)
        manifest_lines.append(f"images/{name}\tmasks/{name}")
        meta_lines.append(f"{i:05d}\t{scale!r}")

    manifest_path = out_dir / "manifest.tsv"
    manifest_path.write_text("".join(line + "\n" for line in manifest_lines))
    (out_dir / "meta.txt").write_text("".join(line + "\n" for line in meta_lines))
    return str(manifest_path)
