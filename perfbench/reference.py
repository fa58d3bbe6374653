"""Float64 reference for DGNet's eval-mode forward pass, in plain numpy.

Written from the architecture, not from dgnet_lab.tensor: convolution sums one
kernel tap at a time, the transposed convolution scatter-adds each input pixel
into a k x k window of the output, and batch-norm uses the running statistics.
It checks the probability maps that `trainer.segment` returns.
"""

from __future__ import annotations

import numpy as np

_CLAMP = 6.0        # latent log-mean clamp of the exp family
_BN_EPS = 1e-5


def conv2d(x, w, b, stride, pad):
    """x [C,H,W], w [F,C,k,k], b [F] -> [F,Ho,Wo] (cross-correlation)."""
    _, h, wd = x.shape
    k = w.shape[2]
    ho = (h + 2 * pad - k) // stride + 1
    wo = (wd + 2 * pad - k) // stride + 1
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    out = np.zeros((w.shape[0], ho, wo))
    for i in range(k):
        for j in range(k):
            patch = xp[:, i:i + stride * ho:stride, j:j + stride * wo:stride]
            out += np.einsum("fc,chw->fhw", w[:, :, i, j], patch)
    return out + b[:, None, None]


def conv2d_transpose(x, w, b, stride, pad):
    """x [C,H,W], w [C,F,k,k], b [F] -> [F,(H-1)*stride-2*pad+k, ...]."""
    _, h, wd = x.shape
    f, k = w.shape[1], w.shape[2]
    full = np.zeros((f, (h - 1) * stride + k, (wd - 1) * stride + k))
    for y in range(h):
        for xx in range(wd):
            # Each input pixel adds its channel vector times the kernel into
            # the k x k output window with corner (stride*y, stride*x).
            full[:, stride * y:stride * y + k, stride * xx:stride * xx + k] += np.einsum(
                "c,cfij->fij", x[:, y, xx], w)
    out = full[:, pad:full.shape[1] - pad, pad:full.shape[2] - pad]
    return out + b[:, None, None]


def batchnorm_eval(x, gamma, beta, mean, var):
    return (x - mean[:, None, None]) / np.sqrt(var[:, None, None] + _BN_EPS) \
        * gamma[:, None, None] + beta[:, None, None]


def leaky_relu(x, slope):
    return np.where(x >= 0, x, slope * x)


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def forward(state: dict, config, image) -> np.ndarray:
    """Oil probability map of one 2-D image.

    `state` maps DGNT tensor names to arrays (parameters and batch-norm
    buffers); `config` is the model's ModelConfig.
    """
    p = {name: np.asarray(arr, dtype=np.float64) for name, arr in state.items()}
    s, pad, slope = config.stride, config.pad, config.leaky_slope
    x = np.asarray(image, dtype=np.float64)[None]
    for i in range(4):
        x = conv2d(x, p[f"enc.conv{i}.w"], p[f"enc.conv{i}.b"], s, pad)
        x = batchnorm_eval(x, p[f"enc.bn{i}.gamma"], p[f"enc.bn{i}.beta"],
                           p[f"enc.bn{i}.running_mean"], p[f"enc.bn{i}.running_var"])
        x = leaky_relu(x, slope)
    head = x.reshape(-1) @ p["enc.fc.w"] + p["enc.fc.b"]
    c0 = head[:config.latent_dim]
    # Inference uses the posterior's point estimate: the Gaussian location,
    # or the exponential mean exp(c0) with c0 clamped as in training.
    z = c0 if config.family == "gauss" else np.exp(np.clip(c0, -_CLAMP, _CLAMP))
    side = config.seed_size
    x = (z @ p["dec.fc.w"] + p["dec.fc.b"]).reshape(config.channels[-1], side, side)
    for i in range(4):
        x = conv2d_transpose(x, p[f"dec.deconv{i}.w"], p[f"dec.deconv{i}.b"], s, pad)
        if i < 3:
            x = batchnorm_eval(x, p[f"dec.bn{i}.gamma"], p[f"dec.bn{i}.beta"],
                               p[f"dec.bn{i}.running_mean"], p[f"dec.bn{i}.running_var"])
            x = leaky_relu(x, slope)
    return sigmoid(x[0])
