"""Minimal reverse-mode autodiff engine over numpy arrays.

Covers exactly the operations the segmentation network needs: elementwise
arithmetic, sigmoid / leaky ReLU / exp / log / clamp, dense layers, strided
2-D convolution and its transpose, batch normalization, and full-graph
backpropagation with a finite-difference checker.

Every op output is scanned for NaN/Inf when it is made. Backward closures
hold their outputs weakly, so a graph has no reference cycles and is freed by
reference counting, whether or not backward ran. Backward consumes the graph:
each node it visits drops its backward closure and its parents.

Tensors default to 32-bit floats; float64 is supported so gradient checks can
run the same graph at higher precision.
"""

from __future__ import annotations

import weakref

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes do not conform."""


class NonFiniteError(FloatingPointError):
    """Raised when a forward op produces NaN or Inf."""


def _as_float_array(data):
    arr = np.asarray(data)
    if arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(np.float32)
    return arr


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn", "__weakref__")

    def __init__(self, data, requires_grad=False, _parents=(), _op=None):
        self.data = _as_float_array(data)
        if not np.isfinite(self.data).all():
            raise NonFiniteError(f"{_op} produced non-finite values" if _op
                                 else "tensor holds non-finite values")
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = tuple(p for p in _parents if p.requires_grad)
        self._backward_fn = None

    # -- convenience -------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def _accum_grad(self, g):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g.astype(self.data.dtype, copy=False)

    # -- graph construction ------------------------------------------------

    @staticmethod
    def _result(data, parents, op, backward):
        """Output of the op named `op`; its finiteness is scanned here, once.

        `backward(g)` adds the parents' gradients given the output's gradient
        `g`; it is attached only when some parent requires a gradient, and it
        holds the output weakly, so the output and its closure form no cycle.
        """
        out = Tensor(data, _parents=parents, _op=op)
        if out._parents:            # the parents that require a gradient
            out.requires_grad = True
            ref = weakref.ref(out)
            out._backward_fn = lambda: backward(ref().grad)
        return out

    # -- elementwise arithmetic ---------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Tensor):
            if other.shape != self.shape and other.size != 1 and self.size != 1:
                raise ShapeError(f"shape mismatch: {self.shape} vs {other.shape}")
            return other
        return Tensor(np.asarray(other, dtype=self.dtype))

    def __add__(self, other):
        other = self._coerce(other)

        def backward(g):
            if self.requires_grad:
                self._accum_grad(_unbroadcast(g, self.shape))
            if other.requires_grad:
                other._accum_grad(_unbroadcast(g, other.shape))
        return Tensor._result(self.data + other.data, (self, other), "add", backward)

    __radd__ = __add__

    def __neg__(self):
        def backward(g):
            self._accum_grad(-g)
        return Tensor._result(-self.data, (self,), "neg", backward)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)

        def backward(g):
            if self.requires_grad:
                self._accum_grad(_unbroadcast(g * other.data, self.shape))
            if other.requires_grad:
                other._accum_grad(_unbroadcast(g * self.data, other.shape))
        return Tensor._result(self.data * other.data, (self, other), "mul", backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise TypeError("tensor/tensor division is not supported; divide by a scalar")
        return self * (1.0 / float(other))

    def __pow__(self, exponent):
        p = float(exponent)

        def backward(g):
            self._accum_grad(g * p * self.data ** (p - 1.0))
        return Tensor._result(self.data ** p, (self,), "pow", backward)

    # -- elementwise functions ----------------------------------------------

    def exp(self):
        with np.errstate(over="ignore"):
            data = np.exp(self.data)

        def backward(g):
            self._accum_grad(g * data)
        return Tensor._result(data, (self,), "exp", backward)

    def log(self):
        def backward(g):
            self._accum_grad(g / self.data)
        return Tensor._result(np.log(self.data), (self,), "log", backward)

    def clamp(self, lo: float, hi: float):
        mask = (self.data >= lo) & (self.data <= hi)

        def backward(g):
            self._accum_grad(g * mask)
        return Tensor._result(np.clip(self.data, lo, hi), (self,), "clamp", backward)

    def sigmoid(self):
        # Split by sign so neither exponential can overflow.
        x = self.data
        e = np.exp(-np.abs(x))
        y = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e)).astype(x.dtype)

        def backward(g):
            self._accum_grad(g * y * (1.0 - y))
        return Tensor._result(y, (self,), "sigmoid", backward)

    def leaky_relu(self, slope: float = 0.2):
        if not 0.0 <= slope < 1.0:
            raise ValueError(f"leaky_relu slope must be in [0, 1), got {slope}")
        x = self.data
        s = x.dtype.type(slope)

        def backward(g):
            # g times 1 where x >= 0, else s, built without a select:
            # mask * (1 - s) + s rounds to exactly 1 for any s in [0, 1).
            dx = (x >= 0).astype(x.dtype)
            dx *= 1 - s
            dx += s
            dx *= g
            self._accum_grad(dx)
        # With 0 <= s < 1, max(x, s*x) is x where x >= 0, else s*x.
        return Tensor._result(np.maximum(x, x * s), (self,), "leaky_relu", backward)

    # -- shape ops -----------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])

        def backward(g):
            self._accum_grad(g.reshape(self.shape))
        return Tensor._result(self.data.reshape(shape), (self,), "reshape", backward)

    def slice_cols(self, start: int, stop: int):
        """Columns [start:stop] of a 2-D tensor."""
        if self.data.ndim != 2:
            raise ShapeError(f"slice_cols expects 2-D input, got {self.shape}")

        def backward(g):
            full = np.zeros_like(self.data)
            full[:, start:stop] = g
            self._accum_grad(full)
        return Tensor._result(self.data[:, start:stop].copy(), (self,), "slice_cols", backward)

    # -- reductions -----------------------------------------------------------

    def sum(self):
        def backward(g):
            self._accum_grad(np.full(self.shape, g, dtype=self.dtype))
        return Tensor._result(self.data.sum(dtype=np.float64).astype(self.dtype),
                              (self,), "sum", backward)

    def mean(self):
        return self.sum() / self.size

    # -- backprop ---------------------------------------------------------------

    def backward(self) -> None:
        """Populate .grad of every reachable tensor; self must be scalar.

        Backward runs once per graph: every node it visits loses its backward
        closure and its parents.
        """
        if self.size != 1:
            raise ShapeError(f"backward() requires a scalar, got shape {self.shape}")
        topo: list[Tensor] = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn()
            node._backward_fn = None
            node._parents = ()


def _unbroadcast(grad, shape):
    if grad.shape == shape:
        return grad
    # Only scalar-vs-array broadcasting is supported by _coerce.
    return grad.sum(dtype=np.float64).reshape(shape).astype(grad.dtype)


# -- layers -----------------------------------------------------------------


def _im2col(x, k, stride, pad):
    n, c, h, w = x.shape
    ho = (h + 2 * pad - k) // stride + 1
    wo = (w + 2 * pad - k) // stride + 1
    if pad:
        padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
        padded[:, :, pad:pad + h, pad:pad + w] = x
        x = padded
    sn, sc, sh, sw = x.strides
    win = np.lib.stride_tricks.as_strided(          # N,C,k,k,Ho,Wo, read-only view
        x, (n, c, k, k, ho, wo), (sn, sc, sh, sw, sh * stride, sw * stride), writeable=False)
    return np.ascontiguousarray(win.reshape(n, c * k * k, ho * wo)), ho, wo


def _col2im(cols, n, c, h, w, k, stride, pad, ho, wo):
    out = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    cols6 = cols.reshape(n, c, k, k, ho, wo)
    for i in range(k):
        for j in range(k):
            out[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride] += cols6[:, :, i, j]
    if pad:
        out = out[:, :, pad:pad + h, pad:pad + w]
    return out


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """Strided 2-D cross-correlation with zero padding.

    x: [N,C,H,W], weight: [F,C,k,k], bias: [F] -> [N,F,H',W'] with
    H' = floor((H + 2*pad - k) / stride) + 1.
    """
    if x.data.ndim != 4 or weight.data.ndim != 4:
        raise ShapeError(f"conv2d expects 4-D input/weight, got {x.shape}/{weight.shape}")
    n, c, h, w = x.shape
    f, cw, k, k2 = weight.shape
    if k != k2:
        raise ShapeError(f"conv2d kernel must be square, got {k}x{k2}")
    if cw != c:
        raise ShapeError(f"conv2d channel mismatch: input has {c}, weight expects {cw}")
    if bias.shape != (f,):
        raise ShapeError(f"conv2d bias must have shape ({f},), got {bias.shape}")
    if stride < 1 or k < 1 or h + 2 * pad < k or w + 2 * pad < k:
        raise ShapeError(f"conv2d geometry invalid: k={k} stride={stride} pad={pad} on {h}x{w}")

    cols, ho, wo = _im2col(x.data, k, stride, pad)
    wm = weight.data.reshape(f, c * k * k)
    out_flat = np.matmul(wm, cols) + bias.data[:, None]
    out_data = out_flat.reshape(n, f, ho, wo)

    def backward(g):
        g = g.reshape(n, f, ho * wo)
        if weight.requires_grad:
            weight._accum_grad(np.tensordot(g, cols, axes=([0, 2], [0, 2])).reshape(weight.shape))
        if bias.requires_grad:
            bias._accum_grad(g.sum(axis=(0, 2)))
        if x.requires_grad:
            dcols = np.matmul(wm.T, g)
            x._accum_grad(_col2im(dcols, n, c, h, w, k, stride, pad, ho, wo))
    return Tensor._result(out_data, (x, weight, bias), "conv2d", backward)


def conv2d_transpose(x: Tensor, weight: Tensor, bias: Tensor,
                     stride: int = 1, pad: int = 0) -> Tensor:
    """Transposed convolution: the adjoint of conv2d's forward map.

    x: [N,C,H,W], weight: [C,F,k,k], bias: [F] -> [N,F,H',W'] with
    H' = (H - 1) * stride - 2*pad + k.
    """
    if x.data.ndim != 4 or weight.data.ndim != 4:
        raise ShapeError(f"conv2d_transpose expects 4-D input/weight, got {x.shape}/{weight.shape}")
    n, c, h, w = x.shape
    cw, f, k, k2 = weight.shape
    if k != k2:
        raise ShapeError(f"conv2d_transpose kernel must be square, got {k}x{k2}")
    if cw != c:
        raise ShapeError(f"conv2d_transpose channel mismatch: input has {c}, weight expects {cw}")
    if bias.shape != (f,):
        raise ShapeError(f"conv2d_transpose bias must have shape ({f},), got {bias.shape}")
    ho = (h - 1) * stride - 2 * pad + k
    wo = (w - 1) * stride - 2 * pad + k
    if stride < 1 or ho < 1 or wo < 1:
        raise ShapeError(f"conv2d_transpose geometry invalid: k={k} stride={stride} pad={pad} on {h}x{w}")

    mt = weight.data.reshape(c, f * k * k)
    x_flat = x.data.reshape(n, c, h * w)
    cols_y = np.matmul(mt.T, x_flat)                      # N, F*k*k, H*W
    out_data = _col2im(cols_y, n, f, ho, wo, k, stride, pad, h, w)
    out_data += bias.data[None, :, None, None]

    def backward(g):
        cols_g, gh, gw = _im2col(g, k, stride, pad)       # N, F*k*k, H*W
        if x.requires_grad:
            x._accum_grad(np.matmul(mt, cols_g).reshape(n, c, h, w))
        if weight.requires_grad:
            weight._accum_grad(np.tensordot(x_flat, cols_g, axes=([0, 2], [0, 2])).reshape(weight.shape))
        if bias.requires_grad:
            bias._accum_grad(g.sum(axis=(0, 2, 3)))
    return Tensor._result(out_data, (x, weight, bias), "conv2d_transpose", backward)


_BN_MOMENTUM = 0.9        # share of the old running statistic kept per update
_BN_EPS = 1e-5


def batchnorm2d(x: Tensor, gamma: Tensor, beta: Tensor,
                running_mean: np.ndarray, running_var: np.ndarray, train: bool) -> Tensor:
    """Per-channel batch normalization over [N,C,H,W].

    Train mode normalizes by batch statistics and updates the running buffers
    in place (keep 0.9 of the old value); eval mode uses the buffers.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"batchnorm2d expects 4-D input, got {x.shape}")
    n, c, h, w = x.shape
    if n * h * w == 0:
        raise ShapeError("batchnorm2d on a zero-size batch")
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"batchnorm2d gamma/beta must have shape ({c},)")

    xd = x.data
    if train:
        mu = xd.mean(axis=(0, 2, 3), dtype=np.float64)
        var = xd.var(axis=(0, 2, 3), dtype=np.float64)
        running_mean *= _BN_MOMENTUM
        running_mean += ((1.0 - _BN_MOMENTUM) * mu).astype(running_mean.dtype)
        running_var *= _BN_MOMENTUM
        running_var += ((1.0 - _BN_MOMENTUM) * var).astype(running_var.dtype)
    else:
        mu = running_mean.astype(np.float64)
        var = running_var.astype(np.float64)
    inv = (1.0 / np.sqrt(var + _BN_EPS)).astype(xd.dtype)
    mu = mu.astype(xd.dtype)
    xhat = (xd - mu[None, :, None, None]) * inv[None, :, None, None]
    out_data = gamma.data[None, :, None, None] * xhat + beta.data[None, :, None, None]

    def backward(g):
        if gamma.requires_grad:
            gamma._accum_grad((g * xhat).sum(axis=(0, 2, 3)))
        if beta.requires_grad:
            beta._accum_grad(g.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            dxhat = g * gamma.data[None, :, None, None]
            if train:
                m = n * h * w
                s1 = dxhat.sum(axis=(0, 2, 3), keepdims=True)
                s2 = (dxhat * xhat).sum(axis=(0, 2, 3), keepdims=True)
                dx = (inv[None, :, None, None] / m) * (m * dxhat - s1 - xhat * s2)
            else:
                dx = dxhat * inv[None, :, None, None]
            x._accum_grad(dx)
    return Tensor._result(out_data, (x, gamma, beta), "batchnorm2d", backward)


def dense(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map: [N,D] @ [D,M] + [M].

    The forward runs row by row, so each row's bytes do not depend on N: a
    [1,D] @ [D,M] product takes BLAS's gemv path and an [N,D] one its gemm,
    which round differently.
    """
    if x.data.ndim != 2 or weight.data.ndim != 2:
        raise ShapeError(f"dense expects 2-D input/weight, got {x.shape}/{weight.shape}")
    n, d = x.shape
    dw, m = weight.shape
    if dw != d:
        raise ShapeError(f"dense dimension mismatch: input {d}, weight expects {dw}")
    if bias.shape != (m,):
        raise ShapeError(f"dense bias must have shape ({m},), got {bias.shape}")
    out_data = np.matmul(x.data[:, None, :], weight.data)[:, 0] + bias.data

    def backward(g):
        if x.requires_grad:
            x._accum_grad(g @ weight.data.T)
        if weight.requires_grad:
            # np.dot, not @: at batch 1 this is an outer product, which
            # matmul runs through a slow K=1 loop and np.dot hands to BLAS.
            weight._accum_grad(np.dot(x.data.T, g))
        if bias.requires_grad:
            bias._accum_grad(g.sum(axis=0))
    return Tensor._result(out_data, (x, weight, bias), "dense", backward)


# -- gradient checking ---------------------------------------------------------


def finite_difference_check(loss_fn, params, h=1e-3):
    """Max relative error between analytic and central-difference gradients.

    `loss_fn` must be a deterministic closure over `params` (a name -> Tensor
    mapping) returning a scalar Tensor. Parameters with requires_grad=False
    are skipped. Every element is probed with the same checked forward that
    training runs, so a probe that overflows raises NonFiniteError.
    """
    items = [p for p in params.values() if p.requires_grad]
    for p in items:
        p.grad = None
    loss_fn().backward()

    worst = 0.0
    for p in items:
        flat = p.data.reshape(-1)
        a_flat = (p.grad if p.grad is not None else np.zeros_like(p.data)).reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            try:
                flat[i] = orig + h
                up = loss_fn().item()
                flat[i] = orig - h
                down = loss_fn().item()
            finally:
                flat[i] = orig
            numeric = (up - down) / (2.0 * h)
            a = float(a_flat[i])
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            if err > worst:
                worst = err
    return worst
