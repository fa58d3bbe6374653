"""Deterministic, splittable random streams.

Built on numpy's counter-based Philox generator so that a single 64-bit seed
fully determines every sample in the program, and child streams derived from
(seed, label) are statistically independent of how much the parent has been
consumed.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _fnv1a(data: bytes, state: int = _FNV_OFFSET) -> int:
    for byte in data:
        state = ((state ^ byte) * _FNV_PRIME) & _MASK64
    return state


def _label_bytes(label) -> bytes:
    if isinstance(label, bytes):
        return label
    if isinstance(label, str):
        return label.encode("utf-8")
    if isinstance(label, int):
        return label.to_bytes(8, "little", signed=False)
    if isinstance(label, tuple):
        out = b""
        for part in label:
            piece = _label_bytes(part)
            out += len(piece).to_bytes(4, "little") + piece
        return out
    raise TypeError(f"unsupported rng label type: {type(label).__name__}")


class Rng:
    """Seeded random stream; `split(label)` derives an independent child.

    The child stream depends only on (seed, label path), never on how many
    samples the parent has drawn.
    """

    def __init__(self, seed: int, _lane: int = 0):
        if not 0 <= seed <= _MASK64:
            raise ValueError("seed must be a non-negative 64-bit integer")
        self.seed = seed
        self._lane = _lane
        self._gen = np.random.Generator(
            np.random.Philox(key=np.array([self.seed, self._lane], dtype=np.uint64))
        )

    def split(self, label) -> "Rng":
        lane = _fnv1a(_label_bytes(label), state=_fnv1a(self._lane.to_bytes(8, "little")))
        return Rng(self.seed, _lane=lane)

    def uniform(self, size=None) -> np.ndarray:
        """Uniform floats in [0, 1)."""
        return self._gen.random(size)

    def normal(self, size=None) -> np.ndarray:
        return self._gen.standard_normal(size)

    def integers(self, low: int, high: int, size=None):
        """Integers in [low, high] inclusive."""
        return self._gen.integers(low, high, size=size, endpoint=True)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)
