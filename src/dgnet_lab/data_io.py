"""Image/mask I/O, dataset manifests and checkpoint serialization.

File formats:
  - binary PGM (P5), 8-bit for masks and 16-bit big-endian for intensities;
  - TSV manifest with one `images/NNNNN.pgm<TAB>masks/NNNNN.pgm` line per sample;
  - `DGNT` checkpoint: little-endian binary layout that round-trips byte-exactly.
"""

from __future__ import annotations

import io
import math
import os
import struct
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from . import model as M

CHECKPOINT_MAGIC = b"DGNT"
CHECKPOINT_VERSION = 1


class FormatError(ValueError):
    """Malformed file contents (PGM, checkpoint, manifest)."""


def ensure_dir(path) -> Path:
    p = Path(path)
    p.mkdir(parents=True, exist_ok=True)
    return p


def write_atomic(path, chunks) -> None:
    """Write the bytes-like `chunks`, in order, to a temp file beside `path`,
    then rename it over `path`, so a write that fails leaves any previous file
    as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# -- PGM ----------------------------------------------------------------------


def _pgm_tokens(data: bytes, count: int):
    """First `count` whitespace-separated header tokens, skipping # comments.
    Returns (tokens, payload offset)."""
    tokens = []
    i = 0
    n = len(data)
    while len(tokens) < count:
        if i >= n:
            raise FormatError("truncated PGM header")
        b = data[i]
        if b in b" \t\r\n":
            i += 1
        elif b == ord("#"):
            while i < n and data[i] not in b"\r\n":
                i += 1
        else:
            start = i
            while i < n and data[i] not in b" \t\r\n":
                i += 1
            tokens.append(data[start:i])
    if i >= n or data[i] not in b" \t\r\n":
        raise FormatError("missing whitespace after PGM header")
    return tokens, i + 1


def read_pgm(path) -> np.ndarray:
    """Binary PGM -> 2-D float32 array in [0,1] (value / maxval)."""
    data = Path(path).read_bytes()
    tokens, offset = _pgm_tokens(data, 4)
    if tokens[0] != b"P5":
        raise FormatError(f"not a binary PGM (magic {tokens[0]!r})")
    try:
        width, height, maxval = (int(t) for t in tokens[1:])
    except ValueError as exc:
        raise FormatError(f"bad PGM header numbers: {exc}") from exc
    if width < 1 or height < 1:
        raise FormatError(f"bad PGM dimensions {width}x{height}")
    if maxval == 255:
        dtype, itemsize = np.dtype(np.uint8), 1
    elif maxval == 65535:
        dtype, itemsize = np.dtype(">u2"), 2   # 16-bit samples are big-endian
    else:
        raise FormatError(f"unsupported PGM maxval {maxval} (need 255 or 65535)")
    need = width * height * itemsize
    payload = data[offset:offset + need]
    if len(payload) != need:
        raise FormatError(f"truncated PGM payload: have {len(payload)} bytes, need {need}")
    raw = np.frombuffer(payload, dtype=dtype).reshape(height, width)
    return raw.astype(np.float32) / maxval


def write_pgm(array, path, bit_depth: int = 8) -> None:
    """Quantize values in [0,1] by round-half-up to the requested bit depth."""
    arr = np.asarray(array, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"write_pgm expects a 2-D array, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("write_pgm on an empty array")
    if not np.isfinite(arr).all():
        raise ValueError("write_pgm values must be finite")
    if arr.min() < 0.0 or arr.max() > 1.0:
        raise ValueError(f"write_pgm values must lie in [0,1], got "
                         f"[{arr.min():.6g}, {arr.max():.6g}]")
    if bit_depth == 8:
        maxval, dtype = 255, np.uint8
    elif bit_depth == 16:
        maxval, dtype = 65535, np.dtype(">u2")
    else:
        raise ValueError(f"bit_depth must be 8 or 16, got {bit_depth}")
    q = np.floor(arr * maxval + 0.5).astype(dtype)
    h, w = arr.shape
    header = f"P5\n{w} {h}\n{maxval}\n".encode("ascii")
    Path(path).write_bytes(header + q.tobytes())


# -- resampling -----------------------------------------------------------------


def resample_bilinear(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    in_h, in_w = img.shape
    if (in_h, in_w) == (out_h, out_w):
        return img.astype(np.float32, copy=False)
    ys = (np.arange(out_h) + 0.5) * in_h / out_h - 0.5
    xs = (np.arange(out_w) + 0.5) * in_w / out_w - 0.5
    y0 = np.clip(np.floor(ys).astype(int), 0, in_h - 1)
    x0 = np.clip(np.floor(xs).astype(int), 0, in_w - 1)
    y1 = np.clip(y0 + 1, 0, in_h - 1)
    x1 = np.clip(x0 + 1, 0, in_w - 1)
    wy = np.clip(ys - y0, 0.0, 1.0)[:, None]
    wx = np.clip(xs - x0, 0.0, 1.0)[None, :]
    img = img.astype(np.float64)
    top = img[y0[:, None], x0[None, :]] * (1 - wx) + img[y0[:, None], x1[None, :]] * wx
    bot = img[y1[:, None], x0[None, :]] * (1 - wx) + img[y1[:, None], x1[None, :]] * wx
    return (top * (1 - wy) + bot * wy).astype(np.float32)


def resample_nearest(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    in_h, in_w = img.shape
    if (in_h, in_w) == (out_h, out_w):
        return img.copy()
    ys = np.clip(((np.arange(out_h) + 0.5) * in_h / out_h).astype(int), 0, in_h - 1)
    xs = np.clip(((np.arange(out_w) + 0.5) * in_w / out_w).astype(int), 0, in_w - 1)
    return img[ys[:, None], xs[None, :]]


# -- datasets -----------------------------------------------------------------


def read_manifest(manifest_path) -> Iterator[tuple[Path, Path]]:
    """Yield (image path, mask path) per manifest line, relative to the manifest."""
    manifest_path = Path(manifest_path)
    base = manifest_path.parent
    text = _decode(manifest_path.read_bytes(), f"manifest {manifest_path}")
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not all(parts):
            raise FormatError(f"{manifest_path}:{lineno}: expected two tab-separated paths")
        yield base / parts[0], base / parts[1]


def load_dataset(manifest_path, input_size: int | None = None):
    """Load (image, mask) pairs from a manifest.

    Images are bilinearly resampled to input_size when needed; masks use
    nearest neighbor and are re-binarized at 0.5. Returns a list of
    (image float32 [0,1], mask uint8) pairs.
    """
    pairs = []
    for image_path, mask_path in read_manifest(manifest_path):
        image = read_pgm(image_path)
        mask = read_pgm(mask_path)
        if input_size is not None:
            image = resample_bilinear(image, input_size, input_size)
            mask = resample_nearest(mask, input_size, input_size)
        pairs.append((image, (mask >= 0.5).astype(np.uint8)))
    return pairs


# -- checkpoints ----------------------------------------------------------------


def _config_block(config: M.ModelConfig) -> bytes:
    fields = [
        ("family", config.family),
        ("input_size", config.input_size),
        ("channels", ",".join(str(c) for c in config.channels)),
        ("latent_dim", config.latent_dim),
    ]
    return "".join(f"{k}={v}\n" for k, v in fields).encode("utf-8")


def _decode(blob: bytes, what: str) -> str:
    try:
        return blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{what} is not UTF-8: {exc}") from exc


def _config_from_block(blob: bytes) -> M.ModelConfig:
    """The config a block declares. The block must be exactly what
    `_config_block` writes for that config, byte for byte."""
    kv = {}
    for line in _decode(blob, "checkpoint config block").splitlines():
        key, _, value = line.partition("=")
        kv[key] = value
    try:
        config = M.ModelConfig(
            input_size=int(kv["input_size"]),
            channels=tuple(int(c) for c in kv["channels"].split(",")),
            latent_dim=int(kv["latent_dim"]),
            family=kv["family"],
        )
    except (KeyError, ValueError) as exc:
        raise FormatError(f"bad checkpoint config block: {exc}") from exc
    expected = _config_block(config)
    if blob != expected:
        raise FormatError(f"bad checkpoint config block: expected exactly {expected.decode()!r}")
    return config


def _checkpoint_chunks(model: M.DGNet):
    """The checkpoint in bytes-like pieces; a float32 tensor is its own piece,
    so writing the checkpoint copies no tensor."""
    block = _config_block(model.config)
    tensors = model.state_tensors()
    yield CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(block)) + block
    yield struct.pack("<I", len(tensors))
    for name, arr in tensors.items():
        encoded = name.encode("utf-8")
        yield struct.pack(f"<I{len(encoded)}sI{arr.ndim}I", len(encoded), encoded,
                          arr.ndim, *arr.shape)
        yield np.ascontiguousarray(arr, dtype="<f4")


def checkpoint_bytes(model: M.DGNet) -> bytes:
    return b"".join(_checkpoint_chunks(model))


def save_checkpoint(model: M.DGNet, path) -> None:
    write_atomic(path, _checkpoint_chunks(model))


def load_checkpoint(path) -> M.DGNet:
    data = Path(path).read_bytes()
    view = io.BytesIO(data)

    def read_exact(n, what):
        chunk = view.read(n)
        if len(chunk) != n:
            raise FormatError(f"truncated checkpoint while reading {what}")
        return chunk

    if read_exact(4, "magic") != CHECKPOINT_MAGIC:
        raise FormatError("bad checkpoint magic (expected DGNT)")
    (version,) = struct.unpack("<I", read_exact(4, "version"))
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}")
    (block_len,) = struct.unpack("<I", read_exact(4, "config length"))
    config = _config_from_block(read_exact(block_len, "config block"))
    layout = [(name, shape) for name, shape, _ in M.state_layout(config)]
    need = 4 * sum(math.prod(shape) for _, shape in layout)
    remaining = len(data) - view.tell()
    if need > remaining:
        raise FormatError(f"truncated checkpoint: its config block declares {need} bytes "
                          f"of tensors, {remaining} bytes remain")

    (count,) = struct.unpack("<I", read_exact(4, "tensor count"))
    if count != len(layout):
        raise FormatError(f"checkpoint holds {count} tensors, architecture needs {len(layout)}")
    state = {}
    for index, (arch_name, arch) in enumerate(layout):
        (name_len,) = struct.unpack("<I", read_exact(4, "tensor name length"))
        name = _decode(read_exact(name_len, "tensor name"), "checkpoint tensor name")
        if name != arch_name:
            raise FormatError(f"checkpoint tensor {index} is {name!r}, "
                              f"architecture needs {arch_name!r} there")
        (rank,) = struct.unpack("<I", read_exact(4, "tensor rank"))
        shape = tuple(struct.unpack("<I", read_exact(4, "tensor dim"))[0] for _ in range(rank))
        if shape != arch:
            raise FormatError(f"tensor {name!r} has shape {shape}, architecture needs {arch}")
        payload = read_exact(4 * math.prod(shape), f"tensor {name!r} payload")
        arr = np.frombuffer(payload, dtype="<f4").reshape(shape).astype(np.float32)
        if not np.all(np.isfinite(arr)):
            raise FormatError(f"tensor {name!r} holds non-finite values")
        state[name] = arr
    if view.read(1):
        raise FormatError("trailing bytes after checkpoint payload")
    return M.DGNet(config, state=state)
