"""Correctness checks on the outputs of a benchmark run.

Each check recomputes what it verifies from the outputs themselves, with plain
numpy or a property of the method, and raises CheckFailed on a mismatch.
None compares against a stored copy.
"""

from __future__ import annotations

import math
import re
import struct
from pathlib import Path

import numpy as np

import reference

# Float32 rounding of `nll + beta*kl` is at most half an ulp (2**-24 relative);
# the bound leaves a factor of four for the epoch averages and CSV digits.
LOSS_REL_TOL = 2.0 ** -22
# Largest |reference - segment| allowed on a probability map computed in
# float32 (measured worst cases, trained or not, are below 1e-7).
PROB_ABS_TOL = 1e-5
# Rates printed with 9 significant digits (report CSVs) are off by up to
# 5e-9 relative; allow ten times that.
RATE_REL_TOL = 5e-8
# Standard deviations allowed between the measured sea/oil contrast and
# oil_contrast.
CONTRAST_SIGMAS = 5.0


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def check_curve(rows, beta: float) -> None:
    """rows: (epoch, loss, kl, nll) per epoch, as in the learning-curve CSV."""
    require(len(rows) >= 2, f"curve has {len(rows)} rows, need at least 2")
    for i, (epoch, loss, kl, nll) in enumerate(rows):
        where = f"curve row {i}"
        require(epoch == i, f"{where}: epoch {epoch}, expected {i}")
        require(all(math.isfinite(v) for v in (loss, kl, nll)), f"{where}: non-finite value")
        require(kl >= 0.0, f"{where}: kl {kl} < 0")
        require(nll >= 0.0, f"{where}: nll {nll} < 0")
        expect = nll + beta * kl
        require(abs(loss - expect) <= LOSS_REL_TOL * (abs(nll) + beta * abs(kl)),
                f"{where}: loss {loss:.9g} != nll + beta*kl = {expect:.9g}")
    require(rows[-1][1] < rows[0][1],
            f"last epoch's loss {rows[-1][1]} is not below the first {rows[0][1]}")


def parse_curve_csv(text: str):
    lines = text.splitlines()
    require(lines[:1] == ["epoch,loss,kl,nll"], "curve CSV header is wrong")
    rows = []
    for line in lines[1:]:
        epoch, loss, kl, nll = line.split(",")
        rows.append((int(epoch), float(loss), float(kl), float(nll)))
    return rows


def check_confusion(gt_masks, pred_masks, counts, accuracy: float, iou: float,
                    f1: float) -> None:
    """Pooled (tp, fp, fn, tn) recounted from the masks must equal `counts`,
    and accuracy, IoU and F1 must follow from them (F1 = 2*IoU/(1+IoU))."""
    g = np.stack([np.asarray(m) for m in gt_masks]).astype(bool)
    p = np.stack([np.asarray(m) for m in pred_masks]).astype(bool)
    require(g.shape == p.shape, f"mask stacks differ in shape: {g.shape} vs {p.shape}")
    recount = (int(np.sum(g & p)), int(np.sum(~g & p)), int(np.sum(g & ~p)),
               int(np.sum(~g & ~p)))
    require(tuple(counts) == recount,
            f"pooled counts (tp, fp, fn, tn) {tuple(counts)} != recount {recount}")
    tp, fp, fn, tn = recount
    require(math.isclose(accuracy, (tp + tn) / g.size, rel_tol=RATE_REL_TOL),
            f"accuracy {accuracy} != (tp+tn)/total")
    expect_iou = tp / (tp + fp + fn) if tp + fp + fn else 1.0
    require(math.isclose(iou, expect_iou, rel_tol=RATE_REL_TOL, abs_tol=1e-12),
            f"iou {iou} != tp/(tp+fp+fn) = {expect_iou}")
    require(math.isclose(f1, 2.0 * iou / (1.0 + iou), rel_tol=RATE_REL_TOL, abs_tol=1e-12),
            f"f1 {f1} != 2*iou/(1+iou)")


def check_reference(state: dict, config, images, probs) -> None:
    """The float64 reference forward must reproduce each probability map."""
    for i, (image, prob) in enumerate(zip(images, probs)):
        ref = reference.forward(state, config, image)
        err = float(np.max(np.abs(ref - np.asarray(prob, dtype=np.float64))))
        require(err <= PROB_ABS_TOL,
                f"image {i}: probability map differs from the reference by {err:.3g}")


def check_dgnt_layout(blob: bytes) -> None:
    """Walk the DGNT layout with struct alone: every length must add up to the
    file's size and every payload value must be finite."""
    def take(n, what):
        nonlocal pos
        require(pos + n <= len(blob), f"checkpoint truncated in {what}")
        chunk = blob[pos:pos + n]
        pos += n
        return chunk

    pos = 0
    require(take(4, "magic") == b"DGNT", "checkpoint magic is not DGNT")
    (version,) = struct.unpack("<I", take(4, "version"))
    require(version == 1, f"checkpoint version {version}")
    (block_len,) = struct.unpack("<I", take(4, "config length"))
    take(block_len, "config block").decode("utf-8")
    (count,) = struct.unpack("<I", take(4, "tensor count"))
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4, "name length"))
        take(name_len, "name")
        (rank,) = struct.unpack("<I", take(4, "rank"))
        dims = struct.unpack(f"<{rank}I", take(4 * rank, "dims"))
        payload = np.frombuffer(take(4 * math.prod(dims), "payload"), dtype="<f4")
        require(bool(np.all(np.isfinite(payload))), "checkpoint holds non-finite values")
    require(pos == len(blob), f"{len(blob) - pos} trailing bytes after the checkpoint")


def check_checkpoint(data_io, path, resave_path, expected: bytes | None = None):
    """Save -> load -> save must give identical bytes; `expected`, when given,
    is checkpoint_bytes() of the model that was saved. Returns the loaded model."""
    blob = Path(path).read_bytes()
    check_dgnt_layout(blob)
    if expected is not None:
        require(blob == expected, "checkpoint file differs from the trained model's bytes")
    loaded = data_io.load_checkpoint(path)
    data_io.save_checkpoint(loaded, resave_path)
    require(Path(resave_path).read_bytes() == blob, "save -> load -> save changed the bytes")
    return loaded


def check_same_masks(masks_a, masks_b, what: str) -> None:
    require(len(masks_a) == len(masks_b), f"{what}: {len(masks_a)} vs {len(masks_b)} masks")
    for i, (a, b) in enumerate(zip(masks_a, masks_b)):
        require(np.array_equal(np.asarray(a), np.asarray(b)), f"{what}: mask {i} differs")


def check_mask_fractions(masks, bounds) -> None:
    lo, hi = bounds
    for i, m in enumerate(masks):
        frac = float(np.mean(np.asarray(m) != 0))
        require(lo <= frac <= hi, f"scene {i}: oil fraction {frac:.4f} outside [{lo}, {hi}]")


def check_contrast(raw_images, masks, lookalike_masks, oil_contrast: float) -> None:
    """Pooled sea/oil mean-intensity ratio, look-alike pixels excluded, must
    match oil_contrast. Exponential intensities have a coefficient of
    variation of 1, so the ratio's relative error has standard deviation
    sqrt(1/n_sea + 1/n_oil)."""
    sea_sum = oil_sum = 0.0
    n_sea = n_oil = 0
    for image, mask, lookalike in zip(raw_images, masks, lookalike_masks):
        image = np.asarray(image, dtype=np.float64)
        oil = np.asarray(mask) != 0
        sea = ~oil & ~np.asarray(lookalike, dtype=bool)
        sea_sum += float(image[sea].sum())
        oil_sum += float(image[oil].sum())
        n_sea += int(sea.sum())
        n_oil += int(oil.sum())
    require(n_sea > 0 and n_oil > 0, "scenes hold no sea or no oil pixels")
    ratio = (sea_sum / n_sea) / (oil_sum / n_oil)
    sigma = math.sqrt(1.0 / n_sea + 1.0 / n_oil)
    require(abs(ratio / oil_contrast - 1.0) <= CONTRAST_SIGMAS * sigma,
            f"sea/oil contrast {ratio:.4f} vs oil_contrast {oil_contrast} "
             f"(tolerance {CONTRAST_SIGMAS * sigma:.4f} relative)")


_PGM8 = re.compile(rb"P5\s+(\d+)\s+(\d+)\s+255\s")


def read_mask_pgm(path) -> np.ndarray:
    """8-bit P5 mask as uint8 0/1, parsed without dgnet_lab."""
    data = Path(path).read_bytes()
    m = _PGM8.match(data)
    require(m is not None, f"{path}: not an 8-bit binary PGM")
    w, h = int(m.group(1)), int(m.group(2))
    pixels = np.frombuffer(data[m.end():], dtype=np.uint8)
    require(pixels.size == w * h, f"{path}: payload holds {pixels.size} bytes, need {w * h}")
    return (pixels.reshape(h, w) >= 128).astype(np.uint8)
