"""The benchmark's scenes, generated in memory from the workload seed.

`bench_scenes` reproduces `_bench_scenes` of tests/test_acceptance.py: 64 px
scenes with oil contrast 5 and look-alike probability 0.3, scene i drawn from
Rng(seed).split(("scene", i)), each image divided by its own 99.9th
percentile and clipped to [0, 1]. With seed 42 its first 200 scenes are the
acceptance suite's training scenes and the next 40 its held-out scenes.

About one scene index in 7,000 cannot be generated: speckle._blob_mask draws
a one-layer target fraction within one pixel of the upper bound, every retry
thresholds to the same pixel count just above it, and synth_scene raises
RuntimeError. Such indices are left out and listed in `left_out`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from dgnet_lab import data_io, speckle
from dgnet_lab.rng import Rng

SIZE = 64
OIL_CONTRAST = 5.0
LOOKALIKE_PROB = 0.3
_RETRY_FAULT = "could not hit mask fraction bounds"


def scene_config(seed: int) -> speckle.SceneConfig:
    return speckle.SceneConfig(size=SIZE, oil_contrast=OIL_CONTRAST,
                               lookalike_prob=LOOKALIKE_PROB, seed=seed)


@dataclass
class Scenes:
    pairs: list = field(default_factory=list)      # (image float32 in [0,1], mask uint8)
    raw: list = field(default_factory=list)        # unscaled intensities, for the contrast check
    lookalike: list = field(default_factory=list)  # look-alike masks, for the contrast check
    left_out: list = field(default_factory=list)   # scene indices that raised the retry fault

    def __getitem__(self, part: slice) -> "Scenes":
        return Scenes(self.pairs[part], self.raw[part], self.lookalike[part], self.left_out)


def bench_scenes(seed: int, count: int) -> Scenes:
    """The first `count` scenes of `seed` that can be generated, in index order."""
    cfg = scene_config(seed)
    master = Rng(cfg.seed)
    out = Scenes()
    i = 0
    while len(out.pairs) < count:
        try:
            s = speckle.synth_scene(cfg, rng=master.split(("scene", i)))
        except RuntimeError as exc:
            if not str(exc).startswith(_RETRY_FAULT):
                raise
            out.left_out.append(i)
        else:
            scale = float(np.percentile(s.image, 99.9))
            out.pairs.append((np.clip(s.image / scale, 0.0, 1.0).astype(np.float32), s.mask))
            out.raw.append(s.image)
            out.lookalike.append(s.meta["lookalike_mask"])
        i += 1
    return out


def write_dataset(pairs, out_dir) -> None:
    """Write pairs in the layout and encoding of `dgnet synth`: 16-bit images,
    8-bit masks and a manifest.tsv of relative paths."""
    images = data_io.ensure_dir(out_dir / "images")
    masks = data_io.ensure_dir(out_dir / "masks")
    lines = []
    for i, (image, mask) in enumerate(pairs):
        name = f"{i:05d}.pgm"
        data_io.write_pgm(image, images / name, bit_depth=16)
        data_io.write_pgm(mask.astype(np.float64), masks / name, bit_depth=8)
        lines.append(f"images/{name}\tmasks/{name}\n")
    (out_dir / "manifest.tsv").write_text("".join(lines))
