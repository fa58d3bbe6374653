"""sha256 fingerprints of a seeded synthetic dataset, three seeded training
runs and two gradient-check values, so that a claim of byte-identical (or of
declared-changed) outputs is one command:

    python3 scripts/fingerprint.py

It first runs `dgnet synth --count 30 --size 64 --seed 42 --lookalike-prob
0.3` through `cli.cli` and prints two hashes: `synth` of the images, masks and
manifest together (each file's relative path and bytes, in sorted path order)
and `synth_meta` of `meta.txt` alone, so that a change to that file's header
shows by itself.

Each run trains on the first 200 benchmark scenes of seed 42 (the acceptance
suite's training scenes, from perfbench/scenes.py) with lr 1e-4 and beta 1,
then segments the next 40 (the held-out scenes):

- exp-b1-e2: exp family, batch 1, 2 epochs (perfbench's train-b1-exp round);
- exp-b8-e5: exp family, batch 8, 5 epochs (cli-pipeline's training);
- gauss-b8-e6: Gaussian family, batch 8, 6 epochs (train-b8-gauss's round).

For each run it prints the sha256 of the checkpoint file, of the curve CSV
and of the held-out masks (the uint8 bytes of each mask, in scene order, as
perfbench digests a segment pass), then the final training loss. The masks
are hashed three times: segmented one image at a time (`masks`), as one
stack of all 40 (`masks_stack40`) and in the groups of 8 that `dgnet
segment` runs (`masks_groups8`). The three must be equal, since a mask does
not depend on its stack; the script exits 1 if they are not. It also exits
1 if loading the checkpoint and saving it again does not give the same bytes.

It then prints the repr of `model.grad_check` (the max relative error between
analytic and central-difference gradients) for two setups:

- gradcheck-seed0: `dgnet gradcheck` at its default seed 0;
- criterion-3: the acceptance suite's criterion 3 (model seed 1, rng seed 3).

BLAS is pinned to one thread and dgnet_lab is imported from this checkout's
`src/`. Takes about a minute on one core.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import bootstrap  # noqa: E402

SEED = 42
TRAIN_SCENES = 200
HELDOUT_SCENES = 40
RUNS = (("exp-b1-e2", "exp", 1, 2), ("exp-b8-e5", "exp", 8, 5), ("gauss-b8-e6", "gauss", 8, 6))
# (name, model seed, rng seed) of each gradient check
GRAD_CHECKS = (("gradcheck-seed0", 0, 0), ("criterion-3", 1, 3))


def main() -> None:
    bootstrap.pin_threads()
    bootstrap.import_dgnet_lab()
    import numpy as np
    from dgnet_lab import model as M
    from dgnet_lab import cli, data_io, trainer
    from dgnet_lab.rng import Rng

    import scenes

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.cli(["synth", "--out", str(out), "--count", "30", "--size", "64",
                            "--seed", str(SEED), "--lookalike-prob", "0.3"])
        if code != 0:
            sys.exit(f"dgnet synth exited {code}")
        dataset = hashlib.sha256()
        for path in sorted(p for p in out.rglob("*") if p.is_file() and p.name != "meta.txt"):
            dataset.update(path.relative_to(out).as_posix().encode() + b"\0")
            dataset.update(path.read_bytes())
        meta = hashlib.sha256((out / "meta.txt").read_bytes()).hexdigest()
        print(f"synth {dataset.hexdigest()} synth_meta {meta}", flush=True)

    pairs = scenes.bench_scenes(SEED, TRAIN_SCENES + HELDOUT_SCENES).pairs
    train, heldout = pairs[:TRAIN_SCENES], pairs[TRAIN_SCENES:]
    mismatched, unstable = [], []
    for name, family, batch, epochs in RUNS:
        with tempfile.TemporaryDirectory() as tmp:
            curve, ckpt = Path(tmp) / "curve.csv", Path(tmp) / "model.dgnt"
            model, records = trainer.train(
                train, M.ModelConfig(input_size=scenes.SIZE, family=family),
                trainer.TrainConfig(epochs=epochs, batch_size=batch, learning_rate=1e-4,
                                    beta=1.0, family=family, seed=SEED,
                                    curve_path=str(curve), checkpoint_path=str(ckpt)))
            images = np.stack([image for image, _ in heldout])
            single = _digest(trainer.segment(model, image)[1] for image in images)
            stack = _digest(trainer.segment(model, images)[1])
            step = cli._SEGMENT_BATCH
            groups = _digest(np.concatenate([trainer.segment(model, images[lo:lo + step])[1]
                                             for lo in range(0, len(images), step)]))
            print(f"{name} checkpoint {hashlib.sha256(ckpt.read_bytes()).hexdigest()} "
                  f"curve {hashlib.sha256(curve.read_bytes()).hexdigest()} "
                  f"masks {single} masks_stack40 {stack} masks_groups8 {groups} "
                  f"final_loss {float(records[-1].loss)!r}", flush=True)
            if not single == stack == groups:
                mismatched.append(name)
            if data_io.checkpoint_bytes(data_io.load_checkpoint(ckpt)) != ckpt.read_bytes():
                unstable.append(name)
    config = M.ModelConfig(input_size=16, channels=(4, 8, 8, 16), latent_dim=8, family="exp")
    for name, model_seed, rng_seed in GRAD_CHECKS:
        rng = Rng(rng_seed)
        image = rng.split("image").uniform((1, 1, 16, 16))
        mask = (rng.split("mask").uniform((1, 1, 16, 16)) < 0.3).astype(np.float64)
        err = M.grad_check(M.DGNet(config, seed=model_seed), image, mask, rng=rng)
        print(f"{name} max_rel_error {err!r}", flush=True)
    if mismatched:
        sys.exit(f"masks depend on their stack in {', '.join(mismatched)}")
    if unstable:
        sys.exit(f"save(load(checkpoint)) changes the bytes in {', '.join(unstable)}")


def _digest(masks) -> str:
    h = hashlib.sha256()
    for mask in masks:
        h.update(mask.tobytes())
    return h.hexdigest()


if __name__ == "__main__":
    main()
