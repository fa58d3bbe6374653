"""sha256 fingerprints of three seeded training runs, so that a claim of
byte-identical (or of declared-changed) outputs is one command:

    python3 scripts/fingerprint.py

Each run trains on the first 200 benchmark scenes of seed 42 (the acceptance
suite's training scenes, from perfbench/scenes.py) with lr 1e-4 and beta 1,
then segments the next 40 (the held-out scenes):

- exp-b1-e2: exp family, batch 1, 2 epochs (perfbench's train-b1-exp round);
- exp-b8-e5: exp family, batch 8, 5 epochs (cli-pipeline's training);
- gauss-b8-e6: Gaussian family, batch 8, 6 epochs (train-b8-gauss's round).

For each run it prints the sha256 of the checkpoint file, of the curve CSV
and of the held-out masks (the uint8 bytes of each mask, in scene order, as
perfbench digests a segment pass), then the final training loss. BLAS is
pinned to one thread and dgnet_lab is imported from this checkout's `src/`.
Takes about half a minute on one core.
"""

from __future__ import annotations

import hashlib
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


def main() -> None:
    bootstrap.pin_threads()
    bootstrap.import_dgnet_lab()
    from dgnet_lab import model as M
    from dgnet_lab import trainer

    import scenes

    pairs = scenes.bench_scenes(SEED, TRAIN_SCENES + HELDOUT_SCENES).pairs
    train, heldout = pairs[:TRAIN_SCENES], pairs[TRAIN_SCENES:]
    for name, family, batch, epochs in RUNS:
        with tempfile.TemporaryDirectory() as tmp:
            curve, ckpt = Path(tmp) / "curve.csv", Path(tmp) / "model.dgnt"
            model, records = trainer.train(
                train, M.ModelConfig(input_size=scenes.SIZE, family=family),
                trainer.TrainConfig(epochs=epochs, batch_size=batch, learning_rate=1e-4,
                                    beta=1.0, family=family, seed=SEED,
                                    curve_path=str(curve), checkpoint_path=str(ckpt)))
            masks = hashlib.sha256()
            for image, _ in heldout:
                masks.update(trainer.segment(model, image)[1].tobytes())
            print(f"{name} checkpoint {hashlib.sha256(ckpt.read_bytes()).hexdigest()} "
                  f"curve {hashlib.sha256(curve.read_bytes()).hexdigest()} "
                  f"masks {masks.hexdigest()} final_loss {float(records[-1].loss)!r}", flush=True)


if __name__ == "__main__":
    main()
