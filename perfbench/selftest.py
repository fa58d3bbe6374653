"""Self-test of the benchmark's checks.

    python3 perfbench/selftest.py

Each check must pass on a correct output of a small model and fail on the
same output with one deliberate fault. Takes a few seconds; exits 1 if any
check misses its fault or rejects a correct output.
"""

from __future__ import annotations

import os
import shutil
import sys

import bootstrap


def main() -> int:
    bootstrap.pin_threads()
    bootstrap.import_dgnet_lab()

    import checks
    import scenes
    from dgnet_lab import data_io, metrics, trainer
    from dgnet_lab import model as M

    work = bootstrap.WORK / "work" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    generated = scenes.bench_scenes(1, 20)
    train, heldout = generated[:16], generated[16:]
    net, records = trainer.train(
        train.pairs, M.ModelConfig(input_size=scenes.SIZE, channels=(4, 8, 8, 16), latent_dim=8),
        trainer.TrainConfig(epochs=3, batch_size=4, learning_rate=1e-3, seed=1))
    rows = [(r.epoch, r.loss, r.kl, r.nll) for r in records]
    images = [image for image, _ in heldout.pairs]
    gts = [gt for _, gt in heldout.pairs]
    segmented = [trainer.segment(net, image) for image in images]
    probs, preds = [p for p, _ in segmented], [m for _, m in segmented]
    _, pooled, _ = metrics.batch_eval(list(zip(gts, preds)))
    c = pooled.counts
    ckpt, resaved = work / "model.dgnt", work / "resaved.dgnt"
    data_io.save_checkpoint(net, ckpt)
    expected = data_io.checkpoint_bytes(net)
    corrupt = bytearray(expected)
    corrupt[len(corrupt) // 2] ^= 0x01
    state = net.state_tensors()
    perturbed = dict(state)
    perturbed["dec.deconv3.w"] = state["dec.deconv3.w"].copy()
    perturbed["dec.deconv3.w"][0, 0, 1, 1] += 0.01
    flipped = [m.copy() for m in preds]
    flipped[0][0, 0] ^= 1
    masks = [m for _, m in train.pairs]
    empty = [m.copy() for m in masks]
    empty[0][:] = 0

    def write_corrupt():
        ckpt.write_bytes(bytes(corrupt))
        checks.check_checkpoint(data_io, ckpt, resaved, expected=expected)

    # (name, check on the correct output, the same check on a faulty output)
    cases = [
        ("curve row", lambda: checks.check_curve(rows, 1.0),
         lambda: checks.check_curve(rows[:1] + [(rows[1][0], rows[1][1] * 1.0001) + rows[1][2:]]
                                    + rows[2:], 1.0)),
        ("checkpoint byte", lambda: checks.check_checkpoint(data_io, ckpt, resaved, expected),
         write_corrupt),
        ("reference weight", lambda: checks.check_reference(state, net.config, images, probs),
         lambda: checks.check_reference(perturbed, net.config, images, probs)),
        ("mask pixel", lambda: checks.check_confusion(gts, preds, (c.tp, c.fp, c.fn, c.tn),
                                                      pooled.accuracy, pooled.iou, pooled.f1),
         lambda: checks.check_confusion(gts, flipped, (c.tp, c.fp, c.fn, c.tn),
                                        pooled.accuracy, pooled.iou, pooled.f1)),
        ("mask fraction", lambda: checks.check_mask_fractions(masks, (0.05, 0.30)),
         lambda: checks.check_mask_fractions(empty, (0.05, 0.30))),
        ("contrast", lambda: checks.check_contrast(train.raw, masks, train.lookalike, 5.0),
         lambda: checks.check_contrast(train.raw, masks, train.lookalike, 4.5)),
    ]
    bad = 0
    try:
        for name, good, faulty in cases:
            try:
                good()
            except checks.CheckFailed as exc:
                print(f"FAIL {name}: rejects a correct output: {exc}")
                bad += 1
                continue
            try:
                faulty()
            except checks.CheckFailed as exc:
                print(f"ok   {name}: {exc}")
            else:
                print(f"FAIL {name}: accepts a faulty output")
                bad += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
