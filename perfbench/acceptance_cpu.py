"""CPU time of the full acceptance run: 60 batch-1 exp epochs on 200 scenes,
then segment and score the 40 held-out scenes (the protocol of
tests/test_acceptance.py::_run_benchmark, BENCH_SEED 42).

    python3 perfbench/acceptance_cpu.py

Prints one JSON line. Takes about five minutes on one core.
"""

from __future__ import annotations

import json
import resource
import time

import bootstrap

EPOCHS = 60
SEED = 42


def main() -> None:
    bootstrap.pin_threads()
    bootstrap.import_dgnet_lab()
    from dgnet_lab import metrics, trainer
    from dgnet_lab import model as M

    import scenes
    from workloads import HELDOUT_SCENES, TRAIN_SCENES

    generated = scenes.bench_scenes(SEED, TRAIN_SCENES + HELDOUT_SCENES).pairs
    train, heldout = generated[:TRAIN_SCENES], generated[TRAIN_SCENES:]
    cpu0, wall0 = time.process_time(), time.perf_counter()
    model, records = trainer.train(
        train, M.ModelConfig(input_size=scenes.SIZE, family="exp"),
        trainer.TrainConfig(epochs=EPOCHS, batch_size=1, learning_rate=1e-4, beta=1.0,
                            family="exp", seed=SEED))
    train_cpu, train_wall = time.process_time() - cpu0, time.perf_counter() - wall0
    _, pooled, _ = metrics.batch_eval([(gt, trainer.segment(model, image)[1])
                                       for image, gt in heldout])
    print(json.dumps({
        "epochs": EPOCHS,
        "train_cpu_s": train_cpu,
        "train_wall_s": train_wall,
        "total_cpu_s": time.process_time() - cpu0,
        "final_loss": records[-1].loss,
        "heldout_pixel_accuracy": pooled.accuracy,
        "heldout_iou": pooled.iou,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }))


if __name__ == "__main__":
    main()
