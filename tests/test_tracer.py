"""The benchmark's span tracer still fits the engine.

perfbench/tracer.py patches dgnet_lab's ops, methods and functions by name
and wraps each op's zero-argument `_backward_fn`. A rename or a change of that
contract breaks the traced benchmark; this test breaks first.
"""

from pathlib import Path

import numpy as np

from dgnet_lab import model as M
from dgnet_lab import trainer
from dgnet_lab.rng import Rng

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_records_backward_and_adam_spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    rng = Rng(0)
    data = [(rng.uniform((16, 16)).astype(np.float32),
             (rng.uniform((16, 16)) < 0.3).astype(np.uint8)) for _ in range(4)]
    tracer = Tracer()
    tracer.install()
    try:
        net, _ = trainer.train(
            data, M.ModelConfig(input_size=16, channels=(2, 2, 2, 2), latent_dim=2),
            trainer.TrainConfig(epochs=1, batch_size=2, learning_rate=1e-3))
        trainer.segment(net, data[0][0])
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert {"tensor.conv2d.bwd", "trainer.adam_step", "trainer.segment"} <= names
    assert len(tracer.step_spans) == 2
