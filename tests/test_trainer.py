import gc
import math
import tracemalloc

import numpy as np
import pytest

from dgnet_lab import model as M
from dgnet_lab import speckle, trainer
from dgnet_lab.rng import Rng
from dgnet_lab.tensor import Tensor

SMALL_MODEL = M.ModelConfig(input_size=32, channels=(4, 8, 8, 16), latent_dim=6)


def tiny_dataset(n=4, size=32, seed=0):
    cfg = speckle.SceneConfig(size=size, seed=seed)
    master = Rng(seed)
    out = []
    for i in range(n):
        s = speckle.synth_scene(cfg, rng=master.split(("scene", i)))
        scale = np.percentile(s.image, 99.9)
        out.append((np.clip(s.image / scale, 0, 1).astype(np.float32), s.mask))
    return out


class TestTrainConfig:
    def test_defaults(self):
        cfg = trainer.TrainConfig()
        assert cfg.epochs == 160
        assert cfg.batch_size == 1
        assert cfg.learning_rate == pytest.approx(1e-4)
        assert cfg.beta == pytest.approx(1.0)

    @pytest.mark.parametrize("kwargs", [
        dict(epochs=0),
        dict(batch_size=0),
        dict(learning_rate=0.0),
        dict(beta=-0.5),
        dict(family="laplace"),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            trainer.TrainConfig(**kwargs)


class TestGraphRelease:
    def test_training_step_leaves_no_cyclic_garbage(self):
        # Backward consumes the graph, so a step's activations are freed by
        # reference counting and the cyclic collector finds nothing.
        net = M.DGNet(M.ModelConfig(input_size=32, channels=(4, 8, 8, 16), latent_dim=6,
                                    family="gauss"), seed=0)
        opt = trainer.Adam(net.params)
        rng = Rng(1)
        images = Tensor(rng.uniform((2, 1, 32, 32)).astype(np.float32))
        masks = Tensor((rng.uniform((2, 1, 32, 32)) < 0.3).astype(np.float32))
        noise = M.frozen_latent_noise(net, 2, rng.split("noise"))
        gc.collect()
        gc.disable()
        try:
            loss, kl, nll = M.elbo_loss(net, images, masks, noise, 1.0)
            opt.zero_grad()
            loss.backward()
            opt.step(1e-3)
            del loss, kl, nll
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_segment_leaves_no_cyclic_garbage(self):
        # Parameters require gradients, so segment builds a graph that no
        # backward consumes; it too is freed by reference counting.
        net = M.DGNet(SMALL_MODEL, seed=0)
        image = Rng(2).uniform((32, 32))
        stack = Rng(3).uniform((3, 32, 32))
        gc.collect()
        gc.disable()
        try:
            trainer.segment(net, image)
            trainer.segment(net, stack)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_zero_grad_reuses_gradient_buffers(self):
        p = Tensor(np.array([1.0, 2.0], np.float32), requires_grad=True)
        (p * p).sum().backward()
        buffer = p.grad
        opt = trainer.Adam({"p": p})
        opt.zero_grad()
        assert p.grad is buffer
        np.testing.assert_array_equal(buffer, [0.0, 0.0])


class TestAdam:
    def test_zero_gradients_leave_params_unchanged(self):
        p = Tensor(np.array([1.0, -2.0, 3.0], np.float32), requires_grad=True)
        p.grad = np.zeros(3, np.float32)
        opt = trainer.Adam({"p": p})
        before = p.data.copy()
        opt.step(0.1)
        np.testing.assert_array_equal(p.data, before)

    def test_first_step_magnitude_is_about_lr(self):
        # bias correction makes m_hat / sqrt(v_hat) ~ sign(g) on step one
        p = Tensor(np.array([0.0, 0.0], np.float32), requires_grad=True)
        p.grad = np.array([3.0, -0.004], np.float32)
        opt = trainer.Adam({"p": p})
        opt.step(0.01)
        np.testing.assert_allclose(np.abs(p.data), 0.01, rtol=1e-3)
        assert p.data[0] < 0 and p.data[1] > 0

    def test_converges_on_quadratic(self):
        p = Tensor(np.array([1.0], np.float32), requires_grad=True)
        opt = trainer.Adam({"p": p})
        for _ in range(100):
            p.grad = 2.0 * p.data
            opt.step(0.1)
        assert abs(float(p.data[0])) < 0.1

    def test_state_matches_reference_loop(self):
        # hand-rolled Adam with explicit m_hat / v_hat, against our folded form
        rng = Rng(21)
        x = rng.normal((5,)).astype(np.float32)
        p = Tensor(x.copy(), requires_grad=True)
        opt = trainer.Adam({"p": p})
        ref = x.astype(np.float64).copy()
        m = np.zeros(5)
        v = np.zeros(5)
        b1, b2, eps = 0.9, 0.999, 1e-8
        for t in range(1, 21):
            g = np.sin(ref) + 0.1 * ref
            p.grad = g.astype(np.float32)
            opt.step(0.01)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1 ** t)
            v_hat = v / (1 - b2 ** t)
            ref -= 0.01 * m_hat / (np.sqrt(v_hat) + eps)
            np.testing.assert_allclose(p.data, ref.astype(np.float32), atol=1e-5)

    def test_matches_op_by_op_adam_in_the_parameter_dtype(self):
        # Oracle: Adam on whole arrays, one op at a time, with Python-float
        # scalars, so every op runs in the parameter's dtype. The sizes span
        # the optimizer's block edges; gradients mix zeros, all-zero steps and
        # skipped (None) steps.
        sizes = {"one": (1, np.float32), "three": (3, np.float32),
                 "blocks": (2 * trainer._BLOCK + 5, np.float32), "wide": (7, np.float64)}
        rng = Rng(5)
        ref = {name: rng.normal((n,)).astype(dtype) for name, (n, dtype) in sizes.items()}
        params = {name: Tensor(x.copy(), requires_grad=True) for name, x in ref.items()}
        state = {name: (np.zeros_like(x), np.zeros_like(x)) for name, x in ref.items()}
        opt = trainer.Adam(params)
        lr = 1e-3
        for t in range(1, 31):
            for name, (n, dtype) in sizes.items():
                g = rng.normal((n,)) * (rng.uniform((n,)) < 0.6) * (t % 7 != 0)
                params[name].grad = None if name == "three" and t % 5 == 0 else g.astype(dtype)
            opt.step(lr)
            bc1 = 1.0 - 0.9 ** t
            sqrt_bc2 = math.sqrt(1.0 - 0.999 ** t)
            for name, p in params.items():
                if p.grad is None:
                    continue
                m, v = state[name]
                m = m * 0.9 + (1.0 - 0.9) * p.grad
                v = v * 0.999 + (1.0 - 0.999) * np.square(p.grad)
                ref[name] = ref[name] - m / (np.sqrt(v) + 1e-8 * sqrt_bc2) * (lr * sqrt_bc2 / bc1)
                state[name] = (m, v)
            for name, p in params.items():
                assert p.data.dtype == sizes[name][1]
                assert p.data.tobytes() == ref[name].tobytes(), (name, t)

    def test_step_allocates_no_arrays(self):
        net = M.DGNet(M.ModelConfig(input_size=64, family="exp"), seed=0)
        rng = Rng(6)
        for p in net.params.values():
            p.grad = (rng.normal(p.shape) * 1e-3).astype(np.float32)
        opt = trainer.Adam(net.params)
        tracemalloc.start()
        try:
            opt.step(1e-4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_wrong_gradient_shape_names_the_parameter(self):
        p = Tensor(np.zeros(3, np.float32), requires_grad=True)
        p.grad = np.zeros(4, np.float32)
        opt = trainer.Adam({"enc.w": p})
        with pytest.raises(ValueError, match="gradient shape mismatch for enc.w"):
            opt.step(0.1)

    def test_non_contiguous_parameter_is_updated_in_place(self):
        x = Rng(7).normal((3, 4)).astype(np.float32)
        p = Tensor(x.T, requires_grad=True)
        q = Tensor(np.ascontiguousarray(x.T), requires_grad=True)
        before = q.data.copy()
        opt_p, opt_q = trainer.Adam({"p": p}), trainer.Adam({"q": q})
        for _ in range(3):
            p.grad = np.sin(p.data)
            q.grad = np.sin(q.data)
            opt_p.step(0.1)
            opt_q.step(0.1)
        np.testing.assert_array_equal(p.data, q.data)
        assert not np.array_equal(p.data, before)
        assert np.shares_memory(p.data, x)


class TestTrain:
    def test_returns_one_record_per_epoch(self):
        data = tiny_dataset()
        model, recs = trainer.train(data, SMALL_MODEL,
                                    trainer.TrainConfig(epochs=3, seed=0))
        assert len(recs) == 3
        assert [r.epoch for r in recs] == [0, 1, 2]
        for r in recs:
            assert np.isfinite(r.loss) and r.kl >= 0.0

    def test_loss_is_nll_plus_beta_kl(self):
        data = tiny_dataset()
        beta = 0.25
        _, recs = trainer.train(data, SMALL_MODEL,
                                trainer.TrainConfig(epochs=2, seed=0, beta=beta))
        for r in recs:
            assert r.loss == pytest.approx(r.nll + beta * r.kl, rel=1e-5)

    def test_deterministic_given_seed(self):
        data = tiny_dataset()
        cfg = trainer.TrainConfig(epochs=2, seed=7)
        m1, r1 = trainer.train(data, SMALL_MODEL, cfg)
        m2, r2 = trainer.train(data, SMALL_MODEL, cfg)
        for (n1, p1), (n2, p2) in zip(m1.params.items(), m2.params.items()):
            assert n1 == n2
            np.testing.assert_array_equal(p1.data, p2.data)
        assert [(r.loss, r.kl, r.nll) for r in r1] == \
               [(r.loss, r.kl, r.nll) for r in r2]

    def test_loss_decreases_on_tiny_problem(self):
        data = tiny_dataset(n=8)
        _, recs = trainer.train(data, SMALL_MODEL,
                                trainer.TrainConfig(epochs=10, seed=0,
                                                    learning_rate=1e-3))
        assert recs[-1].loss < recs[0].loss

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            trainer.train([], SMALL_MODEL, trainer.TrainConfig(epochs=1))


class TestSegment:
    def test_probabilities_in_unit_interval_and_mask_binary(self):
        data = tiny_dataset()
        model, _ = trainer.train(data, SMALL_MODEL,
                                 trainer.TrainConfig(epochs=1, seed=0))
        prob, mask = trainer.segment(model, data[0][0])
        assert prob.shape == (32, 32) and mask.shape == (32, 32)
        assert prob.min() >= 0.0 and prob.max() <= 1.0
        assert set(np.unique(mask)) <= {0, 1}

    def test_threshold_semantics(self):
        data = tiny_dataset()
        model, _ = trainer.train(data, SMALL_MODEL,
                                 trainer.TrainConfig(epochs=1, seed=0))
        prob, mask = trainer.segment(model, data[0][0], threshold=0.5)
        np.testing.assert_array_equal(mask, (prob >= 0.5).astype(np.uint8))
        _, all_oil = trainer.segment(model, data[0][0], threshold=0.0)
        assert all_oil.all()

    def test_deterministic(self):
        data = tiny_dataset()
        model, _ = trainer.train(data, SMALL_MODEL,
                                 trainer.TrainConfig(epochs=1, seed=0))
        p1, m1 = trainer.segment(model, data[0][0])
        p2, m2 = trainer.segment(model, data[0][0])
        np.testing.assert_array_equal(p1, p2)
        np.testing.assert_array_equal(m1, m2)


class TestSegmentStack:
    @pytest.mark.parametrize("family", M.FAMILIES)
    def test_stack_matches_single_images_bitwise(self, family):
        # The 64 px architecture, whose dense layers are large enough that a
        # batched product could round differently from a single row.
        net = M.DGNet(M.ModelConfig(input_size=64, family=family), seed=1)
        images = Rng(4).uniform((11, 64, 64)).astype(np.float32)
        probs, masks = trainer.segment(net, images)
        assert probs.shape == masks.shape == (11, 64, 64)
        assert masks.dtype == np.uint8
        for k, image in enumerate(images):
            prob, mask = trainer.segment(net, image)
            assert prob.shape == mask.shape == (64, 64)
            assert probs[k].tobytes() == prob.tobytes()
            assert masks[k].tobytes() == mask.tobytes()

    @pytest.mark.parametrize("shape", [(32,), (1, 1, 32, 32)])
    def test_other_ranks_rejected(self, shape):
        with pytest.raises(ValueError, match="segment expects"):
            trainer.segment(M.DGNet(SMALL_MODEL, seed=0), np.zeros(shape))


class TestCurveCsv:
    def test_format(self):
        recs = [trainer.EpochRecord(epoch=1, loss=2.5, kl=1.0, nll=1.5),
                trainer.EpochRecord(epoch=2, loss=2.0, kl=0.75, nll=1.25)]
        text = trainer.curve_csv_text(recs)
        lines = text.strip().split("\n")
        assert lines[0] == "epoch,loss,kl,nll"
        assert lines[1].startswith("1,2.5,1,1.5")
        assert len(lines) == 3
