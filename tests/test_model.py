import dataclasses
import math

import numpy as np
import pytest

import dgnet_lab.tensor as T
from dgnet_lab import model as M
from dgnet_lab import speckle
from dgnet_lab.rng import Rng
from dgnet_lab.tensor import Tensor

SMALL = M.ModelConfig(input_size=32, channels=(4, 8, 8, 16), latent_dim=6, family="exp")


def rand_image(rng, n=1, size=32):
    return Tensor(rng.uniform((n, 1, size, size)).astype(np.float32))


def rand_mask(rng, n=1, size=32):
    return Tensor((rng.uniform((n, 1, size, size)) < 0.3).astype(np.float32))


class TestModelConfig:
    def test_defaults(self):
        cfg = M.ModelConfig()
        assert cfg.input_size == 256
        assert cfg.channels == (16, 32, 64, 128)
        assert cfg.latent_dim == 128

    def test_input_size_must_be_multiple_of_16(self):
        with pytest.raises(ValueError):
            M.ModelConfig(input_size=40)

    def test_family_validation(self):
        with pytest.raises(ValueError):
            M.ModelConfig(family="weird")

    def test_latent_dim_validation(self):
        with pytest.raises(ValueError):
            M.ModelConfig(latent_dim=0)

    def test_fixed_geometry_is_not_settable(self):
        cfg = M.ModelConfig()
        assert (cfg.kernel, cfg.stride, cfg.pad, cfg.leaky_slope) == (4, 2, 1, 0.2)
        assert [f.name for f in dataclasses.fields(cfg)] == [
            "input_size", "channels", "latent_dim", "family"]

    @pytest.mark.parametrize("kwargs", [dict(kernel=3), dict(stride=1), dict(pad=0),
                                        dict(leaky_slope=0.1), dict(kl_weight=0.5)])
    def test_removed_settings_rejected(self, kwargs):
        with pytest.raises(TypeError):
            M.ModelConfig(**kwargs)


class TestEncode:
    """Two latent channels for the Gaussian family, one for the exponential."""

    @pytest.mark.parametrize("family", M.FAMILIES)
    def test_channels_of_latent_dim(self, family):
        net = M.DGNet(dataclasses.replace(SMALL, family=family), seed=0)
        lp = net.encode(rand_image(Rng(1)), train=True)
        assert lp.c0.shape == (1, SMALL.latent_dim)
        if family == "gauss":
            assert lp.c1.shape == (1, SMALL.latent_dim)
        else:
            assert lp.c1 is None
        assert lp.family == family

    @pytest.mark.parametrize("family", M.FAMILIES)
    def test_deterministic(self, family):
        cfg = dataclasses.replace(SMALL, family=family)
        img = rand_image(Rng(2))
        a = M.DGNet(cfg, seed=0).encode(img, train=False)
        b = M.DGNet(cfg, seed=0).encode(img, train=False)
        assert np.array_equal(a.c0.data, b.c0.data)
        if family == "gauss":
            assert np.array_equal(a.c1.data, b.c1.data)
        else:
            assert a.c1 is None and b.c1 is None

    @pytest.mark.parametrize("family", M.FAMILIES)
    def test_finite_on_zero_image(self, family):
        net = M.DGNet(dataclasses.replace(SMALL, family=family), seed=0)
        lp = net.encode(Tensor(np.zeros((1, 1, 32, 32), np.float32)), train=True)
        assert np.all(np.isfinite(lp.c0.data))
        if family == "gauss":
            assert np.all(np.isfinite(lp.c1.data))
        else:
            assert lp.c1 is None

    def test_size_mismatch_rejected(self):
        net = M.DGNet(SMALL, seed=0)
        with pytest.raises(T.ShapeError):
            net.encode(Tensor(np.zeros((1, 1, 64, 64), np.float32)))


class TestEncoderHead:
    @pytest.mark.parametrize("family", M.FAMILIES)
    def test_one_step_reaches_every_head_column(self, family):
        # No head weight is left that no loss term reads.
        net = M.DGNet(dataclasses.replace(SMALL, family=family), seed=0)
        rng = Rng(8)
        img, mask = rand_image(rng.split("img"), n=2), rand_mask(rng.split("mask"), n=2)
        noise = M.frozen_latent_noise(net, 2, rng.split("noise"))
        M.elbo_loss(net, img, mask, noise, 1.0)[0].backward()
        grad = net.params["enc.fc.w"].grad
        assert grad.shape[1] == SMALL.latent_dim * (2 if family == "gauss" else 1)
        assert np.all(np.any(grad != 0, axis=0))

    def test_exp_head_is_the_c0_half_of_the_gauss_draw(self):
        exp = M.DGNet(SMALL, seed=5).state_tensors()
        gauss = M.DGNet(dataclasses.replace(SMALL, family="gauss"), seed=5).state_tensors()
        assert list(exp) == list(gauss)
        for name, arr in gauss.items():
            if name.startswith("enc.fc."):
                arr = arr[..., :SMALL.latent_dim]
            np.testing.assert_array_equal(exp[name], arr)

    @pytest.mark.parametrize("family", M.FAMILIES)
    @pytest.mark.parametrize("block", [1, 5, 1 << 30])
    def test_weights_do_not_depend_on_the_draw_block(self, monkeypatch, family, block):
        config = dataclasses.replace(SMALL, family=family)
        expected = M.DGNet(config, seed=5).state_tensors()
        monkeypatch.setattr(M, "_DRAW_BLOCK", block)
        got = M.DGNet(config, seed=5).state_tensors()
        assert all(got[name].tobytes() == arr.tobytes() for name, arr in expected.items())

    @pytest.mark.parametrize("family, count", [("exp", 872_097), ("gauss", 1_134_369)])
    def test_parameter_count_at_64_px(self, family, count):
        net = M.DGNet(M.ModelConfig(input_size=64, family=family))
        assert sum(p.data.size for p in net.params.values()) == count


class TestStateConstructor:
    def test_wraps_the_given_arrays(self):
        state = M.DGNet(SMALL, seed=2).state_tensors()
        net = M.DGNet(SMALL, state=state)
        assert list(net.state_tensors()) == list(state)
        assert all(arr is state[name] for name, arr in net.state_tensors().items())
        assert all(p.requires_grad for p in net.params.values())
        assert list(net.buffers) == [name for name in state
                                     if name.endswith((".running_mean", ".running_var"))]


class TestDecode:
    def test_output_in_open_unit_interval(self):
        net = M.DGNet(SMALL, seed=0)
        z = Tensor(Rng(3).normal((2, SMALL.latent_dim)).astype(np.float32) * 5)
        out = net.decode(z, train=False)
        assert out.data.min() > 0.0
        assert out.data.max() < 1.0

    def test_shape_inverse_of_encode(self):
        for size in (32, 64):
            cfg = M.ModelConfig(input_size=size, channels=(4, 8, 8, 16), latent_dim=6)
            net = M.DGNet(cfg, seed=0)
            img = rand_image(Rng(4), size=size)
            lp = net.encode(img, train=True)
            z = M.sample_latent(lp, M.frozen_latent_noise(net, 1, Rng(5)))
            out = net.decode(z, train=True)
            assert out.shape == img.shape

    def test_deterministic(self):
        net = M.DGNet(SMALL, seed=0)
        z = Tensor(Rng(6).normal((1, SMALL.latent_dim)).astype(np.float32))
        assert np.array_equal(net.decode(z, train=False).data,
                              net.decode(z, train=False).data)

    def test_dimension_mismatch_rejected(self):
        net = M.DGNet(SMALL, seed=0)
        with pytest.raises(T.ShapeError):
            net.decode(Tensor(np.zeros((1, SMALL.latent_dim + 1), np.float32)))


class TestSampleLatent:
    def test_gauss_zero_noise_limit(self):
        c0 = Tensor(np.array([[0.3, -1.2]], np.float32))
        c1 = Tensor(np.full((1, 2), -50.0, np.float32))  # clamped to -6
        lp = M.LatentParams(c0=c0, c1=c1, family="gauss")
        z = M.sample_latent(lp, Rng(7).normal((1, 2)))
        np.testing.assert_allclose(z.data, c0.data, atol=0.02)

    def test_exp_inverse_cdf_point(self):
        c0 = Tensor(np.array([[0.4]], np.float32))
        lp = M.LatentParams(c0=c0, c1=Tensor(np.zeros((1, 1), np.float32)), family="exp")
        u = np.array([[1.0 - math.exp(-1.0)]])
        z = M.sample_latent(lp, u)
        assert z.data[0, 0] == pytest.approx(math.exp(0.4), rel=1e-5)

    def test_exp_empirical_mean(self):
        n = 100_000
        c0 = Tensor(np.full((n, 1), 0.7, np.float32))
        lp = M.LatentParams(c0=c0, c1=Tensor(np.zeros((n, 1), np.float32)), family="exp")
        z = M.sample_latent(lp, Rng(8).uniform((n, 1)))
        assert z.data.mean() == pytest.approx(math.exp(0.7), rel=0.02)

    def test_gradient_flows_to_c0(self):
        c0 = Tensor(np.array([[0.1, 0.2]], np.float32), requires_grad=True)
        c1 = Tensor(np.array([[0.0, 0.0]], np.float32), requires_grad=True)
        lp = M.LatentParams(c0=c0, c1=c1, family="exp")
        M.sample_latent(lp, Rng(9).uniform((1, 2))).sum().backward()
        assert c0.grad is not None and np.all(c0.grad != 0)
        assert c1.grad is None  # exp family never touches channel 1


class TestKlTerm:
    def test_gauss_at_prior_is_zero(self):
        lp = M.LatentParams(c0=Tensor(np.zeros((2, 4), np.float32)),
                            c1=Tensor(np.zeros((2, 4), np.float32)), family="gauss")
        assert M.kl_term(lp).item() == pytest.approx(0.0, abs=1e-7)

    def test_exp_at_prior_is_zero_and_m2_value(self):
        lp = M.LatentParams(c0=Tensor(np.zeros((1, 1), np.float32)),
                            c1=Tensor(np.zeros((1, 1), np.float32)), family="exp")
        assert M.kl_term(lp).item() == pytest.approx(0.0, abs=1e-7)
        lp2 = M.LatentParams(c0=Tensor(np.full((1, 1), math.log(2.0), np.float32)),
                             c1=Tensor(np.zeros((1, 1), np.float32)), family="exp")
        assert M.kl_term(lp2).item() == pytest.approx(
            1.0 - math.log(2.0), rel=1e-5)

    def test_exp_family_matches_speckle_closed_form(self):
        # KL(Exp(1/m) || Exp(1)) computed by the tensor graph must match the
        # scalar closed form on the induced rates.
        rng = Rng(10)
        for _ in range(50):
            log_m = float(rng.uniform() * 8 - 4)
            lp = M.LatentParams(c0=Tensor(np.full((1, 1), log_m, np.float32)),
                                c1=Tensor(np.zeros((1, 1), np.float32)), family="exp")
            got = M.kl_term(lp).item()
            want = speckle.exp_kl(speckle.ExponentialModel(rate=math.exp(-log_m)),
                                  speckle.ExponentialModel(rate=1.0))
            assert got == pytest.approx(want, rel=1e-4, abs=1e-6)

    def test_exp_kl_monte_carlo_cross_check(self):
        m = 2.0
        q_rate = 1.0
        p = speckle.ExponentialModel(rate=1.0 / m)
        x = speckle.exp_sample(p, Rng(11), 1_000_000)
        mc = np.mean(np.log(p.rate) - p.rate * x - (np.log(q_rate) - q_rate * x))
        assert mc == pytest.approx(1.0 - math.log(2.0), abs=5e-3)

    def test_non_negative_over_random_params(self):
        rng = Rng(12)
        for family in ("gauss", "exp"):
            c0 = (rng.uniform((1000, 1)) * 8 - 4).astype(np.float32)
            c1 = (rng.uniform((1000, 1)) * 8 - 4).astype(np.float32)
            for i in range(1000):
                lp = M.LatentParams(c0=Tensor(c0[i:i + 1]), c1=Tensor(c1[i:i + 1]),
                                    family=family)
                assert M.kl_term(lp).item() >= 0.0


class TestSegNll:
    def test_perfect_prediction_hits_clamp_floor(self):
        y = np.array([[[[1.0, 0.0], [0.0, 1.0]]]], np.float32)
        loss = M.seg_nll(Tensor(y.copy()), Tensor(y))
        assert loss.item() == pytest.approx(-math.log(1.0 - 1e-7), rel=0.35)

    def test_uniform_half(self):
        y = Tensor((Rng(13).uniform((1, 1, 4, 4)) < 0.5).astype(np.float32))
        p = Tensor(np.full((1, 1, 4, 4), 0.5, np.float32))
        assert M.seg_nll(p, y).item() == pytest.approx(math.log(2.0), rel=1e-5)

    def test_matches_scalar_oracle(self):
        rng = Rng(14)
        y = (rng.uniform((2, 1, 4, 4)) < 0.4).astype(np.float64)
        p = np.clip(rng.uniform((2, 1, 4, 4)), 0.01, 0.99)
        want = np.mean([-(yi * math.log(pi) + (1 - yi) * math.log(1 - pi))
                        for yi, pi in zip(y.ravel(), p.ravel())])
        got = M.seg_nll(Tensor(p), Tensor(y)).item()
        assert got == pytest.approx(want, rel=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(T.ShapeError):
            M.seg_nll(Tensor(np.full((1, 1, 2, 2), 0.5)), Tensor(np.zeros((1, 1, 3, 3))))


class TestElboLoss:
    def test_beta_zero_reduces_to_nll(self):
        net = M.DGNet(SMALL, seed=0)
        rng = Rng(15)
        noise = M.frozen_latent_noise(net, 1, rng)
        loss, kl, nll = M.elbo_loss(net, rand_image(rng), rand_mask(rng), noise, 0.0)
        assert loss.item() == pytest.approx(nll.item(), rel=1e-6)

    def test_loss_at_least_nll(self):
        net = M.DGNet(SMALL, seed=0)
        rng = Rng(16)
        noise = M.frozen_latent_noise(net, 1, rng)
        loss, kl, nll = M.elbo_loss(net, rand_image(rng), rand_mask(rng), noise, 1.0)
        assert kl.item() >= 0.0
        assert loss.item() >= nll.item() - 1e-6

    @pytest.mark.parametrize("family", ["exp", "gauss"])
    def test_full_loss_gradients_match_finite_differences(self, family):
        cfg = M.ModelConfig(input_size=16, channels=(2, 3, 3, 4), latent_dim=3,
                            family=family)
        net = M.DGNet(cfg, seed=1)
        rng = Rng(17)
        image = rng.uniform((1, 1, 16, 16))
        mask = (rng.uniform((1, 1, 16, 16)) < 0.3).astype(np.float64)
        err = M.grad_check(net, image, mask, rng=rng)
        assert err < 1e-3


class TestPointEstimate:
    def test_gauss_uses_location(self):
        net = M.DGNet(M.ModelConfig(input_size=32, channels=(4, 8, 8, 16),
                                    latent_dim=6, family="gauss"), seed=0)
        lp = net.encode(rand_image(Rng(19)), train=False)
        z = M.latent_point_estimate(lp)
        np.testing.assert_array_equal(z.data, lp.c0.data)

    def test_exp_uses_posterior_mean(self):
        net = M.DGNet(SMALL, seed=0)
        lp = net.encode(rand_image(Rng(20)), train=False)
        z = M.latent_point_estimate(lp)
        np.testing.assert_allclose(z.data, np.exp(np.clip(lp.c0.data, -6, 6)), rtol=1e-6)
