import math

import numpy as np
import pytest

from dgnet_lab import speckle
from dgnet_lab.rng import Rng
from dgnet_lab.speckle import (ExponentialModel, SceneConfig, exp_fit_mle,
                               exp_kl, exp_sample, synth_scene)


class TestExponentialModel:
    def test_rate_must_be_positive(self):
        with pytest.raises(ValueError):
            ExponentialModel(rate=0.0)
        with pytest.raises(ValueError):
            ExponentialModel(rate=-1.0)

    def test_mean_is_inverse_rate(self):
        assert ExponentialModel(rate=4.0).mean == pytest.approx(0.25)


class TestSample:
    def test_inverse_cdf_algebra(self):
        # u = 1 - e^-1 maps to x = 1/rate exactly
        rate = 2.5
        u = 1.0 - math.exp(-1.0)
        x = -math.log1p(-u) / rate
        assert x == pytest.approx(1.0 / rate)

    def test_sample_mean(self):
        samples = exp_sample(ExponentialModel(rate=3.0), Rng(1), 100_000)
        assert np.all(samples >= 0)
        assert samples.mean() == pytest.approx(1.0 / 3.0, rel=0.02)

    def test_sample_std_matches_mean(self):
        samples = exp_sample(ExponentialModel(rate=0.7), Rng(2), 100_000)
        assert samples.std() == pytest.approx(samples.mean(), rel=0.03)

    def test_n_validation(self):
        with pytest.raises(ValueError):
            exp_sample(ExponentialModel(rate=1.0), Rng(0), 0)


class TestFit:
    def test_constant_samples(self):
        fit = exp_fit_mle(np.full(10, 4.0))
        assert fit.rate == pytest.approx(0.25)

    def test_single_sample(self):
        assert exp_fit_mle([2.0]).rate == pytest.approx(0.5)

    def test_monte_carlo_recovery(self):
        true = ExponentialModel(rate=3.0)
        fit = exp_fit_mle(exp_sample(true, Rng(3), 100_000))
        assert fit.rate == pytest.approx(3.0, rel=0.02)

    def test_rejects_empty_and_all_zero(self):
        with pytest.raises(ValueError):
            exp_fit_mle([])
        with pytest.raises(ValueError):
            exp_fit_mle([0.0, 0.0])
        with pytest.raises(ValueError):
            exp_fit_mle([-1.0, 2.0])


class TestKl:
    def test_identical_is_zero(self):
        m = ExponentialModel(rate=2.3)
        assert exp_kl(m, m) == pytest.approx(0.0)

    def test_closed_form_value(self):
        got = exp_kl(ExponentialModel(rate=2.0), ExponentialModel(rate=1.0))
        assert got == pytest.approx(math.log(2.0) - 0.5, abs=1e-12)

    def test_closed_form_vs_monte_carlo(self):
        p = ExponentialModel(rate=2.0)
        q = ExponentialModel(rate=1.0)
        x = exp_sample(p, Rng(4), 1_000_000)
        mc = np.mean(np.log(p.rate) - p.rate * x - (np.log(q.rate) - q.rate * x))
        assert exp_kl(p, q) == pytest.approx(mc, abs=5e-3)

    def test_non_negative_over_random_pairs(self):
        rng = Rng(5)
        rates = 10.0 ** (rng.uniform((1000, 2)) * 4 - 2)
        for rp, rq in rates:
            kl = exp_kl(ExponentialModel(rate=rp), ExponentialModel(rate=rq))
            assert kl >= 0.0
            if abs(rp - rq) > 1e-6:
                assert kl > 0.0


class TestSceneConfig:
    def test_defaults_valid(self):
        SceneConfig()

    def test_contrast_validation(self):
        with pytest.raises(ValueError):
            SceneConfig(oil_contrast=1.0)
        with pytest.raises(ValueError):
            SceneConfig(lookalike_contrast=9.0)  # must stay below oil_contrast
        with pytest.raises(ValueError):
            SceneConfig(mask_fraction_bounds=(0.4, 0.1))


class TestSynthScene:
    def test_oil_region_mean(self):
        cfg = SceneConfig(size=256, oil_contrast=5.0, seed=10,
                          mask_fraction_bounds=(0.15, 0.35))
        scene = synth_scene(cfg)
        oil_mean = scene.image[scene.mask == 1].mean()
        assert oil_mean == pytest.approx(0.2, rel=0.05)

    def test_no_lookalike_when_prob_zero(self):
        cfg = SceneConfig(size=64, lookalike_prob=0.0, seed=11)
        scene = synth_scene(cfg)
        assert not scene.meta["has_lookalike"]
        assert scene.meta["lookalike_fraction"] == 0.0

    def test_determinism(self):
        cfg = SceneConfig(size=64, lookalike_prob=0.5, seed=12)
        a, b = synth_scene(cfg), synth_scene(cfg)
        assert np.array_equal(a.image, b.image)
        assert np.array_equal(a.mask, b.mask)

    def test_intensities_non_negative_and_fraction_in_bounds(self):
        cfg = SceneConfig(size=96, seed=13)
        scene = synth_scene(cfg)
        assert scene.image.min() >= 0.0
        lo, hi = cfg.mask_fraction_bounds
        assert lo <= scene.mask.mean() <= hi

    @pytest.mark.parametrize("seed, index", [(43, 643), (40, 336), (40, 1658)])
    def test_scene_that_exhausts_blob_retries(self, seed, index):
        # Each draws a one-layer blob target within a pixel of a fraction
        # bound (scene 336: the look-alike's), so all 30 retries miss.
        cfg = SceneConfig(size=64, lookalike_prob=0.3, seed=seed)
        scene = synth_scene(cfg, rng=Rng(seed).split(("scene", index)))
        lo, hi = cfg.mask_fraction_bounds
        assert lo <= scene.mask.mean() <= hi
        assert not (scene.meta["lookalike_mask"] & (scene.mask == 1)).any()

    def test_region_mean_ordering_with_lookalikes(self):
        checked = 0
        for seed in range(14, 24):
            cfg = SceneConfig(size=256, lookalike_prob=1.0, lookalike_contrast=2.0,
                              oil_contrast=6.0, seed=seed)
            scene = synth_scene(cfg)
            la = scene.meta["lookalike_mask"]
            if la.mean() < 0.005:
                continue
            oil = scene.mask == 1
            sea = (scene.mask == 0) & ~la
            assert scene.image[oil].mean() < scene.image[la].mean() < scene.image[sea].mean()
            checked += 1
        assert checked >= 3

    def test_lookalike_pixels_labeled_background(self):
        for seed in range(30, 40):
            scene = synth_scene(SceneConfig(size=64, lookalike_prob=1.0, seed=seed))
            la = scene.meta["lookalike_mask"]
            if la.any():
                assert not scene.mask[la].any()
                return
        pytest.fail("no scene produced a look-alike region")


class TestSynthDataset:
    def test_zero_count(self, tmp_path):
        manifest = speckle.synth_dataset(SceneConfig(size=32, seed=1), 0, tmp_path)
        assert (tmp_path / "manifest.tsv").read_text() == ""
        assert manifest.endswith("manifest.tsv")

    def test_files_and_manifest(self, tmp_path):
        manifest = speckle.synth_dataset(SceneConfig(size=32, seed=2), 5, tmp_path)
        lines = (tmp_path / "manifest.tsv").read_text().splitlines()
        assert len(lines) == 5
        for line in lines:
            img_rel, mask_rel = line.split("\t")
            assert (tmp_path / img_rel).exists()
            assert (tmp_path / mask_rel).exists()
        meta = (tmp_path / "meta.txt").read_text().splitlines()
        assert len(meta) == 6  # header + one scale line per sample

    def test_regeneration_is_byte_identical(self, tmp_path):
        cfg = SceneConfig(size=32, seed=3, lookalike_prob=0.5)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        speckle.synth_dataset(cfg, 3, d1)
        speckle.synth_dataset(cfg, 3, d2)
        for rel in ["manifest.tsv", "meta.txt", "images/00001.pgm", "masks/00002.pgm"]:
            assert (d1 / rel).read_bytes() == (d2 / rel).read_bytes()
