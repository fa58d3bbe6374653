"""End-to-end acceptance suite.

Each test prints a one-line verdict with the measured numbers so a plain
`pytest -v -s` run doubles as a report. The three long tests share two
session-scoped 60-epoch training runs (exponential and Gaussian families)
plus a repeat run for the determinism check.
"""

import math
import time

import numpy as np
import pytest

from dgnet_lab import data_io, metrics, speckle, trainer
from dgnet_lab import model as M
from dgnet_lab.rng import Rng
from dgnet_lab.tensor import Tensor

BENCH_SEED = 42
BENCH_SIZE = 64
BENCH_TRAIN = 200
BENCH_TEST = 40
BENCH_EPOCHS = 60


def _bench_scenes(start, count):
    cfg = speckle.SceneConfig(size=BENCH_SIZE, oil_contrast=5.0,
                              lookalike_prob=0.3, seed=BENCH_SEED)
    master = Rng(cfg.seed)
    out = []
    for i in range(start, start + count):
        s = speckle.synth_scene(cfg, rng=master.split(("scene", i)))
        scale = float(np.percentile(s.image, 99.9))
        out.append((np.clip(s.image / scale, 0.0, 1.0).astype(np.float32), s.mask))
    return out


def _run_benchmark(family, out_dir):
    """One full train + segment pass; returns a dict of artifacts."""
    out_dir.mkdir(parents=True, exist_ok=True)
    train_data = _bench_scenes(0, BENCH_TRAIN)
    test_data = _bench_scenes(BENCH_TRAIN, BENCH_TEST)
    curve_path = out_dir / "curve.csv"
    ckpt_path = out_dir / "model.dgnt"
    model_config = M.ModelConfig(input_size=BENCH_SIZE, family=family)
    train_config = trainer.TrainConfig(
        epochs=BENCH_EPOCHS, batch_size=1, learning_rate=1e-4, beta=1.0,
        family=family, seed=BENCH_SEED, curve_path=str(curve_path),
        checkpoint_path=str(ckpt_path))
    t0 = time.process_time()
    model, records = trainer.train(train_data, model_config, train_config)
    elapsed = time.process_time() - t0

    masks_dir = out_dir / "masks"
    masks_dir.mkdir(exist_ok=True)
    pairs = []
    for i, (image, gt) in enumerate(test_data):
        _, pred = trainer.segment(model, image)
        data_io.write_pgm(pred.astype(np.float64), masks_dir / f"{i:05d}.pgm",
                          bit_depth=8)
        pairs.append((gt, pred))
    _, pooled, _ = metrics.batch_eval(pairs)
    return {
        "family": family,
        "model": model,
        "records": records,
        "pooled": pooled,
        "elapsed": elapsed,
        "curve_path": curve_path,
        "ckpt_path": ckpt_path,
        "masks_dir": masks_dir,
        "test_data": test_data,
    }


@pytest.fixture(scope="session")
def exp_run(tmp_path_factory):
    return _run_benchmark("exp", tmp_path_factory.mktemp("bench-exp"))


@pytest.fixture(scope="session")
def exp_run_repeat(tmp_path_factory):
    return _run_benchmark("exp", tmp_path_factory.mktemp("bench-exp-repeat"))


@pytest.fixture(scope="session")
def gauss_run(tmp_path_factory):
    return _run_benchmark("gauss", tmp_path_factory.mktemp("bench-gauss"))


def test_criterion_01_exp_kl_oracle_vs_monte_carlo():
    t0 = time.process_time()
    p = speckle.ExponentialModel(rate=2.0)
    q = speckle.ExponentialModel(rate=1.0)
    closed = speckle.exp_kl(p, q)
    assert closed == pytest.approx(math.log(2.0) - 0.5, abs=1e-12)
    x = speckle.exp_sample(p, Rng(1), 1_000_000)
    mc = float(np.mean(np.log(p.rate) - p.rate * x - (np.log(q.rate) - q.rate * x)))
    elapsed = time.process_time() - t0
    print(f"criterion 1: closed {closed:.6f} vs MC {mc:.6f} "
          f"(|diff| {abs(closed - mc):.2e}, {elapsed:.2f}s)")
    assert abs(closed - mc) < 5e-3
    assert elapsed < 5.0


def test_criterion_02_kl_non_negativity():
    rng = Rng(2)
    worst = np.inf
    for _ in range(1000):
        rp = float(10 ** (rng.uniform() * 4 - 2))
        rq = float(10 ** (rng.uniform() * 4 - 2))
        kl = speckle.exp_kl(speckle.ExponentialModel(rp), speckle.ExponentialModel(rq))
        assert kl >= 0.0
        worst = min(worst, kl)
    assert speckle.exp_kl(speckle.ExponentialModel(3.7),
                          speckle.ExponentialModel(3.7)) == 0.0
    for family in ("gauss", "exp"):
        for _ in range(1000):
            c0 = Tensor(np.array([[float(rng.uniform() * 8 - 4)]], np.float32))
            c1 = Tensor(np.array([[float(rng.uniform() * 8 - 4)]], np.float32))
            lp = M.LatentParams(c0=c0, c1=c1, family=family)
            assert M.kl_term(lp).item() >= 0.0
        at_prior = M.LatentParams(c0=Tensor(np.zeros((1, 1), np.float32)),
                                  c1=Tensor(np.zeros((1, 1), np.float32)),
                                  family=family)
        assert M.kl_term(at_prior).item() == pytest.approx(
            0.0, abs=1e-7)
    print("criterion 2: 1000 exp_kl + 2x1000 kl_term parameterizations all >= 0, "
          "zero only at the prior")


def test_criterion_03_full_model_gradient_check():
    config = M.ModelConfig(input_size=16, channels=(4, 8, 8, 16), latent_dim=8,
                           family="exp")
    net = M.DGNet(config, seed=1)
    rng = Rng(3)
    image = rng.split("image").uniform((1, 1, 16, 16))
    mask = (rng.split("mask").uniform((1, 1, 16, 16)) < 0.3).astype(np.float64)
    t0 = time.process_time()
    err = M.grad_check(net, image, mask, rng=rng)
    elapsed = time.process_time() - t0
    print(f"criterion 3: max relative gradient error {err:.3e} "
          f"over every parameter entry ({elapsed:.1f}s CPU)")
    assert err < 1e-3
    assert elapsed < 60.0


def test_criterion_04_metric_identities():
    rng = Rng(4)
    reports = []
    for _ in range(10_000):
        gt = (rng.uniform((8, 8)) < 0.35).astype(np.uint8)
        pred = (rng.uniform((8, 8)) < 0.35).astype(np.uint8)
        r = metrics.score(metrics.confusion(gt, pred))
        assert abs(r.f1 - 2.0 * r.iou / (1.0 + r.iou)) < 1e-12
        assert r.rfr == r.iou
        reports.append(r)
    flips = 0
    for a, b in zip(reports[::2], reports[1::2]):
        if (a.f1 - b.f1) * (a.iou - b.iou) < 0:
            flips += 1
    print(f"criterion 4: f1/iou identity and rfr==iou hold on 10^4 pairs; "
          f"{flips} ordering flips over {len(reports) // 2} report pairs")
    assert flips == 0


def test_criterion_05_mle_recovery():
    rng = Rng(5)
    errs = {}
    for lam in (0.1, 1.0, 3.0, 100.0):
        x = speckle.exp_sample(speckle.ExponentialModel(rate=lam),
                               rng.split(("lam", str(lam))), 100_000)
        fit = speckle.exp_fit_mle(x)
        errs[lam] = abs(fit.rate - lam) / lam
        assert errs[lam] < 0.02
    print("criterion 5: MLE relative errors "
          + ", ".join(f"lambda={k:g}: {v:.4f}" for k, v in errs.items()))


def test_criterion_06_single_sample_nll_estimator_calibration():
    # 1-D latent toy model: p(y=1|z) = sigmoid(a*z + b) with an exponential
    # posterior of mean m; compare single-sample NLL estimates against dense
    # quadrature of E_z[-ln p].
    from scipy.integrate import quad

    a, b, log_m = 1.3, -0.4, 0.5
    n = 100_000
    lp = M.LatentParams(c0=Tensor(np.full((n, 1), log_m, np.float64)),
                        c1=Tensor(np.zeros((n, 1), np.float64)), family="exp")
    z = M.sample_latent(lp, Rng(6).uniform((n, 1))).data[:, 0]
    p = 1.0 / (1.0 + np.exp(-(a * z + b)))
    estimates = -np.log(np.clip(p, 1e-7, 1.0 - 1e-7))

    rate = 1.0 / math.exp(log_m)

    def integrand(zz):
        pz = 1.0 / (1.0 + math.exp(-(a * zz + b)))
        return rate * math.exp(-rate * zz) * -math.log(min(max(pz, 1e-7), 1 - 1e-7))

    exact, _ = quad(integrand, 0.0, np.inf)
    stderr = float(estimates.std()) / math.sqrt(n)
    gap = abs(float(estimates.mean()) - exact)
    print(f"criterion 6: estimator mean {estimates.mean():.6f} vs quadrature "
          f"{exact:.6f} (gap {gap:.2e}, 3 SE = {3 * stderr:.2e})")
    assert gap < 3 * stderr


@pytest.mark.slow
def test_criterion_07_end_to_end_segmentation(exp_run):
    pooled = exp_run["pooled"]
    print(f"criterion 7: pooled accuracy {pooled.accuracy:.4f} "
          f"(target >= 0.95), pooled IoU {pooled.iou:.4f} (target >= 0.80), "
          f"trained in {exp_run['elapsed']:.0f}s CPU")
    assert exp_run["elapsed"] < 1800.0
    assert pooled.accuracy >= 0.95
    assert pooled.iou >= 0.80


@pytest.mark.slow
def test_criterion_08_learning_curve_progress(exp_run):
    records = exp_run["records"]
    assert records[-1].loss < records[0].loss
    lines = exp_run["curve_path"].read_text().strip().split("\n")
    assert lines[0] == "epoch,loss,kl,nll"
    assert len(lines) == 1 + BENCH_EPOCHS
    for line in lines[1:]:
        _, loss, kl, nll = (float(v) for v in line.split(","))
        assert loss == pytest.approx(nll + 1.0 * kl, abs=1e-5)
    print(f"criterion 8: loss {records[0].loss:.4f} -> {records[-1].loss:.4f} "
          f"over {BENCH_EPOCHS} epochs; curve has {len(lines) - 1} rows with "
          f"loss == nll + beta*kl")


@pytest.mark.slow
def test_criterion_09_family_ablation_report(exp_run, gauss_run):
    # Report-only: directional comparison of the two latent families.
    lines = ["criterion 9: family ablation (report only)",
             "  family       pooled-IoU  pooled-acc  final-loss  final-KL"]
    for run in (exp_run, gauss_run):
        r = run["records"][-1]
        lines.append(f"  {run['family']:<12} {run['pooled'].iou:>10.4f}  "
                     f"{run['pooled'].accuracy:>10.4f}  {r.loss:>10.4f}  {r.kl:>8.4f}")
    direction = ("matches" if exp_run["pooled"].iou >= gauss_run["pooled"].iou
                 else "does not match")
    lines.append(f"  exponential-family IoU {direction} the directional claim "
                 f"(not asserted)")
    print("\n".join(lines))


@pytest.mark.slow
def test_criterion_10_run_determinism(exp_run, exp_run_repeat):
    assert exp_run["ckpt_path"].read_bytes() == exp_run_repeat["ckpt_path"].read_bytes()
    assert exp_run["curve_path"].read_bytes() == exp_run_repeat["curve_path"].read_bytes()
    names = sorted(p.name for p in exp_run["masks_dir"].glob("*.pgm"))
    assert len(names) == BENCH_TEST
    for name in names:
        a = (exp_run["masks_dir"] / name).read_bytes()
        b = (exp_run_repeat["masks_dir"] / name).read_bytes()
        assert a == b, f"mask {name} differs between identical runs"
    print(f"criterion 10: checkpoint, curve and {len(names)} masks byte-identical "
          f"across repeated runs")


@pytest.mark.slow
def test_criterion_11_checkpoint_roundtrip(exp_run, tmp_path):
    first = tmp_path / "first.dgnt"
    second = tmp_path / "second.dgnt"
    data_io.save_checkpoint(exp_run["model"], first)
    loaded = data_io.load_checkpoint(first)
    data_io.save_checkpoint(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    rng = Rng(11)
    for _ in range(10):
        image = rng.uniform((BENCH_SIZE, BENCH_SIZE)).astype(np.float32)
        p1, m1 = trainer.segment(exp_run["model"], image)
        p2, m2 = trainer.segment(loaded, image)
        assert np.array_equal(p1, p2)
        assert np.array_equal(m1, m2)
    print("criterion 11: save->load->save byte-identical; segment output "
          "bitwise equal on 10 random images")
