import dataclasses
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dgnet_lab
from dgnet_lab import data_io, trainer
from dgnet_lab import model as M
from dgnet_lab.cli import cli
from dgnet_lab.rng import Rng

_SRC = str(Path(dgnet_lab.__file__).resolve().parent.parent)


def tree_bytes(root):
    """{path: bytes} of every file under `root`."""
    return {p: p.read_bytes() for p in Path(root).rglob("*") if p.is_file()}


def run_python(args, cwd):
    """`python ARGS` in a fresh interpreter that imports this checkout's package."""
    env = dict(os.environ, OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([_SRC, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=300)


def run_module(args, cwd):
    """`python -m dgnet_lab.cli ARGS` in a fresh interpreter."""
    return run_python(["-m", "dgnet_lab.cli", *args], cwd)


class TestSynth:
    def test_writes_requested_count(self, tmp_path, capsys):
        out = tmp_path / "ds"
        code = cli(["synth", "--out", str(out), "--count", "5", "--size", "32",
                    "--seed", "3"])
        assert code == 0
        assert len(list((out / "images").glob("*.pgm"))) == 5
        assert len(list((out / "masks").glob("*.pgm"))) == 5
        assert (out / "manifest.tsv").exists()
        assert "5" in capsys.readouterr().out

    def test_seed_beyond_64_bits_is_validation_error(self, tmp_path, capsys):
        # 2**64 would otherwise wrap to the stream of seed 0.
        code = cli(["synth", "--out", str(tmp_path / "x"), "--count", "1", "--size", "16",
                    "--seed", str(2 ** 64)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: seed must be a non-negative 64-bit integer"]
        assert not (tmp_path / "x").exists()

    def test_bad_contrast_is_validation_error(self, tmp_path):
        code = cli(["synth", "--out", str(tmp_path / "x"), "--count", "1",
                    "--oil-contrast", "0.5"])
        assert code == 1

    @pytest.mark.parametrize("flag, value", [("--count", "-1"), ("--size", "4"),
                                             ("--lookalike-prob", "2")])
    def test_out_of_range_setting_writes_nothing(self, tmp_path, capsys, flag, value):
        code = cli(["synth", "--out", str(tmp_path / "x"), "--count", "1", "--size", "16",
                    flag, value])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not (tmp_path / "x").exists()


class TestTrainSegmentRoundtrip:
    def test_tiny_end_to_end(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        assert cli(["synth", "--out", str(ds), "--count", "3", "--size", "32",
                    "--seed", "1"]) == 0
        ckpt = tmp_path / "model.dgnt"
        curve = tmp_path / "curve.csv"
        code = cli(["train", "--data", str(ds / "manifest.tsv"),
                    "--out", str(ckpt), "--curve", str(curve),
                    "--epochs", "2", "--size", "32", "--latent", "8",
                    "--seed", "1"])
        assert code == 0
        assert ckpt.exists()
        lines = curve.read_text().strip().split("\n")
        assert lines[0] == "epoch,loss,kl,nll"
        assert len(lines) == 3

        pred = tmp_path / "pred"
        code = cli(["segment", "--model", str(ckpt),
                    "--data", str(ds / "manifest.tsv"), "--out", str(pred)])
        assert code == 0
        assert len(list(pred.glob("*.pgm"))) == 3
        mask = data_io.read_pgm(pred / "00000.pgm")
        assert set(np.unique(mask)) <= {0.0, 1.0}

    def test_source_sized_masks(self, tmp_path):
        # A 96 px image on a 32 px model: segment resamples the image to the
        # model and writes its mask at 96 px, so eval against 96 px truth works.
        ds = tmp_path / "ds"
        assert cli(["synth", "--out", str(ds), "--count", "2", "--size", "96",
                    "--seed", "2"]) == 0
        ckpt = tmp_path / "model.dgnt"
        assert cli(["train", "--data", str(ds / "manifest.tsv"), "--out", str(ckpt),
                    "--epochs", "1", "--size", "32", "--latent", "8", "--seed", "2"]) == 0
        for data, count in ((ds / "images" / "00000.pgm", 1), (ds / "manifest.tsv", 2)):
            pred = tmp_path / f"pred{count}"
            assert cli(["segment", "--model", str(ckpt), "--data", str(data),
                        "--out", str(pred)]) == 0
            assert [data_io.read_pgm(p).shape for p in sorted(pred.glob("*.pgm"))] \
                == [(96, 96)] * count
            gt = tmp_path / f"gt{count}"
            gt.mkdir()
            for p in pred.glob("*.pgm"):
                (gt / p.name).write_bytes((ds / "masks" / p.name).read_bytes())
            assert cli(["eval", "--gt", str(gt), "--pred", str(pred),
                        "--out", str(tmp_path / f"report{count}.csv")]) == 0

    def test_missing_manifest_is_io_error(self, tmp_path):
        code = cli(["train", "--data", str(tmp_path / "missing.tsv"),
                    "--out", str(tmp_path / "m.dgnt"), "--epochs", "1"])
        assert code == 2

    @pytest.mark.parametrize("flag, target, code, message", [
        ("--out", "nodir/x", 2, "i/o error: no such output directory: {t}/nodir"),
        ("--curve", "nodir/x", 2, "i/o error: no such output directory: {t}/nodir"),
        ("--out", "ds", 2, "i/o error: output path is a directory: {t}/ds"),
        ("--curve", "m.dgnt", 1, "error: --out {t}/m.dgnt and --curve {t}/m.dgnt are the "
                                 "same file"),
        ("--out", "ds/manifest.tsv", 1, "error: --data {t}/ds/manifest.tsv and --out "
                                        "{t}/ds/manifest.tsv are the same file"),
        ("--curve", "ds/../ds/manifest.tsv", 1, "error: --data {t}/ds/manifest.tsv and "
                                                "--curve {t}/ds/../ds/manifest.tsv are the "
                                                "same file")],
        ids=["out-nodir", "curve-nodir", "out-is-dir", "curve-is-out", "out-is-data",
             "curve-is-data"])
    def test_bad_output_path_is_refused_before_training(self, tmp_path, capsys, monkeypatch,
                                                        flag, target, code, message):
        ds = tmp_path / "ds"
        assert cli(["synth", "--out", str(ds), "--count", "1", "--size", "32"]) == 0
        inputs = tree_bytes(ds)

        def must_not_run(*args, **kwargs):
            raise AssertionError("read or trained before checking the output paths")

        monkeypatch.setattr(data_io, "load_dataset", must_not_run)
        monkeypatch.setattr(trainer, "train", must_not_run)
        paths = {"--out": str(tmp_path / "m.dgnt"), "--curve": str(tmp_path / "c.csv")}
        paths[flag] = str(tmp_path / target)
        capsys.readouterr()
        assert cli(["train", "--data", str(ds / "manifest.tsv"), "--epochs", "1",
                    "--size", "32", "--out", paths["--out"], "--curve", paths["--curve"]]) == code
        assert capsys.readouterr().err.splitlines() == [message.format(t=tmp_path)]
        assert tree_bytes(ds) == inputs

    def test_family_flag_sets_the_model_family(self, tmp_path):
        ds = tmp_path / "ds"
        assert cli(["synth", "--out", str(ds), "--count", "1", "--size", "32"]) == 0
        ckpt = tmp_path / "m.dgnt"
        assert cli(["train", "--data", str(ds / "manifest.tsv"), "--out", str(ckpt),
                    "--epochs", "1", "--size", "32", "--latent", "4",
                    "--family", "gauss"]) == 0
        assert data_io.load_checkpoint(ckpt).config.family == "gauss"


class TestSegmentGroups:
    """`dgnet segment` runs the network on groups of images; each mask file
    must be the one that segmenting its image alone gives."""

    CFG = M.ModelConfig(input_size=32, channels=(4, 8, 8, 16), latent_dim=6)

    def _dataset(self, tmp_path, count=11, odd=4):
        # Image `odd` is 48 px; the others are 32 px, the model's size.
        data_io.save_checkpoint(M.DGNet(self.CFG, seed=3), tmp_path / "m.dgnt")
        rng = Rng(7)
        (tmp_path / "images").mkdir()
        names = [f"{i:02d}.pgm" for i in range(count)]
        for i, name in enumerate(names):
            side = 48 if i == odd else 32
            data_io.write_pgm(rng.split(i).uniform((side, side)), tmp_path / "images" / name,
                              bit_depth=16)
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("".join(f"images/{n}\timages/{n}\n" for n in names))
        return names, manifest

    def test_masks_equal_per_image_segment(self, tmp_path):
        names, manifest = self._dataset(tmp_path)
        assert cli(["segment", "--model", str(tmp_path / "m.dgnt"), "--data", str(manifest),
                    "--out", str(tmp_path / "pred")]) == 0
        net = data_io.load_checkpoint(tmp_path / "m.dgnt")
        (tmp_path / "want").mkdir()
        for name in names:
            source = data_io.read_pgm(tmp_path / "images" / name)
            _, mask = trainer.segment(net, data_io.resample_bilinear(source, 32, 32))
            data_io.write_pgm(data_io.resample_nearest(mask, *source.shape).astype(np.float64),
                              tmp_path / "want" / name, bit_depth=8)
        got = [(tmp_path / "pred" / n).read_bytes() for n in names]
        assert got == [(tmp_path / "want" / n).read_bytes() for n in names]
        assert data_io.read_pgm(tmp_path / "pred" / names[4]).shape == (48, 48)
        assert len(set(got)) > 1

    def test_truncated_image_in_second_group(self, tmp_path, capsys):
        names, manifest = self._dataset(tmp_path)
        bad = tmp_path / "images" / names[9]
        bad.write_bytes(bad.read_bytes()[:-10])
        code = cli(["segment", "--model", str(tmp_path / "m.dgnt"), "--data", str(manifest),
                    "--out", str(tmp_path / "pred")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: truncated PGM payload")
        assert sorted(p.name for p in (tmp_path / "pred").glob("*.pgm")) == names[:8]


class TestSegmentInputs:
    CFG = M.ModelConfig(input_size=16, channels=(2, 2, 2, 2), latent_dim=2)

    def test_colliding_mask_names_are_refused(self, tmp_path, capsys):
        data_io.save_checkpoint(M.DGNet(self.CFG), tmp_path / "m.dgnt")
        for d in ("a", "b"):
            (tmp_path / d).mkdir()
            data_io.write_pgm(np.full((16, 16), 0.5), tmp_path / d / "x.pgm", bit_depth=16)
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("a/x.pgm\ta/x.pgm\nb/x.pgm\tb/x.pgm\n")
        code = cli(["segment", "--model", str(tmp_path / "m.dgnt"), "--data", str(manifest),
                    "--out", str(tmp_path / "pred")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert str(Path("a", "x.pgm")) in err[0] and str(Path("b", "x.pgm")) in err[0]
        assert not (tmp_path / "pred").exists()

    @pytest.mark.parametrize("single", [False, True], ids=["manifest", "single-image"])
    def test_mask_over_its_input_image_is_refused(self, tmp_path, capsys, single):
        data_io.save_checkpoint(M.DGNet(self.CFG), tmp_path / "m.dgnt")
        images = tmp_path / "ds" / "images"
        images.mkdir(parents=True)
        for name in ("0.pgm", "1.pgm"):
            data_io.write_pgm(np.full((16, 16), 0.5), images / name, bit_depth=16)
        manifest = tmp_path / "ds" / "manifest.tsv"
        manifest.write_text("images/0.pgm\timages/0.pgm\nimages/1.pgm\timages/1.pgm\n")
        inputs = tree_bytes(tmp_path / "ds")
        data = images / "1.pgm" if single else manifest
        code = cli(["segment", "--model", str(tmp_path / "m.dgnt"), "--data", str(data),
                    "--out", str(images)])
        assert code == 1
        first = images / ("1.pgm" if single else "0.pgm")
        assert capsys.readouterr().err.splitlines() == [
            f"error: the mask {first} would overwrite its input image {first}"]
        assert tree_bytes(tmp_path / "ds") == inputs

    def test_checkpoint_declaring_a_huge_architecture(self, tmp_path, capsys):
        # The file holds a tiny model; its config block claims ~60 GB of weights.
        blob = data_io.checkpoint_bytes(M.DGNet(self.CFG))
        (n,) = struct.unpack_from("<I", blob, 8)
        block = blob[12:12 + n].replace(b"latent_dim=2\n", b"latent_dim=4000000000\n")
        (tmp_path / "m.dgnt").write_bytes(blob[:8] + struct.pack("<I", len(block)) + block
                                          + blob[12 + n:])
        data_io.write_pgm(np.full((16, 16), 0.5), tmp_path / "x.pgm", bit_depth=16)
        code = cli(["segment", "--model", str(tmp_path / "m.dgnt"),
                    "--data", str(tmp_path / "x.pgm"), "--out", str(tmp_path / "pred")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: truncated checkpoint")

    def test_checkpoint_with_swapped_tensor_records(self, tmp_path, capsys):
        net = M.DGNet(self.CFG)
        blob = data_io.checkpoint_bytes(net)
        (n,) = struct.unpack_from("<I", blob, 8)
        # A record is its name length, name, rank, dims and float32 payload.
        (a, x), (b, y) = list(net.state_tensors().items())[:2]
        start = 16 + n
        mid = start + 8 + len(a) + 4 * (x.ndim + x.size)
        end = mid + 8 + len(b) + 4 * (y.ndim + y.size)
        (tmp_path / "m.dgnt").write_bytes(blob[:start] + blob[mid:end] + blob[start:mid]
                                          + blob[end:])
        data_io.write_pgm(np.full((16, 16), 0.5), tmp_path / "x.pgm", bit_depth=16)
        code = cli(["segment", "--model", str(tmp_path / "m.dgnt"),
                    "--data", str(tmp_path / "x.pgm"), "--out", str(tmp_path / "pred")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert repr(a) in err[0] and repr(b) in err[0]
        assert not (tmp_path / "pred").exists()

    @pytest.mark.parametrize("line", [b"stride=3\n", b"leaky_slope=0.1\n"])
    def test_checkpoint_with_other_fixed_geometry(self, tmp_path, capsys, line):
        blob = data_io.checkpoint_bytes(M.DGNet(self.CFG))
        (n,) = struct.unpack_from("<I", blob, 8)
        block = blob[12:12 + n] + line
        (tmp_path / "m.dgnt").write_bytes(blob[:8] + struct.pack("<I", len(block)) + block
                                          + blob[12 + n:])
        data_io.write_pgm(np.full((16, 16), 0.5), tmp_path / "x.pgm", bit_depth=16)
        code = cli(["segment", "--model", str(tmp_path / "m.dgnt"),
                    "--data", str(tmp_path / "x.pgm"), "--out", str(tmp_path / "pred")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: bad checkpoint config block")

    @pytest.mark.parametrize("family, old, new, message", [
        pytest.param("exp", b"channels=2,2,2,2\nlatent_dim=2\n",
                     b"channels=2,2,2,2\nkernel=4\nstride=2\npad=1\nlatent_dim=2\n"
                     b"kl_weight=1.0\nleaky_slope=0.2\n",
                     "bad checkpoint config block", id="nine-keys"),
        pytest.param("gauss", b"family=gauss", b"family=exp",
                     "tensor 'enc.fc.w' has shape", id="wide-exp-head"),
        pytest.param("exp", b"latent_dim=2\n", b"latent_dim=2\nfoo=1\n",
                     "bad checkpoint config block", id="unknown-key"),
        pytest.param("exp", b"latent_dim=2\n", b"latent_dim=2\nlatent_dim=2\n",
                     "bad checkpoint config block", id="duplicate-key")])
    def test_checkpoint_the_writer_would_not_write(self, tmp_path, capsys, family, old, new,
                                                    message):
        blob = data_io.checkpoint_bytes(M.DGNet(dataclasses.replace(self.CFG, family=family)))
        (n,) = struct.unpack_from("<I", blob, 8)
        block = blob[12:12 + n].replace(old, new)
        (tmp_path / "m.dgnt").write_bytes(blob[:8] + struct.pack("<I", len(block)) + block
                                          + blob[12 + n:])
        data_io.write_pgm(np.full((16, 16), 0.5), tmp_path / "x.pgm", bit_depth=16)
        code = cli(["segment", "--model", str(tmp_path / "m.dgnt"),
                    "--data", str(tmp_path / "x.pgm"), "--out", str(tmp_path / "pred")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {message}")
        assert not (tmp_path / "pred").exists()


class TestNonFiniteSettings:
    """A NaN or infinite setting ends the command before any work: exit 1, one
    stderr line that names the setting, and nothing written."""

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("flag, name", [("--oil-contrast", "oil_contrast"),
                                            ("--lookalike-contrast", "lookalike_contrast")])
    def test_synth(self, tmp_path, capsys, flag, name, value):
        code = cli(["synth", "--out", str(tmp_path / "ds"), "--count", "1", "--size", "16",
                    flag, value])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and name in err[0]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("flag, name", [("--lr", "learning_rate"), ("--beta", "beta")])
    def test_train(self, tmp_path, capsys, flag, name, value):
        ds = tmp_path / "ds"
        assert cli(["synth", "--out", str(ds), "--count", "2", "--size", "16"]) == 0
        capsys.readouterr()
        code = cli(["train", "--data", str(ds / "manifest.tsv"), "--out",
                    str(tmp_path / "m.dgnt"), "--curve", str(tmp_path / "curve.csv"),
                    "--epochs", "1", "--size", "16", "--latent", "2", flag, value])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and name in err[0]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ds"]

    @pytest.mark.parametrize("value", ["nan", "inf", "-0.5", "1.5"])
    def test_segment_threshold(self, tmp_path, capsys, value):
        data_io.save_checkpoint(M.DGNet(TestSegmentInputs.CFG), tmp_path / "m.dgnt")
        data_io.write_pgm(np.full((16, 16), 0.5), tmp_path / "x.pgm", bit_depth=16)
        code = cli(["segment", "--model", str(tmp_path / "m.dgnt"), "--data",
                    str(tmp_path / "x.pgm"), "--out", str(tmp_path / "pred"),
                    "--threshold", value])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "threshold" in err[0]
        assert not (tmp_path / "pred").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1"])
    def test_gradcheck_tolerance(self, capsys, value):
        assert cli(["gradcheck", f"--tolerance={value}"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "tolerance" in err[0]


class TestEval:
    def test_identical_dirs_score_one(self, tmp_path, capsys):
        gt = tmp_path / "gt"
        gt.mkdir()
        rng = Rng(9)
        for i in range(3):
            m = (rng.uniform((8, 8)) < 0.3).astype(np.float64)
            data_io.write_pgm(m, gt / f"{i}.pgm", bit_depth=8)
        report = tmp_path / "report.csv"
        summary = tmp_path / "summary.csv"
        code = cli(["eval", "--gt", str(gt), "--pred", str(gt),
                    "--out", str(report), "--summary", str(summary)])
        assert code == 0
        assert "accuracy 1.0000" in capsys.readouterr().out
        lines = report.read_text().strip().split("\n")
        assert len(lines) == 5 and lines[-1].startswith("POOLED,")
        assert summary.read_text().startswith("metric,")

    @pytest.mark.parametrize("case, code, message", [
        ("missing-gt", 2, "i/o error: no such ground-truth directory: {tmp}/nogt"),
        ("missing-pred", 2, "i/o error: missing prediction {tmp}/pred/1.pgm"),
        ("shape-mismatch", 1, "error: shape mismatch in 1.pgm: gt (8, 8) vs pred (12, 12)"),
        ("summary-nodir", 2, "i/o error: no such output directory: {tmp}/nodir"),
        ("summary-is-out", 1, "error: --out {tmp}/report.csv and --summary "
                              "{tmp}/report.csv are the same file")],
        ids=["missing-gt", "missing-pred", "shape-mismatch", "summary-nodir",
             "summary-is-out"])
    def test_bad_input_is_one_line_and_writes_nothing(self, tmp_path, capsys, case, code,
                                                      message):
        gt, pred = tmp_path / "gt", tmp_path / "pred"
        gt.mkdir()
        pred.mkdir()
        for i in range(2):
            data_io.write_pgm(np.zeros((8, 8)), gt / f"{i}.pgm", bit_depth=8)
        data_io.write_pgm(np.zeros((8, 8)), pred / "0.pgm", bit_depth=8)
        if case != "missing-pred":
            side = 12 if case == "shape-mismatch" else 8
            data_io.write_pgm(np.zeros((side, side)), pred / "1.pgm", bit_depth=8)
        args = ["eval", "--gt", str(tmp_path / "nogt" if case == "missing-gt" else gt),
                "--pred", str(pred), "--out", str(tmp_path / "report.csv")]
        if case == "summary-nodir":
            args += ["--summary", str(tmp_path / "nodir" / "summary.csv")]
        if case == "summary-is-out":
            args += ["--summary", str(tmp_path / "report.csv")]
        inputs = tree_bytes(tmp_path)
        assert cli(args) == code
        assert capsys.readouterr().err.splitlines() == [message.format(tmp=tmp_path)]
        assert not (tmp_path / "report.csv").exists()
        assert tree_bytes(tmp_path) == inputs

    def test_empty_gt_dir_is_validation_error(self, tmp_path):
        (tmp_path / "gt").mkdir()
        (tmp_path / "pred").mkdir()
        code = cli(["eval", "--gt", str(tmp_path / "gt"),
                    "--pred", str(tmp_path / "pred"),
                    "--out", str(tmp_path / "r.csv")])
        assert code == 1


class TestDistfit:
    def test_reports_rate_per_region(self, tmp_path, capsys):
        rng = Rng(10)
        img = np.clip(rng.uniform((16, 16)), 0.0, 1.0).astype(np.float32)
        mask = np.zeros((16, 16))
        mask[:8] = 1.0
        data_io.write_pgm(img, tmp_path / "img.pgm", bit_depth=16)
        data_io.write_pgm(mask, tmp_path / "mask.pgm", bit_depth=8)
        code = cli(["distfit", "--data", str(tmp_path / "img.pgm"),
                    "--mask", str(tmp_path / "mask.pgm")])
        assert code == 0
        out = capsys.readouterr().out
        assert "oil: rate" in out and "background: rate" in out

    def test_missing_image_is_io_error(self, tmp_path):
        assert cli(["distfit", "--data", str(tmp_path / "nope.pgm")]) == 2

    def test_mask_of_another_shape_is_validation_error(self, tmp_path, capsys):
        data_io.write_pgm(np.full((16, 16), 0.5), tmp_path / "img.pgm", bit_depth=16)
        data_io.write_pgm(np.ones((8, 8)), tmp_path / "mask.pgm", bit_depth=8)
        code = cli(["distfit", "--data", str(tmp_path / "img.pgm"),
                    "--mask", str(tmp_path / "mask.pgm")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: mask shape (8, 8)")

    def test_all_oil_mask_skips_the_empty_background(self, tmp_path, capsys):
        data_io.write_pgm(np.full((16, 16), 0.5), tmp_path / "img.pgm", bit_depth=16)
        data_io.write_pgm(np.ones((16, 16)), tmp_path / "mask.pgm", bit_depth=8)
        code = cli(["distfit", "--data", str(tmp_path / "img.pgm"),
                    "--mask", str(tmp_path / "mask.pgm")])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("oil: rate") and out[1] == "background: empty region, skipped"


class TestGradcheck:
    def test_passes_within_tolerance(self, capsys):
        code = cli(["gradcheck", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        err = float(out.split(":")[1].split("(")[0])
        assert err < 1e-3

    def test_default_seed_passes(self, capsys):
        # The jitter drawn before the check must not depend on the exp head's
        # width: drawn at the width of the model's own head, it fails here.
        assert cli(["gradcheck"]) == 0
        assert "5.551e-04" in capsys.readouterr().out


class TestErrorContract:
    def test_non_finite_output_is_one_line_validation_error(self, tmp_path):
        net = M.DGNet(M.ModelConfig(input_size=16, channels=(2, 2, 2, 2), latent_dim=2))
        for p in net.params.values():
            p.data[...] = 1e38
        data_io.save_checkpoint(net, tmp_path / "big.dgnt")
        data_io.write_pgm(np.full((16, 16), 0.5), tmp_path / "img.pgm", bit_depth=16)
        result = run_module(["segment", "--model", "big.dgnt", "--data", "img.pgm",
                             "--out", "pred"], cwd=tmp_path)
        assert result.returncode == 1
        assert result.stderr.splitlines() == ["error: conv2d produced non-finite values"]

    def test_unallocatable_model_is_one_line_validation_error(self, tmp_path, capsys):
        # The enc.fc draw of this latent width asks for ~1.8 EiB, more than any
        # address space holds, so it fails whatever the overcommit policy.
        ds = tmp_path / "ds"
        assert cli(["synth", "--out", str(ds), "--count", "2", "--size", "16"]) == 0
        capsys.readouterr()
        code = cli(["train", "--data", str(ds / "manifest.tsv"), "--out",
                    str(tmp_path / "m.dgnt"), "--size", "16", "--latent", str(10 ** 15)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not (tmp_path / "m.dgnt").exists()

    def test_module_entry_point_runs_the_command(self, tmp_path):
        result = run_module(["synth", "--out", "d", "--count", "2", "--size", "16"],
                            cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        assert len(list((tmp_path / "d" / "images").glob("*.pgm"))) == 2


class TestFootprint:
    def test_no_command_loads_scipy(self, tmp_path):
        # scipy.ndimage alone doubled a fresh interpreter's peak RSS and took
        # ~0.35 s to import; the package needs numpy alone at run time.
        script = """
import pkgutil, sys
import dgnet_lab
for info in pkgutil.iter_modules(dgnet_lab.__path__):
    __import__("dgnet_lab." + info.name)
from dgnet_lab.cli import cli
assert cli(["synth", "--out", "ds", "--count", "2", "--size", "16"]) == 0
assert cli(["distfit", "--data", "ds/images/00000.pgm", "--mask", "ds/masks/00000.pgm"]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
        result = run_python(["-c", script], cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "[]"


class TestArgHandling:
    def test_unknown_subcommand(self, capsys):
        assert cli(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_missing_required_flag(self, capsys):
        assert cli(["synth"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_no_arguments(self, capsys):
        assert cli([]) == 1
