import contextlib
import dataclasses
import math
import os
import resource
import signal
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgnet_lab import data_io, speckle, trainer
from dgnet_lab import model as M
from dgnet_lab.data_io import FormatError
from dgnet_lab.rng import Rng


class TestPgm:
    def test_single_white_pixel_8bit(self, tmp_path):
        p = tmp_path / "one.pgm"
        p.write_bytes(b"P5\n1 1\n255\n\xff")
        img = data_io.read_pgm(p)
        assert img.shape == (1, 1)
        assert img.dtype == np.float32
        assert img[0, 0] == pytest.approx(1.0)

    def test_comments_and_odd_whitespace(self, tmp_path):
        p = tmp_path / "c.pgm"
        p.write_bytes(b"P5 # format\n# a comment line\n  2\t1 # dims\n255\n\x00\x80")
        img = data_io.read_pgm(p)
        assert img.shape == (1, 2)
        assert img[0, 1] == pytest.approx(128 / 255)

    def test_16bit_is_big_endian(self, tmp_path):
        p = tmp_path / "be.pgm"
        p.write_bytes(b"P5\n1 1\n65535\n\x01\x00")  # 0x0100 = 256
        img = data_io.read_pgm(p)
        assert img[0, 0] == pytest.approx(256 / 65535)

    @pytest.mark.parametrize("bit_depth", [8, 16])
    def test_roundtrip(self, tmp_path, bit_depth):
        rng = Rng(40)
        img = rng.uniform((9, 13)).astype(np.float32)
        p = tmp_path / "r.pgm"
        data_io.write_pgm(img, p, bit_depth=bit_depth)
        back = data_io.read_pgm(p)
        maxval = 2 ** bit_depth - 1
        np.testing.assert_allclose(back, img, atol=0.5 / maxval + 1e-7)

    def test_half_quantizes_to_128(self, tmp_path):
        p = tmp_path / "h.pgm"
        data_io.write_pgm(np.full((1, 1), 0.5, np.float32), p, bit_depth=8)
        assert p.read_bytes().endswith(bytes([128]))  # floor(0.5*255 + 0.5)

    def test_double_roundtrip_is_stable(self, tmp_path):
        rng = Rng(41)
        img = rng.uniform((7, 7)).astype(np.float32)
        a = tmp_path / "a.pgm"
        b = tmp_path / "b.pgm"
        data_io.write_pgm(img, a, bit_depth=16)
        data_io.write_pgm(data_io.read_pgm(a), b, bit_depth=16)
        assert a.read_bytes() == b.read_bytes()

    def test_out_of_range_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            data_io.write_pgm(np.full((1, 1), 1.5, np.float32), tmp_path / "x.pgm")

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_rejected(self, tmp_path, value):
        p = tmp_path / "x.pgm"
        with pytest.raises(ValueError, match="finite"):
            data_io.write_pgm(np.array([[value, 0.5]]), p)
        assert not p.exists()

    @pytest.mark.parametrize("blob", [
        b"P2\n1 1\n255\n0",            # ascii variant not supported
        b"P5\n1 1\n128\n\x00",         # nonstandard maxval
        b"P5\n2 2\n255\n\x00\x00",     # truncated payload
        b"P5 0 4 255\n",               # zero width
    ])
    def test_malformed_rejected(self, tmp_path, blob):
        p = tmp_path / "bad.pgm"
        p.write_bytes(blob)
        with pytest.raises(FormatError):
            data_io.read_pgm(p)


class TestResample:
    def test_nearest_identity(self):
        rng = Rng(42)
        img = rng.uniform((8, 8)).astype(np.float32)
        np.testing.assert_array_equal(data_io.resample_nearest(img, 8, 8), img)

    def test_bilinear_identity(self):
        rng = Rng(43)
        img = rng.uniform((8, 8)).astype(np.float32)
        np.testing.assert_allclose(data_io.resample_bilinear(img, 8, 8), img, atol=1e-6)

    def test_bilinear_constant_preserved(self):
        img = np.full((6, 6), 0.37, np.float32)
        out = data_io.resample_bilinear(img, 15, 15)
        np.testing.assert_allclose(out, 0.37, atol=1e-6)
        assert out.shape == (15, 15)


class TestDataset:
    def test_synth_then_load(self, tmp_path):
        cfg = speckle.SceneConfig(size=32, seed=5)
        manifest = speckle.synth_dataset(cfg, 3, tmp_path)
        data = data_io.load_dataset(manifest, input_size=32)
        assert len(data) == 3
        for img, mask in data:
            assert img.shape == (32, 32) and img.dtype == np.float32
            assert set(np.unique(mask)) <= {0, 1}

    def test_load_resizes(self, tmp_path):
        cfg = speckle.SceneConfig(size=32, seed=5)
        manifest = speckle.synth_dataset(cfg, 1, tmp_path)
        data = data_io.load_dataset(manifest, input_size=16)
        assert data[0][0].shape == (16, 16)
        assert set(np.unique(data[0][1])) <= {0, 1}

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            data_io.load_dataset(tmp_path / "nope" / "manifest.tsv", input_size=32)


class TestCheckpoint:
    CFG = M.ModelConfig(input_size=32, channels=(4, 8, 8, 16), latent_dim=6)

    def test_save_load_save_is_byte_identical(self, tmp_path):
        net = M.DGNet(self.CFG, seed=3)
        p1 = tmp_path / "a.dgnt"
        p2 = tmp_path / "b.dgnt"
        data_io.save_checkpoint(net, p1)
        loaded = data_io.load_checkpoint(p1)
        data_io.save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_saved_file_is_checkpoint_bytes(self, tmp_path):
        # Tensors are written piece by piece; float64 and Fortran-ordered
        # state serializes to the same little-endian float32 bytes.
        net = M.DGNet(self.CFG, seed=3)
        state = {name: np.asfortranarray(arr, dtype=np.float64)
                 for name, arr in net.state_tensors().items()}
        blob = data_io.checkpoint_bytes(net)
        for model in (net, M.DGNet(self.CFG, state=state)):
            data_io.save_checkpoint(model, tmp_path / "m.dgnt")
            assert (tmp_path / "m.dgnt").read_bytes() == blob
            assert data_io.checkpoint_bytes(model) == blob

    def test_loaded_model_predicts_identically(self, tmp_path):
        net = M.DGNet(self.CFG, seed=3)
        path = tmp_path / "m.dgnt"
        data_io.save_checkpoint(net, path)
        loaded = data_io.load_checkpoint(path)
        img = Rng(44).uniform((32, 32)).astype(np.float32)
        p1, _ = trainer.segment(net, img)
        p2, _ = trainer.segment(loaded, img)
        np.testing.assert_array_equal(p1, p2)

    def test_magic_and_version_fields(self, tmp_path):
        net = M.DGNet(self.CFG, seed=3)
        blob = data_io.checkpoint_bytes(net)
        assert blob[:4] == b"DGNT"
        assert int.from_bytes(blob[4:8], "little") == 1

    def test_bad_magic_rejected(self, tmp_path):
        net = M.DGNet(self.CFG, seed=3)
        blob = bytearray(data_io.checkpoint_bytes(net))
        blob[:4] = b"NOPE"
        p = tmp_path / "bad.dgnt"
        p.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            data_io.load_checkpoint(p)

    def test_truncated_rejected(self, tmp_path):
        net = M.DGNet(self.CFG, seed=3)
        blob = data_io.checkpoint_bytes(net)
        p = tmp_path / "trunc.dgnt"
        p.write_bytes(blob[:-10])
        with pytest.raises(FormatError):
            data_io.load_checkpoint(p)

    def test_slim_head_is_not_a_gauss_head(self, tmp_path):
        blob = data_io.checkpoint_bytes(M.DGNet(self.CFG, seed=3))
        path = tmp_path / "m.dgnt"
        path.write_bytes(_with_config_text(blob, b"family=exp", b"family=gauss"))
        with pytest.raises(FormatError):
            data_io.load_checkpoint(path)

    def test_wide_head_is_not_an_exp_head(self, tmp_path):
        # A Gaussian file relabelled exp has a 2*latent_dim-wide enc.fc head.
        gauss = M.DGNet(dataclasses.replace(self.CFG, family="gauss"), seed=3)
        path = tmp_path / "m.dgnt"
        path.write_bytes(_with_config_text(data_io.checkpoint_bytes(gauss), b"family=gauss",
                                           b"family=exp"))
        with pytest.raises(FormatError, match="'enc.fc.w' has shape"):
            data_io.load_checkpoint(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        net = M.DGNet(self.CFG, seed=3)
        p = tmp_path / "trail.dgnt"
        p.write_bytes(data_io.checkpoint_bytes(net) + b"\x00")
        with pytest.raises(FormatError):
            data_io.load_checkpoint(p)

    @pytest.mark.parametrize("family", M.FAMILIES)
    def test_tensor_order_is_the_layout_order(self, family):
        cfg = dataclasses.replace(self.CFG, family=family)
        net = M.DGNet(cfg, seed=3)
        names = [name for name, _, _ in M.state_layout(cfg)]
        assert names == list(net.state_tensors())
        assert names == [name for name, _ in _tensor_records(data_io.checkpoint_bytes(net))[1]]

    def test_swapped_tensor_records_rejected(self, tmp_path):
        head, records = _tensor_records(data_io.checkpoint_bytes(M.DGNet(self.CFG, seed=3)))
        (first, a), (second, b) = records[:2]
        path = tmp_path / "m.dgnt"
        path.write_bytes(head + b + a + b"".join(r for _, r in records[2:]))
        with pytest.raises(FormatError) as info:
            data_io.load_checkpoint(path)
        assert repr(first) in str(info.value) and repr(second) in str(info.value)


class TestManifest:
    def test_entries_are_relative_to_the_manifest(self, tmp_path):
        p = tmp_path / "manifest.tsv"
        p.write_text("images/a.pgm\tmasks/a.pgm\n\n  images/b.pgm\tmasks/b.pgm  \n")
        assert list(data_io.read_manifest(p)) == [
            (tmp_path / "images/a.pgm", tmp_path / "masks/a.pgm"),
            (tmp_path / "images/b.pgm", tmp_path / "masks/b.pgm")]

    @pytest.mark.parametrize("line", ["images/a.pgm", "a\tb\tc", "\tmasks/a.pgm",
                                      "images/a.pgm\t\tmasks/a.pgm"])
    def test_malformed_line_rejected(self, tmp_path, line):
        p = tmp_path / "manifest.tsv"
        p.write_text(line + "\n")
        with pytest.raises(FormatError):
            list(data_io.read_manifest(p))

    def test_non_utf8_rejected(self, tmp_path):
        p = tmp_path / "manifest.tsv"
        p.write_bytes(b"images/\xff.pgm\tmasks/\xff.pgm\n")
        with pytest.raises(FormatError):
            list(data_io.read_manifest(p))
        with pytest.raises(FormatError):
            data_io.load_dataset(p)


_TINY = M.ModelConfig(input_size=16, channels=(2, 2, 2, 2), latent_dim=2)


def _tiny_checkpoint() -> bytes:
    return data_io.checkpoint_bytes(M.DGNet(_TINY, seed=1))


def _with_config_text(blob: bytes, old: bytes, new: bytes) -> bytes:
    """`blob` with `old` replaced by `new` in its length-prefixed config block."""
    (n,) = struct.unpack_from("<I", blob, 8)
    block = blob[12:12 + n].replace(old, new)
    return blob[:8] + struct.pack("<I", len(block)) + block + blob[12 + n:]


def _tensor_records(blob: bytes):
    """`blob` up to its first tensor record, and its (name, record bytes) pairs."""
    (n,) = struct.unpack_from("<I", blob, 8)
    (count,) = struct.unpack_from("<I", blob, 12 + n)
    pos = 16 + n
    head, records = blob[:pos], []
    for _ in range(count):
        start = pos
        (name_len,) = struct.unpack_from("<I", blob, pos)
        name = blob[pos + 4:pos + 4 + name_len].decode()
        (rank,) = struct.unpack_from("<I", blob, pos + 4 + name_len)
        dims = struct.unpack_from(f"<{rank}I", blob, pos + 8 + name_len)
        pos += 8 + name_len + 4 * (rank + math.prod(dims))
        records.append((name, blob[start:pos]))
    assert pos == len(blob)
    return head, records


# The block layout written while kernel, stride, pad and leaky_slope were
# settable and the KL weight was a model setting, with the fixed values.
_NINE_KEYS = (b"channels=2,2,2,2\nlatent_dim=2\n",
              b"channels=2,2,2,2\nkernel=4\nstride=2\npad=1\nlatent_dim=2\nkl_weight=1.0\n"
              b"leaky_slope=0.2\n")


class TestMalformedCheckpoint:
    @pytest.mark.parametrize("old, new", [(b"family=exp", b"family=\xffxp"),
                                          (b"channels=2,", b"channels=-2,"),
                                          (b"latent_dim=2\n", b"latent_dim=2\nstride=3\n"),
                                          (b"latent_dim=2\n",
                                           b"latent_dim=2\nleaky_slope=0.1\n"),
                                          pytest.param(*_NINE_KEYS, id="nine-keys"),
                                          pytest.param(b"latent_dim=2\n",
                                                       b"latent_dim=2\nfoo=1\n",
                                                       id="unknown-key"),
                                          pytest.param(b"latent_dim=2\n",
                                                       b"latent_dim=2\nlatent_dim=2\n",
                                                       id="duplicate-key"),
                                          pytest.param(b"family=exp\ninput_size=16\n",
                                                       b"input_size=16\nfamily=exp\n",
                                                       id="reordered-keys"),
                                          pytest.param(b"latent_dim=2\n", b"latent_dim=02\n",
                                                       id="padded-number")])
    def test_bad_config_block(self, tmp_path, old, new):
        (tmp_path / "m.dgnt").write_bytes(_with_config_text(_tiny_checkpoint(), old, new))
        with pytest.raises(FormatError):
            data_io.load_checkpoint(tmp_path / "m.dgnt")

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_tensor_count_other_than_the_layout(self, tmp_path, delta):
        blob = bytearray(_tiny_checkpoint())
        (n,) = struct.unpack_from("<I", blob, 8)
        (count,) = struct.unpack_from("<I", blob, 12 + n)
        struct.pack_into("<I", blob, 12 + n, count + delta)
        (tmp_path / "m.dgnt").write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=f"^checkpoint holds {count + delta} tensors, "
                                              f"architecture needs {count}$"):
            data_io.load_checkpoint(tmp_path / "m.dgnt")

    def test_non_utf8_tensor_name(self, tmp_path):
        blob = _tiny_checkpoint().replace(b"enc.conv0.w", b"enc.conv0.\xff", 1)
        (tmp_path / "m.dgnt").write_bytes(blob)
        with pytest.raises(FormatError):
            data_io.load_checkpoint(tmp_path / "m.dgnt")

    @pytest.mark.parametrize("name", ["enc.conv0.w", "dec.bn2.running_var"])
    def test_non_finite_payload(self, tmp_path, name):
        net = M.DGNet(_TINY, seed=1)
        net.state_tensors()[name].flat[0] = np.inf
        (tmp_path / "m.dgnt").write_bytes(data_io.checkpoint_bytes(net))
        with pytest.raises(FormatError):
            data_io.load_checkpoint(tmp_path / "m.dgnt")


@contextlib.contextmanager
def _file_size_limit(nbytes):
    """Make writes past `nbytes` into any file fail with EFBIG, as on a full disk."""
    soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    resource.setrlimit(resource.RLIMIT_FSIZE, (nbytes, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
        signal.signal(signal.SIGXFSZ, handler)


class TestAtomicWrites:
    def test_failed_checkpoint_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "m.dgnt"
        data_io.save_checkpoint(M.DGNet(_TINY, seed=1), path)
        before = path.read_bytes()
        with _file_size_limit(len(before) // 2), pytest.raises(OSError):
            data_io.save_checkpoint(M.DGNet(_TINY, seed=2), path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["m.dgnt"]

    def test_failed_curve_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("epoch,loss,kl,nll\n")
        data = [(Rng(i).uniform((16, 16)).astype(np.float32),
                 (Rng(i).uniform((16, 16)) < 0.3).astype(np.uint8)) for i in range(2)]
        config = trainer.TrainConfig(epochs=1, curve_path=str(path))
        with _file_size_limit(24), pytest.raises(OSError):
            trainer.train(data, _TINY, config)
        assert path.read_text() == "epoch,loss,kl,nll\n"
        assert os.listdir(tmp_path) == ["curve.csv"]


# Property tests: any byte string read as a PGM, checkpoint or manifest gives a
# result or FormatError, never another exception. Examples are derandomized
# so that the suite's verdict does not change between runs.
_FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _mutations(valid: bytes):
    """Arbitrary bytes, plus a valid file truncated, extended or with bytes replaced."""
    n = len(valid)
    edits = st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 255)), max_size=4)
    return st.one_of(
        st.binary(max_size=256),
        st.integers(0, n).map(lambda k: valid[:k]),
        st.binary(min_size=1, max_size=16).map(lambda tail: valid + tail),
        edits.map(lambda es: _replace_bytes(valid, es)),
    )


def _replace_bytes(valid, edits):
    out = bytearray(valid)
    for i, b in edits:
        out[i] = b
    return bytes(out)


_VALID_PGM = b"P5\n3 2\n65535\n" + bytes(range(12))


class TestMalformedInput:
    @_FUZZ
    @given(blob=_mutations(_VALID_PGM))
    def test_read_pgm(self, fuzz_dir, blob):
        path = fuzz_dir / "x.pgm"
        path.write_bytes(blob)
        try:
            img = data_io.read_pgm(path)
        except FormatError:
            return
        assert img.ndim == 2 and img.dtype == np.float32
        assert img.min() >= 0.0 and img.max() <= 1.0

    @_FUZZ
    @given(blob=_mutations(_tiny_checkpoint()))
    def test_load_checkpoint(self, fuzz_dir, blob):
        path = fuzz_dir / "x.dgnt"
        path.write_bytes(blob)
        try:
            net = data_io.load_checkpoint(path)
        except FormatError:
            return
        assert isinstance(net, M.DGNet)

    @_FUZZ
    @given(blob=st.one_of(
        st.binary(max_size=128),
        st.lists(st.sampled_from([b"images/a.pgm", b"masks/a.pgm", b"\t", b"\n", b" ",
                                  b"\r", b"\xff", b"\xc3\xa9", b"\x00"]),
                 max_size=12).map(b"".join)))
    def test_read_manifest(self, fuzz_dir, blob):
        path = fuzz_dir / "manifest.tsv"
        path.write_bytes(blob)
        try:
            entries = list(data_io.read_manifest(path))
        except FormatError:
            return
        assert all(len(pair) == 2 for pair in entries)
