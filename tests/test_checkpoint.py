"""Checkpoint format tests: bit-exact round trips and rejection of every
kind of damage (truncation, flipped bytes, wrong magic, wrong version,
renamed entries, trailing garbage)."""

import errno
import struct
import zlib

import numpy as np
import pytest

from vcmamba import checkpoint
from vcmamba.autodiff import Tensor
from vcmamba.checkpoint import (MAGIC, VERSION, CheckpointError, CheckpointFormatError,
                                CheckpointIntegrityError, CheckpointVersionError,
                                load_checkpoint, save_checkpoint)
from vcmamba.model import ModelSpec, VCMamba

SPEC = ModelSpec("tiny", (4, 4, 4, 4), ("F", "F", "F", "M"), 10, 32, n_state=2)


def scrambled_model(seed=0, dtype=np.float32):
    """A model whose parameters, buffers and direction table all differ from
    the fresh-build values, so a load that silently re-initializes fails."""
    model = VCMamba(SPEC, seed=seed, dtype=dtype)
    rng = np.random.default_rng(99)
    for _, p in model.named_parameters():
        # modest scale: keep the scrambled net numerically plausible
        p.data[...] = rng.normal(scale=0.05, size=p.shape).astype(p.dtype)
    for _, b in model.named_buffers():
        b[...] = rng.uniform(0.5, 2.0, size=b.shape).astype(b.dtype)
    return model


def rewrite(path, mutate):
    """Apply `mutate(body) -> body` to the checkpoint body and re-seal the CRC."""
    blob = path.read_bytes()
    body = mutate(bytearray(blob[:-4]))
    path.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(bytes(body))))


class TestRoundTrip:
    def test_bitwise_state_roundtrip(self, tmp_path):
        model = scrambled_model()
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(model, str(ckpt))
        loaded = load_checkpoint(str(ckpt))
        for (n1, p1), (n2, p2) in zip(model.named_parameters(), loaded.named_parameters()):
            assert n1 == n2
            np.testing.assert_array_equal(p1.data, p2.data)
        for (n1, b1), (n2, b2) in zip(model.named_buffers(), loaded.named_buffers()):
            assert n1 == n2
            np.testing.assert_array_equal(b1, b2)

    def test_eval_forward_reproduced_bitwise(self, tmp_path, rng):
        model = scrambled_model().eval()
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(model, str(ckpt))
        loaded = load_checkpoint(str(ckpt)).eval()
        x = Tensor(rng.normal(size=(2, 3, 32, 32)).astype(np.float32))
        np.testing.assert_array_equal(model(x).data, loaded(x).data)

    def test_spec_and_dtype_restored(self, tmp_path):
        model = scrambled_model(dtype=np.float64)
        ckpt = tmp_path / "model64.ckpt"
        save_checkpoint(model, str(ckpt))
        loaded = load_checkpoint(str(ckpt))
        assert loaded.spec == SPEC
        assert np.dtype(loaded.dtype) == np.float64
        assert all(p.dtype == np.float64 for p in loaded.parameters())

    def test_float64_values_roundtrip_bitwise(self, tmp_path):
        model = scrambled_model(dtype=np.float64)
        ckpt = tmp_path / "model64.ckpt"
        save_checkpoint(model, str(ckpt))
        loaded = load_checkpoint(str(ckpt))
        for (_, p1), (_, p2) in zip(model.named_parameters(), loaded.named_parameters()):
            np.testing.assert_array_equal(p1.data, p2.data)


class TestRejection:
    @pytest.fixture
    def ckpt(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(scrambled_model(), str(path))
        return path

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(str(tmp_path / "nope.ckpt"))

    def test_truncated_tail(self, ckpt):
        blob = ckpt.read_bytes()
        ckpt.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(CheckpointIntegrityError):
            load_checkpoint(str(ckpt))

    def test_nearly_empty_file(self, ckpt):
        ckpt.write_bytes(b"VCMB\x01")
        with pytest.raises(CheckpointIntegrityError, match="too short"):
            load_checkpoint(str(ckpt))

    def test_flipped_payload_byte(self, ckpt):
        blob = bytearray(ckpt.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        ckpt.write_bytes(bytes(blob))
        with pytest.raises(CheckpointIntegrityError, match="checksum"):
            load_checkpoint(str(ckpt))

    def test_wrong_magic(self, ckpt):
        def mutate(body):
            body[:4] = b"XCMB"
            return body

        rewrite(ckpt, mutate)
        with pytest.raises(CheckpointFormatError, match="magic"):
            load_checkpoint(str(ckpt))

    def test_unsupported_version(self, ckpt):
        def mutate(body):
            body[4:8] = struct.pack("<I", VERSION + 7)
            return body

        rewrite(ckpt, mutate)
        with pytest.raises(CheckpointVersionError, match="version"):
            load_checkpoint(str(ckpt))

    def test_renamed_entry(self, ckpt):
        def mutate(body):
            i = bytes(body).index(b"head.weight")
            body[i:i + len(b"head.weight")] = b"head.w8ight"
            return body

        rewrite(ckpt, mutate)
        with pytest.raises(CheckpointFormatError, match="does not exist|missing"):
            load_checkpoint(str(ckpt))

    def test_trailing_garbage(self, ckpt):
        rewrite(ckpt, lambda body: body + b"??")
        with pytest.raises(CheckpointFormatError, match="trailing"):
            load_checkpoint(str(ckpt))

    def test_errors_share_a_base_class(self):
        for err in (CheckpointFormatError, CheckpointVersionError,
                    CheckpointIntegrityError):
            assert issubclass(err, CheckpointError)

    def test_magic_constant(self):
        assert MAGIC == b"VCMB" and VERSION == 1


class TestAtomicSave:
    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(VCMamba(SPEC, seed=0), str(ckpt))
        good = ckpt.read_bytes()

        class DiskFullFile:
            """Writes half of the first chunk, then fails like a full disk."""

            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                self.f.write(data[:len(data) // 2])
                raise OSError(errno.ENOSPC, "No space left on device")

        real_open = open

        def failing_open(file, mode="r", *args, **kwargs):
            f = real_open(file, mode, *args, **kwargs)
            return DiskFullFile(f) if "w" in mode else f

        monkeypatch.setattr(checkpoint, "open", failing_open, raising=False)
        with pytest.raises(OSError, match="No space"):
            save_checkpoint(scrambled_model(), str(ckpt))
        monkeypatch.undo()

        assert ckpt.read_bytes() == good
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
        loaded = load_checkpoint(str(ckpt))
        fresh = VCMamba(SPEC, seed=0)
        for (_, p1), (_, p2) in zip(fresh.named_parameters(), loaded.named_parameters()):
            np.testing.assert_array_equal(p1.data, p2.data)
