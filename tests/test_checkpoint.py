"""Checkpoint format tests: bit-exact round trips and rejection of every
kind of damage (truncation, flipped bytes, wrong magic, wrong version,
renamed entries, trailing garbage)."""

import errno
import json
import os
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from vcmamba import checkpoint
from vcmamba.autodiff import Tensor
from vcmamba.checkpoint import (MAGIC, VERSION, CheckpointError, CheckpointFormatError,
                                CheckpointIntegrityError, CheckpointVersionError,
                                load_checkpoint, save_checkpoint)
from vcmamba.model import ModelSpec, VCMamba, get_preset

SPEC = ModelSpec("tiny", (4, 4, 4, 4), ("F", "F", "F", "M"), 10, 32, n_state=2)


def scrambled_model(seed=0, dtype=np.float32, spec=SPEC):
    """A model whose parameters, buffers and direction table all differ from
    the fresh-build values, so a load that silently re-initializes fails."""
    model = VCMamba(spec, seed=seed).to(dtype)
    rng = np.random.default_rng(99)
    for _, p in model.named_parameters():
        # modest scale: keep the scrambled net numerically plausible
        p.data[...] = rng.normal(scale=0.05, size=p.shape).astype(p.dtype)
    for _, b in model.named_buffers():
        b[...] = rng.uniform(0.5, 2.0, size=b.shape).astype(b.dtype)
    return model


def named_state(model):
    return [(n, p.data) for n, p in model.named_parameters()] + list(model.named_buffers())


def rewrite(path, mutate):
    """Apply `mutate(body) -> body` to the checkpoint body and re-seal the CRC."""
    blob = path.read_bytes()
    body = mutate(bytearray(blob[:-4]))
    path.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(bytes(body))))


def seal(tmp_path, parts):
    """Write checkpoint body parts and their CRC, as save_checkpoint does."""
    body = b"".join(parts)
    path = tmp_path / "rebuilt.ckpt"
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    return path


def drop_entry(body, name):
    """Remove entry `name` from a checkpoint body and decrement the entry count."""
    (hlen,) = struct.unpack("<I", body[8:12])
    count_at = 12 + hlen
    (count,) = struct.unpack("<I", body[count_at:count_at + 4])
    pos = count_at + 4
    for _ in range(count):
        start = pos
        (nlen,) = struct.unpack("<H", body[pos:pos + 2])
        entry = bytes(body[pos + 2:pos + 2 + nlen]).decode("utf-8")
        pos += 2 + nlen
        tag, ndim = body[pos], body[pos + 1]
        shape = struct.unpack(f"<{ndim}I", body[pos + 2:pos + 2 + 4 * ndim])
        pos += 2 + 4 * ndim + int(np.prod(shape)) * (4 if tag == 0 else 8)
        if entry == name:
            del body[start:pos]
            body[count_at:count_at + 4] = struct.pack("<I", count - 1)
            return body
    raise KeyError(name)


def rewrite_header_dtype(path, dtype):
    """Set the header's dtype field, re-encoding the header and re-sealing the CRC."""
    def mutate(body):
        (hlen,) = struct.unpack("<I", body[8:12])
        header = json.loads(bytes(body[12:12 + hlen]))
        header["dtype"] = dtype
        raw = json.dumps(header).encode("utf-8")
        return body[:8] + struct.pack("<I", len(raw)) + raw + body[12 + hlen:]

    rewrite(path, mutate)


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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_load_draws_no_initial_values(self, tmp_path, monkeypatch, dtype):
        model = scrambled_model(dtype=dtype, spec=get_preset("nano"))
        ckpt = tmp_path / "nano.ckpt"
        save_checkpoint(model, str(ckpt))

        def no_generator(*args, **kwargs):
            raise AssertionError("load_checkpoint created a random generator")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        loaded = load_checkpoint(str(ckpt))
        saved, got = named_state(model), named_state(loaded)
        assert [n for n, _ in saved] == [n for n, _ in got]
        for (name, a), (_, b) in zip(saved, got):
            assert a.dtype == b.dtype and np.array_equal(a, b), name

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

    def test_missing_entry(self, ckpt):
        # a load starts from undrawn zeros: a short file must not yield zero weights
        rewrite(ckpt, lambda body: drop_entry(body, "head.weight"))
        with pytest.raises(CheckpointFormatError, match="missing entries: \\['head.weight'\\]"):
            load_checkpoint(str(ckpt))

    @pytest.mark.parametrize("dtype", ["int8", "float16", "complex64"])
    def test_header_dtype_outside_float32_float64(self, ckpt, dtype):
        rewrite_header_dtype(ckpt, dtype)
        with pytest.raises(CheckpointFormatError, match=f"dtype {dtype} is not float32"):
            load_checkpoint(str(ckpt))

    @pytest.mark.parametrize("saved, claimed", [(np.float64, "float32"),
                                                (np.float32, "float64")])
    def test_entry_dtype_differs_from_header(self, tmp_path, saved, claimed):
        # a valid file whose header disagrees with its entries must not be
        # rounded or widened into the header's dtype
        ckpt = tmp_path / "mixed.ckpt"
        save_checkpoint(scrambled_model(dtype=saved), str(ckpt))
        rewrite_header_dtype(ckpt, claimed)
        with pytest.raises(CheckpointFormatError, match=f"header says {claimed}"):
            load_checkpoint(str(ckpt))

    def test_trailing_garbage(self, ckpt):
        rewrite(ckpt, lambda body: body + b"??")
        with pytest.raises(CheckpointFormatError, match="trailing"):
            load_checkpoint(str(ckpt))

    def test_repeated_entry_name(self, tmp_path):
        parts = [bytes(p) for p in checkpoint._parts(scrambled_model())]
        (count,) = struct.unpack("<I", parts[0][-4:])
        parts[0] = parts[0][:-4] + struct.pack("<I", count + 1)
        parts += parts[1:3]                 # the first entry's name and shape, then its data
        path = seal(tmp_path, parts)
        with pytest.raises(CheckpointFormatError, match="appears twice"):
            load_checkpoint(str(path))

    def test_entry_name_not_utf8(self, tmp_path):
        parts = [bytes(p) for p in checkpoint._parts(scrambled_model())]
        parts[1] = parts[1][:2] + b"\xff" + parts[1][3:]     # first byte of the first name
        path = seal(tmp_path, parts)
        with pytest.raises(CheckpointFormatError, match="not UTF-8"):
            load_checkpoint(str(path))

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


class TestMemory:
    def test_save_and_load_peaks(self, tmp_path):
        model = VCMamba(get_preset("nano"), seed=0)
        ckpt = str(tmp_path / "nano.ckpt")
        tracemalloc.start()
        try:
            save_checkpoint(model, ckpt)
            save_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            loaded = load_checkpoint(ckpt)
            load_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = os.path.getsize(ckpt)
        # save writes each array as a buffer: no copy of the state
        assert save_peak < 0.25 * size, (save_peak, size)
        # load holds the file once plus the model it fills
        assert load_peak < 2.5 * size, (load_peak, size)
        assert loaded.spec == model.spec
