"""Binary checkpoints: bit-exact save/load of parameters and buffers.

Layout, all little-endian:

    magic           4 bytes  b"VCMB"
    version         u32      currently 1
    header length   u32
    header          JSON     {"spec": {...}, "dtype": "float32"|"float64"}
    entry count     u32
    per entry:
        name length u16, name UTF-8
        dtype tag   u8 (0 float32, 1 float64)
        ndim        u8, then ndim x u32 dims
        raw data, C order
    checksum        u32      CRC32 of every preceding byte

Entries cover named parameters and named buffers (BN running statistics
included), so a round trip reproduces eval-mode behaviour exactly. A save
writes and fsyncs a temporary file, then renames it over the target, so a
failed or interrupted save leaves the previous checkpoint intact. Loading
rejects wrong magic, a header dtype other than float32/float64 and entries
tagged otherwise, entry names that are not UTF-8 or appear twice, entries
holding a non-finite value or a negative batch-norm running_var (format
errors), unknown versions (version error) and any truncation or corruption
(integrity error, no partially loaded model). A load draws nothing: it fills
VCMamba.undrawn(spec), and a missing entry is an error.
"""

from __future__ import annotations

import json
import os
import struct
import zlib

import numpy as np

from .model import ModelSpec, VCMamba

MAGIC = b"VCMB"
VERSION = 1

_DTYPE_TAGS = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_TAG_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


class CheckpointError(RuntimeError):
    pass


class CheckpointFormatError(CheckpointError):
    pass


class CheckpointVersionError(CheckpointError):
    pass


class CheckpointIntegrityError(CheckpointError):
    pass


def _named_state(model: VCMamba) -> list[tuple[str, np.ndarray]]:
    state = [(name, p.data) for name, p in model.named_parameters()]
    state += list(model.named_buffers())
    return state


def _parts(model: VCMamba):
    """The checkpoint body in order; arrays are yielded as buffers, not copies."""
    header = json.dumps({"spec": model.spec.to_dict(),
                         "dtype": np.dtype(model.dtype).name}).encode("utf-8")
    state = _named_state(model)
    yield MAGIC + struct.pack("<II", VERSION, len(header)) + header + struct.pack("<I", len(state))
    for name, arr in state:
        raw = name.encode("utf-8")
        tag = _DTYPE_TAGS.get(arr.dtype)
        if tag is None:
            raise CheckpointFormatError(f"cannot serialize dtype {arr.dtype} of {name}")
        yield struct.pack(f"<H{len(raw)}sBB{arr.ndim}I", len(raw), raw, tag, arr.ndim, *arr.shape)
        yield np.ascontiguousarray(arr, dtype=_TAG_DTYPES[tag])


def save_checkpoint(model: VCMamba, path: str) -> None:
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as f:
            crc = 0
            for part in _parts(model):
                f.write(part)
                crc = zlib.crc32(part, crc)
            f.write(struct.pack("<I", crc))
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):     # only when the save failed
            os.unlink(tmp)


class _Reader:
    def __init__(self, buf: memoryview):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.buf):
            raise CheckpointIntegrityError(f"truncated checkpoint: wanted {n} bytes at offset "
                                           f"{self.pos}, file body has {len(self.buf)}")
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_checkpoint(path: str) -> VCMamba:
    with open(path, "rb") as f:
        blob = memoryview(f.read())     # body and entries below are views, not copies
    if len(blob) < len(MAGIC) + 8:
        raise CheckpointIntegrityError(f"file too short to be a checkpoint ({len(blob)} bytes)")
    body, stored = blob[:-4], struct.unpack("<I", blob[-4:])[0]
    if body[:4] != MAGIC:
        raise CheckpointFormatError(f"bad magic {bytes(body[:4])!r}, expected {MAGIC!r}")
    if zlib.crc32(body) != stored:
        raise CheckpointIntegrityError("checksum mismatch: checkpoint is truncated or corrupt")

    r = _Reader(body)
    r.take(4)
    (version,) = r.unpack("<I")
    if version != VERSION:
        raise CheckpointVersionError(f"checkpoint version {version} is not supported "
                                     f"(this build reads version {VERSION})")
    (hlen,) = r.unpack("<I")
    try:
        header = json.loads(bytes(r.take(hlen)).decode("utf-8"))
        spec = ModelSpec.from_dict(header["spec"])
        dtype = np.dtype(header["dtype"])
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckpointFormatError(f"unreadable checkpoint header: {exc}") from exc
    if dtype not in _DTYPE_TAGS:
        raise CheckpointFormatError(f"checkpoint dtype {dtype.name} is not float32 or float64")

    model = VCMamba.undrawn(spec).to(dtype)
    target = dict(_named_state(model))
    seen = set()
    (count,) = r.unpack("<I")
    for _ in range(count):
        (nlen,) = r.unpack("<H")
        try:
            name = bytes(r.take(nlen)).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointFormatError(f"checkpoint entry name is not UTF-8: {exc}") from exc
        if name in seen:
            raise CheckpointFormatError(f"checkpoint entry {name!r} appears twice")
        tag, ndim = r.unpack("<BB")
        if tag != _DTYPE_TAGS[dtype]:
            raise CheckpointFormatError(f"entry {name!r} has dtype tag {tag}, but the header "
                                        f"says {dtype.name} (tag {_DTYPE_TAGS[dtype]})")
        shape = r.unpack(f"<{ndim}I")
        n_items = int(np.prod(shape, dtype=np.int64)) if ndim else 1
        raw = r.take(n_items * _TAG_DTYPES[tag].itemsize)
        if name not in target:
            raise CheckpointFormatError(f"checkpoint entry {name!r} does not exist in a "
                                        f"{spec.name!r} model")
        dest = target[name]
        if tuple(shape) != dest.shape:
            raise CheckpointFormatError(f"entry {name!r} has shape {tuple(shape)}, model "
                                        f"expects {dest.shape}")
        values = np.frombuffer(raw, dtype=_TAG_DTYPES[tag]).reshape(shape)
        if not np.isfinite(values).all():
            raise CheckpointFormatError(f"entry {name!r} holds a non-finite value")
        if name.endswith(".running_var") and (values < 0).any():
            raise CheckpointFormatError(f"entry {name!r} holds a negative batch-norm variance")
        dest[...] = values
        seen.add(name)
    if r.pos != len(body):
        raise CheckpointFormatError(f"{len(body) - r.pos} unexpected trailing bytes")
    missing = set(target) - seen
    if missing:
        raise CheckpointFormatError(f"checkpoint is missing entries: {sorted(missing)[:5]}")
    return model
