"""Binary model checkpoints.

Layout (all integers little-endian):

    magic  b"LFM1"
    u32    format version (3)
    config payload: residual take_abs byte, conv stack plan, pooling
           variant and settings, decision threshold, aux loss weight
    u32    CRC-32 of every byte above (header check)
    u32    CRC-32 of every byte below (parameter check)
    u32    parameter array count
    per array: u32 rank, u32 dims..., float32 values (C order)

Arrays appear in model declaration order (conv weight/bias pairs, head
weight, head bias). Values are stored as float32; loading widens back
to float64, so save(load(x)) is byte-identical while scores drift by at
most ~1e-5 versus the float64 originals.

Loading rejects a mismatch of either checksum, an out-of-range header
value, a header describing more parameters than the file can hold, and
any non-finite parameter, each with its byte offset. Version 1 files
(an activation byte, no parameter checksum) and version 2 files
(residual grid pitch and anchor, conv-bias byte) are refused as an
unsupported version.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from .errors import ConfigError, DomainError, ParseError
from .model import POOLING_VARIANTS, LfmModel, head_width
from .npr import NprConfig
from .pooling import TkpConfig
from .snet import SNetConfig, snet_param_count

MAGIC = b"LFM1"
VERSION = 3


def _config_payload(model: LfmModel) -> bytes:
    npr, snet, tkp = model.npr_cfg, model.snet_cfg, model.tkp_cfg
    parts = [struct.pack("<B", int(npr.take_abs))]
    parts.append(struct.pack("<II", snet.num_conv_layers, len(snet.channel_plan)))
    parts.append(struct.pack(f"<{len(snet.channel_plan)}I", *snet.channel_plan))
    pool = sorted(snet.pool_after)
    parts.append(struct.pack("<I", len(pool)))
    if pool:
        parts.append(struct.pack(f"<{len(pool)}I", *pool))
    parts.append(struct.pack("<B", POOLING_VARIANTS.index(model.pooling)))
    parts.append(struct.pack("<IddBB", tkp.k, tkp.p_min, tkp.p_max,
                             int(tkp.rbld_enabled), int(tkp.rks_enabled)))
    parts.append(struct.pack("<dd", model.decision_threshold, model.alpha))
    return b"".join(parts)


def save_checkpoint(model: LfmModel, path: str) -> None:
    """Serialize configs and parameters to ``path``. A parameter that is
    not finite in float32 raises :class:`DomainError` and writes no file."""
    head = MAGIC + struct.pack("<I", VERSION) + _config_payload(model)
    params = model.parameters()
    payload = [struct.pack("<I", len(params))]
    for i, p in enumerate(params):
        with np.errstate(over="ignore", invalid="ignore"):
            arr = p.data.astype(np.float32)
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            raise DomainError(f"array {i} element {bad[0]} holds {float(p.data.flat[bad[0]])!r}, "
                              "which is not finite in float32; checkpoint not written")
        payload.append(struct.pack("<I", arr.ndim))
        payload.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        payload.append(arr.tobytes(order="C"))
    payload = b"".join(payload)
    with open(path, "wb") as fh:
        fh.write(head + struct.pack("<II", zlib.crc32(head), zlib.crc32(payload)) + payload)


class _Reader:
    def __init__(self, raw: bytes):
        self.raw = raw
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.raw):
            raise ParseError(f"checkpoint truncated reading {what}", offset=self.pos)
        out = self.raw[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str, what: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))


def _header_config(offset: int, build, **fields):
    """``build(**fields)``, with an out-of-range value reported as a
    :class:`ParseError` at ``offset``, where those fields start."""
    try:
        return build(**fields)
    except ConfigError as e:
        raise ParseError(f"checkpoint header: {e}", offset=offset) from None


def load_checkpoint(path: str) -> LfmModel:
    """Rebuild a model from ``path``; every structural mismatch raises
    :class:`ParseError` with the offending byte offset."""
    with open(path, "rb") as fh:
        raw = fh.read()
    r = _Reader(raw)
    magic = r.take(4, "magic")
    if magic != MAGIC:
        raise ParseError(f"bad checkpoint magic {magic!r} (want {MAGIC!r})", offset=0)
    (version,) = r.unpack("<I", "version")
    if version != VERSION:
        raise ParseError(f"unsupported checkpoint version {version}", offset=4)

    (take_abs,) = r.unpack("<B", "residual config")
    snet_at = r.pos
    num_layers, plan_len = r.unpack("<II", "conv stack plan")
    plan = r.unpack(f"<{plan_len}I", "channel plan") if plan_len else ()
    (pool_len,) = r.unpack("<I", "pool plan length")
    pool = r.unpack(f"<{pool_len}I", "pool plan") if pool_len else ()
    (pool_code,) = r.unpack("<B", "pooling variant")
    if pool_code >= len(POOLING_VARIANTS):
        raise ParseError(f"unknown pooling variant code {pool_code}", offset=r.pos - 1)
    tkp_at = r.pos
    k, p_min, p_max, rbld, rks = r.unpack("<IddBB", "pooling config")
    head_at = r.pos
    threshold, alpha = r.unpack("<dd", "head config")

    head_end = r.pos
    (crc_stored,) = r.unpack("<I", "header checksum")
    crc_actual = zlib.crc32(raw[:head_end])
    if crc_stored != crc_actual:
        raise ParseError(
            f"header checksum mismatch: stored {crc_stored:#010x}, computed {crc_actual:#010x}",
            offset=head_end,
        )

    snet_cfg = _header_config(snet_at, SNetConfig, num_conv_layers=num_layers,
                              channel_plan=plan, pool_after=frozenset(pool))
    tkp_cfg = _header_config(tkp_at, TkpConfig, k=k, p_min=p_min, p_max=p_max,
                             rbld_enabled=bool(rbld), rks_enabled=bool(rks))
    pooling = POOLING_VARIANTS[pool_code]
    # Each parameter (conv stack, head weight, head bias) takes 4 bytes of
    # the file: refuse a header describing more before allocating them.
    need = snet_param_count(snet_cfg) + head_width(pooling, k) + 1
    if 4 * need > len(raw) - r.pos:
        raise ParseError(f"header describes {need} parameters, more than the "
                         f"{len(raw) - r.pos} bytes after it hold", offset=r.pos)
    model = _header_config(head_at, LfmModel, npr_cfg=NprConfig(take_abs=bool(take_abs)),
                           snet_cfg=snet_cfg, tkp_cfg=tkp_cfg, pooling=pooling,
                           decision_threshold=threshold, alpha=alpha)

    (crc_params,) = r.unpack("<I", "parameter checksum")
    payload_start = r.pos
    params = model.parameters()
    (n_arrays,) = r.unpack("<I", "array count")
    if n_arrays != len(params):
        raise ParseError(f"checkpoint holds {n_arrays} arrays, model needs {len(params)}",
                         offset=r.pos - 4)
    arrays = []
    for i, p in enumerate(params):
        (ndim,) = r.unpack("<I", f"array {i} rank")
        shape = r.unpack(f"<{ndim}I", f"array {i} shape") if ndim else ()
        if tuple(shape) != p.data.shape:
            raise ParseError(f"array {i} shaped {tuple(shape)}, model expects {p.data.shape}",
                             offset=r.pos - 4 * max(ndim, 1))
        count = int(np.prod(shape, dtype=np.int64)) if ndim else 1
        arrays.append((r.pos, np.frombuffer(r.take(count * 4, f"array {i} values"), dtype="<f4")))
    if r.pos != len(raw):
        raise ParseError(f"trailing bytes after last array: {len(raw) - r.pos}", offset=r.pos)
    crc_actual = zlib.crc32(raw[payload_start:])
    if crc_params != crc_actual:
        raise ParseError(
            f"parameter checksum mismatch: stored {crc_params:#010x}, computed {crc_actual:#010x}",
            offset=payload_start,
        )
    for i, (p, (start, values)) in enumerate(zip(params, arrays)):
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise ParseError(f"array {i} holds a non-finite value {values[bad[0]]} at element {bad[0]}",
                             offset=start + 4 * int(bad[0]))
        p.data = values.reshape(p.data.shape).astype(np.float64)
    return model
