"""Binary model checkpoints.

Layout (all integers little-endian):

    magic  b"LFM1"
    u32    format version (4)
    config payload: residual take_abs byte, conv channel plan (u32 length,
           one u32 per conv layer), pool plan (u32 length, u32 indices),
           pooling variant and settings, decision threshold, aux loss weight
    u32    CRC-32 of every byte above (header check)
    u32    CRC-32 of every byte below (parameter check)
    float32 values of every parameter, in model declaration order (conv
           weight/bias pairs, head weight, head bias), each in C order

The header fixes every parameter's shape, so the payload holds values
only. Loading widens them back to float64, so save(load(x)) is
byte-identical while scores drift by at most ~1e-5 versus the float64
originals.

Loading rejects a mismatch of either checksum, an out-of-range header
value, a payload longer or shorter than the header describes (checked
before the model is allocated), and any non-finite parameter, each with
its byte offset. Files of versions 1-3 are refused as an unsupported
version.
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
VERSION = 4


def _config_payload(model: LfmModel) -> bytes:
    npr, snet, tkp = model.npr_cfg, model.snet_cfg, model.tkp_cfg
    plan, pool = snet.channel_plan, sorted(snet.pool_after)
    return struct.pack(f"<BI{len(plan)}II{len(pool)}IBIddBBdd",
                       int(npr.take_abs), len(plan), *plan, len(pool), *pool,
                       POOLING_VARIANTS.index(model.pooling), tkp.k, tkp.p_min, tkp.p_max,
                       int(tkp.rbld_enabled), int(tkp.rks_enabled),
                       model.decision_threshold, model.alpha)


def save_checkpoint(model: LfmModel, path: str) -> None:
    """Serialize configs and parameters to ``path``. A parameter that is
    not finite in float32 raises :class:`DomainError` and writes no file."""
    head = MAGIC + struct.pack("<I", VERSION) + _config_payload(model)
    payload = []
    for i, p in enumerate(model.parameters()):
        with np.errstate(over="ignore", invalid="ignore"):
            arr = p.data.astype(np.float32)
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            raise DomainError(f"array {i} element {bad[0]} holds {float(p.data.flat[bad[0]])!r}, "
                              "which is not finite in float32; checkpoint not written")
        payload.append(arr.tobytes())
    payload = b"".join(payload)
    with open(path, "wb") as fh:
        fh.write(head + struct.pack("<II", zlib.crc32(head), zlib.crc32(payload)) + payload)


class _Reader:
    def __init__(self, raw: bytes):
        self.raw = raw
        self.pos = 0

    def unpack(self, fmt: str, what: str):
        n = struct.calcsize(fmt)
        if self.pos + n > len(self.raw):
            raise ParseError(f"checkpoint truncated reading {what}", offset=self.pos)
        self.pos += n
        return struct.unpack_from(fmt, self.raw, self.pos - n)


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
    (magic,) = r.unpack("<4s", "magic")
    if magic != MAGIC:
        raise ParseError(f"bad checkpoint magic {magic!r} (want {MAGIC!r})", offset=0)
    (version,) = r.unpack("<I", "version")
    if version != VERSION:
        raise ParseError(f"unsupported checkpoint version {version}", offset=4)

    (take_abs,) = r.unpack("<B", "residual config")
    snet_at = r.pos
    (plan_len,) = r.unpack("<I", "channel plan length")
    plan = r.unpack(f"<{plan_len}I", "channel plan")
    (pool_len,) = r.unpack("<I", "pool plan length")
    pool = r.unpack(f"<{pool_len}I", "pool plan")
    (pool_code,) = r.unpack("<B", "pooling variant")
    if pool_code >= len(POOLING_VARIANTS):
        raise ParseError(f"unknown pooling variant code {pool_code}", offset=r.pos - 1)
    tkp_at = r.pos
    k, p_min, p_max, rbld, rks = r.unpack("<IddBB", "pooling config")
    head_at = r.pos
    threshold, alpha = r.unpack("<dd", "head config")

    head_end = r.pos
    crc_head, crc_params = r.unpack("<II", "checksums")
    crc_actual = zlib.crc32(raw[:head_end])
    if crc_head != crc_actual:
        raise ParseError(
            f"header checksum mismatch: stored {crc_head:#010x}, computed {crc_actual:#010x}",
            offset=head_end,
        )

    snet_cfg = _header_config(snet_at, SNetConfig, channel_plan=plan, pool_after=frozenset(pool))
    tkp_cfg = _header_config(tkp_at, TkpConfig, k=k, p_min=p_min, p_max=p_max,
                             rbld_enabled=bool(rbld), rks_enabled=bool(rks))
    pooling = POOLING_VARIANTS[pool_code]
    # The conv stack, head weight and head bias take 4 bytes per value:
    # refuse a payload of any other length before allocating them.
    need = snet_param_count(snet_cfg) + head_width(pooling, k) + 1
    start, end = r.pos, r.pos + 4 * need
    if end > len(raw):
        raise ParseError(f"checkpoint truncated: header describes {need} parameters "
                         f"({4 * need} bytes), the payload holds {len(raw) - start}", offset=len(raw))
    if end < len(raw):
        raise ParseError(f"trailing bytes after the last parameter: {len(raw) - end}", offset=end)
    crc_actual = zlib.crc32(raw[start:])
    if crc_params != crc_actual:
        raise ParseError(
            f"parameter checksum mismatch: stored {crc_params:#010x}, computed {crc_actual:#010x}",
            offset=start,
        )
    model = _header_config(head_at, LfmModel, npr_cfg=NprConfig(take_abs=bool(take_abs)),
                           snet_cfg=snet_cfg, tkp_cfg=tkp_cfg, pooling=pooling,
                           decision_threshold=threshold, alpha=alpha)
    for i, p in enumerate(model.parameters()):
        values = np.frombuffer(raw, dtype="<f4", count=p.data.size, offset=start)
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise ParseError(f"array {i} holds a non-finite value {values[bad[0]]} at element {bad[0]}",
                             offset=start + 4 * int(bad[0]))
        p.data = values.reshape(p.data.shape).astype(np.float64)
        start += 4 * values.size
    return model
