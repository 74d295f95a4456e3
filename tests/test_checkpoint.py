"""Checkpoint serialization: byte-stable round trips and corruption detection."""

import re
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from localfocus import (DomainError, LfmModel, NprConfig, ParseError, SNetConfig,
                        TkpConfig, load_checkpoint, save_checkpoint)
from localfocus.checkpoint import MAGIC, VERSION, _config_payload


def odd_model(pooling="tkp"):
    """A model with every config knob off its default."""
    return LfmModel(
        npr_cfg=NprConfig(take_abs=False),
        snet_cfg=SNetConfig(num_conv_layers=3, channel_plan=(8, 16, 64),
                            pool_after=frozenset({1})),
        tkp_cfg=TkpConfig(k=3, p_min=0.05, p_max=0.4,
                          rbld_enabled=False, rks_enabled=True),
        pooling=pooling,
        decision_threshold=0.35,
        alpha=0.25,
        seed=13,
    )


def save_bytes(model, tmp_path, name="m.lfm"):
    path = str(tmp_path / name)
    save_checkpoint(model, path)
    return path, open(path, "rb").read()


class TestRoundTrip:
    def test_save_load_save_is_byte_identical(self, tmp_path):
        model = odd_model()
        path_a, blob_a = save_bytes(model, tmp_path, "a.lfm")
        loaded = load_checkpoint(path_a)
        _, blob_b = save_bytes(loaded, tmp_path, "b.lfm")
        assert blob_a == blob_b

    def test_config_restored(self, tmp_path):
        model = odd_model()
        path, _ = save_bytes(model, tmp_path)
        loaded = load_checkpoint(path)
        assert loaded.npr_cfg == model.npr_cfg
        assert loaded.snet_cfg == model.snet_cfg
        assert loaded.tkp_cfg == model.tkp_cfg
        assert loaded.pooling == model.pooling
        assert loaded.decision_threshold == model.decision_threshold
        assert loaded.alpha == model.alpha

    def test_parameters_carry_float32_rounding_only(self, tmp_path):
        model = odd_model()
        path, _ = save_bytes(model, tmp_path)
        loaded = load_checkpoint(path)
        for orig, back in zip(model.parameters(), loaded.parameters()):
            expected = orig.data.astype(np.float32).astype(np.float64)
            np.testing.assert_array_equal(back.data, expected)

    def test_score_drift_stays_tiny(self, tmp_path):
        model = odd_model()
        path, _ = save_bytes(model, tmp_path)
        loaded = load_checkpoint(path)
        image = np.random.default_rng(3).random((3, 32, 32))
        assert abs(model.score(image) - loaded.score(image)) <= 1e-5

    @pytest.mark.parametrize("pooling", ["gap", "gmp"])
    def test_other_pooling_variants(self, tmp_path, pooling):
        model = odd_model(pooling)
        path, blob = save_bytes(model, tmp_path)
        loaded = load_checkpoint(path)
        assert loaded.pooling == pooling
        _, blob_b = save_bytes(loaded, tmp_path, "again.lfm")
        assert blob == blob_b


class TestCorruption:
    def _write(self, tmp_path, blob):
        path = tmp_path / "bad.lfm"
        path.write_bytes(blob)
        return str(path)

    def test_bad_magic(self, tmp_path):
        _, blob = save_bytes(odd_model(), tmp_path)
        path = self._write(tmp_path, b"XXXX" + blob[4:])
        with pytest.raises(ParseError, match="magic") as exc:
            load_checkpoint(path)
        assert exc.value.offset == 0

    def test_bad_version(self, tmp_path):
        _, blob = save_bytes(odd_model(), tmp_path)
        # Version 1 (activation byte, no parameter checksum) and version 2
        # (residual grid pitch and anchor, conv-bias byte) are refused too.
        for version in (99, 1, 2):
            path = self._write(tmp_path, blob[:4] + version.to_bytes(4, "little") + blob[8:])
            with pytest.raises(ParseError, match="version") as exc:
                load_checkpoint(path)
            assert exc.value.offset == 4

    def test_header_tamper_trips_checksum(self, tmp_path):
        _, blob = save_bytes(odd_model(), tmp_path)
        # Byte 8 is the take_abs flag: flipping it keeps the header
        # parseable, so the CRC must be what catches the edit.
        tampered = bytearray(blob)
        tampered[8] ^= 0x01
        path = self._write(tmp_path, bytes(tampered))
        with pytest.raises(ParseError, match="checksum"):
            load_checkpoint(path)

    def test_truncation(self, tmp_path):
        _, blob = save_bytes(odd_model(), tmp_path)
        path = self._write(tmp_path, blob[:-7])
        with pytest.raises(ParseError, match="truncated") as exc:
            load_checkpoint(path)
        assert exc.value.offset is not None

    def test_trailing_garbage(self, tmp_path):
        _, blob = save_bytes(odd_model(), tmp_path)
        path = self._write(tmp_path, blob + b"\x00")
        with pytest.raises(ParseError, match="trailing"):
            load_checkpoint(path)

    def test_array_shape_mismatch(self, tmp_path):
        _, blob = save_bytes(odd_model(), tmp_path)
        # The file ends with the head bias: rank, one dim (=1), one f32.
        # Rewriting that dim to 2 must be rejected as a shape mismatch.
        tampered = bytearray(blob)
        dim_at = len(blob) - 8
        assert tampered[dim_at:dim_at + 4] == (1).to_bytes(4, "little")
        tampered[dim_at:dim_at + 4] = (2).to_bytes(4, "little")
        path = self._write(tmp_path, bytes(tampered))
        with pytest.raises(ParseError, match="shaped"):
            load_checkpoint(path)

    def test_payload_tamper_trips_checksum(self, tmp_path):
        model = odd_model()
        _, blob = save_bytes(model, tmp_path)
        payload_start = 8 + len(_config_payload(model)) + 8
        tampered = bytearray(blob)
        tampered[-2] ^= 0x01  # inside the head bias value: still parseable
        path = self._write(tmp_path, bytes(tampered))
        with pytest.raises(ParseError, match="parameter checksum") as exc:
            load_checkpoint(path)
        assert exc.value.offset == payload_start

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_parameter_rejected(self, tmp_path, bad):
        # A NaN/inf written with a matching checksum (a buggy writer, not
        # transport damage) must still not load: it would score as a label.
        model = odd_model()
        _, blob = save_bytes(model, tmp_path)
        payload_start = 8 + len(_config_payload(model)) + 8
        tampered = bytearray(blob)
        tampered[-4:] = np.float32(bad).tobytes()
        tampered[payload_start - 4:payload_start] = struct.pack(
            "<I", zlib.crc32(bytes(tampered[payload_start:])))
        path = self._write(tmp_path, bytes(tampered))
        last = len(model.parameters()) - 1
        with pytest.raises(ParseError, match=f"array {last} holds a non-finite") as exc:
            load_checkpoint(path)
        assert exc.value.offset == len(blob) - 4

    @pytest.mark.parametrize("bad", [1e39, np.nan])
    def test_save_refuses_value_float32_cannot_hold(self, tmp_path, bad):
        # 1e39 is finite in float64 but overflows float32 to inf, which the
        # loader refuses; the writer must refuse it first and write nothing.
        model = odd_model()
        model.fc_bias.data[0] = bad
        last = len(model.parameters()) - 1
        path = tmp_path / "m.lfm"
        with pytest.raises(DomainError, match=re.escape(f"array {last} element 0 holds {bad!r}")):
            save_checkpoint(model, str(path))
        assert not path.exists()

    def _rewrite_header(self, tmp_path, blob, model, field_at, fmt, value):
        """``blob`` with ``value`` packed at ``field_at`` and the header
        checksum recomputed, so only the value check can refuse it."""
        head_end = 8 + len(_config_payload(model))
        tampered = bytearray(blob)
        struct.pack_into(fmt, tampered, field_at, value)
        struct.pack_into("<I", tampered, head_end, zlib.crc32(bytes(tampered[:head_end])))
        return self._write(tmp_path, bytes(tampered))

    def test_oversized_header_refused_before_allocating(self, tmp_path):
        # k = 2**20 asks for a 64 Mi-entry head; the file holds ~47k values.
        model = LfmModel()
        _, blob = save_bytes(model, tmp_path)
        k_at = 8 + len(_config_payload(model)) - 38  # k, p_min, p_max, 2 flags, threshold, alpha
        assert blob[k_at:k_at + 4] == struct.pack("<I", model.tkp_cfg.k)
        path = self._rewrite_header(tmp_path, blob, model, k_at, "<I", 2**20)
        tracemalloc.start()
        try:
            # 45,728 conv-stack values plus a (1, 64 * 2**20) head weight and its bias.
            with pytest.raises(ParseError, match="header describes 67154593 parameters"):
                load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    # odd_model's header: take_abs at 8, layer count and plan length at 9,
    # the plan (8, 16, 64) at 17, the pool plan at 29, the pooling code at
    # 37 and k = 3 at 38.
    @pytest.mark.parametrize("field_at, stored, value, message", [
        (38, 3, 0, "tkp k must be >= 1, got 0"),
        (25, 64, 32, "channel_plan must end in 64, got 32"),
    ], ids=["k=0", "plan-not-ending-in-64"])
    def test_out_of_range_header_value(self, tmp_path, field_at, stored, value, message):
        model = odd_model()
        _, blob = save_bytes(model, tmp_path)
        assert blob[field_at:field_at + 4] == struct.pack("<I", stored)
        path = self._rewrite_header(tmp_path, blob, model, field_at, "<I", value)
        with pytest.raises(ParseError, match=re.escape(message)) as exc:
            load_checkpoint(path)
        assert 8 < exc.value.offset <= field_at

    def test_format_constants(self):
        assert MAGIC == b"LFM1"
        assert VERSION == 3
