"""Binary PPM (P6, maxval 255) image I/O.

Images travel as float64 arrays shaped (3, H, W) with values in [0, 1].
Saving quantizes with round-half-even to 8 bits; a save/load round trip
therefore moves each value by at most 1/510. Parse failures report the
byte offset in the file.
"""

from __future__ import annotations

import numpy as np

from .errors import ParseError, ShapeError

_WHITESPACE = b" \t\n\r\x0b\x0c"


def save_ppm(image: np.ndarray, path: str) -> None:
    """Write a (3, H, W) [0, 1] float image as binary P6."""
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[0] != 3:
        raise ShapeError(f"save_ppm expects a (3, H, W) image, got {image.shape}")
    q = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    h, w = image.shape[1], image.shape[2]
    header = f"P6\n{w} {h}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(q.transpose(1, 2, 0).tobytes())


class _ByteCursor:
    """Tracks a position in a byte string for offset-aware errors."""

    def __init__(self, raw: bytes):
        self.raw = raw
        self.pos = 0

    def skip_separators(self) -> None:
        """Skip whitespace and '#' comments (which run to end of line)."""
        raw, n = self.raw, len(self.raw)
        while self.pos < n:
            b = raw[self.pos:self.pos + 1]
            if b in (b"#",):
                while self.pos < n and raw[self.pos:self.pos + 1] != b"\n":
                    self.pos += 1
            elif b in _WHITESPACE:
                self.pos += 1
            else:
                return

    def read_token(self, what: str) -> bytes:
        self.skip_separators()
        start = self.pos
        raw, n = self.raw, len(self.raw)
        while self.pos < n and raw[self.pos:self.pos + 1] not in _WHITESPACE \
                and raw[self.pos:self.pos + 1] != b"#":
            self.pos += 1
        if self.pos == start:
            raise ParseError(f"expected {what}, found end of data", offset=start)
        return raw[start:self.pos]

    def read_int(self, what: str) -> int:
        tok = self.read_token(what)
        start = self.pos - len(tok)
        # bytes.isdigit is ASCII-only; int() alone would also take b"+4" and b"2_0".
        if not tok.isdigit():
            raise ParseError(f"expected {what}, got {tok!r}", offset=start)
        try:
            return int(tok)
        except ValueError:  # more digits than int() converts
            raise ParseError(f"{what} has {len(tok)} digits, too many to read",
                             offset=start) from None


def load_ppm(path: str) -> np.ndarray:
    """Read a binary P6 file into a (3, H, W) float64 array in [0, 1]."""
    with open(path, "rb") as fh:
        raw = fh.read()
    cur = _ByteCursor(raw)
    magic = cur.read_token("PPM magic")
    if magic != b"P6":
        raise ParseError(f"not a binary PPM: magic {magic!r} != b'P6'", offset=0)
    width = cur.read_int("width")
    height = cur.read_int("height")
    if width < 1 or height < 1:
        raise ParseError(f"invalid dimensions {width}x{height}", offset=cur.pos)
    maxval = cur.read_int("maxval")
    if maxval != 255:
        raise ParseError(f"unsupported maxval {maxval} (only 255)", offset=cur.pos)
    # Exactly one whitespace byte separates the header from the pixels.
    if cur.pos >= len(raw) or raw[cur.pos:cur.pos + 1] not in _WHITESPACE:
        raise ParseError("missing whitespace after maxval", offset=cur.pos)
    cur.pos += 1
    need = width * height * 3
    body = raw[cur.pos:]
    if len(body) < need:
        raise ParseError(
            f"truncated pixel data: need {need} bytes, have {len(body)}", offset=cur.pos + len(body)
        )
    if len(body) > need:
        raise ParseError(
            f"trailing bytes after pixel data: expected {need}, have {len(body)}",
            offset=cur.pos + need,
        )
    pixels = np.frombuffer(body, dtype=np.uint8, count=need)
    img = pixels.reshape(height, width, 3).transpose(2, 0, 1)
    return img.astype(np.float64) / 255.0
