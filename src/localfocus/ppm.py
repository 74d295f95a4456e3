"""Binary PPM (P6, maxval 255) image I/O.

Images travel as float64 arrays shaped (3, H, W) with values in [0, 1].
Saving quantizes with round-half-even to 8 bits; a save/load round trip
therefore moves each value by at most 1/510. Parse failures report the
byte offset in the file.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import ParseError, ShapeError, require_finite_pixels

# Header separators (ASCII whitespace, and '#' comments to the end of the
# line), then one token. The token is empty only at the end of the data.
_TOKEN = re.compile(rb"(?:\s|#[^\n]*)*([^\s#]*)")


def save_ppm(image: np.ndarray, path: str) -> None:
    """Write a (3, H, W) [0, 1] float image as binary P6; a non-finite
    pixel raises DomainError before the file is opened."""
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[0] != 3:
        raise ShapeError(f"save_ppm expects a (3, H, W) image, got {image.shape}")
    require_finite_pixels("save_ppm image", image)
    q = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    h, w = image.shape[1], image.shape[2]
    header = f"P6\n{w} {h}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(q.transpose(1, 2, 0).tobytes())


def _token(raw: bytes, pos: int, what: str) -> tuple[bytes, int]:
    """The header token after ``pos`` and the offset just past it."""
    m = _TOKEN.match(raw, pos)
    if not m[1]:
        raise ParseError(f"expected {what}, found end of data", offset=m.end())
    return m[1], m.end()


def _int(raw: bytes, pos: int, what: str) -> tuple[int, int]:
    """The decimal header integer after ``pos`` and the offset just past it."""
    tok, end = _token(raw, pos, what)
    # bytes.isdigit is ASCII-only; int() alone would also take b"+4" and b"2_0".
    if not tok.isdigit():
        raise ParseError(f"expected {what}, got {tok!r}", offset=end - len(tok))
    try:
        return int(tok), end
    except ValueError:  # more digits than int() converts
        raise ParseError(f"{what} has {len(tok)} digits, too many to read",
                         offset=end - len(tok)) from None


def load_ppm(path: str) -> np.ndarray:
    """Read a binary P6 file into a (3, H, W) float64 array in [0, 1]."""
    with open(path, "rb") as fh:
        raw = fh.read()
    magic, pos = _token(raw, 0, "PPM magic")
    if magic != b"P6":
        raise ParseError(f"not a binary PPM: magic {magic!r} != b'P6'", offset=0)
    width, pos = _int(raw, pos, "width")
    height, pos = _int(raw, pos, "height")
    if width < 1 or height < 1:
        raise ParseError(f"invalid dimensions {width}x{height}", offset=pos)
    maxval, pos = _int(raw, pos, "maxval")
    if maxval != 255:
        raise ParseError(f"unsupported maxval {maxval} (only 255)", offset=pos)
    # Exactly one whitespace byte separates the header from the pixels.
    if not raw[pos:pos + 1].isspace():
        raise ParseError("missing whitespace after maxval", offset=pos)
    pos += 1
    need = width * height * 3
    body = raw[pos:]
    if len(body) < need:
        raise ParseError(
            f"truncated pixel data: need {need} bytes, have {len(body)}", offset=pos + len(body)
        )
    if len(body) > need:
        raise ParseError(
            f"trailing bytes after pixel data: expected {need}, have {len(body)}",
            offset=pos + need,
        )
    pixels = np.frombuffer(body, dtype=np.uint8, count=need)
    img = pixels.reshape(height, width, 3).transpose(2, 0, 1)
    return img.astype(np.float64) / 255.0
