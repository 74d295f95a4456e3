"""Synthetic dataset: smooth "camera" images and resampled fakes.

Real samples are multi-octave smooth noise: coarse Gaussian grids
upsampled bilinearly and summed with geometrically decaying amplitude,
then min-max normalized to [0, 1]. Adjacent pixels decorrelate slowly,
so nearest-anchor reconstruction leaves a broadband, spatially varied
residual.

Fake samples take a real image through the signature that cheap
generator upsampling leaves behind: 2x nearest-neighbor down/up
resampling (every 2x2 block becomes its top-left pixel) plus a
low-amplitude dither that is zero-mean within each 2x2 block, so its
energy lives strictly above the block scale. The residual extractor
sees large, uniform-magnitude residuals on fakes and irregular ones on
reals; mean |residual| of a fake exceeds its source real's.

Every sample is reproducible from (seed, sample index): the generators
derive one substream per sample and never share streams across samples.
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ParseError
from .npr import resample_2x
from .ppm import load_ppm

REAL_LABEL = 0
FAKE_LABEL = 1
_OCTAVE_DECAY = 0.5
_MIN_GRID = 4
_MIN_SIZE = 32
_DITHER_AMPLITUDE = 0.1


@dataclass
class SampleRecord:
    """One dataset sample: image in [0, 1], binary label, origin tag."""

    image: np.ndarray
    label: int
    source_tag: str


def _bilinear_resize(src: np.ndarray, out_hw: int) -> np.ndarray:
    """Resize (C, g, g) to (C, out_hw, out_hw) with bilinear sampling,
    pixel centers aligned and edges clamped."""
    g = src.shape[1]
    coords = (np.arange(out_hw) + 0.5) * (g / out_hw) - 0.5
    base = np.floor(coords)
    frac = coords - base
    lo = np.clip(base.astype(np.int64), 0, g - 1)
    hi = np.clip(lo + 1, 0, g - 1)
    rows = src[:, lo, :] * (1.0 - frac)[None, :, None] + src[:, hi, :] * frac[None, :, None]
    out = rows[:, :, lo] * (1.0 - frac)[None, None, :] + rows[:, :, hi] * frac[None, None, :]
    return out


def _smooth_noise(rng: np.random.Generator, size: int) -> np.ndarray:
    """Sum of bilinearly upsampled Gaussian grids, coarse octaves loudest.

    The finest grid stays at ``size // 4`` so every octave is upsampled
    at least 4x.  That keeps adjacent-pixel deltas small, which is what
    separates these images from the dithered fakes.
    """
    img = np.zeros((3, size, size))
    amp = 1.0
    grid = _MIN_GRID
    while grid <= size // 4:
        img += amp * _bilinear_resize(rng.normal(0.0, 1.0, size=(3, grid, grid)), size)
        amp *= _OCTAVE_DECAY
        grid *= 2
    return img


def _normalize(img: np.ndarray) -> np.ndarray:
    lo, hi = img.min(), img.max()
    if hi - lo < 1e-9:
        return np.full_like(img, 0.5)
    return (img - lo) / (hi - lo)


def gen_real(n: int, size: int, rng: np.random.Generator) -> list[SampleRecord]:
    """Generate ``n`` smooth real images of side ``size`` (label 0).

    ``size`` must be even, as :func:`gen_fake` and the 2x2 residual
    grid need, and large enough to host an octave.
    """
    if n < 1:
        raise ConfigError(f"gen_real needs n >= 1, got {n}")
    if size < _MIN_SIZE or size % 2 != 0:
        raise ConfigError(f"gen_real size must be >= {_MIN_SIZE} and divisible by 2, got {size}")
    base = int(rng.integers(0, 2**63 - 1))
    out = []
    for i in range(n):
        sub = np.random.default_rng((base, i))
        img = _normalize(_smooth_noise(sub, size))
        out.append(SampleRecord(image=img, label=REAL_LABEL, source_tag="synth-real"))
    return out


def _block_zero_mean(noise: np.ndarray) -> np.ndarray:
    """Remove the per-2x2-block mean so the noise has no energy at or
    below the block scale."""
    c, h, w = noise.shape
    blocks = noise.reshape(c, h // 2, 2, w // 2, 2)
    means = blocks.mean(axis=(2, 4), keepdims=True)
    return (blocks - means).reshape(c, h, w)


def gen_fake(reals: list[SampleRecord], rng: np.random.Generator) -> list[SampleRecord]:
    """Build one fake (label 1) from each real by 2x resampling + dither.

    The dither keeps fakes detectable even from degenerate (constant)
    reals, whose plain resampling would be residual-free.
    """
    if len(reals) == 0:
        raise ConfigError("gen_fake needs at least one source real")
    base = int(rng.integers(0, 2**63 - 1))
    out = []
    for i, rec in enumerate(reals):
        img = np.asarray(rec.image, dtype=np.float64)
        if img.ndim != 3 or img.shape[1] % 2 or img.shape[2] % 2:
            raise ConfigError(f"gen_fake needs (C, even, even) images, got {img.shape}")
        sub = np.random.default_rng((base, i))
        dither = _DITHER_AMPLITUDE * sub.uniform(-1.0, 1.0, size=img.shape)
        fake = np.clip(resample_2x(img) + _block_zero_mean(dither), 0.0, 1.0)
        out.append(SampleRecord(image=fake, label=FAKE_LABEL, source_tag="synth-fake"))
    return out


# -- manifests -----------------------------------------------------------------


@dataclass
class DatasetManifest:
    """Paths and labels for one split, relative to ``root``."""

    root: str
    entries: list[tuple[str, int, str]] = field(default_factory=list)

    def validate(self) -> None:
        seen = set()
        labels = set()
        for path, label, _tag in self.entries:
            if path in seen:
                raise ConfigError(f"manifest lists {path!r} twice")
            seen.add(path)
            labels.add(label)
        if len(self.entries) == 0:
            raise ConfigError("manifest is empty")
        if labels != {0, 1}:
            raise ConfigError(f"manifest must contain both labels, got {sorted(labels)}")


def write_manifest(manifest: DatasetManifest, path: str) -> None:
    """Write tab-separated ``path<TAB>label<TAB>source_tag`` lines (UTF-8, LF)."""
    lines = [f"{p}\t{label}\t{tag}\n" for p, label, tag in manifest.entries]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(lines)


def read_lines(path: str) -> Iterator[tuple[int, int, str]]:
    """Yield (line number, byte offset, text without its LF/CRLF/CR) for each
    line of a UTF-8 file; a byte that is not UTF-8 raises ParseError at its offset."""
    with open(path, "rb") as fh:
        raw = fh.read()
    offset = 0
    for lineno, line in enumerate(raw.splitlines(keepends=True), start=1):
        try:
            text = line.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ParseError(f"{path}:{lineno}: invalid UTF-8", offset=offset + e.start) from None
        yield lineno, offset, text.rstrip("\r\n")
        offset += len(line)


def read_manifest(path: str) -> DatasetManifest:
    """Parse a manifest file; the dataset root is the manifest's directory."""
    root = os.path.dirname(os.path.abspath(path))
    entries = []
    for lineno, offset, line in read_lines(path):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError(f"{path}:{lineno}: expected 3 tab-separated fields, got {len(parts)}",
                             offset=offset)
        rel, label_s, tag = parts
        if label_s not in ("0", "1"):
            raise ParseError(f"{path}:{lineno}: label must be 0 or 1, got {label_s!r}", offset=offset)
        entries.append((rel, int(label_s), tag))
    manifest = DatasetManifest(root=root, entries=entries)
    manifest.validate()
    return manifest


def load_dataset(manifest: DatasetManifest) -> list[SampleRecord]:
    """Load every entry's PPM into memory, in manifest order."""
    out = []
    for rel, label, tag in manifest.entries:
        img = load_ppm(os.path.join(manifest.root, rel))
        out.append(SampleRecord(image=img, label=label, source_tag=tag))
    return out
