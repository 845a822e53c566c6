"""File formats: portable graymaps for maps, plain text for fixations.

Maps travel as single-channel PGM files (binary P5 or ASCII P2, 8- or
16-bit); pixel values are mapped to [0, 1] by dividing by the file's
maxval. Fixations use one text file per image: a `width,height` header
line followed by one `x,y` integer pair per line.
"""

from __future__ import annotations

import os

import numpy as np

from .maps import FixationSet

__all__ = ["read_pgm", "write_pgm", "read_fixations", "write_fixations"]


def _pgm_tokens(data: bytes, count: int, start: int, path) -> tuple[list[bytes], int]:
    """Read `count` whitespace-separated header tokens, skipping # comments."""
    tokens = []
    i = start
    while len(tokens) < count:
        while i < len(data) and data[i : i + 1].isspace():
            i += 1
        if i >= len(data):
            raise ValueError(f"{path}: truncated PGM header")
        if data[i : i + 1] == b"#":
            while i < len(data) and data[i] != 0x0A:
                i += 1
            continue
        j = i
        while j < len(data) and not data[j : j + 1].isspace():
            j += 1
        tokens.append(data[i:j])
        i = j
    return tokens, i


def read_pgm(path) -> np.ndarray:
    """Read a P2/P5 graymap as a float64 map scaled to [0, 1]."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:2] not in (b"P2", b"P5"):
        raise ValueError(f"{path}: not a PGM file")
    magic = data[:2]
    (w_tok, h_tok, max_tok), pos = _pgm_tokens(data, 3, 2, path)
    try:
        width, height, maxval = int(w_tok), int(h_tok), int(max_tok)
    except ValueError:
        raise ValueError(f"{path}: non-integer PGM header value") from None
    if width < 1 or height < 1 or not 0 < maxval < 65536:
        raise ValueError(f"{path}: bad PGM dimensions or maxval")
    if magic == b"P5":
        pos += 1  # exactly one whitespace byte after maxval
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
        # checked first: frombuffer's own error on a short buffer names no file
        if len(data) - pos < width * height * dtype.itemsize:
            raise ValueError(f"{path}: truncated PGM raster")
        raster = np.frombuffer(data, dtype=dtype, count=width * height, offset=pos)
        if raster.max(initial=0) > maxval:
            raise ValueError(f"{path}: pixel value exceeds maxval")
    else:
        tokens = data[pos:].split()[: width * height]
        if len(tokens) != width * height:
            raise ValueError(f"{path}: truncated PGM raster")
        try:
            values = [int(t) for t in tokens]
        except ValueError:
            raise ValueError(f"{path}: non-integer PGM pixel value") from None
        # checked as Python integers: a fixed-width cast would overflow first
        if min(values) < 0:
            raise ValueError(f"{path}: negative PGM pixel value")
        if max(values) > maxval:
            raise ValueError(f"{path}: pixel value exceeds maxval")
        raster = np.array(values)
    return raster.reshape(height, width).astype(np.float64) / maxval


def write_pgm(path, m: np.ndarray, maxval: int = 65535) -> None:
    """Write a map with values in [0, 1] as a binary (P5) graymap."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("map must be 2-D")
    if m.min() < 0 or m.max() > 1:
        raise ValueError("map values must lie in [0, 1]")
    if not 0 < maxval < 65536:
        raise ValueError("maxval must be in [1, 65535]")
    quant = np.rint(m * maxval).astype(">u2" if maxval > 255 else "u1")
    header = f"P5\n{m.shape[1]} {m.shape[0]}\n{maxval}\n".encode("ascii")
    tmp = f"{path}.tmp{os.getpid()}"
    with open(tmp, "wb") as f:
        f.write(header)
        f.write(quant.tobytes())
    os.replace(tmp, path)


def read_fixations(path, image_id: str | None = None) -> FixationSet:
    """Read a fixation file: `width,height` header, then one `x,y` per line."""
    if image_id is None:
        image_id = os.path.splitext(os.path.basename(path))[0]
    with open(path, "r", encoding="utf-8") as f:
        lines = [ln.strip() for ln in f if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty fixation file")
    try:
        w, h = (int(t) for t in lines[0].split(","))
        points = [[int(t) for t in ln.split(",")] for ln in lines[1:]]
    except ValueError as exc:
        raise ValueError(f"{path}: malformed fixation line: {exc}") from None
    if not points:
        raise ValueError(f"{path}: no fixation points")
    return FixationSet(image_id=image_id, points=np.array(points), frame=(w, h))


def write_fixations(path, fixations: FixationSet) -> None:
    w, h = fixations.frame
    lines = [f"{w},{h}"]
    lines.extend(f"{x},{y}" for x, y in fixations.points)
    tmp = f"{path}.tmp{os.getpid()}"
    with open(tmp, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")
    os.replace(tmp, path)
