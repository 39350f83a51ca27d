"""Binary PGM (P5) reader/writer for 8-bit and 16-bit grayscale images.

16-bit samples are big-endian, most significant byte first, per the netpbm
format definition.
"""

from __future__ import annotations

import numpy as np

from .errors import DataFormatError


def write_pgm(path, image):
    """Write a 2-D uint8 or uint16 array as binary PGM."""
    image = np.asarray(image)
    if image.ndim != 2:
        raise ValueError("PGM images are 2-D")
    if image.dtype == np.uint8:
        maxval = 255
        payload = image.tobytes()
    elif image.dtype == np.uint16:
        maxval = 65535
        payload = image.astype(">u2").tobytes()
    else:
        raise ValueError(f"unsupported dtype {image.dtype}; use uint8 or uint16")
    height, width = image.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n{maxval}\n".encode("ascii"))
        fh.write(payload)


def _header_tokens(data):
    """Yield whitespace-separated header tokens, skipping # comments."""
    pos = 0
    while True:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            end = data.find(b"\n", pos)
            pos = len(data) if end < 0 else end + 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            return
        yield data[start:pos], pos


def read_pgm(path):
    """Read a binary PGM into a uint8 (maxval <= 255) or uint16 array."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise DataFormatError(f"cannot open image {path}: {exc}") from exc

    tokens = _header_tokens(data)
    try:
        magic, _ = next(tokens)
        if magic != b"P5":
            raise DataFormatError(f"{path}: not a binary PGM (magic {magic!r})")
        width, _ = next(tokens)
        height, _ = next(tokens)
        maxval, end = next(tokens)
        width, height, maxval = int(width), int(height), int(maxval)
    except (StopIteration, ValueError) as exc:
        raise DataFormatError(f"{path}: malformed PGM header") from exc
    if width < 1 or height < 1:
        raise DataFormatError(f"{path}: image size {width}x{height} is not positive")
    if not (0 < maxval < 65536):
        raise DataFormatError(f"{path}: maxval {maxval} out of range")

    payload = data[end + 1 :]  # exactly one whitespace byte follows maxval
    if maxval <= 255:
        dtype, itemsize = np.uint8, 1
    else:
        dtype, itemsize = np.dtype(">u2"), 2
    expected = width * height * itemsize
    if len(payload) < expected:
        raise DataFormatError(f"{path}: truncated pixel data ({len(payload)} < {expected} bytes)")
    pixels = np.frombuffer(payload[:expected], dtype=dtype).reshape(height, width)
    return pixels.astype(np.uint16) if itemsize == 2 else pixels.copy()
