import numpy as np
import pytest

from gatedepth.errors import DataFormatError
from gatedepth.pgmio import read_pgm, write_pgm


def test_8bit_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, (13, 7)).astype(np.uint8)
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    back = read_pgm(path)
    assert back.dtype == np.uint8
    np.testing.assert_array_equal(back, img)


def test_16bit_roundtrip_and_byte_order(tmp_path):
    img = np.array([[0x0102, 0xFFFE]], dtype=np.uint16)
    path = tmp_path / "img16.pgm"
    write_pgm(path, img)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n2 1\n65535\n")
    assert raw[-4:] == bytes([0x01, 0x02, 0xFF, 0xFE])  # most significant byte first
    back = read_pgm(path)
    assert back.dtype == np.uint16
    np.testing.assert_array_equal(back, img)


def test_header_comments_and_whitespace(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5 # magic\n# a comment line\n  3\n2 # columns?\n255\n" + bytes(6))
    img = read_pgm(path)
    assert img.shape == (2, 3)
    assert not img.any()


def test_rejects_wrong_magic(tmp_path):
    path = tmp_path / "p2.pgm"
    path.write_bytes(b"P2\n1 1\n255\n0\n")
    with pytest.raises(DataFormatError):
        read_pgm(path)


@pytest.mark.parametrize("header", [
    b"P5\n4 4\n",  # no maxval
    b"P5\nfour 4\n255\n",
    b"P5\n-3 4\n255\n",
    b"P5\n4 0\n255\n",
])
def test_rejects_malformed_header(tmp_path, header):
    path = tmp_path / "bad.pgm"
    path.write_bytes(header + bytes(16))
    with pytest.raises(DataFormatError):
        read_pgm(path)


def test_rejects_truncated_payload(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
    with pytest.raises(DataFormatError, match="truncated"):
        read_pgm(path)


def test_rejects_unsupported_dtype(tmp_path):
    with pytest.raises(ValueError):
        write_pgm(tmp_path / "f.pgm", np.zeros((2, 2), dtype=float))


def test_missing_file():
    with pytest.raises(DataFormatError):
        read_pgm("/nonexistent/image.pgm")
