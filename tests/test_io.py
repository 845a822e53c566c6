import numpy as np
import pytest

from saleval.io import read_fixations, read_pgm, write_fixations, write_pgm
from saleval.maps import FixationSet


def test_pgm_round_trip_16bit(tmp_path):
    rng = np.random.default_rng(5)
    m = rng.random((11, 17))
    path = tmp_path / "m.pgm"
    write_pgm(path, m)
    back = read_pgm(path)
    assert back.shape == m.shape
    assert np.abs(back - m).max() <= 0.5 / 65535 + 1e-12


def test_pgm_round_trip_8bit(tmp_path):
    m = np.linspace(0, 1, 20).reshape(4, 5)
    path = tmp_path / "m8.pgm"
    write_pgm(path, m, maxval=255)
    back = read_pgm(path)
    assert np.abs(back - m).max() <= 0.5 / 255 + 1e-12


def test_pgm_deterministic_bytes(tmp_path):
    m = np.random.default_rng(1).random((6, 6))
    p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
    write_pgm(p1, m)
    write_pgm(p2, m)
    assert p1.read_bytes() == p2.read_bytes()


def test_pgm_ascii_variant(tmp_path):
    path = tmp_path / "p2.pgm"
    path.write_text("P2\n# comment\n2 2\n255\n0 128\n255 64\n")
    m = read_pgm(path)
    assert m.shape == (2, 2)
    assert m[0, 0] == 0 and m[1, 0] == 1.0
    assert abs(m[0, 1] - 128 / 255) < 1e-12


def test_pgm_rejects_garbage(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"JUNK")
    with pytest.raises(ValueError):
        read_pgm(path)


def test_pgm_rejects_truncated_raster(tmp_path):
    path = tmp_path / "short.pgm"
    for data in (
        b"P5\n4 4\n255\n" + b"\x00" * 7,
        b"P5\n4 4\n65535\n" + b"\x00" * 31,  # 16-bit: one byte short of 16 pixels
        b"P5\n4 4\n255",  # no raster at all
        b"P2\n4 4\n255\n" + b"0 " * 15,
    ):
        path.write_bytes(data)
        with pytest.raises(ValueError, match="short.pgm: truncated PGM raster"):
            read_pgm(path)


@pytest.mark.parametrize(
    "raster, message",
    [
        (b"1 x", "non-integer PGM pixel value"),
        (b"1 2.5", "non-integer PGM pixel value"),
        (b"1 -1", "negative PGM pixel value"),
        (b"1 256", "pixel value exceeds maxval"),
        (b"1 99999999999", "pixel value exceeds maxval"),
    ],
    ids=["letter", "fraction", "negative", "above-maxval", "past-uint32"],
)
def test_pgm_ascii_rejects_bad_pixel_values_naming_the_file(tmp_path, raster, message):
    path = tmp_path / "bad2.pgm"
    path.write_bytes(b"P2\n2 1\n255\n" + raster + b"\n")
    with pytest.raises(ValueError, match=f"bad2.pgm: {message}"):
        read_pgm(path)


@pytest.mark.parametrize(
    "data, message",
    [
        (b"P5\nabc 2\n255\n", "non-integer PGM header value"),
        (b"P5\n2 2\n1e3\n", "non-integer PGM header value"),
        (b"P2\n2 1.5\n255\n", "non-integer PGM header value"),
        (b"P5\n4 ", "truncated PGM header"),
        (b"P2\n4 4 # no maxval\n", "truncated PGM header"),
    ],
    ids=["letters", "float-maxval", "fraction", "cut-short", "comment-to-end"],
)
def test_pgm_rejects_a_bad_header_naming_the_file(tmp_path, data, message):
    path = tmp_path / "head.pgm"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=f"head.pgm: {message}"):
        read_pgm(path)


def test_pgm_write_rejects_out_of_range(tmp_path):
    with pytest.raises(ValueError):
        write_pgm(tmp_path / "x.pgm", np.array([[1.5]]))


@pytest.mark.parametrize("maxval", [255.5, True, 0, 65536])
def test_pgm_write_refuses_a_maxval_that_read_pgm_would_refuse(tmp_path, maxval):
    # 255.5 was written into the header, and read_pgm then refused the file
    with pytest.raises(ValueError, match="maxval"):
        write_pgm(tmp_path / "x.pgm", np.zeros((2, 2)), maxval=maxval)
    assert not (tmp_path / "x.pgm").exists()


def test_fixation_round_trip(tmp_path):
    fs = FixationSet("img7", [[3, 4], [0, 0], [9, 5]], (10, 6))
    path = tmp_path / "img7.txt"
    write_fixations(path, fs)
    back = read_fixations(path)
    assert back.image_id == "img7"
    assert back.frame == (10, 6)
    assert np.array_equal(back.points, fs.points)


def test_fixation_file_format(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("8,4\n1,2\n7,3\n")
    fs = read_fixations(path, "f")
    assert fs.frame == (8, 4)
    assert fs.points.tolist() == [[1, 2], [7, 3]]


def test_fixation_rejects_out_of_frame(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("4,4\n5,0\n")
    with pytest.raises(ValueError):
        read_fixations(path)


def test_fixation_rejects_empty_and_malformed(tmp_path):
    empty = tmp_path / "e.txt"
    empty.write_text("4,4\n")
    with pytest.raises(ValueError):
        read_fixations(empty)
    bad = tmp_path / "b.txt"
    bad.write_text("4,4\nx,y\n")
    with pytest.raises(ValueError):
        read_fixations(bad)
