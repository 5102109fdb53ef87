import io
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ircur import mio
from ircur.mio import (
    BIN_MAGIC,
    FormatError,
    frames_to_matrix,
    matrix_to_frames,
    read_frame_dir,
    read_matrix,
    read_pgm,
    write_frame_dir,
    write_matrix,
    write_pgm,
)

rng = np.random.default_rng(99)


def test_bin_round_trip_bit_exact(tmp_path):
    M = rng.standard_normal((2, 3))
    p = tmp_path / "m.bin"
    write_matrix(M, p)
    np.testing.assert_array_equal(read_matrix(p), M)


def test_bin_round_trip_extreme_values(tmp_path):
    M = np.array([[0.0, -0.0, 1e-308], [np.finfo(float).max, -np.finfo(float).tiny, 1e308]])
    p = tmp_path / "m.bin"
    write_matrix(M, p)
    out = read_matrix(p)
    assert out.tobytes() == M.tobytes()


def test_empty_file_is_format_error(tmp_path):
    p = tmp_path / "empty.bin"
    p.write_bytes(b"")
    with pytest.raises(FormatError):
        read_matrix(p)


@pytest.mark.parametrize("shape", [(0, 3), (4, 0), (0, 0)], ids=["rows", "cols", "both"])
def test_bin_matrix_with_a_zero_dimension_is_format_error(tmp_path, shape):
    p = tmp_path / "e.bin"
    p.write_bytes(BIN_MAGIC + struct.pack("<ii", *shape))
    with pytest.raises(FormatError, match="empty matrix$"):
        read_matrix(p)


@pytest.mark.parametrize("suffix", ["bin", "csv"])
@pytest.mark.parametrize("shape", [(0, 3), (4, 0), (0, 0)], ids=["rows", "cols", "both"])
def test_write_matrix_rejects_a_zero_dimension(tmp_path, shape, suffix):
    # read_matrix refuses such a matrix in either format, so it is never written.
    p = tmp_path / f"e.{suffix}"
    with pytest.raises(ValueError, match="zero dimension"):
        write_matrix(np.zeros(shape), p)
    assert not p.exists()


def test_bad_magic_reports_offset_zero(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"NOPE" + struct.pack("<ii", 1, 1) + b"\x00" * 8)
    with pytest.raises(FormatError) as err:
        read_matrix(p)
    assert err.value.offset == 0


def test_negative_dimensions_report_offset_four(tmp_path):
    p = tmp_path / "neg.bin"
    p.write_bytes(BIN_MAGIC + struct.pack("<ii", -1, 2))
    with pytest.raises(FormatError, match="negative dimensions -1x2") as err:
        read_matrix(p)
    assert err.value.offset == 4


def test_write_matrix_rejects_non_2d(tmp_path):
    with pytest.raises(ValueError, match="only 2-D"):
        write_matrix(np.ones(3), tmp_path / "v.bin")


def test_truncated_payload_reports_offset(tmp_path):
    p = tmp_path / "short.bin"
    p.write_bytes(BIN_MAGIC + struct.pack("<ii", 2, 2) + b"\x00" * 16)
    with pytest.raises(FormatError) as err:
        read_matrix(p)
    assert err.value.offset == 12 + 16


def test_non_finite_payload_reports_offset(tmp_path):
    p = tmp_path / "nan.bin"
    payload = np.array([1.0, np.nan, 3.0, 4.0]).astype("<f8").tobytes()
    p.write_bytes(BIN_MAGIC + struct.pack("<ii", 2, 2) + payload)
    with pytest.raises(FormatError) as err:
        read_matrix(p)
    assert err.value.offset == 12 + 8  # second column-major slot


def test_payload_shrunk_after_stat_is_format_error(tmp_path, monkeypatch):
    # The size check uses stat; a file cut short before the payload read
    # must still fail as a FormatError at the offset where the data ends.
    p = tmp_path / "m.bin"
    write_matrix(np.ones((2, 2)), p)
    fromfile = np.fromfile
    monkeypatch.setattr(
        np, "fromfile", lambda fh, dtype, count: fromfile(fh, dtype=dtype, count=count - 1)
    )
    with pytest.raises(FormatError) as err:
        read_matrix(p)
    assert err.value.offset == 12 + 8 * 3


def test_header_shrunk_after_stat_is_format_error(tmp_path, monkeypatch):
    # stat sees the whole file; the header read then comes back short.
    p = tmp_path / "m.bin"
    write_matrix(np.ones((2, 2)), p)
    monkeypatch.setattr(
        mio, "open", lambda path, mode: io.BytesIO(p.read_bytes()[:5]), raising=False
    )
    with pytest.raises(FormatError, match="truncated header") as err:
        read_matrix(p)
    assert err.value.offset == 5


def test_bin_read_holds_payload_once(tmp_path):
    M = rng.standard_normal((1000, 1000))
    p = tmp_path / "m.bin"
    write_matrix(M, p)
    tracemalloc.start()
    try:
        out = read_matrix(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * M.nbytes
    assert out.flags.f_contiguous and out.flags.writeable
    np.testing.assert_array_equal(out, M)


def test_csv_read_holds_matrix_once(tmp_path):
    M = rng.standard_normal((500, 500))
    p = tmp_path / "m.csv"
    write_matrix(M, p)
    tracemalloc.start()
    try:
        out = read_matrix(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * M.nbytes
    np.testing.assert_array_equal(out, M)


def test_trailing_bytes_rejected(tmp_path):
    p = tmp_path / "long.bin"
    p.write_bytes(BIN_MAGIC + struct.pack("<ii", 1, 1) + b"\x00" * 9)
    with pytest.raises(FormatError):
        read_matrix(p)


def test_csv_round_trip_large_matrix(tmp_path):
    M = rng.standard_normal((1000, 1000))
    p = tmp_path / "big.csv"
    write_matrix(M, p)
    out = read_matrix(p)
    assert np.abs(out - M).max() == 0.0


def test_csv_single_row_and_column(tmp_path):
    row = np.array([[1.5, -2.25, 3.125]])
    col = row.T
    pr, pc = tmp_path / "r.csv", tmp_path / "c.csv"
    write_matrix(row, pr)
    write_matrix(col, pc)
    assert read_matrix(pr).shape == (1, 3)
    assert read_matrix(pc).shape == (3, 1)


def test_csv_empty_is_format_error(tmp_path):
    p = tmp_path / "e.csv"
    p.write_text("")
    with pytest.raises(FormatError):
        read_matrix(p)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_csv_non_finite_is_format_error(tmp_path, bad):
    p = tmp_path / "nf.csv"
    p.write_text(f"1,2\n3,{bad}\n")
    with pytest.raises(FormatError, match="non-finite value"):
        read_matrix(p)


def test_csv_unparsable_is_format_error(tmp_path):
    p = tmp_path / "text.csv"
    p.write_text("1,a\n")
    with pytest.raises(FormatError, match="unreadable CSV") as err:
        read_matrix(p)
    assert err.value.offset is None


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=6))
@settings(max_examples=30, deadline=None)
def test_csv_round_trip_value_exact(tmp_path_factory, vals):
    M = np.array(vals).reshape(1, -1)
    p = tmp_path_factory.mktemp("csv") / "v.csv"
    write_matrix(M, p)
    np.testing.assert_array_equal(read_matrix(p), M)


def test_format_sniffing(tmp_path):
    M = rng.standard_normal((3, 3))
    pb = tmp_path / "noext_bin"
    pc = tmp_path / "noext_csv"
    write_matrix(M, pb)  # a suffix other than .csv writes BIN
    write_matrix(M, tmp_path / "m.csv")
    (tmp_path / "m.csv").rename(pc)
    np.testing.assert_array_equal(read_matrix(pb), M)
    np.testing.assert_array_equal(read_matrix(pc), M)


def test_frames_to_matrix_layout():
    frame = np.array([[0, 255], [128, 64]], dtype=np.uint8)
    D = frames_to_matrix(frame[None, :, :])
    np.testing.assert_array_equal(D[:, 0], [0.0, 128.0, 255.0, 64.0])


def test_frames_to_matrix_video_scale_shape():
    # 1000 frames of 256x320 stack into an 81920 x 1000 matrix.
    frames = np.zeros((1000, 256, 320), dtype=np.uint8)
    assert frames_to_matrix(frames).shape == (81920, 1000)


def test_frames_to_matrix_rejects_non_3d():
    with pytest.raises(ValueError, match="nonempty"):
        frames_to_matrix(np.zeros((4, 5), dtype=np.uint8))


def test_identical_frames_give_rank_one():
    frame = rng.integers(0, 256, size=(6, 5)).astype(np.uint8)
    D = frames_to_matrix(np.stack([frame] * 4))
    s = np.linalg.svd(D, compute_uv=False)
    assert np.sum(s > 1e-10 * s[0]) == 1


def test_frames_matrix_round_trip():
    pixels = rng.integers(0, 256, size=(7, 8, 9)).astype(np.uint8)
    back = matrix_to_frames(frames_to_matrix(pixels), width=9, height=8)
    assert back.dtype == np.uint8
    np.testing.assert_array_equal(back, pixels)


def test_matrix_to_frames_clamps():
    low = matrix_to_frames(np.full((4, 1), -5.0), 2, 2)
    assert (low == 0).all()
    high = matrix_to_frames(np.full((4, 1), 300.7), 2, 2)
    assert (high == 255).all()


def test_matrix_to_frames_shape_error():
    with pytest.raises(ValueError):
        matrix_to_frames(np.zeros((5, 2)), 2, 2)


def test_pgm_round_trip(tmp_path):
    frame = rng.integers(0, 256, size=(11, 13)).astype(np.uint8)
    p = tmp_path / "f.pgm"
    write_pgm(frame, p)
    np.testing.assert_array_equal(read_pgm(p), frame)


@pytest.mark.parametrize("bad", [300.0, -1.0, 1.5])
def test_pgm_rejects_values_outside_uint8(tmp_path, bad):
    frame = np.zeros((2, 3))
    frame[1, 2] = bad
    with pytest.raises(ValueError, match="integers in 0..255"):
        write_pgm(frame, tmp_path / "f.pgm")


def test_pgm_rejects_non_2d_frame(tmp_path):
    with pytest.raises(ValueError, match="must be 2-D"):
        write_pgm(np.zeros((2, 3, 1), dtype=np.uint8), tmp_path / "f.pgm")


def test_pgm_round_trips_in_range_int64_frame(tmp_path):
    frame = rng.integers(0, 256, size=(4, 5), dtype=np.int64)
    p = tmp_path / "f.pgm"
    write_pgm(frame, p)
    np.testing.assert_array_equal(read_pgm(p), frame)


def test_pgm_comment_handling(tmp_path):
    p = tmp_path / "c.pgm"
    p.write_bytes(b"P5\n# a comment\n2 2\n255\n\x00\x01\x02\x03")
    np.testing.assert_array_equal(read_pgm(p), [[0, 1], [2, 3]])


def test_pgm_rejects_wide_maxval(tmp_path):
    p = tmp_path / "w.pgm"
    p.write_bytes(b"P5\n2 2\n65535\n" + b"\x00" * 8)
    with pytest.raises(FormatError):
        read_pgm(p)


@pytest.mark.parametrize("data,message,offset", [
    (b"P5\n2 1\n255X\x01\x02", "no whitespace byte after PGM maxval", 10),
    (b"P5\n2 1\n15\n\x01\xff", "pixel above maxval 15", 11),
    (b"P5\n2 # c\n", "malformed PGM header", 9),
    (b"P2\n2 1\n255\n1 2\n", "missing P5", 0),
], ids=["no_space_after_maxval", "pixel_above_maxval", "missing_field", "missing_p5"])
def test_pgm_malformed_header_or_pixels(tmp_path, data, message, offset):
    p = tmp_path / "m.pgm"
    p.write_bytes(data)
    with pytest.raises(FormatError, match=message) as err:
        read_pgm(p)
    assert err.value.offset == offset


def test_pgm_truncated(tmp_path):
    p = tmp_path / "t.pgm"
    p.write_bytes(b"P5\n4 4\n255\n\x00\x00")
    with pytest.raises(FormatError):
        read_pgm(p)


def test_frame_dir_round_trip(tmp_path):
    pixels = rng.integers(0, 256, size=(5, 6, 7)).astype(np.uint8)
    write_frame_dir(pixels, tmp_path / "seq")
    back = read_frame_dir(tmp_path / "seq")
    assert back.dtype == np.uint8
    np.testing.assert_array_equal(back, pixels)


def test_frame_dir_numbers_from_first(tmp_path):
    pixels = rng.integers(0, 256, size=(2, 3, 4)).astype(np.uint8)
    write_frame_dir(pixels, tmp_path / "seq", first=3)
    assert sorted(p.name for p in (tmp_path / "seq").iterdir()) == [
        "frame_00003.pgm", "frame_00004.pgm"
    ]
    np.testing.assert_array_equal(read_frame_dir(tmp_path / "seq"), pixels)


def test_frame_dir_dimension_mismatch(tmp_path):
    d = tmp_path / "bad"
    d.mkdir()
    write_pgm(np.zeros((4, 4), dtype=np.uint8), d / "a.pgm")
    write_pgm(np.zeros((3, 4), dtype=np.uint8), d / "b.pgm")
    with pytest.raises(FormatError):
        read_frame_dir(d)


def test_frame_dir_empty(tmp_path):
    d = tmp_path / "none"
    d.mkdir()
    with pytest.raises(FormatError):
        read_frame_dir(d)
