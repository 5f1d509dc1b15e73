import os
import signal
import time

import numpy as np
import pytest

from thermobg.frameio import (FrameFormatError, WriterProcess, encode_pgm,
                              read_mask, read_pgm, read_pgm_sequence,
                              read_raw_sequence, write_mask, write_pgm,
                              write_posterior)


def frames_of(depth, n=3, height=4, width=5, seed=0):
    rng = np.random.default_rng(seed)
    top = 256 if depth == 8 else 65536
    return rng.integers(0, top, (n, height, width)).astype(
        np.uint8 if depth == 8 else np.uint16)


def assert_no_child():
    """The test process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def truncate(path, n_bytes):
    data = path.read_bytes()
    path.write_bytes(data[:len(data) - n_bytes])


class TestPgm:
    @pytest.mark.parametrize("depth,maxval", [(8, 255), (16, 65535)])
    def test_round_trip(self, tmp_path, depth, maxval):
        arr = frames_of(depth)[0]
        arr[0, 0], arr[0, 1] = 0, maxval  # both extremes survive
        write_pgm(arr, tmp_path / "f.pgm")
        back, got_maxval = read_pgm(tmp_path / "f.pgm")
        assert got_maxval == maxval
        assert back.dtype == arr.dtype
        assert np.array_equal(back, arr)

    def test_truncated_payload_raises(self, tmp_path):
        write_pgm(frames_of(16)[0], tmp_path / "f.pgm")
        truncate(tmp_path / "f.pgm", 1)
        with pytest.raises(FrameFormatError, match="truncated"):
            read_pgm(tmp_path / "f.pgm")

    def test_sequence_depth_and_limit(self, tmp_path):
        frames = frames_of(16, n=4)
        for t, arr in enumerate(frames):
            write_pgm(arr, tmp_path / f"frame_{t:03d}.pgm")
        truncate(tmp_path / "frame_003.pgm", 2)
        seq, paths = read_pgm_sequence(str(tmp_path), limit=3)
        assert seq.intensity_levels == 65536
        assert [os.path.basename(p) for p in paths] == [
            "frame_000.pgm", "frame_001.pgm", "frame_002.pgm"]
        assert np.array_equal(seq.frames, frames[:3].astype(np.float64))
        with pytest.raises(FrameFormatError, match="truncated"):
            read_pgm_sequence(str(tmp_path))

    @pytest.mark.parametrize("limit", [0, -1])
    def test_sequence_limit_below_one_raises(self, tmp_path, limit):
        for t, arr in enumerate(frames_of(8, n=5)):
            write_pgm(arr, tmp_path / f"frame_{t:03d}.pgm")
        with pytest.raises(ValueError, match="at least 1"):
            read_pgm_sequence(str(tmp_path), limit=limit)

    def test_mask_from_labels(self, tmp_path):
        labels = np.array([[0, 1, 0], [1, 1, 0]], dtype=np.uint8)
        write_mask(labels, tmp_path / "m.pgm")
        raw, maxval = read_pgm(tmp_path / "m.pgm")
        assert maxval == 255
        assert np.array_equal(raw, labels * 255)
        assert np.array_equal(read_mask(tmp_path / "m.pgm"), labels)


    @pytest.mark.parametrize("depth", [8, 16])
    def test_encode_gives_the_written_bytes(self, tmp_path, depth):
        arr = frames_of(depth)[0]
        write_pgm(arr, tmp_path / "f.pgm")
        assert encode_pgm(arr) == (tmp_path / "f.pgm").read_bytes()
        # the cast of a float array to the declared depth
        maxval = 255 if depth == 8 else 65535
        write_pgm(arr.astype(np.float64), tmp_path / "g.pgm", maxval)
        assert encode_pgm(arr.astype(np.float64), maxval) == \
            (tmp_path / "f.pgm").read_bytes()
        assert (tmp_path / "g.pgm").read_bytes() == \
            (tmp_path / "f.pgm").read_bytes()


RASTER = bytes([200, 201, 202, 203, 204, 205])  # a 3x2 8-bit raster


class TestPgmHeader:
    @pytest.mark.parametrize("header", [
        b"P5 # after the magic\n3 # width\n2\t# height\n255\n",
        b"P5\n#\n# two lines\n3\n#\n2 \n# maxval next\n255 ",
        b"P5\t3\r2\n255\r",
        b"P5\r\n3\t\t2\r\n255\t",
    ])
    def test_comments_and_separators(self, tmp_path, header):
        (tmp_path / "f.pgm").write_bytes(header + RASTER)
        arr, maxval = read_pgm(tmp_path / "f.pgm")
        assert maxval == 255
        assert arr.tobytes() == RASTER and arr.shape == (2, 3)

    @pytest.mark.parametrize("first", [9, 10, 13, 32])
    def test_one_whitespace_byte_ends_the_header(self, tmp_path, first):
        # a raster starting with a whitespace byte keeps that byte
        arr = np.array([[first, 7, 0], [255, 10, 32]], dtype=np.uint8)
        (tmp_path / "f.pgm").write_bytes(encode_pgm(arr))
        back, _ = read_pgm(tmp_path / "f.pgm")
        assert np.array_equal(back, arr)

    @pytest.mark.parametrize("data,message", [
        (b"P2 3 2 255\n1 2 3 4 5 6\n", "unsupported PGM variant P2"),
        (b"P6 3 2 255\n" + RASTER * 3, "unsupported PGM variant P6"),
        (b"XY 3 2 255\n" + RASTER, "not a PGM file"),
        (b"P5 3 2\n" + RASTER, "malformed PGM header"),
        (b"P5 3 x 255\n" + RASTER, "malformed PGM header"),
    ])
    def test_bad_headers_raise(self, tmp_path, data, message):
        (tmp_path / "f.pgm").write_bytes(data)
        with pytest.raises(FrameFormatError, match=message):
            read_pgm(tmp_path / "f.pgm")

    def test_magic_must_be_the_first_two_bytes(self, tmp_path):
        (tmp_path / "f.pgm").write_bytes(b"\nP5 3 2 255\n" + RASTER)
        with pytest.raises(FrameFormatError, match="not a PGM file"):
            read_pgm(tmp_path / "f.pgm")


class TestForkedWriter:
    def test_writes_what_the_process_itself_writes(self, tmp_path):
        frames = frames_of(16)
        here, child = tmp_path / "here", tmp_path / "child"
        here.mkdir()
        child.mkdir()
        with WriterProcess() as writer:
            for t, arr in enumerate(frames):
                for out, w in ((here, None), (child, writer)):
                    write_pgm(arr, out / f"f{t}.pgm", None, w)
                    write_mask(arr > 30000, out / f"m{t}.pgm", w)
                    write_posterior(arr / 65535.0, out / f"p{t}.pgm", w)
        assert_no_child()
        names = sorted(p.name for p in here.iterdir())
        assert len(names) == 3 * len(frames)
        assert sorted(p.name for p in child.iterdir()) == names
        for name in names:
            assert (child / name).read_bytes() == (here / name).read_bytes()

    def test_failed_file_raises_its_error_and_stops(self, tmp_path):
        # a directory in a file's place: the child stops there and the
        # parent raises IsADirectoryError for that path
        (tmp_path / "b.pgm").mkdir()
        writer = WriterProcess()
        with pytest.raises(IsADirectoryError) as info:
            for name in ("a.pgm", "b.pgm", "c.pgm"):
                writer.send(tmp_path / name, b"data")
            writer.close()
        assert info.value.filename == str(tmp_path / "b.pgm")
        assert (tmp_path / "a.pgm").read_bytes() == b"data"
        assert not (tmp_path / "c.pgm").exists()
        writer.close()  # closing again does nothing
        assert_no_child()

    def test_send_after_the_child_stopped_raises(self, tmp_path):
        # once the child has exited, a send that reaches the pipe raises
        # the child's error, not BrokenPipeError
        writer = WriterProcess()
        writer.send(tmp_path / "missing" / "a.pgm", b"data")
        with pytest.raises(FileNotFoundError):
            for _ in range(1000):  # more than the pipe and its buffer hold
                writer.send(tmp_path / "b.pgm", bytes(1024))
        assert_no_child()

    def test_an_exception_in_the_block_is_kept(self, tmp_path):
        (tmp_path / "a.pgm").mkdir()
        with pytest.raises(KeyError):
            with WriterProcess() as writer:
                writer.send(tmp_path / "a.pgm", b"data")
                writer.send(tmp_path / "b.pgm", b"data")
                raise KeyError("loop")
        assert_no_child()
        assert not (tmp_path / "b.pgm").exists()

    def test_the_child_is_not_a_fork(self, tmp_path, monkeypatch):
        # the child starts without a copy of this process: where os.fork
        # fails, every file sent is still written
        def no_fork():
            raise OSError("os.fork called")
        monkeypatch.setattr(os, "fork", no_fork)
        with WriterProcess() as writer:
            for t in range(3):
                writer.send(tmp_path / f"f{t}.pgm", bytes([t]) * 5000)
        assert_no_child()
        for t in range(3):
            assert (tmp_path / f"f{t}.pgm").read_bytes() == bytes([t]) * 5000

    def test_the_child_ignores_sigint(self, tmp_path):
        # an interrupt ends the stream loop, which then closes the pipe:
        # the child writes what it was sent before it ends
        writer = WriterProcess()
        first = tmp_path / "a.pgm"
        writer.send(first, bytes(8192))  # more than the send buffer holds
        deadline = time.monotonic() + 30
        while not first.exists():  # the child is past its start-up
            assert time.monotonic() < deadline
            time.sleep(0.001)
        os.kill(writer._proc.pid, signal.SIGINT)
        writer.send(tmp_path / "b.pgm", b"data")
        writer.close()
        assert_no_child()
        assert first.read_bytes() == bytes(8192)
        assert (tmp_path / "b.pgm").read_bytes() == b"data"


class TestRaw:
    @pytest.mark.parametrize("endianness", ["little", "big"])
    def test_round_trip_16_bit(self, tmp_path, endianness):
        frames = frames_of(16)
        order = "<" if endianness == "little" else ">"
        frames.astype(order + "u2").tofile(tmp_path / "v.raw")
        seq = read_raw_sequence(tmp_path / "v.raw", 5, 4, 16, endianness)
        assert seq.intensity_levels == 65536
        assert np.array_equal(seq.frames, frames.astype(np.float64))

    def test_round_trip_8_bit_with_limit(self, tmp_path):
        frames = frames_of(8)
        frames.tofile(tmp_path / "v.raw")
        seq = read_raw_sequence(tmp_path / "v.raw", 5, 4, 8, limit=2)
        assert seq.intensity_levels == 256
        assert np.array_equal(seq.frames, frames[:2].astype(np.float64))

    @pytest.mark.parametrize("limit", [0, -1])
    def test_limit_below_one_raises(self, tmp_path, limit):
        frames_of(8).tofile(tmp_path / "v.raw")
        with pytest.raises(ValueError, match="at least 1"):
            read_raw_sequence(tmp_path / "v.raw", 5, 4, 8, limit=limit)

    @pytest.mark.parametrize("limit", [None, 1])
    def test_partial_frame_raises(self, tmp_path, limit):
        frames_of(16).astype("<u2").tofile(tmp_path / "v.raw")
        truncate(tmp_path / "v.raw", 2)
        with pytest.raises(FrameFormatError, match="not a multiple"):
            read_raw_sequence(tmp_path / "v.raw", 5, 4, 16, limit=limit)
