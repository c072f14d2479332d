"""File format tests: cube container, response text, CSV reports, manifests."""

import os
import re
import struct

import numpy as np
import pytest

from hsfuse import io as hio
from hsfuse.io import FormatError, ReportRow


class TestCubeFile:
    def test_roundtrip_and_byte_identical_rewrite(self, tmp_path):
        rng = np.random.default_rng(0)
        cube = rng.random((8, 9, 10))
        first = tmp_path / "a.hsc"
        second = tmp_path / "b.hsc"
        hio.write_cube(cube, first)
        back = hio.read_cube(first)
        assert back.shape == (8, 9, 10)
        # values survive exactly at float32 precision
        assert np.array_equal(back, cube.astype(np.float32).astype(np.float64))
        hio.write_cube(back, second)
        assert first.read_bytes() == second.read_bytes()

    def test_known_2x2x2_layout(self, tmp_path):
        cube = np.arange(8.0).reshape(2, 2, 2)  # cube[i, j, k] = 4i + 2j + k
        path = tmp_path / "c.hsc"
        hio.write_cube(cube, path)
        # band-sequential payload, row-major within each band:
        # band 0: x[0,0,0], x[0,1,0], x[1,0,0], x[1,1,0] = 0, 2, 4, 6
        # band 1: x[0,0,1], x[0,1,1], x[1,0,1], x[1,1,1] = 1, 3, 5, 7
        expected = b"HSC1" + struct.pack("<III", 2, 2, 2)
        expected += struct.pack("<8f", 0, 2, 4, 6, 1, 3, 5, 7)
        data = path.read_bytes()
        assert len(data) == 48
        assert data == expected

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.hsc"
        path.write_bytes(b"XXXX" + struct.pack("<III", 1, 1, 1) + struct.pack("<f", 0.0))
        with pytest.raises(FormatError, match="bad magic"):
            hio.read_cube(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.hsc"
        path.write_bytes(b"HSC1" + struct.pack("<III", 2, 2, 2) + b"\x00" * 10)
        with pytest.raises(FormatError, match="expected 48 bytes"):
            hio.read_cube(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "long.hsc"
        path.write_bytes(b"HSC1" + struct.pack("<III", 1, 1, 1) + struct.pack("<2f", 0.0, 0.0))
        with pytest.raises(FormatError, match="expected 20 bytes"):
            hio.read_cube(path)

    def test_non_finite_payload_rejected(self, tmp_path):
        path = tmp_path / "nan.hsc"
        path.write_bytes(b"HSC1" + struct.pack("<III", 1, 1, 1) + struct.pack("<f", float("nan")))
        with pytest.raises(FormatError, match="non-finite"):
            hio.read_cube(path)

    def test_non_finite_cube_rejected_on_write(self, tmp_path):
        cube = np.ones((2, 2, 1))
        cube[0, 0, 0] = np.inf
        with pytest.raises(FormatError, match="non-finite"):
            hio.write_cube(cube, tmp_path / "inf.hsc")

    def test_non_finite_named_where_another_value_overflows(self, tmp_path):
        cube = np.ones((2, 2, 1))
        cube[0, 0, 0], cube[1, 1, 0] = 1e300, np.nan
        with pytest.raises(FormatError, match="contains non-finite values"):
            hio.write_cube(cube, tmp_path / "nan.hsc")

    def test_float32_overflow_rejected_on_write(self, tmp_path):
        cube = np.full((1, 1, 1), 1e300)
        with pytest.raises(FormatError, match="overflow"):
            hio.write_cube(cube, tmp_path / "big.hsc")


class TestCubeRows:
    """CubeReader and CubeWriter: the row access read_cube and write_cube are built on."""

    def test_rows_equal_read_cube_slices(self, tmp_path):
        cube = np.random.default_rng(2).random((9, 7, 4))
        hio.write_cube(cube, tmp_path / "c.hsc")
        whole = hio.read_cube(tmp_path / "c.hsc")
        with hio.CubeReader(tmp_path / "c.hsc") as reader:
            assert reader.shape == (9, 7, 4)
            for r0, r1 in [(0, 3), (3, 4), (4, 9), (2, 8), (0, 9)]:
                rows = reader[r0:r1]
                assert np.array_equal(rows, whole[r0:r1])
                assert rows.strides[2] > rows.strides[0]  # band-major, as read_cube's
            assert np.array_equal(reader[:], whole)
            assert np.array_equal(reader[4:], whole[4:]) and np.array_equal(reader[:2], whole[:2])

    @pytest.mark.parametrize("span", [slice(0, 9, 2), 3, slice(4, 4), slice(5, 10), slice(-1, 9)],
                             ids=["step-2", "integer", "empty", "past-the-end", "negative"])
    def test_only_a_nonempty_step_1_slice_within_the_rows(self, tmp_path, span):
        hio.write_cube(np.ones((9, 7, 4)), tmp_path / "c.hsc")
        with hio.CubeReader(tmp_path / "c.hsc") as reader:
            with pytest.raises(ValueError, match="not a nonempty step-1 slice within 0:9"):
                reader[span]

    def test_header_checked_on_open(self, tmp_path):
        path = tmp_path / "short.hsc"
        path.write_bytes(b"HSC1" + struct.pack("<III", 2, 2, 2) + b"\x00" * 10)
        with pytest.raises(FormatError, match=f"{path}: expected 48 bytes, found 26"):
            hio.CubeReader(path)

    def test_non_finite_row_named_when_read(self, tmp_path):
        path = tmp_path / "nan.hsc"
        hio.write_cube(np.ones((4, 3, 2)), path)
        data = bytearray(path.read_bytes())
        data[-4:] = struct.pack("<f", float("inf"))  # band 1, last row
        path.write_bytes(bytes(data))
        with hio.CubeReader(path) as reader:
            assert np.array_equal(reader[0:3], np.ones((3, 3, 2)))
            with pytest.raises(FormatError, match=f"{path}: payload contains non-finite"):
                reader[3:4]

    def test_file_truncated_after_opening_named_when_read(self, tmp_path):
        # bands larger than the file object's read buffer, so reads reach the file
        path = tmp_path / "c.hsc"
        hio.write_cube(np.ones((64, 64, 2)), path)
        with hio.CubeReader(path) as reader:
            os.truncate(path, 16 + 4 * (64 * 64 + 64))  # band 0 and row 0 of band 1
            assert np.array_equal(reader[0:1], np.ones((1, 64, 2)))
            with pytest.raises(FormatError, match=f"{path}: file ended inside band 1"):
                reader[1:64]

    @pytest.mark.parametrize("shape", [(2**32, 1, 1), (2.5, 2, 2), (0, 1, 1), (True, 2, 2),
                                       (2, 2)],
                             ids=["beyond-uint32", "float", "zero", "bool", "two-dimensions"])
    def test_bad_shape_refused_before_any_file(self, tmp_path, shape):
        path = tmp_path / "x.hsc"
        with pytest.raises(ValueError, match=f"{path}: invalid dimensions"):
            hio.CubeWriter(path, shape)
        assert list(tmp_path.iterdir()) == []

    def test_blocks_write_write_cube_bytes(self, tmp_path):
        cube = np.random.default_rng(3).random((7, 5, 3))
        hio.write_cube(cube, tmp_path / "whole.hsc")
        with hio.CubeWriter(tmp_path / "rows.hsc", cube.shape) as writer:
            for r0, r1 in [(0, 2), (2, 3), (3, 7)]:
                writer.write(r0, cube[r0:r1])
        assert (tmp_path / "rows.hsc").read_bytes() == (tmp_path / "whole.hsc").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["rows.hsc", "whole.hsc"]

    @pytest.mark.parametrize("failure", ["overflow", "non-finite", "rows-missing", "raised",
                                         "row-order"])
    def test_failure_keeps_the_old_file_and_no_temp(self, tmp_path, failure):
        path = tmp_path / "out.hsc"
        path.write_bytes(b"old")
        block = np.ones((2, 3, 1))
        bad = {"overflow": 1e300, "non-finite": np.nan}
        with pytest.raises((FormatError, ValueError, KeyError)):
            with hio.CubeWriter(path, (4, 3, 1)) as writer:
                writer.write(0, block)
                if failure in bad:
                    writer.write(2, block * bad[failure])
                elif failure == "raised":
                    raise KeyError("the rows' producer failed")
                elif failure == "row-order":
                    writer.write(3, block[:1])
        assert path.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["out.hsc"]

    @pytest.mark.parametrize("target,named", [
        ("directory", "out.hsc"), ("under-a-file", "file"), ("two-below-a-file", "file/a"),
    ], ids=["directory", "under-a-file", "two-below-a-file"])
    def test_bad_path_named_on_opening_and_no_temp(self, tmp_path, target, named):
        # refused before a row is written, naming a directory at the path itself, else the
        # directory that could not be made for it, never the temporary file
        path = tmp_path / {"directory": "out.hsc", "under-a-file": "file/out.hsc",
                           "two-below-a-file": "file/a/out.hsc"}[target]
        if target == "directory":
            path.mkdir()
        else:
            (tmp_path / "file").write_bytes(b"")
        with pytest.raises(OSError) as err:
            hio.CubeWriter(path, (2, 3, 1))
        assert (err.value.filename, err.value.filename2) == (str(tmp_path / named), None)
        assert not list(tmp_path.rglob("*.tmp"))
        assert not path.is_dir() or list(path.iterdir()) == []


class TestResponseFile:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        a = rng.random((5, 3))
        path = tmp_path / "resp.txt"
        hio.save_response(a, path)
        assert np.array_equal(hio.load_response(path), a)

    def test_header_format(self, tmp_path):
        a = np.ones((4, 2))
        path = tmp_path / "resp.txt"
        hio.save_response(a, path)
        assert path.read_text().splitlines()[0] == "4 2"

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "resp.txt"
        path.write_text("4\n1 2\n")
        with pytest.raises(FormatError, match="bands channels"):
            hio.load_response(path)

    def test_wrong_line_count(self, tmp_path):
        path = tmp_path / "resp.txt"
        path.write_text("3 2\n1 0\n0 1\n")
        with pytest.raises(FormatError, match="expected 3 lines"):
            hio.load_response(path)

    @pytest.mark.parametrize("header,message", [("-3 3", "band count -3"), ("0 2", "band count 0"),
                                                ("2 0", "channel count 0"),
                                                ("1 -1", "channel count -1")])
    def test_count_below_one_named(self, tmp_path, header, message):
        path = tmp_path / "resp.txt"
        path.write_text(f"{header}\n1 2 3\n")
        with pytest.raises(FormatError, match=re.escape(f"{path}: {message} must be at least 1")):
            hio.load_response(path)

    def test_non_numeric_value(self, tmp_path):
        path = tmp_path / "resp.txt"
        path.write_text("1 2\n1 oops\n")
        with pytest.raises(FormatError):
            hio.load_response(path)

    def test_invalid_matrix_rejected(self, tmp_path):
        path = tmp_path / "resp.txt"
        path.write_text("2 1\n1.0\n-3.0\n")
        with pytest.raises(FormatError, match="nonnegative"):
            hio.load_response(path)


def _row(scene="scene", method="pfusion", rank=3, patch=100, stride=50, **kw):
    values = dict(m_psnr=40.0, m_ssim=0.99, msa=1.5, wall_seconds=0.25)
    values.update(kw)
    return ReportRow(scene, method, rank, patch, stride, **values)


class TestReport:
    def test_empty_rows_header_only(self, tmp_path):
        path = tmp_path / "r.csv"
        hio.write_report([], path)
        assert path.read_text() == "scene,method,k,m,s,m_psnr,m_ssim,msa,wall_seconds\n"

    def test_single_row_parses_naively(self, tmp_path):
        path = tmp_path / "r.csv"
        hio.write_report([_row()], path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert len(fields) == 9
        assert fields[0] == "scene" and fields[1] == "pfusion"
        assert float(fields[5]) == 40.0

    def test_rank_sweep_monotone_column(self, tmp_path):
        path = tmp_path / "sweep.csv"
        rows = [_row(rank=k, m_psnr=30.0 + k) for k in range(1, 6)]
        hio.write_report(rows, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 6
        ks = [int(line.split(",")[2]) for line in lines[1:]]
        assert ks == sorted(ks) == [1, 2, 3, 4, 5]

    def test_six_significant_digits(self, tmp_path):
        path = tmp_path / "r.csv"
        hio.write_report([_row(m_psnr=12.3456789)], path)
        assert "12.3457" in path.read_text()

    def test_comma_in_identifier_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="commas"):
            hio.write_report([_row(scene="a,b")], tmp_path / "r.csv")
        # csv.reader would split a row at \r and read '"x"' back as 'x'
        for label in ("a\rb", '"x"'):
            with pytest.raises(ValueError, match="must not contain commas, quotes or line breaks"):
                _row(method=label)

    @pytest.mark.parametrize("label", ["scene", "method"])
    def test_row_refuses_bad_label_when_built(self, label):
        with pytest.raises(ValueError, match=f"{label} 'a\\\\nb' must not contain"):
            _row(**{label: "a\nb"})


class TestManifest:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "manifest.txt"
        entries = {"command": "simulate", "mask_seed": 7, "density": 0.5}
        hio.write_manifest(path, entries)
        back = hio.read_manifest(path)
        assert back == {"command": "simulate", "mask_seed": "7", "density": "0.5"}

    def test_comments_and_blanks_tolerated(self, tmp_path):
        path = tmp_path / "manifest.txt"
        path.write_text("# a comment\n\nkey = value\n")
        assert hio.read_manifest(path) == {"key": "value"}

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "manifest.txt"
        path.write_text("just some text\n")
        with pytest.raises(FormatError, match="key = value"):
            hio.read_manifest(path)

    def test_binary_file_named(self, tmp_path):
        path = tmp_path / "y.hsc"
        hio.write_cube(np.full((2, 2, 1), 0.37), path)  # float32 0.37 starts with 0xa4: not UTF-8
        with pytest.raises(FormatError, match=f"{path}: not a text file"):
            hio.read_manifest(path)
        with pytest.raises(FormatError, match=f"{path}: not a text file"):
            hio.load_response(path)

    def test_repeated_key_names_its_line(self, tmp_path):
        path = tmp_path / "manifest.txt"
        path.write_text("y = a.hsc\n# note\ny = b.hsc\n")
        with pytest.raises(FormatError, match=f"{path}:3: key 'y' repeats an earlier line"):
            hio.read_manifest(path)

    @pytest.mark.parametrize("value", ["a\nb = c", " lab", "lab ", "a\rb", "a\x85b", "\t"])
    def test_value_not_read_back_as_written_refused(self, tmp_path, value):
        path = tmp_path / "manifest.txt"
        with pytest.raises(ValueError, match="scene .* must not contain line breaks or surround"):
            hio.write_manifest(path, {"command": "eval", "scene": value})
        assert not path.exists()

    def test_values_read_back_as_written(self, tmp_path):
        path = tmp_path / "manifest.txt"
        entries = {"out": "x = y.hsc", "scene": "a b", "threads": "", "peak": "#1"}
        hio.write_manifest(path, entries)
        assert hio.read_manifest(path) == entries

    def test_human_readable_layout(self, tmp_path):
        path = tmp_path / "manifest.txt"
        hio.write_manifest(path, {"rank": 3})
        assert path.read_text() == "rank = 3\n"

    def test_none_and_bools_written_as_words(self, tmp_path):
        # an omitted flag is empty and a switch is a boolean word; the integers 1 and 0 stay
        path = tmp_path / "new" / "manifest.txt"
        hio.write_manifest(path, {"threads": None, "improved": True, "quiet": False, "rank": 1,
                                  "seed": 0})
        assert path.read_text(encoding="utf-8") == (
            "threads = \nimproved = true\nquiet = false\nrank = 1\nseed = 0\n")
        assert hio.read_manifest(path) == {"threads": "", "improved": "true", "quiet": "false",
                                           "rank": "1", "seed": "0"}


@pytest.mark.parametrize("writer", ["write_cube", "save_response", "write_table", "write_report"])
def test_writer_makes_its_directory(tmp_path, writer):
    path = tmp_path / "a" / "b" / "out"
    write = {
        "write_cube": lambda: hio.write_cube(np.ones((2, 3, 1)), path),
        "save_response": lambda: hio.save_response(np.full((2, 1), 0.5), path),
        "write_table": lambda: hio.write_table(path, ("k",), [(1,)]),
        "write_report": lambda: hio.write_report([_row()], path),
    }[writer]
    write()
    assert [p.name for p in path.parent.iterdir()] == ["out"]
