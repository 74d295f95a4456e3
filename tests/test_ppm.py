"""Binary PPM reader/writer: round trips and malformed-input offsets."""

import numpy as np
import pytest

from localfocus import DomainError, ParseError, ShapeError, load_ppm, save_ppm


class TestSave:
    def test_header_bytes(self, tmp_path):
        path = str(tmp_path / "img.ppm")
        save_ppm(np.zeros((3, 2, 4)), path)
        raw = open(path, "rb").read()
        assert raw.startswith(b"P6\n4 2\n255\n")
        assert len(raw) == len(b"P6\n4 2\n255\n") + 2 * 4 * 3

    def test_shape_validated(self, tmp_path):
        with pytest.raises(ShapeError):
            save_ppm(np.zeros((1, 4, 4)), str(tmp_path / "x.ppm"))

    def test_values_clipped(self, tmp_path):
        path = str(tmp_path / "img.ppm")
        img = np.array([[[-0.5]], [[0.5]], [[1.5]]])
        save_ppm(img, path)
        back = load_ppm(path)
        assert back[0, 0, 0] == 0.0
        assert back[2, 0, 0] == 1.0


    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_pixel_refused_before_writing(self, tmp_path, value):
        img = np.zeros((3, 2, 4))
        img[1, 0, 3] = value
        path = tmp_path / "img.ppm"
        with pytest.raises(DomainError, match=rf"^save_ppm image has a non-finite pixel {value} at \(1, 0, 3\)$"):
            save_ppm(img, str(path))
        assert not path.exists()


class TestRoundTrip:
    def test_quantization_bound(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.random((3, 7, 5))
        path = str(tmp_path / "img.ppm")
        save_ppm(img, path)
        back = load_ppm(path)
        assert back.shape == img.shape
        assert np.abs(back - img).max() <= 1.0 / 510.0

    def test_exact_on_grid_values(self, tmp_path):
        img = (np.arange(12).reshape(3, 2, 2) * 20) / 255.0
        path = str(tmp_path / "img.ppm")
        save_ppm(img, path)
        np.testing.assert_array_equal(load_ppm(path), img)

    def test_second_save_identical_bytes(self, tmp_path):
        rng = np.random.default_rng(1)
        img = rng.random((3, 6, 6))
        p1, p2 = str(tmp_path / "a.ppm"), str(tmp_path / "b.ppm")
        save_ppm(img, p1)
        save_ppm(load_ppm(p1), p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()


class TestParse:
    def _write(self, tmp_path, raw: bytes) -> str:
        path = tmp_path / "img.ppm"
        path.write_bytes(raw)
        return str(path)

    def test_comments_in_header(self, tmp_path):
        raw = b"P6 # comment\n# another\n2 1\n255\n" + bytes(6)
        img = load_ppm(self._write(tmp_path, raw))
        assert img.shape == (3, 1, 2)

    def test_bad_magic_offset_zero(self, tmp_path):
        with pytest.raises(ParseError) as exc:
            load_ppm(self._write(tmp_path, b"P5\n2 1\n255\n" + bytes(6)))
        assert exc.value.offset == 0

    def test_wrong_maxval(self, tmp_path):
        with pytest.raises(ParseError, match="maxval"):
            load_ppm(self._write(tmp_path, b"P6\n2 1\n65535\n" + bytes(12)))

    def test_truncated_pixels_reports_offset(self, tmp_path):
        raw = b"P6\n2 2\n255\n" + bytes(5)  # needs 12
        with pytest.raises(ParseError, match="truncated") as exc:
            load_ppm(self._write(tmp_path, raw))
        assert exc.value.offset == len(raw)

    def test_trailing_bytes_rejected(self, tmp_path):
        raw = b"P6\n1 1\n255\n" + bytes(3) + b"extra"
        with pytest.raises(ParseError, match="trailing"):
            load_ppm(self._write(tmp_path, raw))

    def test_non_integer_dimension(self, tmp_path):
        with pytest.raises(ParseError, match="width"):
            load_ppm(self._write(tmp_path, b"P6\nxx 1\n255\n" + bytes(3)))

    @pytest.mark.parametrize("header, what, offset", [
        (b"P6\n2_0 4\n255\n", "width", 3),
        (b"P6\n20 +4\n255\n", "height", 6),
        (b"P6\n20 4\n25_5\n", "maxval", 8),
    ], ids=["width", "height", "maxval"])
    def test_integer_must_be_decimal_digits(self, tmp_path, header, what, offset):
        # int() would read these as 20, 4 and 255, and the file would load.
        with pytest.raises(ParseError, match=f"expected {what}") as exc:
            load_ppm(self._write(tmp_path, header + bytes(20 * 4 * 3)))
        assert exc.value.offset == offset

    def test_integer_too_long_to_convert(self, tmp_path):
        # 5,000 digits is past int()'s default 4,300-digit limit.
        raw = b"P6\n" + b"9" * 5000 + b" 1\n255\n" + bytes(3)
        with pytest.raises(ParseError, match="width has 5000 digits") as exc:
            load_ppm(self._write(tmp_path, raw))
        assert exc.value.offset == 3

    def test_nonpositive_dimensions(self, tmp_path):
        with pytest.raises(ParseError, match="dimensions"):
            load_ppm(self._write(tmp_path, b"P6\n0 1\n255\n"))

    def test_missing_header_fields(self, tmp_path):
        with pytest.raises(ParseError, match="height"):
            load_ppm(self._write(tmp_path, b"P6\n4"))

    def test_error_message_contains_offset(self, tmp_path):
        with pytest.raises(ParseError, match=r"at byte \d+"):
            load_ppm(self._write(tmp_path, b"P6\n2 2\n255\n" + bytes(5)))
