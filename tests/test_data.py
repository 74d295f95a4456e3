"""Synthetic data generation and manifest handling."""

import numpy as np
import pytest

from localfocus import (ConfigError, DatasetManifest, NprConfig, ParseError,
                        Tensor, gen_fake, gen_real, load_dataset, npr_extract,
                        read_manifest, save_ppm, write_manifest)
from localfocus.data import SampleRecord
from localfocus.npr import resample_2x


def mean_abs_residual(image):
    return float(npr_extract(Tensor(image), NprConfig()).data.mean())


class TestGenReal:
    def test_shape_range_label(self):
        recs = gen_real(3, 32, np.random.default_rng(0))
        assert len(recs) == 3
        for rec in recs:
            assert rec.image.shape == (3, 32, 32)
            assert rec.image.min() >= 0.0 and rec.image.max() <= 1.0
            assert rec.label == 0
            assert rec.source_tag == "synth-real"

    def test_full_dynamic_range(self):
        rec = gen_real(1, 64, np.random.default_rng(1))[0]
        assert rec.image.min() == 0.0
        assert rec.image.max() == 1.0

    def test_deterministic(self):
        a = gen_real(4, 32, np.random.default_rng(7))
        b = gen_real(4, 32, np.random.default_rng(7))
        for ra, rb in zip(a, b):
            np.testing.assert_array_equal(ra.image, rb.image)

    def test_per_sample_substreams(self):
        # Sample i must not depend on how many samples were requested.
        few = gen_real(3, 32, np.random.default_rng(9))
        many = gen_real(6, 32, np.random.default_rng(9))
        for i in range(3):
            np.testing.assert_array_equal(few[i].image, many[i].image)

    def test_samples_differ(self):
        recs = gen_real(2, 32, np.random.default_rng(2))
        assert not np.array_equal(recs[0].image, recs[1].image)

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError):
            gen_real(0, 32, rng)
        with pytest.raises(ConfigError):
            gen_real(1, 33, rng)  # odd size
        with pytest.raises(ConfigError):
            gen_real(1, 16, rng)  # too small

    @pytest.mark.parametrize("n, size, message", [
        (2.5, 32, "gen_real n must be an integer, got 2.5"),
        (2, 34.0, "gen_real size must be an integer, got 34.0"),
    ], ids=["n-float", "size-float"])
    def test_non_integer_settings_rejected(self, n, size, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            gen_real(n, size, np.random.default_rng(0))
        assert len(gen_real(np.int64(1), np.int32(32), np.random.default_rng(0))) == 1


class TestGenFake:
    def test_labels_and_tags(self):
        reals = gen_real(2, 32, np.random.default_rng(3))
        fakes = gen_fake(reals, np.random.default_rng(4))
        assert [f.label for f in fakes] == [1, 1]
        assert all(f.source_tag == "synth-fake" for f in fakes)
        assert all(f.image.shape == (3, 32, 32) for f in fakes)
        assert all(f.image.min() >= 0.0 and f.image.max() <= 1.0 for f in fakes)

    def test_resample_2x_is_anchor_replication(self):
        img = np.arange(2 * 4 * 4, dtype=np.float64).reshape(2, 4, 4)
        out = resample_2x(img)
        for i in range(4):
            for j in range(4):
                assert out[0, i, j] == img[0, (i // 2) * 2, (j // 2) * 2]

    def test_pure_resampling_has_zero_residual(self):
        # Without dither the fake is exactly block-replicated: residual 0.
        real = gen_real(1, 32, np.random.default_rng(5))[0]
        blocky = resample_2x(real.image)
        assert mean_abs_residual(blocky) == 0.0

    def test_fakes_have_larger_residual_than_sources(self):
        reals = gen_real(100, 32, np.random.default_rng(6))
        fakes = gen_fake(reals, np.random.default_rng(7))
        for r, f in zip(reals, fakes):
            assert mean_abs_residual(f.image) > mean_abs_residual(r.image)

    def test_residual_separation_at_training_size(self):
        # At 64x64 the dither residual should dominate by a wide margin,
        # otherwise a detector trained on these images has nothing to find.
        reals = gen_real(20, 64, np.random.default_rng(14))
        fakes = gen_fake(reals, np.random.default_rng(15))
        real_means = [mean_abs_residual(r.image) for r in reals]
        fake_means = [mean_abs_residual(f.image) for f in fakes]
        assert min(fake_means) > 2.0 * max(real_means)

    def test_constant_real_still_detectable(self):
        # Plain resampling of a constant image is constant (zero residual);
        # the generator's dither keeps the artifact visible anyway.
        const = SampleRecord(image=np.full((3, 32, 32), 0.5), label=0, source_tag="x")
        fake = gen_fake([const], np.random.default_rng(8))[0]
        assert mean_abs_residual(fake.image) > 0.0

    def test_deterministic(self):
        reals = gen_real(3, 32, np.random.default_rng(10))
        a = gen_fake(reals, np.random.default_rng(11))
        b = gen_fake(reals, np.random.default_rng(11))
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa.image, fb.image)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            gen_fake([], np.random.default_rng(0))

    @pytest.mark.parametrize("shape", [(3, 5, 6), (3, 6, 5), (6, 6)])
    def test_odd_or_flat_image_rejected(self, shape):
        rec = SampleRecord(image=np.zeros(shape), label=0, source_tag="x")
        with pytest.raises(ConfigError, match=r"^gen_fake needs \(C, even, even\) images, got "):
            gen_fake([rec], np.random.default_rng(0))


class TestManifest:
    def _sample_manifest(self, tmp_path):
        recs = gen_real(2, 32, np.random.default_rng(12))
        fakes = gen_fake(recs, np.random.default_rng(13))
        entries = []
        for i, rec in enumerate(recs + fakes):
            name = f"img_{i}.ppm"
            save_ppm(rec.image, str(tmp_path / name))
            entries.append((name, rec.label, rec.source_tag))
        return DatasetManifest(root=str(tmp_path), entries=entries)

    def test_round_trip(self, tmp_path):
        manifest = self._sample_manifest(tmp_path)
        path = str(tmp_path / "split.tsv")
        write_manifest(manifest, path)
        loaded = read_manifest(path)
        assert loaded.entries == manifest.entries
        assert loaded.root == str(tmp_path)

    def test_file_format(self, tmp_path):
        manifest = self._sample_manifest(tmp_path)
        path = str(tmp_path / "split.tsv")
        write_manifest(manifest, path)
        raw = open(path, "rb").read()
        assert b"\r" not in raw
        line = raw.decode("utf-8").splitlines()[0].split("\t")
        assert len(line) == 3 and line[1] in ("0", "1")

    def test_load_dataset(self, tmp_path):
        manifest = self._sample_manifest(tmp_path)
        path = str(tmp_path / "split.tsv")
        write_manifest(manifest, path)
        records = load_dataset(read_manifest(path))
        assert [r.label for r in records] == [0, 0, 1, 1]
        # PPM quantization moves values by at most 1/510.
        originals = gen_real(2, 32, np.random.default_rng(12))
        assert np.abs(records[0].image - originals[0].image).max() <= 1.0 / 510.0

    def test_duplicate_path_rejected(self):
        m = DatasetManifest(root=".", entries=[("a.ppm", 0, "t"), ("a.ppm", 1, "t")])
        with pytest.raises(ConfigError, match="twice"):
            m.validate()

    def test_single_class_rejected(self):
        m = DatasetManifest(root=".", entries=[("a.ppm", 0, "t"), ("b.ppm", 0, "t")])
        with pytest.raises(ConfigError, match="both labels"):
            m.validate()

    def test_bad_label_in_file(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a.ppm\t2\ttag\n")
        with pytest.raises(ParseError, match="label"):
            read_manifest(str(path))

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a.ppm\t1\n")
        with pytest.raises(ParseError, match="3 tab-separated"):
            read_manifest(str(path))

    def test_bad_line_carries_its_byte_offset(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_bytes(b"a.ppm\t0\tt\r\nb.ppm\t7\tt\r\n")
        with pytest.raises(ParseError, match=":2: label") as exc:
            read_manifest(str(path))
        assert exc.value.offset == 11

    def test_crlf_lines_read_like_lf(self, tmp_path):
        path = tmp_path / "crlf.tsv"
        path.write_bytes(b"a.ppm\t0\treal\r\nb.ppm\t1\tfake\r\n")
        assert read_manifest(str(path)).entries == [("a.ppm", 0, "real"), ("b.ppm", 1, "fake")]

    def test_invalid_utf8_is_a_parse_error_at_its_byte(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_bytes(b"a.ppm\t0\tt\nb\xff.ppm\t1\tt\n")
        with pytest.raises(ParseError, match="UTF-8") as exc:
            read_manifest(str(path))
        assert exc.value.offset == 11

    @pytest.mark.parametrize("name, tag", [("a\tb.ppm", "t"), ("a\n.ppm", "t"),
                                           ("a.ppm", "t\r"), ("a.ppm", "t\0")],
                             ids=["tab", "lf", "cr", "nul"])
    def test_field_break_refused_before_writing(self, tmp_path, name, tag):
        # read_manifest would split such an entry into more fields or lines.
        manifest = DatasetManifest(root=str(tmp_path), entries=[("ok.ppm", 0, "t"), (name, 1, tag)])
        path = tmp_path / "split.tsv"
        with pytest.raises(ConfigError, match="^manifest entry 1 holds a tab, CR, LF or NUL: "):
            write_manifest(manifest, str(path))
        assert not path.exists()

    def test_nul_byte_is_a_parse_error_at_its_byte(self, tmp_path):
        # open() refuses a path holding NUL with a bare ValueError.
        path = tmp_path / "bad.tsv"
        path.write_bytes(b"a.ppm\t0\tt\nb\0.ppm\t1\tt\n")
        with pytest.raises(ParseError, match="NUL byte") as exc:
            read_manifest(str(path))
        assert exc.value.offset == 11
