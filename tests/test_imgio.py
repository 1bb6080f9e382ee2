import math
import time
import warnings
from dataclasses import fields
from itertools import count, product

import numpy as np
import pytest

import eigengaze as eg
from eigengaze import imgio
from eigengaze.errors import (
    EmptyOcclusion,
    MalformedHeader,
    SampleCountMismatch,
    SampleOutOfRange,
    SideTooSmall,
    ZeroImage,
)
from eigengaze.imgio import _BACKGROUND, _SUPERSAMPLE, _object_shape, _shade

from conftest import random_image


def oracle_synth_view(object_id, angle_deg, side, seed):
    """synth_view as first written: every edge tested over a meshgrid of
    subsample centres, then the supersamples pooled by a 4-D mean."""
    thetas, rx, ry, foreground = _object_shape(object_id, seed)
    vx = rx * side * np.cos(thetas)
    vy = ry * side * np.sin(thetas)
    phi = math.radians(angle_deg)
    c, s = math.cos(phi), math.sin(phi)
    half = side / 2.0
    rvx = c * vx - s * vy + half
    rvy = s * vx + c * vy + half
    shade = oracle_shade(rvx, rvy, side, foreground)
    return eg.RasterImage(side, side, 255, shade.astype(np.int64).ravel())


def oracle_shade(rvx, rvy, side, foreground):
    """The shades of the polygon with vertices (rvx, rvy), as first written."""
    ss = _SUPERSAMPLE
    coords = (np.arange(side * ss, dtype=np.float64) + 0.5) / ss
    px, py = np.meshgrid(coords, coords)
    inside = np.ones(px.shape, dtype=bool)
    n = len(rvx)
    for i in range(n):
        j = (i + 1) % n
        ex, ey = rvx[j] - rvx[i], rvy[j] - rvy[i]
        inside &= ex * (py - rvy[i]) - ey * (px - rvx[i]) >= 0.0
    coverage = inside.reshape(side, ss, side, ss).mean(axis=(1, 3))
    return np.rint(_BACKGROUND + coverage * (foreground - _BACKGROUND))


def oracle_write_pgm(image, binary):
    """write_pgm as first written, formatting P2 samples one at a time."""
    header = f"{image.width} {image.height}\n{image.max_value}\n"
    if not binary:
        body = " ".join(str(int(s)) for s in image.samples)
        return ("P2\n" + header + body + "\n").encode("ascii")
    dtype = np.dtype(">u2") if image.max_value >= 256 else np.uint8
    return ("P5\n" + header).encode("ascii") + image.samples.astype(dtype).tobytes()


def assert_narrow_and_read_only(image):
    """image keeps its samples as a P5 file stores them, one byte each below
    max value 256 and two from there on, in an array no one can write to."""
    assert image.samples.dtype == (np.uint8 if image.max_value < 256 else np.uint16)
    assert image.samples.nbytes == image.width * image.height * image.samples.itemsize
    with pytest.raises(ValueError, match="read-only"):
        image.samples[0] = 0


def _object_with(n_verts, seed):
    """The first id obj<i> whose polygon has n_verts vertices at seed."""
    return next(f"obj{i}" for i in count() if len(_object_shape(f"obj{i}", seed)[0]) == n_verts)


class TestParsePgm:
    def test_smallest_legal_file(self):
        img = eg.parse_pgm(b"P2\n1 1\n255\n0\n")
        assert (img.width, img.height, img.max_value) == (1, 1, 255)
        assert list(img.samples) == [0]

    def test_two_pixel_text(self):
        img = eg.parse_pgm(b"P2\n2 1\n255\n255 0\n")
        assert list(img.samples) == [255, 0]

    def test_header_comments_skipped(self):
        img = eg.parse_pgm(b"P2\n# a comment\n2 1\n# another\n255\n1 2\n")
        assert list(img.samples) == [1, 2]

    def test_binary_single_byte(self):
        img = eg.parse_pgm(b"P5\n2 2\n255\n" + bytes([0, 128, 200, 255]))
        assert list(img.samples) == [0, 128, 200, 255]

    def test_binary_two_byte(self):
        img = eg.parse_pgm(b"P5\n1 1\n65535\n" + bytes([0x01, 0x02]))
        assert list(img.samples) == [258]

    def test_bad_magic(self):
        with pytest.raises(MalformedHeader):
            eg.parse_pgm(b"P6\n1 1\n255\n0\n")

    def test_missing_dims(self):
        with pytest.raises(MalformedHeader):
            eg.parse_pgm(b"P2\n1\n")

    def test_non_integer_header(self):
        with pytest.raises(MalformedHeader):
            eg.parse_pgm(b"P2\nx 1\n255\n0\n")

    @pytest.mark.parametrize(
        "data",
        [
            b"P2x 1 1 255 0",
            b"P2 +1 1_0 0255 " + b"1 " * 10,
            b"P2 1 1 " + b"9" * 5000 + b" 0",
            b"P5 1 1 255x",
        ],
        ids=["magic-suffix", "signed-and-underscored", "too-many-digits", "max-value-suffix"],
    )
    def test_header_numbers_are_decimal_digits(self, data):
        with pytest.raises(MalformedHeader):
            eg.parse_pgm(data)

    @pytest.mark.parametrize("sample", [b"+0_7", b"+7", b"-0", b"7.0", b"0x7", b"\xb7"])
    def test_samples_are_decimal_digits(self, sample):
        with pytest.raises(SampleCountMismatch):
            eg.parse_pgm(b"P2 1 1 255 " + sample)

    @pytest.mark.parametrize("body", [b"", b" ", b"  \n\t "])
    def test_body_of_only_whitespace_holds_no_sample(self, body):
        with pytest.raises(SampleCountMismatch):
            eg.parse_pgm(b"P2 1 1 255\n" + body)

    def test_overflowing_sample_is_out_of_range(self):
        with pytest.raises(SampleOutOfRange):
            eg.parse_pgm(b"P2 2 1 255\n7 " + b"9" * 30)

    def test_sample_count_mismatch(self):
        with pytest.raises(SampleCountMismatch):
            eg.parse_pgm(b"P2\n2 1\n255\n0\n")

    def test_sample_out_of_range(self):
        with pytest.raises(SampleOutOfRange):
            eg.parse_pgm(b"P2\n1 1\n255\n256\n")

    def test_truncated_binary_payload(self):
        with pytest.raises(SampleCountMismatch):
            eg.parse_pgm(b"P5\n2 2\n255\n" + bytes([0, 1]))

    @pytest.mark.parametrize("first", [0x20, 0x0A])
    def test_binary_payload_may_start_with_whitespace(self, first):
        # exactly one whitespace byte ends the header; the next is a sample
        img = eg.parse_pgm(b"P5 2 1 255\n" + bytes([first, 7]))
        assert list(img.samples) == [first, 7]
        img = eg.parse_pgm(b"P5\n1 1\n65535\n" + bytes([first, first]))
        assert list(img.samples) == [first * 257]

    def test_comment_straight_after_a_token(self):
        img = eg.parse_pgm(b"P2#c\n2#c\n1#c\n255\n3 4\n")
        assert (img.width, img.height, img.max_value) == (2, 1, 255)
        assert list(img.samples) == [3, 4]
        # the header ends after one whitespace byte, so a comment there is a sample
        with pytest.raises(SampleCountMismatch):
            eg.parse_pgm(b"P2 2 1 255#c\n3 4\n")

    @pytest.mark.parametrize(
        "data", [b"P2 " + b"#" * 100_000, b"P2 1 1 " + b"# #" * 30_000], ids=["hashes", "hash-space"]
    )
    def test_comment_runs_fail_fast(self, data):
        start = time.perf_counter()
        with pytest.raises(MalformedHeader):
            eg.parse_pgm(data)
        assert time.perf_counter() - start < 1.0


# the four edges of the dtype rule: uint8 up to max value 255, uint16 from 256
RULE_EDGES = [1, 255, 256, 65535]


class TestSampleStorage:
    @pytest.mark.parametrize("max_value", RULE_EDGES)
    @pytest.mark.parametrize("given", ["int64", "uint8", "list"])
    def test_construction_keeps_a_narrow_private_copy(self, max_value, given):
        values = [0, min(max_value, 255), 1, max_value if given != "uint8" else 0]
        samples = values if given == "list" else np.array(values, dtype=given)
        image = eg.RasterImage(2, 2, max_value, samples)
        assert_narrow_and_read_only(image)
        assert image.samples.tolist() == values
        if given != "list":
            assert not np.shares_memory(image.samples, samples)
            samples[:] = 1
            assert image.samples.tolist() == values

    @pytest.mark.parametrize("max_value", RULE_EDGES)
    @pytest.mark.parametrize("magic", [b"P2", b"P5"])
    def test_parsed_images_keep_the_narrow_dtype(self, max_value, magic):
        if magic == b"P2":
            data = b"P2 2 1 %d\n0 %d\n" % (max_value, max_value)
        else:
            dtype = ">u2" if max_value > 255 else np.uint8
            data = b"P5 2 1 %d\n" % max_value + np.array([0, max_value], dtype).tobytes()
        image = eg.parse_pgm(data)
        assert_narrow_and_read_only(image)
        assert image.samples.tolist() == [0, max_value]

    @pytest.mark.parametrize("side", [8, 33])
    def test_synthetic_views_keep_one_byte_a_sample(self, side):
        image = eg.synth_view("A", 30, side, 1)
        assert_narrow_and_read_only(image)
        assert image.samples.nbytes == side * side

    @pytest.mark.parametrize("max_value", RULE_EDGES)
    def test_occluded_images_keep_the_narrow_dtype(self, max_value):
        image = eg.RasterImage(4, 4, max_value, np.arange(16) % 2 * max_value)
        before = image.samples.copy()
        out = eg.apply_occlusion(image, eg.OcclusionSpec(1, 1, 2, 2, max_value))
        assert_narrow_and_read_only(out)
        assert out.grid()[1:3, 1:3].tolist() == [[max_value] * 2] * 2
        assert np.array_equal(image.samples, before)

    @pytest.mark.parametrize(
        "samples",
        [[3.7, 254.9], np.array([3.0]), [1e30], np.array([1e30]), [True, False], [10**30]],
        ids=["fractions", "whole-float", "huge-float", "huge-float-array", "bool", "huge-int"],
    )
    def test_samples_must_be_integers(self, samples):
        # rejected before any cast, so none truncates, wraps or warns
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(SampleOutOfRange, match="^samples must be integers, not "):
                eg.RasterImage(len(samples), 1, 255, samples)

    def test_a_caller_can_change_neither_the_image_nor_its_bytes(self):
        # an image that aliased its caller's writable int64 array wrote this
        # one as b"P2\n2 2\n255\n999 -5 0 0\n", which parse_pgm rejects
        given = np.zeros(4, np.int64)
        image = eg.RasterImage(2, 2, 255, given)
        given[0] = 999
        with pytest.raises(ValueError, match="read-only"):
            image.samples[1] = -5
        with pytest.raises(ValueError, match="read-only"):
            image.grid()[0, 1] = 7
        assert eg.write_pgm(image) == b"P2\n2 2\n255\n0 0 0 0\n"
        assert eg.parse_pgm(eg.write_pgm(image)) == image

    @pytest.mark.parametrize("max_value", RULE_EDGES)
    def test_equal_images_hash_alike(self, max_value):
        image = eg.RasterImage(3, 2, max_value, np.arange(6) * max_value // 5)
        p2, p5 = (eg.parse_pgm(eg.write_pgm(image, binary)) for binary in (False, True))
        assert p2 == p5 == image
        assert len({p2, p5, image}) == 1
        assert hash(eg.synth_view("A", 0, 8, 1)) == hash(eg.synth_view("A", 0, 8, 1))
        assert len({image, eg.apply_occlusion(image, eg.OcclusionSpec(0, 0, 1, 1, 1))}) == 2


class TestWritePgm:
    def test_canonical_text_form(self):
        img = eg.RasterImage(1, 1, 255, np.array([7]))
        assert eg.write_pgm(img) == b"P2\n1 1\n255\n7\n"

    def test_round_trip_property(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            img = random_image(rng)
            assert eg.parse_pgm(eg.write_pgm(img, binary=False)) == img
            assert eg.parse_pgm(eg.write_pgm(img, binary=True)) == img

    def test_text_and_binary_parse_equal(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            img = random_image(rng)
            text = eg.parse_pgm(eg.write_pgm(img, binary=False))
            binary = eg.parse_pgm(eg.write_pgm(img, binary=True))
            assert text == binary

    def test_deterministic_bytes(self):
        img = eg.synth_view("A", 30, 16, 5)
        assert eg.write_pgm(img) == eg.write_pgm(img)

    @pytest.mark.parametrize(
        "image",
        [
            eg.RasterImage(1, 1, 255, [7]),
            eg.RasterImage(5, 3, 1, np.arange(15) % 2),
            eg.RasterImage(4, 4, 65535, np.arange(16) * 4369),
        ],
        ids=["1x1", "max-value-1", "max-value-65535"],
    )
    def test_matches_the_oracle_bytes_for_bytes(self, image):
        for binary in (False, True):
            assert eg.write_pgm(image, binary) == oracle_write_pgm(image, binary)


class TestVectorize:
    def test_three_four_five(self):
        img = eg.RasterImage(1, 2, 255, np.array([3 * 51, 4 * 51]))
        v = eg.vectorize(img, "unit")
        assert v.values == pytest.approx([0.6, 0.8], abs=1e-15)

    def test_all_zero_unit_rejected(self):
        img = eg.RasterImage(2, 2, 255, np.zeros(4, dtype=int))
        with pytest.raises(ZeroImage):
            eg.vectorize(img, "unit")

    @pytest.mark.parametrize("values", [[0.6, 0.8]], ids=["unit"])
    def test_dim_is_derived_from_the_values(self, values):
        v = eg.AppearanceVector(np.array(values))
        assert v.dim == v.values.size == len(values)
        assert [f.name for f in fields(v)] == ["values", "source_label"]

    def test_unit_norm_invariant(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            img = random_image(rng)
            if img.samples.max() == 0:
                continue
            v = eg.vectorize(img, "unit")
            assert abs(np.linalg.norm(v.values) - 1.0) <= 1e-12


class TestApplyOcclusion:
    def test_total_occlusion(self):
        img = eg.RasterImage(4, 4, 255, np.arange(16))
        out = eg.apply_occlusion(img, eg.OcclusionSpec(0, 0, 4, 4, 0))
        assert np.all(out.samples == 0)

    def test_outside_rectangle_rejected(self):
        img = eg.RasterImage(4, 4, 255, np.arange(16))
        with pytest.raises(EmptyOcclusion):
            eg.apply_occlusion(img, eg.OcclusionSpec(4, 0, 2, 2, 0))

    def test_occluded_pixel_count(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            w = int(rng.integers(3, 12))
            h = int(rng.integers(3, 12))
            img = eg.RasterImage(w, h, 255, rng.integers(1, 256, size=w * h))
            spec = eg.OcclusionSpec(
                int(rng.integers(0, w)), int(rng.integers(0, h)),
                int(rng.integers(1, w + 3)), int(rng.integers(1, h + 3)), 0,
            )
            out = eg.apply_occlusion(img, spec)
            cw = min(spec.x0 + spec.w, w) - spec.x0
            ch = min(spec.y0 + spec.h, h) - spec.y0
            filled = int((out.grid()[spec.y0 : spec.y0 + ch, spec.x0 : spec.x0 + cw] == 0).sum())
            assert filled == cw * ch
            untouched = out.grid().copy()
            untouched[spec.y0 : spec.y0 + ch, spec.x0 : spec.x0 + cw] = img.grid()[
                spec.y0 : spec.y0 + ch, spec.x0 : spec.x0 + cw
            ]
            assert np.array_equal(untouched, img.grid())

    def test_idempotent(self):
        img = eg.synth_view("A", 10, 16, 2)
        spec = eg.OcclusionSpec(3, 4, 6, 5, 17)
        once = eg.apply_occlusion(img, spec)
        twice = eg.apply_occlusion(once, spec)
        assert once == twice

    def test_fill_above_max_rejected(self):
        img = eg.RasterImage(2, 2, 15, np.zeros(4, dtype=int))
        # beyond the grid's uint8, a fill would wrap or raise OverflowError: no caller expects it
        for fill in (16, 2**70):
            with pytest.raises(SampleOutOfRange):
                eg.apply_occlusion(img, eg.OcclusionSpec(0, 0, 1, 1, fill))


class TestSynthView:
    def test_deterministic(self):
        a = eg.synth_view("A", 0, 32, 1)
        b = eg.synth_view("A", 0, 32, 1)
        assert a == b

    def test_distinct_objects(self):
        a = eg.synth_view("A", 0, 32, 1)
        b = eg.synth_view("B", 0, 32, 1)
        assert not np.array_equal(a.samples, b.samples)

    def test_seed_changes_shape(self):
        a = eg.synth_view("A", 0, 32, 1)
        b = eg.synth_view("A", 0, 32, 2)
        assert not np.array_equal(a.samples, b.samples)

    def test_full_turn_matches_start(self):
        base = eg.synth_view("A", 0, 32, 1)
        turned = eg.synth_view("A", 360, 32, 1)
        # widened first: uint8 subtraction wraps, so a -1 would read 255
        assert np.abs(base.samples.astype(np.int64) - turned.samples).mean() <= 2.0

    def test_rotation_changes_image(self):
        a = eg.synth_view("A", 0, 32, 1)
        b = eg.synth_view("A", 40, 32, 1)
        assert not np.array_equal(a.samples, b.samples)

    def test_side_too_small(self):
        with pytest.raises(SideTooSmall):
            eg.synth_view("A", 0, 7, 1)

    def test_polygon_is_derived_once_per_object_and_read_only(self, monkeypatch):
        calls = []
        monkeypatch.setattr(imgio, "_object_shape",
                            lambda *args: calls.append(args) or _object_shape(*args))
        imgio._polygon.cache_clear()
        for angle in range(0, 360, 10):
            eg.synth_view("cached", angle, 16, 3)
        assert calls == [("cached", 3)]
        vx, vy, _ = imgio._polygon("cached", 3, 16)
        with pytest.raises(ValueError, match="read-only"):
            vx[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            vy[0] = 0.0

    def test_matches_the_oracle_bytes_for_bytes(self):
        # one object per vertex count (4 to 8) for each seed, at every angle;
        # the side cycles through `sides` and the written view through plain
        # and occluded, so each pair of the two occurs; each is written as P2 and P5
        sides = (8, 9, 31, 32, 64)
        cases = [(_object_with(n, seed), seed) for seed in (0, 1, 12) for n in range(4, 9)]
        for index, ((object_id, seed), angle) in enumerate(product(cases, range(0, 360, 5))):
            side = sides[index % len(sides)]
            image = eg.synth_view(object_id, angle, side, seed)
            assert image == oracle_synth_view(object_id, angle, side, seed), (object_id, angle)
            if index % 2:
                spec = eg.OcclusionSpec(side // 4, side // 3, side // 2, side // 4, index % 256)
                image = eg.apply_occlusion(image, spec)
            for binary in (False, True):
                assert eg.write_pgm(image, binary) == oracle_write_pgm(image, binary)


# vertices in pixel units, counter-clockwise unless named otherwise; subsample
# centres lie at odd multiples of 1/8, so an edge between two of them can pass
# through others, where a subsample's two sides of the edge test are equal
SHADE_CASES = {
    "diagonal-through-centres": ([0.125, 6.125, 0.125], [0.125, 0.125, 6.125]),
    "edges-through-centres": ([1.375, 6.625, 6.625, 1.375], [2.125, 2.125, 5.875, 5.875]),
    "horizontal-edge-plus-zero": ([1.0, 7.0, 7.0, 1.0], [0.0, 0.0, 5.0, 5.0]),
    # its first edge's ey is -0.0 - 0.0, which is -0.0
    "horizontal-edge-minus-zero": ([1.0, 7.0, 7.0, 1.0], [0.0, -0.0, 5.0, 5.0]),
    "vertical-edge": ([2.375, 7.5, 2.375], [1.0, 4.0, 7.125]),
    "repeated-vertex": ([0.125, 6.125, 6.125, 0.125], [0.125, 0.125, 0.125, 6.125]),
    "clockwise": ([0.125, 0.125, 6.125], [0.125, 6.125, 0.125]),
    "beyond-the-image": ([-3.0, 12.0, 4.0], [-2.0, 1.0, 11.5]),
}


class TestShade:
    @pytest.mark.parametrize("rvx, rvy", SHADE_CASES.values(), ids=SHADE_CASES.keys())
    def test_matches_the_oracle_at_the_edges(self, rvx, rvy):
        rvx, rvy = np.array(rvx), np.array(rvy)
        for side in (8, 9):
            shade = _shade(rvx, rvy, side, 255)
            assert np.array_equal(shade, oracle_shade(rvx, rvy, side, 255))

    def test_a_subsample_on_an_edge_is_inside(self):
        # the triangle's edges run along the subsample row y = 0.125, the
        # column x = 0.125 and the centres with x + y = 6.25; with a
        # foreground of 144 each pixel reads 128 plus its covered count
        rvx, rvy = map(np.array, SHADE_CASES["diagonal-through-centres"])
        shade = _shade(rvx, rvy, 8, 144)
        # pixel (0, 0) holds 7 subsamples on an edge, (0, 5) holds 7 of its 13
        # and (1, 5) holds one, on the diagonal
        assert (shade[0, 0], shade[0, 5], shade[1, 5]) == (144, 141, 129)

    def test_clockwise_polygon_covers_nothing(self):
        rvx, rvy = map(np.array, SHADE_CASES["clockwise"])
        assert np.all(_shade(rvx, rvy, 8, 255) == _BACKGROUND)
