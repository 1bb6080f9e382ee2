"""Each argument check of the library raises its own error class and message."""

import numpy as np
import pytest

import eigengaze as eg
from eigengaze.errors import DegenerateSet, MalformedHeader, SampleCountMismatch
from eigengaze.linalg import check_symmetric


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: eg.build_eigenspace("A", [], eg.EigenspaceConfig()), DegenerateSet, "empty"),
        (lambda: eg.EigenspaceConfig(energy_threshold=0.0), ValueError, "energy_threshold"),
        # a bool or a string is no energy threshold, though one compares and one renders
        (lambda: eg.EigenspaceConfig(True), ValueError, r"energy_threshold .*, not True"),
        (lambda: eg.EigenspaceConfig(np.bool_(True)), ValueError,
         r"energy_threshold .*, not (np\.)?True"),
        (lambda: eg.EigenspaceConfig("0.9"), ValueError, "energy_threshold .*, not '0.9'"),
        (lambda: eg.EnrollmentPolicy(True), ValueError, "unknown_threshold .*, not True"),
        (lambda: eg.EnrollmentPolicy("auto", True), ValueError, "auto_margin .*, not True"),
        (lambda: eg.EnrollmentPolicy("auto", "1.5"), ValueError, "auto_margin .*, not '1.5'"),
        (lambda: eg.RasterImage(0, 1, 255, []), ValueError, "dimensions"),
        (lambda: eg.RasterImage(1, 1, 0, [0]), ValueError, "max_value"),
        (lambda: eg.RasterImage(2, 1, 255, [0]), SampleCountMismatch, "expected 2 samples"),
        # a float or bool dimension would write a PGM header that parse_pgm rejects
        (lambda: eg.RasterImage(2.0, 1, 255, [1, 2]), ValueError,
         "^image width must be an integer, not 2.0$"),
        (lambda: eg.RasterImage(2, True, 255, [1, 2]), ValueError,
         "^image height must be an integer, not True$"),
        (lambda: eg.RasterImage(1, 1, 255.0, [1]), ValueError,
         "^image max_value must be an integer, not 255.0$"),
        (lambda: eg.AppearanceVector([[1.0]]), ValueError, "one-dimensional"),
        (lambda: eg.AppearanceVector([np.inf]), ValueError, "finite"),
        (lambda: eg.vectorize(eg.RasterImage(1, 1, 255, [1]), "raw"), ValueError,
         "norm_mode must be 'unit', not 'raw'"),
        (lambda: eg.AppearanceVector([2.0]), ValueError, "values must have unit norm"),
        (lambda: eg.OcclusionSpec(-1, 0, 1, 1, 0), ValueError, "offsets"),
        (lambda: eg.OcclusionSpec(0, 0, 0, 1, 0), ValueError, "extents"),
        (lambda: eg.OcclusionSpec(0, 0, 1, 1, -1), ValueError, "fill"),
        # slicing and filling take integers: a float would fill as another value, or not slice
        (lambda: eg.OcclusionSpec(0, 0, 4, 4, 1.5), ValueError,
         "occlusion fill must be an integer, not 1.5"),
        (lambda: eg.OcclusionSpec(0.0, 0, 4, 4, 0), ValueError,
         "occlusion x0 must be an integer, not 0.0"),
        (lambda: eg.OcclusionSpec(0, 0, 4.0, 4, 0), ValueError,
         "occlusion w must be an integer, not 4.0"),
        (lambda: eg.OcclusionSpec(True, 0, 4, 4, 0), ValueError,
         "occlusion x0 must be an integer, not True"),
        (lambda: eg.parse_pgm("P2 1 1 255 0"), TypeError, "bytes"),
        (lambda: eg.parse_pgm(b"P2 0 1 255\n"), MalformedHeader, "invalid dimensions"),
        (lambda: check_symmetric(np.zeros((2, 3))), ValueError, "square"),
        (lambda: check_symmetric([[np.nan]]), ValueError, "finite"),
        (lambda: eg.gram_pca(np.ones(3)), ValueError, "d x m"),
        (lambda: eg.gram_pca([[np.inf], [1.0]]), ValueError, "X entries must be finite"),
        (lambda: eg.gram_pca([[1e200, 1.0], [2.0, -1e200]]), ValueError,
         "matrix entries must be finite"),
        (lambda: eg.gram_pca([[1e154, 1.0], [2.0, -1e154]]), ValueError,
         "too large to decompose"),
        (lambda: eg.choose_k([1.0], 0.0), ValueError, "energy_threshold"),
        (lambda: eg.gram_pca(np.eye(3), energy_threshold=0.0), ValueError, "energy_threshold"),
        # a rank-0 input has no eigenvalue for choose_k to check the threshold against
        (lambda: eg.gram_pca(np.ones((3, 2)), energy_threshold=1.5), ValueError,
         "energy_threshold"),
        # gram_pca and choose_k apply EigenspaceConfig's rule: no bool, no string
        (lambda: eg.gram_pca(np.eye(3), True), ValueError,
         r"^energy_threshold must be in \(0, 1\], not True$"),
        (lambda: eg.choose_k([2.0, 1.0], np.True_), ValueError,
         r"^energy_threshold must be in \(0, 1\], not (np\.)?True_?$"),
        (lambda: eg.gram_pca(np.eye(3), "0.9"), ValueError,
         r"^energy_threshold must be in \(0, 1\], not '0.9'$"),
        # side and seed key the polygon cache, which must not take 1.0 or True for 1
        (lambda: eg.synth_view("A", 0, 16, 1.0), ValueError, "^seed must be an integer, not 1.0$"),
        (lambda: eg.synth_view("A", 0, 16, True), ValueError,
         "^seed must be an integer, not True$"),
        (lambda: eg.synth_view("A", 0, 16.0, 1), ValueError,
         "^side must be an integer, not 16.0$"),
        # a build reads each view's angle and occluded flag from its label
        (lambda: eg.AppearanceVector([1.0], "A_0"), ValueError,
         "^source_label must be a ViewLabel, not 'A_0'$"),
    ],
    ids=["no-views", "zero-energy", "bool-energy", "numpy-bool-energy", "string-energy",
         "bool-threshold", "bool-margin", "string-margin", "zero-size-image", "zero-max-value",
         "sample-count", "float-width", "bool-height", "float-max-value", "vector-shape",
         "non-finite-vector", "unknown-norm-mode",
         "non-unit-vector", "negative-offset", "zero-extent", "negative-fill", "fractional-fill",
         "float-offset", "float-extent", "bool-offset", "pgm-str",
         "pgm-zero-width", "non-square", "non-finite-matrix", "1d-gram-input",
         "non-finite-gram-input", "gram-overflow", "gram-near-limit",
         "zero-energy-choose-k", "zero-energy-gram", "energy-above-one-gram",
         "bool-energy-gram", "numpy-bool-energy-choose-k", "string-energy-gram",
         "float-seed", "bool-seed", "float-side", "string-label"],
)
def test_bad_argument_raises_its_error(call, error, match):
    with pytest.raises(error, match=match) as info:
        call()
    assert info.type is error


def test_numpy_integer_image_fields_are_stored_as_ints():
    image = eg.RasterImage(np.int64(2), np.uint8(1), np.int32(255), [1, 2])
    assert [type(v) for v in (image.width, image.height, image.max_value)] == [int] * 3
    assert eg.parse_pgm(eg.write_pgm(image)) == image


def test_a_numpy_label_is_stored_as_an_int_and_a_bool():
    label = eg.ViewLabel("pen", np.int64(40), np.bool_(True))
    assert type(label.view_angle_deg) is int and type(label.occluded) is bool
    assert label == eg.ViewLabel("pen", 40, True)
    assert hash(label) == hash(eg.ViewLabel("pen", 40, True))


def test_a_numpy_integer_occlusion_is_clamped_like_an_int():
    """In int64, x0 + w would overflow: it would fill nothing, or warn."""
    image = eg.RasterImage(8, 8, 255, np.full(64, 200))
    huge = np.int64(2**63 - 1)
    spec = eg.OcclusionSpec(2, 2, huge, huge, 0)
    assert type(spec.w) is int and type(spec.h) is int
    occluded = eg.apply_occlusion(image, spec)
    assert occluded == eg.apply_occlusion(image, eg.OcclusionSpec(2, 2, 2**63 - 1, 2**63 - 1, 0))
    assert np.count_nonzero(occluded.samples == 0) == 36


def test_image_compares_equal_only_to_an_image():
    image = eg.RasterImage(1, 1, 255, [0])
    assert image.__eq__(b"P2 1 1 255 0") is NotImplemented
    assert image != b"P2 1 1 255 0"
    assert image == eg.RasterImage(1, 1, 255, [0])


@pytest.mark.parametrize("tau", [np.float32(0.9), 1], ids=["float32", "int"])
def test_a_real_energy_threshold_of_another_type_round_trips(tau):
    views = [eg.vectorize(eg.synth_view("pen", a, 16, 1), label=eg.ViewLabel("pen", a))
             for a in (0, 40, 80)]
    data = eg.save_model(eg.build_eigenspace("pen", views, eg.EigenspaceConfig(tau)))
    assert eg.load_model(data).config == eg.EigenspaceConfig(tau)
    assert eg.save_model(eg.load_model(data)) == data
