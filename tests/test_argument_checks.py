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
    ],
    ids=["no-views", "zero-energy", "bool-energy", "numpy-bool-energy", "string-energy",
         "bool-threshold", "bool-margin", "string-margin", "zero-size-image", "zero-max-value",
         "sample-count", "vector-shape", "non-finite-vector", "unknown-norm-mode",
         "non-unit-vector", "negative-offset", "zero-extent", "negative-fill", "fractional-fill",
         "float-offset", "float-extent", "bool-offset", "pgm-str",
         "pgm-zero-width", "non-square", "non-finite-matrix", "1d-gram-input",
         "non-finite-gram-input", "gram-overflow", "gram-near-limit",
         "zero-energy-choose-k", "zero-energy-gram", "energy-above-one-gram"],
)
def test_bad_argument_raises_its_error(call, error, match):
    with pytest.raises(error, match=match) as info:
        call()
    assert info.type is error


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
