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
        (lambda: eg.EigenspaceConfig(k_override=0), ValueError, "k_override"),
        (lambda: eg.RasterImage(0, 1, 255, []), ValueError, "dimensions"),
        (lambda: eg.RasterImage(1, 1, 0, [0]), ValueError, "max_value"),
        (lambda: eg.RasterImage(2, 1, 255, [0]), SampleCountMismatch, "expected 2 samples"),
        (lambda: eg.AppearanceVector(2, [1.0], "raw"), ValueError, "length"),
        (lambda: eg.AppearanceVector(1, [np.inf], "raw"), ValueError, "finite"),
        (lambda: eg.AppearanceVector(1, [1.0], "cubic"), ValueError, "norm_mode"),
        (lambda: eg.AppearanceVector(1, [2.0], "unit"), ValueError, "unit-mode vector has norm"),
        (lambda: eg.OcclusionSpec(-1, 0, 1, 1, 0), ValueError, "offsets"),
        (lambda: eg.OcclusionSpec(0, 0, 0, 1, 0), ValueError, "extents"),
        (lambda: eg.OcclusionSpec(0, 0, 1, 1, -1), ValueError, "fill"),
        (lambda: eg.parse_pgm("P2 1 1 255 0"), TypeError, "bytes"),
        (lambda: eg.parse_pgm(b"P2 0 1 255\n"), MalformedHeader, "invalid dimensions"),
        (lambda: check_symmetric(np.zeros((2, 3))), ValueError, "square"),
        (lambda: check_symmetric([[np.nan]]), ValueError, "finite"),
        (lambda: eg.gram_pca(np.ones(3)), ValueError, "d x m"),
        (lambda: eg.choose_k([1.0], 0.0), ValueError, "energy_threshold"),
    ],
    ids=["no-views", "zero-energy", "zero-k", "zero-size-image", "zero-max-value",
         "sample-count", "vector-length", "non-finite-vector", "unknown-norm-mode",
         "non-unit-vector", "negative-offset", "zero-extent", "negative-fill", "pgm-str",
         "pgm-zero-width", "non-square", "non-finite-matrix", "1d-gram-input",
         "zero-energy-choose-k"],
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
