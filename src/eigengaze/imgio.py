"""Grayscale raster I/O, appearance vectors, occlusion, and synthetic views.

Images are plain PGM (P2 text / P5 binary). A RasterImage keeps its samples
as a private, read-only copy as wide as a P5 file stores them: uint8 below
max value 256, uint16 from there on. Appearance vectors are the flattened
pixel intensities, normalized to unit energy, that feed the eigenspace
builder. synth_view stands in for a camera: a scan-line fill finds each
subsample row's covered columns with one binary search per edge, and each
object's polygon is derived once per (object, seed, side). Neither it nor
write_pgm loops in Python over pixels or samples.
"""

import functools
import hashlib
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyOcclusion,
    MalformedHeader,
    SampleCountMismatch,
    SampleOutOfRange,
    SideTooSmall,
    ZeroImage,
)

@dataclass(frozen=True)
class ViewLabel:
    object_id: str
    view_angle_deg: int
    occluded: bool = False

    def __post_init__(self):
        # a float or bool angle would save a `point` line that load_model cannot read
        a = self.view_angle_deg
        if isinstance(a, bool) or not isinstance(a, (int, np.integer)) or not 0 <= a <= 359:
            raise ValueError(f"view_angle_deg must be an integer in [0, 359], not {a!r}")
        if not isinstance(self.occluded, (bool, np.bool_)):
            raise ValueError(f"occluded must be a bool, not {self.occluded!r}")


_UNLABELED = ViewLabel("", 0, False)


def _sample_dtype(max_value: int) -> np.dtype:
    """The narrowest unsigned dtype that holds [0, max_value]: one byte per
    sample below 256, two from 256 on, as a P5 file stores them."""
    return np.dtype(np.uint8 if max_value < 256 else np.uint16)


@dataclass(frozen=True)
class RasterImage:
    """Row-major grayscale raster with integer samples in [0, max_value]."""

    width: int
    height: int
    max_value: int
    # shape (width*height,), dtype _sample_dtype(max_value), read-only and
    # owned by the image: the constructor copies what it is given
    samples: np.ndarray

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("image dimensions must be positive")
        if not 1 <= self.max_value <= 65535:
            raise ValueError("max_value must be in [1, 65535]")
        samples = np.asarray(self.samples)
        if samples.shape != (self.width * self.height,):
            raise SampleCountMismatch(
                f"expected {self.width * self.height} samples, got {samples.size}"
            )
        # checked before any cast, which would truncate a float or wrap a huge value
        if samples.dtype.kind not in "iu":
            raise SampleOutOfRange(f"samples must be integers, not {samples.dtype}")
        if samples.min() < 0 or samples.max() > self.max_value:
            raise SampleOutOfRange(
                f"samples must lie in [0, {self.max_value}]"
            )
        samples = samples.astype(_sample_dtype(self.max_value))
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)

    def __eq__(self, other):
        if not isinstance(other, RasterImage):
            return NotImplemented
        return (
            self.width == other.width
            and self.height == other.height
            and self.max_value == other.max_value
            and np.array_equal(self.samples, other.samples)
        )

    def __hash__(self):
        # equal images hold equal samples of one dtype, since it follows max_value
        return hash((self.width, self.height, self.max_value, self.samples.tobytes()))

    def grid(self) -> np.ndarray:
        return self.samples.reshape(self.height, self.width)


# it holds arrays, so it compares and hashes by identity
@dataclass(frozen=True, eq=False)
class AppearanceVector:
    values: np.ndarray  # of unit Euclidean length
    source_label: ViewLabel = field(default=_UNLABELED)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.ndim != 1:  # a build stacks each view's values as one column
            raise ValueError(f"values must be one-dimensional, not of shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        n = np.linalg.norm(values)
        if abs(n - 1.0) > 1e-12:
            raise ValueError(f"values must have unit norm, not {n}")

    @property
    def dim(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class OcclusionSpec:
    """Axis-aligned constant-fill rectangle; clamped to bounds on application."""

    x0: int
    y0: int
    w: int
    h: int
    fill: int

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"occlusion {name} must be an integer, not {value!r}")
        if self.x0 < 0 or self.y0 < 0:
            raise ValueError("occlusion offsets must be non-negative")
        if self.w < 1 or self.h < 1:
            raise ValueError("occlusion extents must be positive")
        if self.fill < 0:
            raise ValueError("fill must be non-negative")


# --- PGM parsing ---

# The magic token, then width, height and max value as decimal digits, each
# after whitespace or # comments, then at most one whitespace byte before the
# samples. The max value must end at whitespace, a # or the end of the data. A
# comment runs to its newline or to the end of the data; a bare #[^\n]* could
# end at any byte, and a run of # bytes would backtrack exponentially.
_PGM_HEADER = re.compile(
    rb"P[25]" + rb"(?:\s|#[^\n]*(?:\n|\Z))+([0-9]+)" * 3 + rb"(?![^\s#])\s?"
)
# the bytes a P2 body may hold: digits and the six ASCII whitespace bytes
_P2_BODY_BYTES = b"0123456789 \t\n\v\f\r"


def parse_pgm(data: bytes) -> RasterImage:
    """Parse a P2 (text) or P5 (binary) PGM byte sequence."""
    if not isinstance(data, (bytes, bytearray)):
        raise TypeError("parse_pgm expects bytes")
    data = bytes(data)
    header = _PGM_HEADER.match(data)
    if header is None:
        raise MalformedHeader(f"bad magic or incomplete header in {data[:16]!r}")
    try:
        width, height, max_value = map(int, header.groups())
    except ValueError as exc:  # more digits than int() converts
        raise MalformedHeader(f"header field too long: {exc}") from exc
    if width < 1 or height < 1 or not 1 <= max_value <= 65535:
        raise MalformedHeader("invalid dimensions or max value")
    count = width * height
    offset = header.end()

    if data.startswith(b"P2"):
        # numpy reads a body of only whitespace as one 0, so strip it first
        body = data[offset:].strip()
        if body.translate(None, _P2_BODY_BYTES):
            raise SampleCountMismatch("P2 samples must be decimal digits and whitespace")
        # RasterImage rejects a wrong count, and an overflowing sample, read as int64's maximum
        samples = np.fromstring(body, dtype=np.int64, sep=" ") if body else np.empty(0, np.int64)
    else:
        dtype = _sample_dtype(max_value).newbyteorder(">")
        payload = data[offset : offset + count * dtype.itemsize]
        if len(payload) != count * dtype.itemsize:
            raise SampleCountMismatch(
                f"expected {count * dtype.itemsize} payload bytes, found {len(payload)}"
            )
        samples = np.frombuffer(payload, dtype=dtype)
    return RasterImage(width, height, max_value, samples)


def write_pgm(image: RasterImage, binary: bool = False) -> bytes:
    """Serialize to canonical PGM; identical inputs give identical bytes."""
    header = f"{image.width} {image.height}\n{image.max_value}\n"
    if not binary:
        samples = image.samples.tolist()
        body = " ".join(["%d"] * len(samples)) % tuple(samples)
        return ("P2\n" + header + body + "\n").encode("ascii")
    dtype = _sample_dtype(image.max_value).newbyteorder(">")
    return ("P5\n" + header).encode("ascii") + image.samples.astype(dtype).tobytes()


# --- appearance vectors ---

def vectorize(
    image: RasterImage,
    norm_mode: str = "unit",
    label: ViewLabel = _UNLABELED,
) -> AppearanceVector:
    """Flatten an image to a length-d vector, scaled to [0,1] and then
    normalized to unit Euclidean length. norm_mode must be "unit", the one
    normalization; it is kept for callers that still pass it."""
    if norm_mode != "unit":
        raise ValueError(f"norm_mode must be 'unit', not {norm_mode!r}")
    values = image.samples.astype(np.float64) / image.max_value
    n = np.linalg.norm(values)
    if n == 0.0:
        raise ZeroImage("cannot unit-normalize an all-zero image")
    values = values / n
    # guard against residual round-off drifting past the invariant
    values = values / np.linalg.norm(values)
    return AppearanceVector(values, label)


def apply_occlusion(image: RasterImage, spec: OcclusionSpec) -> RasterImage:
    """Overwrite the clamped rectangle with spec.fill; everything else unchanged."""
    # not left to RasterImage: beyond the grid's uint8/uint16, filling would wrap or raise
    if spec.fill > image.max_value:
        raise SampleOutOfRange("occlusion fill exceeds image max_value")
    x1 = min(spec.x0 + spec.w, image.width)
    y1 = min(spec.y0 + spec.h, image.height)
    if spec.x0 >= image.width or spec.y0 >= image.height:
        raise EmptyOcclusion("occlusion rectangle lies entirely outside the image")
    grid = image.grid().copy()
    grid[spec.y0 : y1, spec.x0 : x1] = spec.fill
    return RasterImage(image.width, image.height, image.max_value, grid.ravel())


# --- synthetic views ---

_BACKGROUND = 128
_SUPERSAMPLE = 4


def _object_shape(object_id: str, seed: int):
    """Deterministic convex polygon parameters for one object."""
    digest = hashlib.sha256(
        object_id.encode("utf-8") + b"\x00" + str(seed).encode("ascii")
    ).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "big"))
    n_verts = int(rng.integers(4, 9))
    thetas = np.sort(rng.uniform(0.0, 2.0 * math.pi, n_verts))
    # vertices on an ellipse, in angular order, are always convex
    rx = rng.uniform(0.25, 0.45)
    ry = rng.uniform(0.25, 0.45)
    foreground = int(rng.integers(190, 256))
    return thetas, rx, ry, foreground


@functools.lru_cache(maxsize=128)
def _polygon(object_id: str, seed: int, side: int):
    """An object's vertices scaled to side, and its foreground; the arrays are
    shared by every view of it, so they are read-only."""
    thetas, rx, ry, foreground = _object_shape(object_id, seed)
    vx = rx * side * np.cos(thetas)
    vy = ry * side * np.sin(thetas)
    vx.flags.writeable = vy.flags.writeable = False
    return vx, vy, foreground


def _shade(rvx, rvy, side: int, foreground: int) -> np.ndarray:
    """The side x side shades, 4x4 supersampled, of the polygon with vertices
    (rvx, rvy) in pixel units, filled with foreground on a mid-gray
    background. A subsample is covered iff it lies left of (or on) every edge:
    for counter-clockwise convex vertices, inside the polygon."""
    ss = _SUPERSAMPLE
    n = side * ss
    coords = (np.arange(n, dtype=np.float64) + 0.5) / ss
    ex = np.concatenate((rvx[1:], rvx[:1])) - rvx
    ey = np.concatenate((rvy[1:], rvy[:1])) - rvy
    # edge i's test ex·(y − rvy[i]) >= ey·(x − rvx[i]) has its left side a
    # function of the subsample's row and its right side one of the column;
    # rounding is monotone, so the right side is non-decreasing in x where
    # ey >= 0 (-0.0 included: its products all compare equal) and
    # non-increasing otherwise. A row's columns that pass an edge are thus a
    # prefix or a suffix, and those that pass every edge one run [lo, hi)
    lo, hi = np.zeros(n, dtype=np.intp), np.full(n, n, dtype=np.intp)
    for a, b, rising in zip(ex[:, None] * (coords - rvy[:, None]),
                            ey[:, None] * (coords - rvx[:, None]), ey >= 0):
        if rising:
            np.minimum(hi, np.searchsorted(b, a, side="right"), out=hi)
        else:
            np.maximum(lo, n - np.searchsorted(b[::-1], a, side="right"), out=lo)
    # each pixel boundary clipped to [lo, hi], which is hi throughout when the
    # run is empty: the differences of neighbours, summed over a pixel's
    # subrows, count its covered subsamples, at most ss² = 16, so count / ss²
    # is exactly the mean coverage
    dtype = np.min_scalar_type(n)
    bounds = np.arange(0, n + 1, ss, dtype=dtype)
    left = np.minimum(np.maximum(bounds, lo.astype(dtype)[:, None]), hi.astype(dtype)[:, None])
    count = (left[:, 1:] - left[:, :-1]).reshape(side, ss, side).sum(axis=1, dtype=np.uint8)
    return np.rint(_BACKGROUND + count / ss**2 * (foreground - _BACKGROUND))


def synth_view(object_id: str, angle_deg: int, side: int, seed: int) -> RasterImage:
    """Render one deterministic synthetic appearance of an object.

    The object is a filled convex polygon derived from (object_id, seed),
    rotated by angle_deg about the image center and anti-aliased (4x4
    supersampling) onto a mid-gray background. Each row of subsamples is
    filled as one run of columns (a scan-line fill); the polygon is derived
    once per (object_id, seed, side) and cached.
    """
    if side < 8:
        raise SideTooSmall("side must be at least 8 pixels")
    vx, vy, foreground = _polygon(object_id, seed, side)
    phi = math.radians(angle_deg)
    c, s = math.cos(phi), math.sin(phi)
    half = side / 2.0
    rvx = c * vx - s * vy + half
    rvy = s * vx + c * vy + half
    shade = _shade(rvx, rvy, side, foreground)
    return RasterImage(side, side, 255, shade.astype(np.int64).ravel())
