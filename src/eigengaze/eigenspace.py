"""Per-object eigenspace: build, project, reconstruct, persist.

One eigenspace is built per object from all of its training appearances,
occluded views included alongside clean ones. The model persists to a
line-oriented text format that round-trips bit-exactly.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadMagic,
    CorruptField,
    DegenerateSet,
    DimensionMismatch,
    VersionMismatch,
)
from .imgio import NORM_MODES, UNIT, AppearanceVector, ViewLabel
from .linalg import choose_k, gram_pca

MODEL_MAGIC = "EIGENGAZE"
MODEL_VERSION = 1


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@dataclass(frozen=True)
class EigenspaceConfig:
    centered: bool = True
    norm_mode: str = UNIT
    energy_threshold: float = 0.95
    k_override: int | None = None

    def __post_init__(self):
        if self.norm_mode not in NORM_MODES:
            raise ValueError(f"norm_mode must be one of {NORM_MODES}")
        if not 0.0 < self.energy_threshold <= 1.0:
            raise ValueError("energy_threshold must be in (0, 1]")
        if self.k_override is not None and self.k_override < 1:
            raise ValueError("k_override must be >= 1")


@dataclass(frozen=True)
class ManifoldPoint:
    coords: np.ndarray
    label: ViewLabel


@dataclass(frozen=True)
class Eigenspace:
    object_id: str
    dim: int
    mean: np.ndarray
    eigenvalues: np.ndarray  # descending, length k
    basis: np.ndarray        # shape (k, dim), orthonormal rows
    config: EigenspaceConfig
    coords: np.ndarray       # shape (n, k), one manifold point per row
    labels: tuple            # of ViewLabel, one per row of coords

    @property
    def k(self) -> int:
        return int(self.eigenvalues.size)

    @property
    def manifold(self) -> tuple:
        """The manifold points as ManifoldPoints, in training order."""
        return tuple(map(ManifoldPoint, self.coords, self.labels))


def _check_vector(es_dim: int, norm_mode: str, v: AppearanceVector):
    if v.dim != es_dim:
        raise DimensionMismatch(f"vector dim {v.dim} != eigenspace dim {es_dim}")
    if v.norm_mode != norm_mode:
        raise DimensionMismatch(
            f"vector norm_mode {v.norm_mode!r} != eigenspace norm_mode {norm_mode!r}"
        )


def build_eigenspace(object_id, appearances, config: EigenspaceConfig) -> Eigenspace:
    """Build an object's eigenspace from its full appearance set."""
    appearances = list(appearances)
    if not appearances:
        raise DegenerateSet("appearance set is empty")
    d = appearances[0].dim
    for v in appearances:
        _check_vector(d, config.norm_mode, v)

    X = np.column_stack([v.values for v in appearances])
    pca = gram_pca(X, centered=config.centered)
    rank = int(pca.eigenvalues.size)
    if rank == 0:
        raise DegenerateSet(
            f"no positive eigenvalue for object {object_id!r} "
            "(degenerate appearance set)"
        )

    if config.k_override is not None:
        k = min(config.k_override, rank)
    else:
        k = choose_k(pca.eigenvalues, config.energy_threshold)

    eigenvalues = pca.eigenvalues[:k].copy()
    basis = pca.basis[:k].copy()
    coords = np.array([basis @ (v.values - pca.mean) for v in appearances])
    labels = tuple(v.source_label for v in appearances)
    return Eigenspace(object_id, d, pca.mean, eigenvalues, basis, config, coords, labels)


def project(es: Eigenspace, v: AppearanceVector) -> np.ndarray:
    _check_vector(es.dim, es.config.norm_mode, v)
    return es.basis @ (v.values - es.mean)


def reconstruct(es: Eigenspace, coords) -> np.ndarray:
    coords = np.asarray(coords, dtype=np.float64)
    if coords.shape != (es.k,):
        raise DimensionMismatch(f"coords length {coords.size} != k {es.k}")
    return es.mean + es.basis.T @ coords


def residual(es: Eigenspace, v: AppearanceVector) -> float:
    """Norm of the query component orthogonal to the eigenspace."""
    _check_vector(es.dim, es.config.norm_mode, v)
    w = v.values - es.mean
    return float(np.linalg.norm(w - es.basis.T @ (es.basis @ w)))


# --- persistence ---

def save_model(es: Eigenspace) -> bytes:
    lines = [
        f"{MODEL_MAGIC} {MODEL_VERSION}",
        f"object {es.object_id}",
        f"dim {es.dim}",
        f"k {es.k}",
        "config {} {} {}".format(
            1 if es.config.centered else 0,
            es.config.norm_mode,
            _fmt(es.config.energy_threshold),
        ),
        "mean " + " ".join(_fmt(x) for x in es.mean),
    ]
    for i, lam in enumerate(es.eigenvalues):
        lines.append(f"eigenvalue {i} {_fmt(lam)}")
    for i, row in enumerate(es.basis):
        lines.append(f"basis {i} " + " ".join(_fmt(x) for x in row))
    for label, row in zip(es.labels, es.coords):
        lines.append(
            f"point {label.view_angle_deg} {1 if label.occluded else 0} "
            + " ".join(_fmt(x) for x in row)
        )
    lines.append("END")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _floats(fields, count, what) -> np.ndarray:
    if len(fields) != count:
        raise CorruptField(f"{what}: expected {count} values, got {len(fields)}")
    try:
        values = np.array([float(f) for f in fields], dtype=np.float64)
    except ValueError as exc:
        raise CorruptField(f"{what}: {exc}") from exc
    if not np.isfinite(values).all():
        raise CorruptField(f"{what}: non-finite value")
    return values


def load_model(data: bytes) -> Eigenspace:
    """Inverse of save_model. The file does not record k_override, so the
    loaded config has none: k was fixed when the model was built."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise BadMagic(f"not a text model file: {exc}") from exc
    lines = text.split("\n")
    header = lines[0].split()
    if len(header) != 2 or header[0] != MODEL_MAGIC:
        raise BadMagic(f"bad magic line {lines[0]!r}")
    if header[1] != str(MODEL_VERSION):
        raise VersionMismatch(f"unsupported model version {header[1]!r}")

    def expect(idx, keyword):
        if idx >= len(lines):
            raise CorruptField(f"truncated file: missing {keyword!r} line")
        parts = lines[idx].split(" ")
        if parts[0] != keyword:
            raise CorruptField(f"expected {keyword!r} line, got {lines[idx]!r}")
        return parts[1:]

    try:
        expect(1, "object")
        object_id = lines[1][len("object ") :]
        dim = int(expect(2, "dim")[0])
        k = int(expect(3, "k")[0])
        cfg = expect(4, "config")
        if len(cfg) != 3 or cfg[0] not in ("0", "1") or cfg[1] not in NORM_MODES:
            raise CorruptField(f"bad config line {lines[4]!r}")
        config = EigenspaceConfig(
            centered=cfg[0] == "1",
            norm_mode=cfg[1],
            energy_threshold=float(cfg[2]),
        )
        mean = _floats(expect(5, "mean"), dim, "mean")
        if dim < 1 or k < 1:
            raise CorruptField("dim and k must be positive")
    except (ValueError, IndexError) as exc:
        raise CorruptField(str(exc)) from exc

    # header counts size nothing up front: a bad k must fail on a missing
    # line, not on allocating k floats
    row = 6
    eigenvalues = []
    for i in range(k):
        fields = expect(row, "eigenvalue")
        if len(fields) != 2 or fields[0] != str(i):
            raise CorruptField(f"bad eigenvalue line {lines[row]!r}")
        eigenvalues.append(_floats(fields[1:], 1, "eigenvalue")[0])
        row += 1
    eigenvalues = np.array(eigenvalues)
    if not (eigenvalues > 0).all() or (np.diff(eigenvalues) > 0).any():
        raise CorruptField("eigenvalues must be positive and non-increasing")
    basis = []
    for i in range(k):
        fields = expect(row, "basis")
        if not fields or fields[0] != str(i):
            raise CorruptField(f"bad basis line index at line {row + 1}")
        basis.append(_floats(fields[1:], dim, "basis"))
        row += 1
    basis = np.array(basis)

    coords, labels = [], []
    while row < len(lines) and lines[row] != "END":
        fields = expect(row, "point")
        if len(fields) != 2 + k:
            raise CorruptField(f"bad point line {lines[row]!r}")
        if fields[1] not in ("0", "1"):
            raise CorruptField(f"bad occluded flag {fields[1]!r}")
        coords.append(_floats(fields[2:], k, "point"))
        try:
            labels.append(ViewLabel(object_id, int(fields[0]), fields[1] == "1"))
        except ValueError as exc:
            raise CorruptField(f"bad point angle {fields[0]!r}: {exc}") from exc
        row += 1
    if row >= len(lines):
        raise CorruptField("truncated file: missing END")
    if not labels:
        raise CorruptField("model has no manifold points")

    return Eigenspace(
        object_id, dim, mean, eigenvalues, basis, config, np.array(coords), tuple(labels)
    )
