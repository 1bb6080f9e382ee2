"""Per-object eigenspace: build, project, reconstruct, persist.

One eigenspace is built per object from all of its training appearances,
occluded views included alongside clean ones. The model persists to a
line-oriented text format that round-trips bit-exactly. A binary sidecar
holds the same floats for fast loading; it is a cache tied to the text by a
digest, and the text stays the source of truth.

The `Eigenspace` constructor is the one place that checks a model's
invariants, so a built, loaded or hand-made space meets the same ones;
`load_model` checks only that the file parses.
"""

import hashlib
from dataclasses import dataclass, field, replace

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
# a built basis measures at most about 1e-9, so this bound leaves a wide margin
ORTHONORMAL_TOL = 1e-6
# a sidecar is a sha256 digest, then one little-endian float64 block
SIDECAR_DIGEST_SIZE = 32
SIDECAR_DTYPE = np.dtype("<f8")


def _fmt_row(values) -> str:
    """The values as space-separated `.17g` text, through one % template."""
    return " ".join(["%.17g"] * len(values)) % tuple(values)


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
    mean: np.ndarray         # shape (dim,)
    eigenvalues: np.ndarray  # descending, length k
    basis: np.ndarray        # shape (k, dim), orthonormal rows
    config: EigenspaceConfig
    coords: np.ndarray       # shape (n, k), one manifold point per row
    labels: tuple            # of ViewLabel, one per row of coords

    spread: float | None = field(init=False)  # None for a single point

    def __post_init__(self):
        """Check every model invariant, then derive the manifold's spread."""
        def invalid(why):
            return CorruptField(f"model of {self.object_id!r}: {why}")

        # shapes first, so no bad index escapes the sort below
        dim, k, n = self.mean.size, self.eigenvalues.size, len(self.labels)
        shapes = (self.mean.shape, self.eigenvalues.shape, self.basis.shape, self.coords.shape)
        if shapes != ((dim,), (k,), (k, dim), (n, k)):
            raise invalid(f"array shapes {shapes} do not agree")
        if n == 0 or k == 0:
            raise invalid(f"needs a manifold point and an eigenvalue, has {n} and {k}")
        if any(label.object_id != self.object_id for label in self.labels):
            raise invalid("a manifold label names another object")
        arrays = (self.mean, self.eigenvalues, self.basis, self.coords)
        if not all(np.isfinite(a).all() for a in arrays):
            raise invalid("non-finite value")
        if not (self.eigenvalues > 0).all() or (np.diff(self.eigenvalues) > 0).any():
            raise invalid("eigenvalues must be positive and non-increasing")
        with np.errstate(over="ignore", invalid="ignore"):
            drift = np.abs(self.basis @ self.basis.T - np.eye(k)).max()
        if not drift <= ORTHONORMAL_TOL:
            raise invalid(f"basis rows are not orthonormal: max |BB^T - I| = {drift:.3g}")

        # the manifold is kept in view-angle order; a stable sort keeps twin
        # angles in the order given, and the first nearest point is the lowest angle
        order = np.argsort([label.view_angle_deg for label in self.labels], kind="stable")
        object.__setattr__(self, "coords", self.coords[order])
        object.__setattr__(self, "labels", tuple(self.labels[i] for i in order))

        # the widest leave-self-out nearest-neighbour gap, which the auto threshold scales
        spread = None
        if n >= 2:
            with np.errstate(over="ignore"):
                dist = np.linalg.norm(self.coords[:, None] - self.coords[None], axis=2)
            np.fill_diagonal(dist, np.inf)
            spread = float(dist.min(axis=1).max())
            if not np.isfinite(spread):
                # an infinite spread would call every query Known
                raise invalid("manifold spreads beyond float range")
        object.__setattr__(self, "spread", spread)

    @property
    def dim(self) -> int:
        return int(self.mean.size)

    @property
    def k(self) -> int:
        return int(self.eigenvalues.size)

    @property
    def manifold(self) -> tuple:
        """The manifold points as ManifoldPoints, in view-angle order."""
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
    # each label names this space, whatever object the view was labelled with
    labels = tuple(replace(v.source_label, object_id=object_id) for v in appearances)
    # k_override has fixed k, and the file does not record it: keep the config a reload gives
    config = replace(config, k_override=None)
    return Eigenspace(object_id, pca.mean, eigenvalues, basis, config, coords, labels)


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

def _layout(dim: int, k: int, n: int):
    """A model file's float rows, between its header and END, as (keyword,
    label fields, values): the mean, each eigenvalue and basis row (labelled
    with its index), and each manifold point (labelled with its angle and
    occluded flag). A sidecar's block holds their values in this order."""
    return (
        [("mean", 0, dim)]
        + [("eigenvalue", 1, 1)] * k
        + [("basis", 1, dim)] * k
        + [("point", 2, k)] * n
    )


def _block(es: Eigenspace) -> np.ndarray:
    """The model's floats in row order: mean, eigenvalues, basis, coords."""
    return np.concatenate([es.mean, es.eigenvalues, es.basis.ravel(), es.coords.ravel()])


def _int(field: str) -> int:
    """An integer field, spelled only as save_model writes it (no sign, `_`,
    leading zero or non-ASCII digit), so a loaded model saves to the same bytes."""
    value = int(field)
    if str(value) != field:
        raise ValueError(f"integer field {field!r} is not in canonical form")
    return value


def _float(field: str) -> float:
    """A float field, spelled only as `.17g` writes it (no `_`, needless sign
    or digit, or non-ASCII digit), so a loaded value saves to the same bytes."""
    value = float(field)
    if format(value, ".17g") != field:
        raise ValueError(f"float field {field!r} is not in canonical form")
    return value


def save_model(es: Eigenspace) -> bytes:
    points = [[str(label.view_angle_deg), "1" if label.occluded else "0"] for label in es.labels]
    leads = [[]] + [[str(i)] for i in range(es.k)] * 2 + points
    lines = [
        f"{MODEL_MAGIC} {MODEL_VERSION}",
        f"object {es.object_id}",
        f"dim {es.dim}",
        f"k {es.k}",
        f"config {1 if es.config.centered else 0} {es.config.norm_mode} "
        + _fmt_row([es.config.energy_threshold]),
    ]
    values, start = _block(es).tolist(), 0
    for (keyword, _, count), lead in zip(_layout(es.dim, es.k, len(es.labels)), leads):
        lines.append(" ".join([keyword, *lead, _fmt_row(values[start : start + count])]))
        start += count
    lines.append("END")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _sidecar_digest(data: bytes, block) -> bytes:
    h = hashlib.sha256(data)
    h.update(block)
    return h.digest()


def save_sidecar(es: Eigenspace, data: bytes) -> bytes:
    """The model's floats for the `.eig` bytes `data` (save_model's output):
    a sha256 digest over `data` followed by the block, then one `<f8` block
    holding the values of every float row, in row order."""
    block = _block(es).astype(SIDECAR_DTYPE).tobytes()
    return _sidecar_digest(data, block) + block


def _sidecar_values(data: bytes, sidecar, size: int):
    """The sidecar's `size` floats if it was written for exactly these `.eig`
    bytes, else None: a missing, short, long, stale or damaged sidecar."""
    if sidecar is None or len(sidecar) != SIDECAR_DIGEST_SIZE + SIDECAR_DTYPE.itemsize * size:
        return None
    block = memoryview(sidecar)[SIDECAR_DIGEST_SIZE:]
    if _sidecar_digest(data, block) != sidecar[:SIDECAR_DIGEST_SIZE]:
        return None
    # a copy, so the arrays are writable and in native order, as parsed ones are
    return np.frombuffer(block, dtype=SIDECAR_DTYPE).astype(np.float64)


def load_model(data: bytes, sidecar: bytes | None = None) -> Eigenspace:
    """Inverse of save_model. The floats come from `sidecar` when it is
    save_sidecar's output for exactly these bytes, and from the text
    otherwise. The id, config and labels always come from the text, and
    the Eigenspace constructor checks the floats from either source."""
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
    keyword, _, object_id = (lines[1] if len(lines) > 1 else "").partition(" ")
    if keyword != "object":
        raise CorruptField("expected 'object' line 2")

    match [line.split(" ") for line in lines[2:5]]:
        case [["dim", dim], ["k", k], ["config", centered, norm_mode, tau]]:
            pass
        case _:
            raise CorruptField("lines 3-5 must be the 'dim', 'k' and 'config' lines")
    try:
        dim, k = _int(dim), _int(k)
        config = EigenspaceConfig(centered == "1", norm_mode, _float(tau))
    except ValueError as exc:
        raise CorruptField(str(exc)) from exc
    if dim < 1 or k < 1 or centered not in ("0", "1"):
        raise CorruptField(f"bad header: dim {dim}, k {k}, centered flag {centered!r}")
    # header counts size nothing up front: a bad k must fail on a missing
    # END, not on allocating k rows
    first_point = 6 + 2 * k
    try:
        n = lines.index("END", first_point) - first_point
    except ValueError:
        raise CorruptField("truncated file: missing END") from None

    # every row lies before END; its values are split only when no sidecar holds them
    layout = _layout(dim, k, n)
    block = _sidecar_values(data, sidecar, sum(count for _, _, count in layout))
    leads, tokens = [], []
    for i, (keyword, lead, count) in enumerate(layout, 5):
        fields = lines[i].split(" ", lead + 1)
        if fields[0] != keyword or len(fields) != lead + 2:
            raise CorruptField(f"line {i + 1}: expected {keyword!r}, {lead} labels and values")
        leads.append(fields[1:-1])
        if block is None:
            values = fields[-1].split(" ")
            if len(values) != count:
                raise CorruptField(f"line {i + 1}: expected {count} values, got {len(values)}")
            tokens += values
    if block is None:
        try:
            block = np.array(tokens, dtype=np.float64)
        except ValueError as exc:
            raise CorruptField(str(exc)) from exc

    if leads[1 : 1 + 2 * k] != [[str(i)] for i in range(k)] * 2:
        raise CorruptField("eigenvalue and basis lines must be numbered 0..k-1")
    labels = []
    for angle, occluded in leads[1 + 2 * k :]:
        try:
            labels.append(ViewLabel(object_id, _int(angle), {"0": False, "1": True}[occluded]))
        except (KeyError, ValueError) as exc:
            raise CorruptField(f"bad point label {angle!r} {occluded!r}: {exc}") from exc

    mean, eigenvalues, basis, coords = np.split(block, np.cumsum([dim, k, k * dim]))
    basis, coords = basis.reshape(k, dim), coords.reshape(n, k)
    return Eigenspace(object_id, mean, eigenvalues, basis, config, coords, labels)
