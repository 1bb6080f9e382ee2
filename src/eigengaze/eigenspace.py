"""Per-object eigenspace: build and persist.

One eigenspace is built per object from all of its training appearances,
occluded views included alongside clean ones. The model persists to a
line-oriented text format that round-trips bit-exactly. A binary sidecar
holds the same floats for fast loading; it is a cache tied to the text by a
digest, and the text stays the source of truth. One renderer, shared by
save_model and load_model, writes every line, so a file loads only as saved,
floats included, unless a matching sidecar's floats stand in for the text's.

The `Eigenspace` constructor is the one place that checks a model's
invariants, so a built, loaded or hand-made space meets the same ones;
`load_model` checks only that the file parses.
"""

import hashlib
import os
from dataclasses import dataclass, field, replace
from itertools import zip_longest

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


# Eigenspace.manifold's items, kept for the benchmark; it holds arrays, so eq is identity
@dataclass(frozen=True, eq=False)
class ManifoldPoint:
    coords: np.ndarray
    label: ViewLabel


@dataclass(frozen=True, eq=False)
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
        """The manifold as ManifoldPoints, in view-angle order; kept for the benchmark's checks."""
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


# --- persistence ---

def _layout(dim: int, k: int, n: int):
    """A model file's float rows, between its header and END, as (label
    fields, values): the mean, each eigenvalue and basis row (labelled with
    its index), and each manifold point (labelled with its angle and
    occluded flag). A sidecar's block holds their values in this order."""
    return [(0, dim)] + [(1, 1)] * k + [(1, dim)] * k + [(2, k)] * n


def _block(es: Eigenspace) -> np.ndarray:
    """The model's floats in row order: mean, eigenvalues, basis, coords."""
    return np.concatenate([es.mean, es.eigenvalues, es.basis.ravel(), es.coords.ravel()])


def _text_rows(es: Eigenspace):
    """Each float row's values as save_model spells them, in _layout order."""
    rows = (es.mean, *es.eigenvalues[:, None], *es.basis, *es.coords)
    return (_fmt_row(row.tolist()) for row in rows)


def _render(es: Eigenspace, rows):
    """Yield every line of es's model file, END and the final newline (an
    empty last line) included; `rows` gives each float row's value text, in
    _layout order. save_model writes these lines, and load_model accepts only
    a file that they match, holding one rendered float row at a time."""
    rows = iter(rows)
    yield f"{MODEL_MAGIC} {MODEL_VERSION}"
    yield f"object {es.object_id}"
    yield f"dim {es.dim}"
    yield f"k {es.k}"
    yield (f"config {1 if es.config.centered else 0} {es.config.norm_mode} "
           + _fmt_row([es.config.energy_threshold]))
    yield f"mean {next(rows)}"
    yield from (f"eigenvalue {i} {next(rows)}" for i in range(es.k))
    yield from (f"basis {i} {next(rows)}" for i in range(es.k))
    for label in es.labels:
        yield f"point {label.view_angle_deg} {1 if label.occluded else 0} {next(rows)}"
    yield "END"
    yield ""


# characters quoted on each side of the first difference in a CorruptField message
_QUOTE = 30


def _excerpt(line, column: int) -> str:
    """line's characters within _QUOTE of column, quoted, with ... where it is cut."""
    if line is None:
        return "None"
    start, end = max(column - _QUOTE, 0), column + _QUOTE
    return ("..." if start else "") + repr(line[start:end]) + ("..." if end < len(line) else "")


def check_rendered(got: list, rendered, name: str):
    """Raise CorruptField on the first of the lines `got` that differs from
    the line its writer renders, naming the line and the first differing
    column, and quoting both lines around it (None where one list has no line)."""
    for number, (line, want) in enumerate(zip_longest(got, rendered), 1):
        if line != want:
            column = len(os.path.commonprefix([line or "", want or ""]))
            raise CorruptField(f"{name} line {number} column {column + 1} is "
                               f"{_excerpt(line, column)}; its writer writes {_excerpt(want, column)}")


def save_model(es: Eigenspace) -> bytes:
    return "\n".join(_render(es, _text_rows(es))).encode("utf-8")


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
    the Eigenspace constructor checks the floats from either source. The
    file loads only if it is what _render renders for the loaded space, its
    text floats spelled as save_model spells them unless a sidecar's stand in."""
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

    try:
        (_, dim), (_, k), (_, centered, norm_mode, tau) = (line.split() for line in lines[2:5])
        dim, k = int(dim), int(k)
        config = EigenspaceConfig(centered == "1", norm_mode, float(tau))
    except ValueError as exc:
        raise CorruptField(f"lines 3-5 are not the 'dim', 'k' and 'config' lines: {exc}") from exc
    if dim < 1 or k < 1:
        raise CorruptField(f"bad header: dim {dim}, k {k}")
    object_id = lines[1].partition(" ")[2]
    # header counts size nothing up front: a bad k must fail on a missing
    # END, not on allocating k rows
    first_point = 6 + 2 * k
    try:
        n = lines.index("END", first_point) - first_point
    except ValueError:
        raise CorruptField("truncated file: missing END") from None

    # each float row's value text, after its keyword and label fields; read once,
    # by the parse when no sidecar holds the floats, else by the render check
    layout = _layout(dim, k, n)
    rows = (lines[i].split(" ", lead + 1)[-1] for i, (lead, _) in enumerate(layout, 5))
    size = sum(count for _, count in layout)
    block = _sidecar_values(data, sidecar, size)
    from_text = block is None
    try:
        if from_text:
            tokens = " ".join(rows).split(" ")
            if len(tokens) != size:
                raise CorruptField(f"expected {size} float values, got {len(tokens)}")
            block = np.array(tokens, dtype=np.float64)
        points = (line.split(" ", 3) for line in lines[first_point : first_point + n])
        labels = [ViewLabel(object_id, int(angle), flag == "1") for _, angle, flag, _ in points]
    except ValueError as exc:
        raise CorruptField(str(exc)) from exc

    # where the eigenvalues and the basis end; plain slices cost far less than np.split
    ev_end, basis_end = dim + k, dim + k + k * dim
    basis, coords = block[ev_end:basis_end].reshape(k, dim), block[basis_end:].reshape(n, k)
    es = Eigenspace(object_id, block[:dim], block[dim:ev_end], basis, config, coords, labels)
    check_rendered(lines, _render(es, _text_rows(es) if from_text else rows), "model file")
    return es
