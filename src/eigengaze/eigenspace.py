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
import numbers
import os
from dataclasses import dataclass, field
from itertools import repeat, zip_longest

import numpy as np

from .errors import (
    BadMagic,
    CorruptField,
    DegenerateSet,
    DimensionMismatch,
    VersionMismatch,
)
from .imgio import ViewLabel
from .linalg import gram_pca

MODEL_MAGIC = "EIGENGAZE"
MODEL_VERSION = 1
# a built basis measures at most about 1e-9, so this bound leaves a wide margin
ORTHONORMAL_TOL = 1e-6
# a sidecar is a sha256 digest, then one little-endian float64 block
SIDECAR_DIGEST_SIZE = 32
SIDECAR_DTYPE = np.dtype("<f8")
# the bound on sqrt(dim) + |mean| + max |point|: sqrt(dim), at least 1, bounds
# the unit |w| of every query, so every |w - mean| and |projection - point|
# that the scorer squares, and half of any gap between two points, stays below
# it; its square, 2**1000, leaves a factor 2**24 of float range for sums and
# doubling
_REACH = 2.0**500
# float64 elements in one temporary: a block of the spread's point differences
# here, and of the scorer's centred queries or point differences in recog
_BUDGET = 2**19


def _fmt_row(values) -> str:
    """The values as space-separated `.17g` text, through one % template."""
    return " ".join(["%.17g"] * len(values)) % tuple(values)


def is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class EigenspaceConfig:
    energy_threshold: float = 0.95  # the one rule that cuts a space; its model file records it

    def __post_init__(self):
        if not (is_real(self.energy_threshold) and 0.0 < self.energy_threshold <= 1.0):
            raise ValueError(f"energy_threshold must be in (0, 1], not {self.energy_threshold!r}")


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
    # set by load_model: its floats are those of a sidecar written for the text it loaded
    from_sidecar: bool = field(default=False, repr=False)

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
        if k > dim:
            # k orthonormal rows need k <= dim; checked before BB^T takes k x k floats
            raise invalid(f"{k} basis rows cannot be orthonormal in {dim} dimensions")
        if any(label.object_id != self.object_id for label in self.labels):
            raise invalid("a manifold label names another object")
        arrays = (self.mean, self.eigenvalues, self.basis, self.coords)
        if not all(np.isfinite(a).all() for a in arrays):
            raise invalid("non-finite value")
        if not (self.eigenvalues > 0).all() or (np.diff(self.eigenvalues) > 0).any():
            raise invalid("eigenvalues must be positive and non-increasing")
        with np.errstate(over="ignore", invalid="ignore"):
            drift = np.abs(self.basis @ self.basis.T - np.eye(k)).max()
            reach = (np.sqrt(dim) + np.linalg.norm(self.mean)
                     + np.linalg.norm(self.coords, axis=1).max())
        if not drift <= ORTHONORMAL_TOL:
            raise invalid(f"basis rows are not orthonormal: max |BB^T - I| = {drift:.3g}")
        if not reach < _REACH:
            # a query's score would overflow, or the spread, which would call every query Known
            raise invalid(f"sqrt(dim) + |mean| + max |point| = {reach:.3g} is not below "
                          f"{_REACH:.3g}, so a score may overflow")

        # the manifold is kept in view-angle order; a stable sort keeps twin
        # angles in the order given, and the first nearest point is the lowest angle
        order = np.argsort([label.view_angle_deg for label in self.labels], kind="stable")
        object.__setattr__(self, "coords", self.coords[order])
        object.__setattr__(self, "labels", tuple(self.labels[i] for i in order))

        # the widest leave-self-out nearest-neighbour gap, which the auto threshold scales,
        # from blocks of rows whose differences hold at most _BUDGET elements (or one row)
        spread = None
        if n >= 2:
            rows, nearest = max(1, _BUDGET // (n * k)), np.empty(n)
            for i in range(0, n, rows):
                dist = np.linalg.norm(self.coords[i : i + rows, None] - self.coords, axis=2)
                np.fill_diagonal(dist[:, i:], np.inf)
                nearest[i : i + rows] = dist.min(axis=1)
            spread = float(nearest.max())
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


def check_shape(want, got):
    """Raise DimensionMismatch unless got has want's dim: the one rule that
    admits a view into a build, a query into the scorer and a space into a
    registry. Each argument, a view or a space, derives its dim from its data."""
    if got.dim != want.dim:
        raise DimensionMismatch(f"dim {got.dim} does not match dim {want.dim}")


def build_eigenspace(object_id, appearances, config: EigenspaceConfig) -> Eigenspace:
    """Build an object's eigenspace from all its views, centred on their mean and
    cut by choose_k at config's energy threshold; its dim is every view's."""
    appearances = list(appearances)
    if not appearances:
        raise DegenerateSet("appearance set is empty")
    first = appearances[0]
    for v in appearances:
        check_shape(first, v)

    X = np.column_stack([v.values for v in appearances])
    pca = gram_pca(X, config.energy_threshold)
    if pca.eigenvalues.size == 0:
        raise DegenerateSet(
            f"no positive eigenvalue for object {object_id!r} "
            "(degenerate appearance set)"
        )

    coords = np.array([pca.basis @ (v.values - pca.mean) for v in appearances])
    # each label names this space, whatever object the view was labelled with
    labels = tuple(ViewLabel(object_id, v.source_label.view_angle_deg, v.source_label.occluded)
                   for v in appearances)
    return Eigenspace(object_id, pca.mean, pca.eigenvalues, pca.basis, config, coords, labels)


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
    _layout order. save_model writes these lines, and check_model_lines accepts
    only a file that they match, holding one rendered float row at a time."""
    rows = iter(rows)
    yield f"{MODEL_MAGIC} {MODEL_VERSION}"
    yield f"object {es.object_id}"
    yield f"dim {es.dim}"
    yield f"k {es.k}"
    # every space is centred and its views unit-normalized; v1 keeps both fields
    yield "config 1 unit " + _fmt_row([es.config.energy_threshold])
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


def check_rendered(got: list, rendered, name: str, prefixed=()):
    """Raise CorruptField on the first of the lines `got` unlike its writer's
    render (at an index in `prefixed`: not starting with it), naming the line and
    the first differing column and quoting both around it (None where absent)."""
    for number, (line, want) in enumerate(zip_longest(got, rendered), 1):
        if line != want and not (number - 1 in prefixed and line and line.startswith(want)):
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


def model_lines(data: bytes) -> list:
    """A model file's lines; BadMagic if it is not UTF-8 text."""
    try:
        return data.decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise BadMagic(f"not a text model file: {exc}") from exc


def check_model_lines(lines: list, es: Eigenspace, from_text: bool):
    """Raise CorruptField on the first of a model file's lines that is not what
    _render renders for es. Beside a sidecar whose floats stand in for the text's,
    a float row need only begin with its keyword and labels (`point 40 1 `)."""
    floats = () if from_text else range(5, 6 + 2 * es.k + len(es.labels))
    rendered = _render(es, _text_rows(es) if from_text else repeat(""))
    check_rendered(lines, rendered, "model file", floats)


def load_model(data: bytes, sidecar: bytes | None = None) -> Eigenspace:
    """Inverse of save_model. The floats come from `sidecar` when it is
    save_sidecar's output for exactly these bytes, and from the text
    otherwise. The id, config and labels always come from the text, and
    the Eigenspace constructor checks the floats from either source, and the
    space's from_sidecar says which it was. The file loads only if
    check_model_lines accepts it for the loaded space."""
    lines = model_lines(data)
    header = lines[0].split()
    if len(header) != 2 or header[0] != MODEL_MAGIC:
        raise BadMagic(f"bad magic line {lines[0]!r}")
    if header[1] != str(MODEL_VERSION):
        raise VersionMismatch(f"unsupported model version {header[1]!r}")

    try:
        (_, dim), (_, k), (_, _, _, tau) = (line.split() for line in lines[2:5])
        dim, k = int(dim), int(k)
        config = EigenspaceConfig(float(tau))
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

    layout = _layout(dim, k, n)
    size = sum(count for _, count in layout)
    block = _sidecar_values(data, sidecar, size)
    from_text = block is None
    try:
        if from_text:
            # each float row's value text, after its keyword and label fields
            rows = (lines[i].split(" ", lead + 1)[-1] for i, (lead, _) in enumerate(layout, 5))
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
    es = Eigenspace(object_id, block[:dim], block[dim:ev_end], basis, config, coords, labels,
                    not from_text)
    check_model_lines(lines, es, from_text)
    return es
