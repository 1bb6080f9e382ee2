"""Fuzzed load paths: any input either loads or raises an EigengazeError.
And the scan-line renderer: any polygon shades as its oracle does."""

import hashlib
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

import eigengaze as eg
from eigengaze import eigenspace
from eigengaze.eigenspace import _fmt_row, save_sidecar
from eigengaze.errors import EigengazeError, ZeroImage
from eigengaze.imgio import _shade

from conftest import assert_same_space, build_registry, rebuilt_rows_check, training_appearances
from test_imgio import assert_narrow_and_read_only, oracle_shade

# derandomized so that every run checks the same inputs
FUZZ = settings(max_examples=200, deadline=None, derandomize=True, database=None)

MODEL = eg.build_eigenspace("mobile", training_appearances("mobile"), eg.EigenspaceConfig())
MODEL_DATA = eg.save_model(MODEL)
MODEL_LINES = MODEL_DATA.decode().split("\n")
SIDECAR = save_sidecar(MODEL, MODEL_DATA)
# the first two point lines, newline included
POINTS = [line.encode() + b"\n" for line in MODEL_LINES if line.startswith("point ")][:2]


def saved_registry():
    """For a saved 2-object registry: text file name -> lines, for the `.eig`
    models and the manifest, and sidecar file name -> bytes."""
    text, sidecars = {}, {}
    with tempfile.TemporaryDirectory() as path:
        build_registry(objects=["mobile", "stapler"]).save_dir(path)
        for p in Path(path).iterdir():
            if p.suffix == ".f8":
                sidecars[p.name] = p.read_bytes()
            else:
                text[p.name] = p.read_text(encoding="utf-8").split("\n")
    return text, sidecars


REGISTRY_FILES, SIDECARS = saved_registry()

# the first manifold point of stapler, moved to 1e200: its spread overflows
_POINT = next(i for i, l in enumerate(REGISTRY_FILES["stapler.eig"]) if l.startswith("point "))
_FIELDS = REGISTRY_FILES["stapler.eig"][_POINT].split(" ")
HUGE_POINT = " ".join(_FIELDS[:3] + ["1e200"] * (len(_FIELDS) - 3))

# each row's label fields, which sit between its keyword and its float values
LABEL_FIELDS = {"mean": 0, "eigenvalue": 1, "basis": 1, "point": 2}


def without_floats(data: bytes):
    """A model file's lines, each row's float values cut off."""
    lines = data.decode("utf-8").split("\n")
    heads = [line.split(" ") for line in lines[5:]]
    return lines[:5] + [" ".join(h[: 1 + LABEL_FIELDS.get(h[0], 0)]) for h in heads]


TOKENS = st.one_of(
    st.text(max_size=12),
    st.sampled_from(["", "0", "-1", "1e-30", "nan", "inf", "1e400", "999", "1000000000000"]),
    st.integers().map(str),
    st.floats().map(repr),
)


def pgm_bytes():
    header_text = st.text(alphabet="0123456789 #\n-+_", max_size=40)
    return st.one_of(
        st.binary(max_size=256),
        st.tuples(st.sampled_from([b"P2", b"P5"]), st.binary(max_size=256)).map(b"".join),
        st.tuples(st.sampled_from([b"P2 ", b"P5 "]), header_text.map(str.encode)).map(b"".join),
    )


WHITESPACE = st.sampled_from([b" ", b"\t", b"\n", b"\v", b"\f", b"\r"])
COMMENT = st.binary(max_size=12).map(lambda b: b"#" + b.replace(b"\n", b"") + b"\n")


@st.composite
def pgm_with_laid_out_header(draw):
    """(PGM bytes, the raster they hold): the header tokens are joined by runs
    of whitespace bytes and comments, and a comment may follow a token."""
    binary = draw(st.booleans())
    width, height = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    max_value = draw(st.integers(1, 65535))
    samples = draw(st.lists(st.integers(0, max_value), min_size=width * height,
                            max_size=width * height))
    data = b"P5" if binary else b"P2"
    for token in (width, height, max_value):
        data += b"".join(draw(st.lists(st.one_of(WHITESPACE, COMMENT), min_size=1, max_size=4)))
        data += b"%d" % token
    data += draw(WHITESPACE)
    if binary:
        data += np.array(samples, dtype=">u2" if max_value > 255 else np.uint8).tobytes()
    else:
        data += b"".join(b"%d" % v + draw(WHITESPACE) for v in samples)
    return data, eg.RasterImage(width, height, max_value, np.array(samples))


def check_image(image):
    """A loaded image writes as P2 and as P5 to bytes that parse back to it,
    holds its samples as the dtype rule says, and vectorizes, bit for bit, as
    its samples widened to int64 do through vectorize's steps."""
    for binary in (False, True):
        assert eg.parse_pgm(eg.write_pgm(image, binary)) == image
    assert_narrow_and_read_only(image)
    scaled = image.samples.astype(np.int64) / image.max_value
    norm = np.linalg.norm(scaled)
    if norm == 0.0:
        with pytest.raises(ZeroImage):
            eg.vectorize(image)
        return
    unit = scaled / norm
    unit = unit / np.linalg.norm(unit)
    assert eg.vectorize(image).values.tobytes() == unit.tobytes()


def check_model(data: bytes, sidecar=None):
    try:
        es = eg.load_model(data, sidecar)
    except EigengazeError:
        return
    assert es.basis.shape == (es.k, es.dim) and es.mean.shape == (es.dim,)
    assert es.coords.shape == (len(es.labels), es.k) and es.labels
    for values in (es.mean, es.eigenvalues, es.basis, es.coords):
        assert np.isfinite(values).all()
    assert (es.eigenvalues > 0).all() and (np.diff(es.eigenvalues) <= 0).all()
    assert np.abs(es.basis @ es.basis.T - np.eye(es.k)).max() <= 1e-6
    assert es.spread is None or np.isfinite(es.spread)
    assert all(label.object_id == es.object_id for label in es.labels)
    # a model loads only as save_model writes it; a matching sidecar's floats
    # stand in for the text's
    if sidecar is None:
        assert eg.save_model(es) == data
    else:
        assert without_floats(eg.save_model(es)) == without_floats(data)
    check_scores(es)


def check_scores(es):
    """es scores unit queries to finite values, with no RuntimeWarning: the
    most spread out and the most concentrated that vectorize returns."""
    reg = eg.ObjectRegistry()
    reg._append(es)
    ones = np.ones(es.dim)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for values in (ones / np.linalg.norm(ones), np.eye(1, es.dim)[0]):
            r = eg.recognize(reg, eg.AppearanceVector(values))
            assert np.isfinite([r.combined_score, r.in_space_distance, r.residual]).all()


def check_registry_dir(reg_dir):
    """The directory loads a registry with a finite threshold that writes
    the same manifest back, or raises an EigengazeError."""
    try:
        reg = eg.ObjectRegistry.load_dir(reg_dir)
    except EigengazeError:
        return
    assert np.isfinite(reg.effective_threshold())
    with tempfile.TemporaryDirectory() as resaved:
        reg.save_dir(resaved)
        for name in ("registry.manifest", *(f"{es.object_id}.eig" for es in reg.spaces)):
            written, read = Path(resaved, name).read_bytes(), Path(reg_dir, name).read_bytes()
            if name.endswith(".eig"):
                written, read = without_floats(written), without_floats(read)
            assert written == read, name


@FUZZ
@given(pgm_bytes())
@example(b"P2 1 1 255 99999999999999999999")
@example(b"P2 " + b"#" * 100_000)
@example(b"P2 1 1 " + b"# #" * 30_000)
@example(b"P5 1 1 255\n\x20")
@example(b"P5 1 1 255\n\x0a")
@example(b"P5 2 1 65535\n\x01\x02\xff\xff")
@example(b"P2 2 2 1\n0 1 1 0")
@example(b"P2 1 1 256 0")
def test_parse_pgm_loads_or_raises(data):
    try:
        image = eg.parse_pgm(data)
    except EigengazeError:
        return
    check_image(image)


@FUZZ
@given(pgm_with_laid_out_header())
@example((b"P2#\n1#\n1#\n255\n7\n", eg.RasterImage(1, 1, 255, np.array([7]))))
def test_parse_pgm_reads_any_header_layout(case):
    data, image = case
    assert eg.parse_pgm(data) == image
    check_image(image)


@FUZZ
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
@example([-0.0, 0.0, 5e-324, -2.2250738585072009e-308, 1e300, -1e-300, 0.1])
def test_model_row_text_is_each_value_at_17_digits(row):
    assert _fmt_row(np.array(row)) == " ".join(format(x, ".17g") for x in row)


@FUZZ
@given(
    st.one_of(
        st.binary(max_size=512),
        st.text(max_size=256).map(lambda t: f"EIGENGAZE 1\n{t}".encode()),
    )
)
@example(MODEL_DATA + b"text after END")
@example(MODEL_DATA[:-1])
@example(MODEL_DATA.replace(b"EIGENGAZE 1", b"EIGENGAZE  1", 1))
@example(MODEL_DATA.replace(b"EIGENGAZE 1", b"EIGENGAZE\t1", 1))
@example(MODEL_DATA.replace(POINTS[0] + POINTS[1], POINTS[1] + POINTS[0], 1))
def test_load_model_any_bytes_loads_or_raises(data):
    check_model(data)


@FUZZ
@given(st.integers(0, len(MODEL_LINES) - 1), st.text(max_size=80))
def test_load_model_with_one_line_replaced(index, line):
    lines = list(MODEL_LINES)
    lines[index] = line
    check_model("\n".join(lines).encode())


@FUZZ
@given(st.integers(0, len(MODEL_LINES) - 1), st.integers(0, 1100), TOKENS)
def test_load_model_with_one_field_replaced(index, field, token):
    lines = list(MODEL_LINES)
    fields = lines[index].split(" ")
    fields[field % len(fields)] = token
    lines[index] = " ".join(fields)
    check_model("\n".join(lines).encode())


def damaged_sidecars():
    """Arbitrary bytes, and the real sidecar cut, extended or with one byte changed."""
    def change(case):
        i, xor = case
        return SIDECAR[:i] + bytes([SIDECAR[i] ^ xor]) + SIDECAR[i + 1 :]

    return st.one_of(
        st.binary(max_size=512),
        st.integers(0, len(SIDECAR) - 1).map(lambda n: SIDECAR[:n]),
        st.binary(min_size=1, max_size=16).map(lambda tail: SIDECAR + tail),
        st.tuples(st.integers(0, len(SIDECAR) - 1), st.integers(1, 255)).map(change),
    )


@FUZZ
@given(damaged_sidecars())
@example(b"")
@example(SIDECAR[:32])
def test_load_model_with_any_sidecar_loads_the_text_model(sidecar):
    try:
        es = eg.load_model(MODEL_DATA, sidecar)
    except EigengazeError:
        return
    assert_same_space(es, MODEL)


@FUZZ
@given(st.integers(0, (len(SIDECAR) - 32) // 8 - 1), st.binary(min_size=8, max_size=8))
@example(0, np.array(np.nan).tobytes())
@example(MODEL.dim, np.array(np.inf).tobytes())
@example(MODEL.dim + 1, np.array(1e300).tobytes())
@example(0, np.array(1e160).tobytes())  # |w - mean|^2 overflows
def test_load_model_with_any_float_under_a_matching_digest_loads_or_raises(index, value):
    block = bytearray(SIDECAR[32:])
    block[8 * index : 8 * index + 8] = value
    check_model(MODEL_DATA, hashlib.sha256(MODEL_DATA + block).digest() + bytes(block))


def grown_model(k: int, n: int, value: str) -> bytes:
    """A dim-2 model file whose header says k, with k eigenvalue and basis rows
    and n points of k coordinates, each float spelt `value`: its size grows as
    k + n k, while BB^T would take k^2 floats and all pairs of points n^2."""
    rows = [f"eigenvalue {i} {value}" for i in range(k)]
    rows += [f"basis {i} {value} {value}" for i in range(k)]
    rows += [f"point {i % 360} 0 " + " ".join([value] * k) for i in range(n)]
    return "\n".join(["EIGENGAZE 1", "object toy", "dim 2", f"k {k}", "config 1 unit 0.5",
                      f"mean {value} {value}", *rows, "END", ""]).encode()


@FUZZ
@given(st.integers(1, 3000), st.integers(1, 2), st.booleans(),
       st.sampled_from(["0.5", "1", "10", "0.59999999999999998", "-1e-300"]))
@example(3000, 1, True, "1")   # BB^T would take 69 MiB
@example(3000, 1, False, "1")  # all pairs of points would take 69 MiB
def test_a_grown_model_loads_or_raises_in_memory_bounded_by_its_size(big, small, grow_k,
                                                                       value):
    """A load's tracemalloc peak stays below 64 times the file's size plus
    32 MiB, which holds the spread's blocks of at most _BUDGET elements."""
    k, n = (big, small) if grow_k else (small, big)
    data = grown_model(k, n, value)
    tracemalloc.start()
    try:
        try:
            eg.load_model(data)
        except EigengazeError:
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * len(data) + 32 * 2**20


def with_line(index: int, line: str) -> bytes:
    """MODEL_DATA with line `index` replaced by `line`."""
    return "\n".join(MODEL_LINES[:index] + [line] + MODEL_LINES[index + 1 :]).encode()


@st.composite
def one_line_edits(draw):
    """MODEL_DATA with one line replaced, or with one span of one line
    replaced, most often near its start, where its keyword and labels are."""
    index = draw(st.integers(0, len(MODEL_LINES) - 1))
    line = MODEL_LINES[index]
    if draw(st.booleans()):
        return with_line(index, draw(st.text(max_size=80)))
    position = st.one_of(st.integers(0, 16), st.integers(0, len(line)))
    start, end = sorted([min(draw(position), len(line)), min(draw(position), len(line))])
    return with_line(index, line[:start] + draw(TOKENS) + line[end:])


def load_outcome(data: bytes, sidecar: bytes):
    """The space load_model loads, or the type of its error and the line the
    error names (its whole message if it names none)."""
    try:
        return eg.load_model(data, sidecar)
    except EigengazeError as exc:
        return type(exc), str(exc).partition(" column ")[0]


_MEAN, _BASIS, _POINT_LINE = 5, 6 + MODEL.k, 6 + 2 * MODEL.k


@FUZZ
@given(one_line_edits())
@example(with_line(_MEAN, "mean"))
@example(with_line(_MEAN, "mean "))
@example(with_line(_MEAN, "mean  " + MODEL_LINES[_MEAN][5:]))
@example(with_line(_MEAN, " mean " + MODEL_LINES[_MEAN][5:]))
@example(with_line(_BASIS, "basis 0"))
@example(with_line(_BASIS, "basis 00 " + MODEL_LINES[_BASIS][8:]))
@example(with_line(_POINT_LINE, " ".join(MODEL_LINES[_POINT_LINE].split(" ")[:3])))
@example(with_line(_POINT_LINE, MODEL_LINES[_POINT_LINE] + " 1e400"))
@example(with_line(_MEAN, MODEL_LINES[_MEAN].replace(" ", "\t", 2)))
def test_float_rows_beside_a_sidecar_load_as_the_rebuilt_rows_oracle_loads_them(edited):
    """Beside a sidecar written for the edited bytes, load_model accepts the
    file exactly when the oracle, which rebuilds each float row's line from its
    own text, accepts it, and on a reject names the same line."""
    sidecar = save_sidecar(MODEL, edited)
    got = load_outcome(edited, sidecar)
    with mock.patch.object(eigenspace, "check_model_lines", rebuilt_rows_check):
        want = load_outcome(edited, sidecar)
    if isinstance(want, eg.Eigenspace):
        assert isinstance(got, eg.Eigenspace)
        assert_same_space(got, want)
    else:
        assert got == want


@FUZZ
@given(st.sampled_from(sorted(REGISTRY_FILES)), st.integers(0, 10**6), st.text(max_size=80))
@example("registry.manifest", 1, "policy auto nan")
@example("registry.manifest", 2, "object ghost")
@example("stapler.eig", _POINT, HUGE_POINT)
def test_load_dir_with_one_line_replaced(name, index, line):
    with tempfile.TemporaryDirectory() as reg_dir:
        for file_name, lines in REGISTRY_FILES.items():
            lines = list(lines)
            if file_name == name:
                lines[index % len(lines)] = line
            Path(reg_dir, file_name).write_text("\n".join(lines), encoding="utf-8")
        for file_name, data in SIDECARS.items():
            Path(reg_dir, file_name).write_bytes(data)
        check_registry_dir(reg_dir)


MANIFEST = "\n".join(REGISTRY_FILES["registry.manifest"]).encode()


@FUZZ
@given(
    st.one_of(
        st.binary(max_size=128),
        st.binary(max_size=32).map(lambda tail: MANIFEST + tail),
        st.tuples(st.integers(0, len(MANIFEST) - 1), st.binary(max_size=8)).map(
            lambda cut: MANIFEST[: cut[0]] + cut[1] + MANIFEST[cut[0] :]
        ),
    )
)
@example(MANIFEST.replace(b"policy auto", b"policy  auto"))
@example(MANIFEST.replace(b"1.5", b"1.5 "))
@example(MANIFEST.replace(b"\n", b"\r\n"))
@example(MANIFEST + b"object mobile\n")
@example(MANIFEST[:-1])
def test_load_dir_with_any_manifest_loads_or_raises(manifest):
    with tempfile.TemporaryDirectory() as reg_dir:
        for file_name, lines in REGISTRY_FILES.items():
            Path(reg_dir, file_name).write_text("\n".join(lines), encoding="utf-8")
        for file_name, data in SIDECARS.items():
            Path(reg_dir, file_name).write_bytes(data)
        Path(reg_dir, "registry.manifest").write_bytes(manifest)
        check_registry_dir(reg_dir)


# vertex coordinates in pixel units, around and beyond a side-8 or side-9
# image: any double in range, or a multiple of 1/8, which puts subsample
# centres (odd multiples) on edges and makes edges horizontal or vertical
COORD = st.one_of(
    st.floats(-4.0, 14.0),
    st.integers(-32, 112).map(lambda k: k / 8),
    st.sampled_from([0.0, -0.0]),
)


@FUZZ
@given(
    st.integers(1, 9).flatmap(lambda n: st.tuples(
        st.lists(COORD, min_size=n, max_size=n), st.lists(COORD, min_size=n, max_size=n))),
    st.sampled_from([8, 9]),
    st.integers(0, 255),
)
def test_shade_matches_the_oracle_for_any_vertices(vertices, side, foreground):
    rvx, rvy = map(np.array, vertices)
    shade = _shade(rvx, rvy, side, foreground)
    assert np.array_equal(shade, oracle_shade(rvx, rvy, side, foreground))
