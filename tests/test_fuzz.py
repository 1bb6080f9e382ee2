"""Fuzzed load paths: any input either loads or raises an EigengazeError."""

import hashlib
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

import eigengaze as eg
from eigengaze.eigenspace import _fmt_row
from eigengaze.errors import EigengazeError

from conftest import assert_same_space, build_registry, training_appearances

# derandomized so that every run checks the same inputs
FUZZ = settings(max_examples=200, deadline=None, derandomize=True, database=None)

MODEL = eg.build_eigenspace("mobile", training_appearances("mobile"), eg.EigenspaceConfig())
MODEL_DATA = eg.save_model(MODEL)
MODEL_LINES = MODEL_DATA.decode().split("\n")
SIDECAR = eg.save_sidecar(MODEL, MODEL_DATA)


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


@FUZZ
@given(pgm_bytes())
@example(b"P2 1 1 255 99999999999999999999")
@example(b"P2 " + b"#" * 100_000)
@example(b"P2 1 1 " + b"# #" * 30_000)
@example(b"P5 1 1 255\n\x20")
@example(b"P5 1 1 255\n\x0a")
def test_parse_pgm_loads_or_raises(data):
    try:
        eg.parse_pgm(data)
    except EigengazeError:
        pass


@FUZZ
@given(pgm_with_laid_out_header())
@example((b"P2#\n1#\n1#\n255\n7\n", eg.RasterImage(1, 1, 255, np.array([7]))))
def test_parse_pgm_reads_any_header_layout(case):
    data, image = case
    assert eg.parse_pgm(data) == image


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
def test_load_model_with_any_float_under_a_matching_digest_loads_or_raises(index, value):
    block = bytearray(SIDECAR[32:])
    block[8 * index : 8 * index + 8] = value
    check_model(MODEL_DATA, hashlib.sha256(MODEL_DATA + block).digest() + bytes(block))


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
        try:
            reg = eg.ObjectRegistry.load_dir(reg_dir)
        except EigengazeError:
            return
        assert np.isfinite(reg.effective_threshold())
