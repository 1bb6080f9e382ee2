import hashlib
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eigengaze as eg
from eigengaze.errors import (
    BadMagic,
    CorruptField,
    DegenerateSet,
    DimensionMismatch,
    VersionMismatch,
)
from eigengaze.linalg import gram_pca, sym_eigen

from conftest import assert_same_space, project, reconstruct, residual, training_appearances


def unit_vec(values, label=eg.ViewLabel("", 0)):
    values = np.asarray(values, dtype=np.float64)
    values = values / np.linalg.norm(values)
    return eg.AppearanceVector(values.size, values, "unit", label)


def raw_vec(values, label=eg.ViewLabel("", 0)):
    values = np.asarray(values, dtype=np.float64)
    return eg.AppearanceVector(values.size, values, "raw", label)


def _respell(keyword, index, spell):
    """Model-text edit: replace one field of the first line starting with
    keyword by spell(field)."""
    def edit(lines):
        i = next(i for i, l in enumerate(lines) if l.startswith(keyword + " "))
        fields = lines[i].split(" ")
        fields[index] = spell(fields[index])
        lines[i] = " ".join(fields)
        return lines
    return edit


def _set_field(keyword, index, value):
    """Model-text edit: set one field of the first line starting with keyword."""
    return _respell(keyword, index, lambda _: value)


# integer and config fields that int() and float() read but save_model never writes
_NON_CANONICAL_FIELDS = [
    _respell("dim", 1, "+{}".format),
    _respell("dim", 1, lambda f: f[0] + "_" + f[1:]),
    _respell("k", 1, "+{}".format),
    _set_field("point", 1, "1_0"),
    _set_field("point", 1, "+10"),
    _set_field("point", 1, "\u0661\u0660"),
    _set_field("config", 3, "9_5e-2"),
    _set_field("config", 3, "0.95"),
    _set_field("config", 3, "\u0660.\u0669\u0665"),
]
_NON_CANONICAL_IDS = [
    "plus-dim", "underscore-dim", "plus-k", "underscore-angle", "plus-angle", "arabic-indic-angle",
    "underscore-tau", "short-tau", "arabic-indic-tau",
]

# a mean value that float() reads as the saved one, but not spelled as save_model spells it
_NON_CANONICAL_FLOATS = [
    _respell("mean", 1, "+{}".format),
    _respell("mean", 1, "{}0".format),
    _respell("mean", 1, lambda f: format(float(f), ".16e")),
    _respell("mean", 1, lambda f: f[:3] + "_" + f[3:]),
    _respell("mean", 1, lambda f: f.replace("0", "\u0660", 1)),
]
_NON_CANONICAL_FLOAT_IDS = [
    "plus-mean", "trailing-zero-mean", "exponent-mean", "underscore-mean", "arabic-indic-mean",
]


def _swap_first_points(lines):
    i = next(i for i, l in enumerate(lines) if l.startswith("point "))
    lines[i], lines[i + 1] = lines[i + 1], lines[i]
    return lines


# layouts that save_model never writes
_UNWRITTEN_LAYOUTS = [
    lambda lines: lines[:-1] + ["text after END"],
    lambda lines: lines[:-1],
    lambda lines: ["EIGENGAZE  1", *lines[1:]],
    lambda lines: ["EIGENGAZE\t1", *lines[1:]],
    _swap_first_points,
]
_UNWRITTEN_LAYOUT_IDS = [
    "text-after-end", "no-newline-after-end", "two-space-magic", "tab-magic", "points-out-of-order",
]


@pytest.fixture(scope="module")
def synthetic_space():
    return eg.build_eigenspace(
        "mobile", training_appearances("mobile"), eg.EigenspaceConfig()
    )


class TestBuild:
    def test_ten_view_structure(self, synthetic_space):
        es = synthetic_space
        assert 1 <= es.k <= 9
        assert len(es.manifold) == 10
        assert sum(p.label.occluded for p in es.manifold) == 1
        gram = es.basis @ es.basis.T
        assert np.max(np.abs(gram - np.eye(es.k))) <= 1e-8

    def test_orthonormal_input_is_own_basis(self):
        apps = [unit_vec([1.0, 0.0, 0.0]), unit_vec([0.0, 1.0, 0.0])]
        config = eg.EigenspaceConfig(centered=False, energy_threshold=1.0)
        es = eg.build_eigenspace("x", apps, config)
        assert es.k == 2
        assert es.eigenvalues == pytest.approx([1.0, 1.0], abs=1e-12)

    def test_single_appearance_centered_degenerate(self):
        with pytest.raises(DegenerateSet):
            eg.build_eigenspace("x", [unit_vec([1.0, 2.0])], eg.EigenspaceConfig())

    def test_dimension_mismatch(self):
        apps = [unit_vec([1.0, 0.0]), unit_vec([1.0, 0.0, 0.0])]
        with pytest.raises(DimensionMismatch):
            eg.build_eigenspace("x", apps, eg.EigenspaceConfig())

    def test_norm_mode_mismatch(self):
        apps = [raw_vec([1.0, 2.0]), raw_vec([2.0, 1.0])]
        with pytest.raises(DimensionMismatch):
            eg.build_eigenspace("x", apps, eg.EigenspaceConfig(norm_mode="unit"))

    def test_k_override_clamped_to_rank(self):
        apps = [unit_vec([1.0, 0.0, 0.0]), unit_vec([0.0, 1.0, 0.0])]
        config = eg.EigenspaceConfig(centered=False, k_override=50)
        es = eg.build_eigenspace("x", apps, config)
        assert es.k == 2

    def test_scale_invariance_uncentered_raw(self):
        rng = np.random.default_rng(4)
        data = rng.uniform(0.1, 1.0, (6, 5))
        config = eg.EigenspaceConfig(centered=False, norm_mode="raw")
        base = eg.build_eigenspace("x", [raw_vec(c) for c in data.T], config)
        scaled = eg.build_eigenspace("x", [raw_vec(3.0 * c) for c in data.T], config)
        assert scaled.k == base.k
        assert scaled.eigenvalues == pytest.approx(9.0 * base.eigenvalues, rel=1e-8)
        assert scaled.basis == pytest.approx(base.basis, abs=1e-8)


class TestProjectReconstruct:
    def test_mean_projects_to_origin(self):
        apps = [raw_vec([1.0, 0.0, 0.0]), raw_vec([0.0, 1.0, 0.0])]
        es = eg.build_eigenspace("x", apps, eg.EigenspaceConfig(norm_mode="raw"))
        v = raw_vec(es.mean)
        assert project(es, v) == pytest.approx(np.zeros(es.k), abs=1e-12)

    def test_mean_plus_basis_vector(self):
        apps = [raw_vec([1.0, 0.0, 0.0]), raw_vec([0.0, 1.0, 0.0])]
        es = eg.build_eigenspace("x", apps, eg.EigenspaceConfig(norm_mode="raw"))
        v = raw_vec(es.mean + es.basis[0])
        expected = np.zeros(es.k)
        expected[0] = 1.0
        assert project(es, v) == pytest.approx(expected, abs=1e-10)

    def test_training_projections_match_manifold(self, synthetic_space):
        es = synthetic_space
        for v, point in zip(training_appearances("mobile"), es.manifold):
            assert np.array_equal(project(es, v), point.coords)

    def test_reconstruct_zeros_is_mean(self, synthetic_space):
        es = synthetic_space
        assert reconstruct(es, np.zeros(es.k)) == pytest.approx(es.mean, abs=0)

    def test_project_reconstruct_identity_in_span(self):
        apps = [unit_vec([1.0, 0.0, 0.0]), unit_vec([0.0, 1.0, 0.0])]
        config = eg.EigenspaceConfig(centered=False, energy_threshold=1.0)
        es = eg.build_eigenspace("x", apps, config)
        x = es.mean + 0.3 * es.basis[0] - 1.2 * es.basis[1]
        v = eg.AppearanceVector(3, x / np.linalg.norm(x), "unit")
        got = reconstruct(es, project(es, v))
        assert got == pytest.approx(v.values, abs=1e-8)

    def test_reconstruction_error_non_increasing_in_k(self):
        apps = training_appearances("stapler")
        X = np.column_stack([a.values for a in apps])
        errors = []
        for k in range(1, 9):
            config = eg.EigenspaceConfig(k_override=k)
            es = eg.build_eigenspace("stapler", apps, config)
            Xt = X - es.mean[:, None]
            E = es.basis.T
            errors.append(float(np.linalg.norm(Xt - E @ (E.T @ Xt))))
        assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))

    def test_wrong_coord_length(self, synthetic_space):
        with pytest.raises(DimensionMismatch):
            reconstruct(synthetic_space, np.zeros(synthetic_space.k + 1))


class TestResidual:
    def test_in_span_is_zero(self):
        apps = [unit_vec([1.0, 0.0, 0.0]), unit_vec([0.0, 1.0, 0.0])]
        config = eg.EigenspaceConfig(centered=False, energy_threshold=1.0)
        es = eg.build_eigenspace("x", apps, config)
        assert residual(es, apps[0]) <= 1e-8

    def test_orthogonal_complement_unit(self):
        apps = [unit_vec([1.0, 0.0, 0.0]), unit_vec([0.0, 1.0, 0.0])]
        config = eg.EigenspaceConfig(centered=False, energy_threshold=1.0)
        es = eg.build_eigenspace("x", apps, config)
        assert np.allclose(es.mean, 0.0)  # uncentered: mean is the zero vector
        v = eg.AppearanceVector(3, np.array([0.0, 0.0, 1.0]), "unit")
        assert residual(es, v) == pytest.approx(1.0, abs=1e-8)

    def test_pythagoras(self, synthetic_space):
        es = synthetic_space
        rng = np.random.default_rng(31)
        for _ in range(200):
            w = rng.standard_normal(es.dim)
            v = eg.AppearanceVector(es.dim, w / np.linalg.norm(w), "unit")
            in_space = float(np.linalg.norm(project(es, v)))
            res = residual(es, v)
            total = float(np.linalg.norm(v.values - es.mean))
            assert res ** 2 + in_space ** 2 == pytest.approx(total ** 2, abs=1e-8)


class TestManifoldOrder:
    @pytest.mark.parametrize("order", ["reversed", "shuffled"])
    def test_manifold_is_stored_in_angle_order(self, order):
        apps = training_appearances("mobile")
        # a clean twin of the occluded 40-degree view: two points share that angle
        twin = eg.synth_view("mobile", 40, 32, 1)
        apps.append(eg.vectorize(twin, "unit", eg.ViewLabel("mobile", 40)))
        if order == "reversed":
            apps = apps[::-1]
        else:
            apps = [apps[i] for i in np.random.default_rng(7).permutation(len(apps))]
        es = eg.build_eigenspace("mobile", apps, eg.EigenspaceConfig())
        given = [v.source_label for v in apps]
        # sorted is stable: twin angles keep the order they were given in
        assert es.labels == tuple(sorted(given, key=lambda label: label.view_angle_deg))
        by_label = {v.source_label: v for v in apps}
        for label, row in zip(es.labels, es.coords):
            assert np.array_equal(row, project(es, by_label[label]))
        loaded = eg.load_model(eg.save_model(es))
        assert loaded.labels == es.labels
        assert np.array_equal(loaded.coords, es.coords)


def _toy_space(**change):
    """A valid hand-built space (dim 3, k 2, two points), with the named fields replaced."""
    fields = dict(
        object_id="toy",
        mean=np.array([0.1, -2.5, 1.0]),
        eigenvalues=np.array([0.75, 0.5]),
        basis=np.array([[0.6, 0.8, 0.0], [0.0, 0.0, 1.0]]),
        config=eg.EigenspaceConfig(),
        coords=np.array([[1 / 3, 0.0], [-0.5, 0.25]]),
        labels=(eg.ViewLabel("toy", 90, True), eg.ViewLabel("toy", 0)),
    )
    return eg.Eigenspace(**{**fields, **change})


def _one_entry(name, value):
    """Fields for _toy_space: the toy's array `name` with its last entry set to value."""
    array = getattr(_toy_space(), name).copy()
    array.flat[-1] = value
    return {name: array}


class TestInvariants:
    def test_spread_is_the_widest_nearest_neighbour_gap(self):
        assert _toy_space().spread == pytest.approx(np.hypot(1 / 3 + 0.5, 0.25), rel=1e-15)
        single = _toy_space(coords=np.array([[0.5, 0.5]]), labels=(eg.ViewLabel("toy", 0),))
        assert single.spread is None

    @pytest.mark.parametrize(
        "change",
        [
            *(_one_entry(name, value) for name in ("mean", "eigenvalues", "basis", "coords")
              for value in (np.nan, np.inf)),
            {"eigenvalues": np.array([0.5, 0.75])},
            {"eigenvalues": np.array([0.75, 0.0])},
            {"eigenvalues": np.array([0.75, -0.5])},
            {"basis": np.array([[0.6, 0.8, 0.0], [0.6, 0.8, 0.0]])},
            {"basis": np.array([[0.6, 0.8, 0.0], [0.0, 0.0, 1.0 + 1e-5]])},
            {"coords": np.zeros((0, 2)), "labels": ()},
            {"eigenvalues": np.zeros(0), "basis": np.zeros((0, 3)), "coords": np.zeros((2, 0))},
            {"coords": np.array([[1 / 3, 0.0]])},
            {"coords": np.zeros((3, 2))},
            {"coords": np.zeros((2, 3))},
            {"mean": np.zeros((3, 1))},
            {"basis": np.eye(2)},
            {"eigenvalues": np.array([0.75])},
            {"labels": (eg.ViewLabel("toy", 90, True), eg.ViewLabel("cup", 0))},
            {"coords": np.array([[1e200, 1e200], [-0.5, 0.25]])},
        ],
        ids=[
            *(f"{value}-{name}" for name in ("mean", "eigenvalues", "basis", "coords")
              for value in ("nan", "inf")),
            "rising-eigenvalues", "zero-eigenvalue", "negative-eigenvalue", "repeated-basis-row",
            "stretched-basis-row", "no-points", "no-eigenvalues", "fewer-points-than-labels",
            "more-points-than-labels", "points-wider-than-k", "2d-mean", "basis-narrower-than-mean",
            "fewer-eigenvalues-than-basis-rows", "foreign-label", "point-at-1e200",
        ],
    )
    def test_constructor_rejects_every_violation(self, change):
        with pytest.raises(CorruptField, match="'toy'"):
            _toy_space(**change)


class TestPersistence:
    def test_round_trip_exact(self, synthetic_space):
        es = synthetic_space
        data = eg.save_model(es)
        loaded = eg.load_model(data)
        assert loaded.object_id == es.object_id
        assert loaded.dim == es.dim
        assert loaded.k == es.k
        assert np.array_equal(loaded.mean, es.mean)
        assert np.array_equal(loaded.eigenvalues, es.eigenvalues)
        assert np.array_equal(loaded.basis, es.basis)
        assert loaded.config.centered == es.config.centered
        assert loaded.config.norm_mode == es.config.norm_mode
        assert loaded.config.energy_threshold == es.config.energy_threshold
        assert len(loaded.manifold) == len(es.manifold)
        for got, want in zip(loaded.manifold, es.manifold):
            assert np.array_equal(got.coords, want.coords)
            assert got.label == want.label
        assert eg.save_model(loaded) == data

    @pytest.mark.parametrize("label_id", [None, "cup"], ids=["unlabelled", "foreign-label"])
    def test_built_labels_name_the_space_and_reload_unchanged(self, label_id):
        views = [
            eg.vectorize(eg.synth_view("mobile", angle, 32, 1), "unit",
                         *([eg.ViewLabel(label_id, angle)] if label_id else []))
            for angle in range(0, 100, 10)
        ]
        es = eg.build_eigenspace("pen", views, eg.EigenspaceConfig())
        assert {label.object_id for label in es.labels} == {"pen"}
        assert_same_space(eg.load_model(eg.save_model(es)), es)

    def test_reload_gives_the_built_config(self):
        config = eg.EigenspaceConfig(k_override=2)
        es = eg.build_eigenspace("mobile", training_appearances("mobile"), config)
        assert es.k == 2
        assert eg.load_model(eg.save_model(es)).config == es.config

    def test_truncated_file(self, synthetic_space):
        data = eg.save_model(synthetic_space)
        with pytest.raises(CorruptField):
            eg.load_model(data[: len(data) // 2])

    def test_missing_end(self, synthetic_space):
        data = eg.save_model(synthetic_space)
        with pytest.raises(CorruptField):
            eg.load_model(data.replace(b"END\n", b""))

    def test_bad_magic(self):
        with pytest.raises(BadMagic):
            eg.load_model(b"NOTAMODEL 1\nEND\n")

    def test_version_mismatch(self, synthetic_space):
        data = eg.save_model(synthetic_space)
        with pytest.raises(VersionMismatch):
            eg.load_model(data.replace(b"EIGENGAZE 1\n", b"EIGENGAZE 999\n", 1))

    def test_corrupt_numeric_field(self, synthetic_space):
        data = eg.save_model(synthetic_space).decode()
        lines = data.split("\n")
        idx = next(i for i, l in enumerate(lines) if l.startswith("eigenvalue 0"))
        lines[idx] = "eigenvalue 0 not-a-number"
        with pytest.raises(CorruptField):
            eg.load_model("\n".join(lines).encode())

    @pytest.mark.parametrize(
        "edit",
        [
            _set_field("mean", 1, "nan"),
            _set_field("eigenvalue", 2, "inf"),
            _set_field("basis", 2, "nan"),
            _set_field("point", 3, "-inf"),
            lambda lines: [l for l in lines if not l.startswith("point ")],
            _set_field("point", 1, "999"),
            _set_field("k", 1, "1000000000000"),
            _set_field("eigenvalue", 2, "0"),
            _set_field("eigenvalue", 2, "-1"),
            _set_field("eigenvalue", 2, "1e-30"),
            _set_field("basis", 2, "1e300"),
            lambda lines: _set_field("basis", 3, "-1e300")(_set_field("basis", 2, "1e300")(lines)),
            _set_field("basis", 2, "0.5"),
            *_NON_CANONICAL_FIELDS,
            *_NON_CANONICAL_FLOATS,
            *_UNWRITTEN_LAYOUTS,
        ],
        ids=[
            "nan-mean", "inf-eigenvalue", "nan-basis", "inf-point", "no-points", "angle-999",
            "huge-k", "zero-eigenvalue", "negative-eigenvalue", "rising-eigenvalues",
            "huge-basis", "huge-basis-pair", "skewed-basis", *_NON_CANONICAL_IDS,
            *_NON_CANONICAL_FLOAT_IDS, *_UNWRITTEN_LAYOUT_IDS,
        ],
    )
    def test_rejects_what_scoring_cannot_use(self, synthetic_space, edit):
        lines = eg.save_model(synthetic_space).decode().split("\n")
        with pytest.raises(CorruptField):
            eg.load_model("\n".join(edit(lines)).encode())

    def test_a_respelled_float_is_quoted_around_its_column(self, synthetic_space):
        # a d = 1024 mean row is about 20,000 characters; the message quotes
        # a window of it, not the whole row twice
        lines = _NON_CANONICAL_FLOATS[0](eg.save_model(synthetic_space).decode().split("\n"))
        with pytest.raises(CorruptField, match="line 6 column 6 is 'mean [+]0[.]") as info:
            eg.load_model("\n".join(lines).encode())
        assert len(str(info.value)) < 300


@pytest.mark.parametrize(
    "make",
    [
        lambda: eg.build_eigenspace("pen", training_appearances("mobile"), eg.EigenspaceConfig()),
        lambda: eg.load_model(eg.save_model(_toy_space())).manifold[0],
        lambda: training_appearances("mobile")[0],
        lambda: gram_pca(np.eye(3)),
        lambda: sym_eigen(np.eye(2)),
    ],
    ids=["Eigenspace", "ManifoldPoint", "AppearanceVector", "PcaResult", "EigenDecomposition"],
)
def test_array_holders_compare_and_hash_by_identity(make):
    a, b = make(), make()
    assert (a == b) is False and a == a
    assert len({a, a, b}) == 2


def test_a_reloaded_space_is_another_object(synthetic_space):
    es = synthetic_space
    assert (es == eg.load_model(eg.save_model(es))) is False
    assert es == es and {es} == {es}


def _redigested(data, block):
    """A sidecar for the `.eig` bytes data that holds `block` under a valid digest."""
    block = np.asarray(block, dtype="<f8").tobytes()
    return hashlib.sha256(data + block).digest() + block


class TestSidecar:
    @pytest.fixture
    def saved(self, synthetic_space):
        data = eg.save_model(synthetic_space)
        return synthetic_space, data, eg.save_sidecar(synthetic_space, data)

    def test_layout_is_digest_then_little_endian_floats(self, saved):
        es, data, sidecar = saved
        block = np.concatenate([es.mean, es.eigenvalues, es.basis.ravel(), es.coords.ravel()])
        assert sidecar == _redigested(data, block)
        assert len(sidecar) == 32 + 8 * (es.dim + es.k + es.k * es.dim + len(es.labels) * es.k)

    def test_sidecar_load_is_bit_identical_to_the_text(self, saved):
        es, data, sidecar = saved
        assert_same_space(eg.load_model(data, sidecar), eg.load_model(data))
        assert_same_space(eg.load_model(data, sidecar), es)

    def test_floats_come_from_a_matching_sidecar(self, saved):
        es, data, _ = saved
        mean = es.mean + 0.25
        block = np.concatenate([mean, es.eigenvalues, es.basis.ravel(), es.coords.ravel()])
        loaded = eg.load_model(data, _redigested(data, block))
        assert np.array_equal(loaded.mean, mean)
        assert loaded.labels == es.labels

    @pytest.mark.parametrize(
        "damage",
        [
            lambda s: b"",
            lambda s: s[:32],
            lambda s: s[:-8],
            lambda s: s + b"\0" * 8,
            lambda s: bytes([s[0] ^ 1]) + s[1:],
            lambda s: s[:-1] + bytes([s[-1] ^ 1]),
        ],
        ids=["empty", "digest-only", "truncated", "over-long", "wrong-digest", "flipped-float"],
    )
    def test_damaged_sidecar_falls_back_to_the_text(self, saved, damage):
        _, data, sidecar = saved
        assert_same_space(eg.load_model(data, damage(sidecar)), eg.load_model(data))

    def test_edited_text_misses_the_digest(self, saved):
        _, data, sidecar = saved
        lines = data.decode().split("\n")
        lines[5] = _set_field("mean", 1, "0.125")(lines)[5]
        edited = "\n".join(lines).encode()
        loaded = eg.load_model(edited, sidecar)
        assert loaded.mean[0] == 0.125
        assert_same_space(loaded, eg.load_model(edited))

    @pytest.mark.parametrize(
        "edit",
        [
            lambda es: (np.where(np.arange(es.dim) == 1, np.nan, es.mean), es.eigenvalues,
                        es.basis, es.coords),
            lambda es: (es.mean, es.eigenvalues, es.basis,
                        np.where(np.arange(es.k) == 0, np.inf, es.coords)),
            lambda es: (es.mean, es.eigenvalues[::-1], es.basis, es.coords),
            lambda es: (es.mean, -es.eigenvalues, es.basis, es.coords),
            lambda es: (es.mean, es.eigenvalues, 2 * es.basis, es.coords),
            lambda es: (es.mean, es.eigenvalues, es.basis[[0] * es.k], es.coords),
        ],
        ids=["nan-mean", "inf-point", "rising-eigenvalues", "negative-eigenvalues",
             "scaled-basis", "repeated-basis-row"],
    )
    def test_matching_sidecar_gets_every_check(self, saved, edit):
        es, data, _ = saved
        block = np.concatenate([a.ravel() for a in edit(es)])
        with pytest.raises(CorruptField):
            eg.load_model(data, _redigested(data, block))

    @pytest.mark.parametrize(
        "edit",
        [_set_field("point", 1, "999"), _set_field("point", 2, "2"),
         _set_field("eigenvalue", 1, "5"), _set_field("basis", 1, "x y"),
         _set_field("basis", 0, "bases"), *_NON_CANONICAL_FIELDS, *_UNWRITTEN_LAYOUTS],
        ids=["angle-999", "occluded-2", "misnumbered", "non-numeric-index", "wrong-keyword",
             *_NON_CANONICAL_IDS, *_UNWRITTEN_LAYOUT_IDS],
    )
    def test_text_checks_run_beside_a_matching_sidecar(self, saved, edit):
        es, data, _ = saved
        edited = "\n".join(edit(data.decode().split("\n"))).encode()
        block = np.concatenate([es.mean, es.eigenvalues, es.basis.ravel(), es.coords.ravel()])
        with pytest.raises(CorruptField):
            eg.load_model(edited, _redigested(edited, block))


def test_model_file_layout_is_pinned_to_literal_bytes():
    # hand-built, so the bytes depend on no eigensolver; the points are given
    # out of angle order, and the file holds them in angle order
    es = eg.Eigenspace(
        "toy", np.array([0.1, -2.5]), np.array([0.75]), np.array([[0.6, 0.8]]),
        eg.EigenspaceConfig(centered=False, norm_mode="raw", energy_threshold=0.9),
        np.array([[1 / 3], [-0.5]]), (eg.ViewLabel("toy", 90, True), eg.ViewLabel("toy", 0)),
    )
    data = eg.save_model(es)
    assert data == (
        b"EIGENGAZE 1\n"
        b"object toy\n"
        b"dim 2\n"
        b"k 1\n"
        b"config 0 raw 0.90000000000000002\n"
        b"mean 0.10000000000000001 -2.5\n"
        b"eigenvalue 0 0.75\n"
        b"basis 0 0.59999999999999998 0.80000000000000004\n"
        b"point 0 0 -0.5\n"
        b"point 90 1 0.33333333333333331\n"
        b"END\n"
    )
    sidecar = eg.save_sidecar(es, data)
    assert sidecar == (
        bytes.fromhex("bd1fb4fcb54edc260d15829688f320b7b527cee8ac04444b5071af3e30fe5b39")
        + struct.pack("<7d", 0.1, -2.5, 0.75, 0.6, 0.8, -0.5, 1 / 3)
    )
    assert_same_space(eg.load_model(data), es)
    assert_same_space(eg.load_model(data, sidecar), es)


_BUILD_AND_HASH = """
import hashlib
import eigengaze as eg
for obj, side in (("A", 32), ("mobile", 32), ("stapler", 64)):
    views = [
        eg.vectorize(eg.synth_view(obj, a, side, 1), "unit", eg.ViewLabel(obj, a))
        for a in range(0, 360, 10)
    ]
    model = eg.save_model(eg.build_eigenspace(obj, views, eg.EigenspaceConfig()))
    print(obj, side, hashlib.sha256(model).hexdigest())
"""


def test_model_bytes_do_not_depend_on_blas_threads():
    src = str(Path(eg.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", _BUILD_AND_HASH],
            env=env, capture_output=True, text=True, check=True, timeout=300,
        )
        outputs.append(done.stdout)
    assert len(outputs[0].splitlines()) == 3
    assert outputs[0] == outputs[1]
