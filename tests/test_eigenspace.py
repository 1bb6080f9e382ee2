import hashlib
import os
import struct
import subprocess
import sys
import tracemalloc
import warnings
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
from eigengaze.eigenspace import save_sidecar
from eigengaze.linalg import gram_pca, sym_eigen

from conftest import (
    assert_same_space,
    energy_shares,
    project,
    reconstruct,
    residual,
    training_appearances,
)
from test_registry import spread_of


def unit_vec(values, label=eg.ViewLabel("", 0)):
    values = np.asarray(values, dtype=np.float64)
    values = values / np.linalg.norm(values)
    return eg.AppearanceVector(values, label)


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
        # each axis in both directions, so the mean is the origin
        apps = [unit_vec(sign * np.eye(3)[i]) for i in (0, 1) for sign in (1.0, -1.0)]
        config = eg.EigenspaceConfig(energy_threshold=1.0)
        es = eg.build_eigenspace("x", apps, config)
        assert es.k == 2
        assert es.eigenvalues == pytest.approx([2.0, 2.0], abs=1e-12)
        assert np.abs(es.basis[:, 2]).max() <= 1e-12

    def test_single_appearance_centered_degenerate(self):
        with pytest.raises(DegenerateSet):
            eg.build_eigenspace("x", [unit_vec([1.0, 2.0])], eg.EigenspaceConfig())

    def test_dimension_mismatch(self):
        apps = [unit_vec([1.0, 0.0]), unit_vec([1.0, 0.0, 0.0])]
        with pytest.raises(DimensionMismatch):
            eg.build_eigenspace("x", apps, eg.EigenspaceConfig())


class TestProjectReconstruct:
    def test_mean_projects_to_origin(self):
        # the mean of unit views is no unit vector, so no query; but the
        # projections are linear, so the training views' points average to it
        apps = [unit_vec(row) for row in np.eye(3)]
        es = eg.build_eigenspace("x", apps, eg.EigenspaceConfig())
        assert es.coords.mean(axis=0) == pytest.approx(np.zeros(es.k), abs=1e-12)

    def test_mean_plus_basis_vector(self):
        apps = [unit_vec([1.0, 0.0, 0.0]), unit_vec([0.0, 1.0, 0.0])]
        es = eg.build_eigenspace("x", apps, eg.EigenspaceConfig())
        # here the mean is orthogonal to the basis, so this step along it gives a unit vector
        step = np.sqrt(1.0 - es.mean @ es.mean)
        v = eg.AppearanceVector(es.mean + step * es.basis[0])
        expected = np.zeros(es.k)
        expected[0] = step
        assert project(es, v) == pytest.approx(expected, abs=1e-10)

    def test_training_projections_match_manifold(self, synthetic_space):
        """Each manifold point is its view's projection, bit for bit, in a
        default build and in builds cut at k = 1, where two columns are lifted
        and one kept, and at k = 3."""
        apps = training_appearances("mobile")
        built = [eg.build_eigenspace("mobile", apps, eg.EigenspaceConfig(tau))
                 for tau in (0.5, 0.9)]
        assert [es.k for es in built] == [1, 3]
        for es in [synthetic_space, *built]:
            for v, point in zip(apps, es.manifold):
                assert np.array_equal(project(es, v), point.coords)

    def test_reconstruct_zeros_is_mean(self, synthetic_space):
        es = synthetic_space
        assert reconstruct(es, np.zeros(es.k)) == pytest.approx(es.mean, abs=0)

    def test_project_reconstruct_identity_in_span(self):
        apps = [unit_vec(row) for row in np.eye(3)]
        config = eg.EigenspaceConfig(energy_threshold=1.0)
        es = eg.build_eigenspace("x", apps, config)
        # the views' plane meets the unit sphere in a circle about the mean
        radius = np.sqrt(1.0 - es.mean @ es.mean)
        x = es.mean + radius * (np.cos(0.7) * es.basis[0] + np.sin(0.7) * es.basis[1])
        v = eg.AppearanceVector(x / np.linalg.norm(x))
        got = reconstruct(es, project(es, v))
        assert got == pytest.approx(v.values, abs=1e-8)

    def test_reconstruction_error_non_increasing_in_k(self):
        apps = training_appearances("stapler")
        X = np.column_stack([a.values for a in apps])
        errors = []
        for k, tau in enumerate(energy_shares(apps)[:-1], 1):
            es = eg.build_eigenspace("stapler", apps, eg.EigenspaceConfig(tau))
            assert es.k == k
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
        config = eg.EigenspaceConfig(energy_threshold=1.0)
        es = eg.build_eigenspace("x", apps, config)
        assert residual(es, apps[0]) <= 1e-8

    def test_orthogonal_complement_unit(self):
        apps = [unit_vec(sign * np.eye(3)[i]) for i in (0, 1) for sign in (1.0, -1.0)]
        config = eg.EigenspaceConfig(energy_threshold=1.0)
        es = eg.build_eigenspace("x", apps, config)
        assert np.allclose(es.mean, 0.0)  # views in both directions: the mean is the origin
        v = eg.AppearanceVector(np.array([0.0, 0.0, 1.0]))
        assert residual(es, v) == pytest.approx(1.0, abs=1e-8)

    def test_pythagoras(self, synthetic_space):
        es = synthetic_space
        rng = np.random.default_rng(31)
        for _ in range(200):
            w = rng.standard_normal(es.dim)
            v = eg.AppearanceVector(w / np.linalg.norm(w))
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
        apps.append(eg.vectorize(twin, label=eg.ViewLabel("mobile", 40)))
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

    @pytest.mark.parametrize("budget", [1, 7, 2**19])
    @pytest.mark.parametrize("n, k", [(2, 1), (9, 3), (40, 2), (41, 5)])
    def test_spread_from_blocks_of_rows_is_the_all_pairs_spread(self, monkeypatch, budget,
                                                                n, k):
        monkeypatch.setattr("eigengaze.eigenspace._BUDGET", budget)
        rng = np.random.default_rng(n * k)
        coords = rng.normal(size=(n, k))
        coords[n // 2] = coords[0]  # twin points, whose nearest gap is 0
        labels = tuple(eg.ViewLabel("toy", int(angle)) for angle in rng.integers(0, 360, n))
        es = _toy_space(mean=np.zeros(k), eigenvalues=np.arange(k, 0.0, -1), basis=np.eye(k),
                        coords=coords, labels=labels)
        assert es.spread == spread_of([es])

    def test_a_manifold_of_many_points_loads_in_bounded_memory(self):
        """All pairs of 2,000 one-dimensional points would take 122 MiB."""
        n = 2000
        data = eg.save_model(_toy_space(
            mean=np.zeros(1), eigenvalues=np.ones(1), basis=np.ones((1, 1)),
            coords=np.linspace(0.0, 1.0, n)[:, None],
            labels=tuple(eg.ViewLabel("toy", i % 360) for i in range(n))))
        tracemalloc.start()
        try:
            es = eg.load_model(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20
        assert es.spread == spread_of([es])

    def test_more_basis_rows_than_dimensions_fail_before_their_k_by_k_check(self):
        """2,000 rows of dimension 1 cannot be orthonormal; BB^T would take 61 MiB."""
        k = 2000
        fields = dict(mean=np.zeros(1), eigenvalues=np.arange(k, 0.0, -1), basis=np.ones((k, 1)),
                      coords=np.zeros((1, k)), labels=(eg.ViewLabel("toy", 0),))
        tracemalloc.start()
        try:
            with pytest.raises(CorruptField, match="'toy'"):
                _toy_space(**fields)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20

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
            {"mean": np.array([0.1, -2.5, 1e160])},
        ],
        ids=[
            *(f"{value}-{name}" for name in ("mean", "eigenvalues", "basis", "coords")
              for value in ("nan", "inf")),
            "rising-eigenvalues", "zero-eigenvalue", "negative-eigenvalue", "repeated-basis-row",
            "stretched-basis-row", "no-points", "no-eigenvalues", "fewer-points-than-labels",
            "more-points-than-labels", "points-wider-than-k", "2d-mean", "basis-narrower-than-mean",
            "fewer-eigenvalues-than-basis-rows", "foreign-label", "point-at-1e200",
            "mean-at-1e160",
        ],
    )
    def test_constructor_rejects_every_violation(self, change):
        with pytest.raises(CorruptField, match="'toy'"):
            _toy_space(**change)

    def test_a_mean_too_far_out_to_score_a_query_is_rejected(self, synthetic_space):
        """Scaled by 1e160, a built space's mean breaks no other invariant, but
        |w - mean|^2 overflows for every query; scaled by 1e150, a query scores
        finitely and with no warning."""
        es = synthetic_space

        def scaled(scale):
            return eg.Eigenspace(es.object_id, es.mean * scale, es.eigenvalues, es.basis,
                                 es.config, es.coords, es.labels)

        with pytest.raises(CorruptField, match="'mobile'"):
            scaled(1e160)
        reg = eg.ObjectRegistry()
        reg._append(scaled(1e150))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = eg.recognize(reg, training_appearances("mobile")[0])
        assert np.isfinite([result.combined_score, result.in_space_distance, result.residual]).all()


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
        assert loaded.config.energy_threshold == es.config.energy_threshold
        assert len(loaded.manifold) == len(es.manifold)
        for got, want in zip(loaded.manifold, es.manifold):
            assert np.array_equal(got.coords, want.coords)
            assert got.label == want.label
        assert eg.save_model(loaded) == data

    @pytest.mark.parametrize("label_id", [None, "cup"], ids=["unlabelled", "foreign-label"])
    def test_built_labels_name_the_space_and_reload_unchanged(self, label_id):
        views = [
            eg.vectorize(eg.synth_view("mobile", angle, 32, 1),
                         **({"label": eg.ViewLabel(label_id, angle)} if label_id else {}))
            for angle in range(0, 100, 10)
        ]
        es = eg.build_eigenspace("pen", views, eg.EigenspaceConfig())
        assert {label.object_id for label in es.labels} == {"pen"}
        assert_same_space(eg.load_model(eg.save_model(es)), es)

    def test_a_label_is_an_integer_angle_and_a_bool_flag(self):
        # a float or bool angle would save a point line that load_model cannot read
        for angle, occluded in [(40.0, False), (np.float64(40.0), False), (True, False),
                                (np.True_, False), (40, 1), (40, "yes")]:
            with pytest.raises(ValueError):
                eg.ViewLabel("pen", angle, occluded)
        views = [eg.vectorize(eg.synth_view("pen", angle, 16, 1),
                              label=eg.ViewLabel("pen", np.int64(angle), np.bool_(angle == 40)))
                 for angle in range(0, 100, 10)]
        es = eg.build_eigenspace("pen", views, eg.EigenspaceConfig())
        data = eg.save_model(es)
        assert_same_space(eg.load_model(data), es)
        assert eg.save_model(eg.load_model(data)) == data

    def test_reload_gives_the_built_config(self):
        config = eg.EigenspaceConfig(energy_threshold=0.9)
        es = eg.build_eigenspace("mobile", training_appearances("mobile"), config)
        assert es.k == 3
        assert es.config == config
        assert eg.load_model(eg.save_model(es)).config == config

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
            _set_field("mean", 1, format(1e160, ".17g")),
            _set_field("config", 2, "cubic"),
            _set_field("config", 2, "raw"),
            _set_field("config", 1, "0"),
            *_NON_CANONICAL_FIELDS,
            *_NON_CANONICAL_FLOATS,
            *_UNWRITTEN_LAYOUTS,
        ],
        ids=[
            "nan-mean", "inf-eigenvalue", "nan-basis", "inf-point", "no-points", "angle-999",
            "huge-k", "zero-eigenvalue", "negative-eigenvalue", "rising-eigenvalues",
            "huge-basis", "huge-basis-pair", "skewed-basis", "huge-mean", "unknown-norm-mode",
            "raw-model", "uncentered-model",
            *_NON_CANONICAL_IDS,
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
        return synthetic_space, data, save_sidecar(synthetic_space, data)

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
        eg.EigenspaceConfig(energy_threshold=0.9),
        np.array([[1 / 3], [-0.5]]), (eg.ViewLabel("toy", 90, True), eg.ViewLabel("toy", 0)),
    )
    data = eg.save_model(es)
    assert data == (
        b"EIGENGAZE 1\n"
        b"object toy\n"
        b"dim 2\n"
        b"k 1\n"
        b"config 1 unit 0.90000000000000002\n"
        b"mean 0.10000000000000001 -2.5\n"
        b"eigenvalue 0 0.75\n"
        b"basis 0 0.59999999999999998 0.80000000000000004\n"
        b"point 0 0 -0.5\n"
        b"point 90 1 0.33333333333333331\n"
        b"END\n"
    )
    sidecar = save_sidecar(es, data)
    assert sidecar == (
        bytes.fromhex("f58b64f1de81b441444d67b910b5dbeb0df2bc8c8e3facdbe01a3ce486b6e34e")
        + struct.pack("<7d", 0.1, -2.5, 0.75, 0.6, 0.8, -0.5, 1 / 3)
    )
    assert_same_space(eg.load_model(data), es)
    assert_same_space(eg.load_model(data, sidecar), es)


_BUILD_AND_HASH = """
import hashlib
import eigengaze as eg
for obj, side in (("A", 32), ("mobile", 32), ("stapler", 64)):
    views = [
        eg.vectorize(eg.synth_view(obj, a, side, 1), label=eg.ViewLabel(obj, a))
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
