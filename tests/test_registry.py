import copy
import dataclasses
import os

import numpy as np
import pytest

import eigengaze as eg
from eigengaze.errors import (
    CorruptField,
    DimensionMismatch,
    DuplicateObject,
    EmptyRegistryNoViews,
    InsufficientData,
    InvalidObjectId,
)
from eigengaze import registry as registry_module
from eigengaze.registry import AUTO, EnrollmentPolicy, ObjectRegistry

from conftest import (
    assert_same_space,
    build_registry,
    project,
    query_set,
    training_appearances,
)


def unit_vec(values, label=eg.ViewLabel("", 0)):
    values = np.asarray(values, dtype=np.float64)
    return eg.AppearanceVector(values.size, values / np.linalg.norm(values), "unit", label)


def spread_of(spaces):
    """Oracle for the stored spread: the widest leave-self-out nearest-neighbour
    gap of any space, computed from scratch over all of them."""
    spreads = []
    for es in spaces:
        dist = np.linalg.norm(es.coords[:, None] - es.coords[None], axis=2)
        np.fill_diagonal(dist, np.inf)
        spreads.append(dist.min(axis=1).max())
    return float(max(spreads))


class TestAccumulate:
    def test_single_object(self):
        reg = ObjectRegistry()
        reg.accumulate("A", training_appearances("A"), eg.EigenspaceConfig())
        assert len(reg.spaces) == 1
        assert reg.spaces[0].object_id == "A"

    def test_duplicate_rejected(self):
        reg = ObjectRegistry()
        reg.accumulate("A", training_appearances("A"), eg.EigenspaceConfig())
        with pytest.raises(DuplicateObject):
            reg.accumulate("A", training_appearances("A"), eg.EigenspaceConfig())

    @pytest.mark.parametrize("side, norm_mode", [(16, "unit"), (32, "raw")], ids=["dim", "norm"])
    def test_space_of_another_dim_or_norm_mode_is_rejected(self, side, norm_mode):
        reg = build_registry(objects=["A"])
        with pytest.raises(DimensionMismatch):
            reg.accumulate("B", training_appearances("B", norm_mode, side=side),
                           eg.EigenspaceConfig(norm_mode=norm_mode))
        assert [es.object_id for es in reg.spaces] == ["A"]

    def test_existing_space_untouched(self, tmp_path):
        config = eg.EigenspaceConfig()
        reg = ObjectRegistry()
        reg.accumulate("A", training_appearances("A"), config)
        before = eg.save_model(reg.find("A"))
        reg.accumulate("B", training_appearances("B"), config)
        assert eg.save_model(reg.find("A")) == before

    def test_order_is_acquisition_order(self):
        reg = build_registry(objects=["c", "a", "b"])
        assert [es.object_id for es in reg.spaces] == ["c", "a", "b"]

    @pytest.mark.parametrize("object_id", ["../escape", "a b", "a\nb", ""])
    def test_id_that_cannot_round_trip_is_rejected(self, tmp_path, object_id):
        reg_dir = tmp_path / "reg"
        reg = ObjectRegistry()
        with pytest.raises(InvalidObjectId):
            reg.accumulate(object_id, training_appearances("A"), eg.EigenspaceConfig())
        assert reg.spaces == ()
        reg.save_dir(str(reg_dir))
        assert [p.name for p in tmp_path.iterdir()] == ["reg"]
        assert [p.name for p in reg_dir.iterdir()] == ["registry.manifest"]


class TestSnapshot:
    def test_spaces_hold_the_manifold_in_angle_order(self):
        apps = training_appearances("A")
        reg = ObjectRegistry()
        reg.accumulate("A", apps[::-1], eg.EigenspaceConfig())
        (es,) = reg.spaces
        angles = [label.view_angle_deg for label in es.labels]
        assert angles == sorted(angles)
        by_label = {v.source_label: v for v in apps}
        for label, row in zip(es.labels, es.coords):
            assert np.array_equal(row, project(es, by_label[label]))

    def test_mutation_rebinds_the_snapshot(self):
        reg = build_registry(objects=["A"])
        before = reg.spaces
        assert reg.spaces is before
        snapshot, threshold = reg.snapshot, reg.effective_threshold()
        clone = copy.copy(reg)
        # two views far apart on the unit sphere: a wider gap than any of A's
        wide = [unit_vec([1.0, 0.0] * 512), unit_vec([0.0, 1.0] * 512, eg.ViewLabel("", 90))]
        clone.accumulate("B", wide, eg.EigenspaceConfig(k_override=1))
        assert clone.spaces[1].spread > reg.snapshot.spread
        assert reg.spaces is before
        assert reg.snapshot is snapshot and reg.effective_threshold() == threshold
        assert [es.object_id for es in reg.spaces] == ["A"]
        assert [es.object_id for es in clone.spaces] == ["A", "B"]
        assert clone.spaces[0] is before[0]
        assert clone.effective_threshold() == clone.policy.auto_margin * clone.spaces[1].spread


class TestEffectiveThreshold:
    @pytest.mark.parametrize(
        "threshold, margin",
        [(float("nan"), 1.5), (float("inf"), 1.5), (0.0, 1.5), (AUTO, float("nan")),
         (AUTO, float("inf")), (AUTO, 0.5), ("foo", 1.5), ("", 1.5)],
    )
    def test_policy_rejects_non_finite_or_out_of_range(self, threshold, margin):
        with pytest.raises(ValueError) as info:
            EnrollmentPolicy(threshold, margin)
        assert info.type is ValueError

    def test_explicit(self):
        reg = ObjectRegistry(EnrollmentPolicy(0.3))
        assert reg.effective_threshold() == 0.3

    def test_auto_needs_two_points(self):
        apps = [unit_vec([1.0, 0.0]), unit_vec([0.0, 1.0])]
        reg = ObjectRegistry(EnrollmentPolicy(AUTO))
        config = eg.EigenspaceConfig(centered=False, k_override=1)
        reg.accumulate("x", apps[:1], config)
        with pytest.raises(InsufficientData):
            reg.effective_threshold()

    def test_auto_dominates_intra_space_distances(self):
        reg = build_registry()
        threshold = reg.effective_threshold()
        for es in reg.spaces:
            pts = [p.coords for p in es.manifold]
            for i, a in enumerate(pts):
                nearest = min(
                    float(np.linalg.norm(a - b))
                    for j, b in enumerate(pts)
                    if j != i
                )
                assert threshold >= nearest

    def test_auto_is_margin_times_worst_spread(self):
        reg = build_registry(policy=EnrollmentPolicy(AUTO, auto_margin=2.0))
        worst = max(
            min(
                float(np.linalg.norm(a.coords - b.coords))
                for j, b in enumerate(es.manifold)
                if j != i
            )
            for es in reg.spaces
            for i, a in enumerate(es.manifold)
        )
        assert reg.effective_threshold() == pytest.approx(2.0 * worst, rel=1e-12)

    def test_auto_is_bit_identical_after_each_enrollment_and_reload(self, tmp_path):
        reg = ObjectRegistry()
        for obj in ["stapler", "mobile", "key-holder", "pencil-box"]:
            reg.accumulate(obj, training_appearances(obj), eg.EigenspaceConfig())
            assert reg.effective_threshold() == 1.5 * spread_of(reg.spaces)
        reg.save_dir(str(tmp_path))
        loaded = ObjectRegistry.load_dir(str(tmp_path))
        assert loaded.effective_threshold() == reg.effective_threshold()

    def test_auto_follows_policy_changes(self):
        reg = build_registry()
        auto = reg.effective_threshold()
        reg.policy = EnrollmentPolicy(0.3)
        assert reg.effective_threshold() == 0.3
        reg.policy = EnrollmentPolicy(AUTO, auto_margin=3.0)
        assert reg.effective_threshold() == 3.0 * spread_of(reg.spaces)
        reg.policy = EnrollmentPolicy()
        assert reg.effective_threshold() == auto


class TestClassifyOrEnroll:
    @pytest.mark.parametrize("in_space_only", [False, True])
    def test_decide_is_recognize_against_threshold(self, four_object_registry, in_space_only):
        reg = four_object_registry
        for v, _ in query_set()[::4]:
            decision = reg.decide(v, in_space_only=in_space_only)
            assert decision.result == eg.recognize(reg, v, in_space_only=in_space_only)
            assert decision.threshold == reg.effective_threshold()
            assert decision.known == (decision.result.combined_score <= decision.threshold)
            assert decision.enrolled_id is None

    def test_training_view_is_known(self):
        reg = build_registry()
        query = training_appearances("mobile")[2]
        decision = reg.classify_or_enroll(query)
        assert decision.known
        assert decision.result.best_object == "mobile"

    def test_unknown_enrolls_pending_views(self):
        # tight explicit threshold forces the unknown path
        reg = build_registry(policy=EnrollmentPolicy(1e-6))
        pending = training_appearances("widget")
        query = eg.vectorize(eg.synth_view("widget", 45, 32, 1), "unit")
        decision = reg.classify_or_enroll(query, pending_views=pending)
        assert not decision.known
        assert decision.enrolled_id == "object-5"
        assert reg.find("object-5") is not None
        assert len(reg.spaces) == 5

    def test_enrolled_space_reloads_unchanged(self):
        reg = build_registry(policy=EnrollmentPolicy(1e-6), objects=["mobile"])
        query = eg.vectorize(eg.synth_view("widget", 45, 32, 1), "unit")
        # the pending views are labelled "widget", the space is named object-2
        decision = reg.classify_or_enroll(query, pending_views=training_appearances("widget"))
        es = reg.find(decision.enrolled_id)
        assert {label.object_id for label in es.labels} == {"object-2"}
        assert_same_space(eg.load_model(eg.save_model(es)), es)

    def test_unknown_without_views_does_not_enroll(self):
        reg = build_registry(policy=EnrollmentPolicy(1e-6))
        query = eg.vectorize(eg.synth_view("widget", 45, 32, 1), "unit")
        decision = reg.classify_or_enroll(query)
        assert not decision.known
        assert decision.enrolled_id is None
        assert len(reg.spaces) == 4

    def test_auto_name_skips_taken_names(self):
        reg = build_registry(policy=EnrollmentPolicy(1e-6), objects=["object-2"])
        query = eg.vectorize(eg.synth_view("widget", 45, 32, 1), "unit")
        decision = reg.classify_or_enroll(query, pending_views=training_appearances("widget"))
        assert decision.enrolled_id == "object-3"
        assert [es.object_id for es in reg.spaces] == ["object-2", "object-3"]

    @pytest.mark.parametrize(
        "config",
        [eg.EigenspaceConfig(), eg.EigenspaceConfig(centered=False),
         eg.EigenspaceConfig(energy_threshold=0.9)],
        ids=["default", "uncentered", "tau-0.9"],
    )
    def test_reloaded_registry_enrolls_like_the_original(self, tmp_path, config):
        pending = training_appearances("widget")
        query = eg.vectorize(eg.synth_view("widget", 45, 32, 1), "unit")
        # k_override is not saved, so the new space must not inherit it either
        for k_override in (None, 2):
            first = dataclasses.replace(config, k_override=k_override)
            reg = build_registry(config=first, policy=EnrollmentPolicy(1e-6))
            path = str(tmp_path / f"k{k_override}")
            reg.save_dir(path)
            loaded = ObjectRegistry.load_dir(path)
            for r in (reg, loaded):
                assert r.classify_or_enroll(query, pending_views=pending).enrolled_id == "object-5"
            want, got = reg.find("object-5"), loaded.find("object-5")
            # the first space's config, as a reload gives it: what accumulate builds from config
            assert want.config == got.config == reg.spaces[0].config == config
            direct = eg.build_eigenspace("object-5", pending, config)
            assert eg.save_model(got) == eg.save_model(want) == eg.save_model(direct)
            if k_override is not None:
                assert got.k != reg.spaces[0].k
            reg.save_dir(path)
            assert ObjectRegistry.load_dir(path).find("object-5").config == config

    def test_empty_registry_without_views(self):
        reg = ObjectRegistry()
        query = eg.vectorize(eg.synth_view("A", 0, 32, 1), "unit")
        with pytest.raises(EmptyRegistryNoViews):
            reg.classify_or_enroll(query)

    def test_empty_registry_enrolls_pending(self):
        reg = ObjectRegistry()
        query = eg.vectorize(eg.synth_view("A", 0, 32, 1), "unit")
        decision = reg.classify_or_enroll(query, pending_views=training_appearances("A"))
        assert not decision.known
        assert decision.enrolled_id == "object-1"
        assert len(reg.spaces) == 1


class TestOrderIndependence:
    def test_permuted_enrollment_same_decisions(self):
        from conftest import OBJECTS, query_set

        forward = build_registry(objects=OBJECTS)
        backward = build_registry(objects=list(reversed(OBJECTS)))
        for v, _ in query_set():
            a = eg.recognize(forward, v)
            b = eg.recognize(backward, v)
            # scores are space-local, so any differing winner must be a tie
            if a.best_object != b.best_object:
                assert a.combined_score == pytest.approx(b.combined_score, abs=1e-12)


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        reg = build_registry(policy=EnrollmentPolicy(0.25, 1.75))
        reg.save_dir(str(tmp_path))
        loaded = ObjectRegistry.load_dir(str(tmp_path))
        assert [es.object_id for es in loaded.spaces] == [
            es.object_id for es in reg.spaces
        ]
        assert loaded.policy == reg.policy
        for got, want in zip(loaded.spaces, reg.spaces):
            assert eg.save_model(got) == eg.save_model(want)

    def test_auto_policy_round_trip(self, tmp_path):
        reg = build_registry()
        reg.save_dir(str(tmp_path))
        loaded = ObjectRegistry.load_dir(str(tmp_path))
        assert loaded.policy.unknown_threshold == AUTO
        assert loaded.policy.auto_margin == 1.5

    def test_load_rejects_unsafe_manifest_id(self, tmp_path):
        reg = build_registry(objects=["escape"])
        reg.save_dir(str(tmp_path / "reg"))
        (tmp_path / "reg" / "escape.eig").rename(tmp_path / "escape.eig")
        manifest = tmp_path / "reg" / "registry.manifest"
        manifest.write_text(manifest.read_text().replace("object escape", "object ../escape"))
        with pytest.raises(InvalidObjectId):
            ObjectRegistry.load_dir(str(tmp_path / "reg"))

    def test_load_rejects_a_manifest_naming_one_id_twice(self, tmp_path):
        build_registry(objects=["mobile", "stapler"]).save_dir(str(tmp_path))
        manifest = tmp_path / "registry.manifest"
        manifest.write_bytes(manifest.read_bytes().replace(b"object stapler", b"object mobile"))
        with pytest.raises(DuplicateObject, match="mobile"):
            ObjectRegistry.load_dir(str(tmp_path))

    def test_load_rejects_model_named_differently_from_manifest(self, tmp_path):
        reg = build_registry(objects=["mobile", "stapler"])
        reg.save_dir(str(tmp_path))
        model = tmp_path / "mobile.eig"
        model.write_bytes(model.read_bytes().replace(b"object mobile\n", b"object widget\n", 1))
        with pytest.raises(CorruptField):
            ObjectRegistry.load_dir(str(tmp_path))

    @pytest.mark.parametrize(
        "old, new, match",
        [
            (b"policy auto 1.5", b"policy abc 1.5", "policy"),
            (b"policy auto 1.5", b"policy -1 1.5", "policy"),
            (b"policy auto 1.5", b"policy auto 0.5", "policy"),
            (b"policy auto 1.5", b"policy auto nan", "policy"),
            (b"policy auto 1.5", b"policy auto inf", "policy"),
            (b"policy auto 1.5", b"policy inf 1.5", "policy"),
            (b"policy auto 1.5", b"policy auto 1_5", "policy"),
            (b"policy auto 1.5", "policy auto \u0661.\u0665".encode(), "policy"),
            (b"policy auto 1.5", b"policy 0.3 1.5", "policy"),
            (b"object stapler", b"object ghost", "ghost"),
            (b"object stapler", b"object stapler\xff", "manifest"),
            (b"policy auto 1.5", b"policy  auto 1.5", "policy"),
            (b"policy auto 1.5", b"policy auto 1.5 ", "policy"),
            (b"1\npolicy auto 1.5\nobject mobile\nobject stapler\nEND\n",
             b"1\r\npolicy auto 1.5\r\nobject mobile\r\nobject stapler\r\nEND\r\n", "line 1"),
            (b"END\n", b"END\nobject ghost\n", "line 6"),
            (b"END\n", b"END", "line 6"),
        ],
        ids=["abc", "negative", "margin-below-1", "nan-margin", "inf-margin", "inf-threshold",
             "underscore-margin", "arabic-indic-margin", "short-threshold", "missing-model",
             "not-utf8", "two-space-policy", "trailing-space-policy", "crlf", "line-after-end",
             "no-final-newline"],
    )
    def test_load_rejects_bad_manifest(self, tmp_path, old, new, match):
        build_registry(objects=["mobile", "stapler"]).save_dir(str(tmp_path))
        manifest = tmp_path / "registry.manifest"
        manifest.write_bytes(manifest.read_bytes().replace(old, new, 1))
        with pytest.raises(CorruptField, match=match):
            ObjectRegistry.load_dir(str(tmp_path))

    def test_load_rejects_manifold_too_wide_for_a_finite_threshold(self, tmp_path):
        build_registry(objects=["mobile", "stapler"]).save_dir(str(tmp_path))
        model = tmp_path / "stapler.eig"
        lines = model.read_text().split("\n")
        i = next(i for i, line in enumerate(lines) if line.startswith("point "))
        fields = lines[i].split(" ")
        lines[i] = " ".join(fields[:3] + ["1e200"] * (len(fields) - 3))
        model.write_text("\n".join(lines))
        with pytest.raises(CorruptField, match="stapler"):
            ObjectRegistry.load_dir(str(tmp_path))

    @pytest.mark.parametrize(
        "failing_write",
        ["mobile.eig", "mobile.f8", "widget.eig", "widget.f8", "registry.manifest"],
        ids=["old-model", "old-sidecar", "new-model", "new-sidecar", "manifest"],
    )
    def test_failed_save_leaves_old_registry_loadable(self, tmp_path, monkeypatch, failing_write):
        reg = build_registry(objects=["mobile", "stapler"])
        reg.save_dir(str(tmp_path))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        reg.accumulate("widget", training_appearances("widget"), eg.EigenspaceConfig())

        real_open = open
        failed = []

        class HalfWritten:
            """A file whose write stores half its data, then fails."""

            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                self.f.write(data[: len(data) // 2])
                raise OSError("no space left on device")

        def failing_open(path, mode="r", *args, **kwargs):
            f = real_open(path, mode, *args, **kwargs)
            if os.path.basename(path) != failing_write + ".tmp":
                return f
            failed.append(path)
            return HalfWritten(f)

        monkeypatch.setattr(registry_module, "open", failing_open, raising=False)
        with pytest.raises(OSError):
            reg.save_dir(str(tmp_path))
        monkeypatch.undo()
        assert len(failed) == 1

        loaded = ObjectRegistry.load_dir(str(tmp_path))
        assert [es.object_id for es in loaded.spaces] == ["mobile", "stapler"]
        for got, want in zip(loaded.spaces, reg.spaces):
            assert eg.save_model(got) == eg.save_model(want)
        after = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        widget = eg.save_model(reg.find("widget"))
        if failing_write in ("widget.f8", "registry.manifest"):
            # the new model landed; the manifest does not list it
            assert after.pop("widget.eig") == widget
        if failing_write == "registry.manifest":
            assert after.pop("widget.f8") == eg.save_sidecar(reg.find("widget"), widget)
        assert after == before

    def test_layout(self, tmp_path):
        reg = build_registry()
        reg.save_dir(str(tmp_path))
        names = sorted(p.name for p in tmp_path.iterdir())
        assert "registry.manifest" in names
        assert "mobile.eig" in names and "mobile.f8" in names
        assert sum(name.endswith(".eig") for name in names) == 4
        assert sum(name.endswith(".f8") for name in names) == 4
        assert len(names) == 9


def count_renders(monkeypatch) -> list:
    """The ids of the spaces save_dir renders with save_model, in call order."""
    rendered = []

    def counting(es):
        rendered.append(es.object_id)
        return eg.save_model(es)

    monkeypatch.setattr(registry_module, "save_model", counting)
    return rendered


def flip_byte(path, after: bytes):
    """Flip the low bit of the byte that follows the first `after` in path."""
    data = bytearray(path.read_bytes())
    data[data.index(after) + len(after)] ^= 1
    path.write_bytes(data)


def registry_of(object_id, views_of):
    """A registry holding one space, object_id, built from the views of views_of."""
    reg = ObjectRegistry()
    reg.accumulate(object_id, training_appearances(views_of), eg.EigenspaceConfig())
    return reg


def toy_registry(mean0=0.0, occluded=False, tau=0.95):
    """A registry of one hand-built space, whose mean starts with mean0 (0.0
    or -0.0 spell differently), whose first view is or is not occluded, and
    whose config has energy threshold tau."""
    es = eg.Eigenspace(
        "toy", np.array([mean0, 0.25, 0.5]), np.array([1.0]), np.array([[1.0, 0.0, 0.0]]),
        eg.EigenspaceConfig(energy_threshold=tau), np.array([[0.5], [1.0]]),
        (eg.ViewLabel("toy", 0, occluded), eg.ViewLabel("toy", 10)),
    )
    reg = ObjectRegistry()
    reg._append(es)
    return reg


class TestResave:
    def test_resave_renders_only_the_new_model(self, tmp_path, monkeypatch):
        build_registry(objects=["mobile", "stapler"]).save_dir(str(tmp_path))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        reg = ObjectRegistry.load_dir(str(tmp_path))
        reg.accumulate("widget", training_appearances("widget"), eg.EigenspaceConfig())
        rendered = count_renders(monkeypatch)
        reg.save_dir(str(tmp_path))
        assert rendered == ["widget"]
        for name in ("mobile.eig", "mobile.f8", "stapler.eig", "stapler.f8"):
            assert (tmp_path / name).read_bytes() == before[name], name
        for es in reg.spaces:
            assert (tmp_path / f"{es.object_id}.eig").read_bytes() == eg.save_model(es)

    @pytest.mark.parametrize(
        "damage, reused",
        [
            (lambda eig, f8: flip_byte(eig, b"dim "), False),
            (lambda eig, f8: flip_byte(eig, b"mean "), False),
            (lambda eig, f8: f8.unlink(), True),
            (lambda eig, f8: flip_byte(f8, b""), True),
            # the digest of the sidecar written for another .eig text
            (lambda eig, f8: f8.write_bytes(
                eg.save_sidecar(eg.load_model(eig.read_bytes()), b"EIGENGAZE 1\n")), True),
        ],
        ids=["damaged-header", "damaged-float", "no-sidecar", "damaged-sidecar", "stale-sidecar"],
    )
    def test_save_repairs_the_target_model(self, tmp_path, monkeypatch, damage, reused):
        """A damaged .eig is rendered again. Beside a missing, damaged or stale
        sidecar the .eig still loads, from its text, as the space: its bytes
        are kept and the sidecar is written again."""
        reg = build_registry(objects=["mobile", "stapler"])
        reg.save_dir(str(tmp_path))
        eig, f8 = tmp_path / "mobile.eig", tmp_path / "mobile.f8"
        damage(eig, f8)
        rendered = count_renders(monkeypatch)
        reg.save_dir(str(tmp_path))
        assert rendered == ([] if reused else ["mobile"])
        es = reg.find("mobile")
        assert eig.read_bytes() == eg.save_model(es)
        assert f8.read_bytes() == eg.save_sidecar(es, eg.save_model(es))
        assert_same_space(ObjectRegistry.load_dir(str(tmp_path)).find("mobile"), es)

    @pytest.mark.parametrize(
        "held, saved",
        [
            (lambda: registry_of("mobile", "mobile"), lambda: registry_of("mobile", "stapler")),
            (toy_registry, lambda: toy_registry(mean0=-0.0)),
            (lambda: toy_registry(mean0=-0.0), toy_registry),
            (lambda: toy_registry(occluded=True), toy_registry),
            (lambda: toy_registry(tau=0.9), toy_registry),
        ],
        ids=["another-registry", "zero-to-minus-zero", "minus-zero-to-zero", "another-label",
             "another-config"],
    )
    def test_another_space_under_the_same_id_is_rendered(self, tmp_path, monkeypatch, held, saved):
        held().save_dir(str(tmp_path))
        reg = saved()
        rendered = count_renders(monkeypatch)
        reg.save_dir(str(tmp_path))
        (es,) = reg.spaces
        assert rendered == [es.object_id]
        assert (tmp_path / f"{es.object_id}.eig").read_bytes() == eg.save_model(es)


class TestSidecar:
    @pytest.mark.parametrize(
        "config",
        [
            eg.EigenspaceConfig(),
            eg.EigenspaceConfig(centered=False),
            eg.EigenspaceConfig(norm_mode="raw"),
            eg.EigenspaceConfig(centered=False, norm_mode="raw"),
            eg.EigenspaceConfig(k_override=3),
        ],
        ids=["centered-unit", "uncentered-unit", "centered-raw", "uncentered-raw", "k-3"],
    )
    def test_sidecars_load_what_the_text_loads(self, tmp_path, config):
        reg = build_registry(config=config)
        reg.save_dir(str(tmp_path))
        with_sidecars = ObjectRegistry.load_dir(str(tmp_path))
        texts = {es.object_id: (tmp_path / f"{es.object_id}.eig").read_bytes() for es in reg.spaces}
        for es in reg.spaces:
            (tmp_path / f"{es.object_id}.f8").unlink()
        text_only = ObjectRegistry.load_dir(str(tmp_path))
        for a, b, built in zip(with_sidecars.spaces, text_only.spaces, reg.spaces):
            assert_same_space(a, b)
            assert_same_space(a, eg.load_model(texts[a.object_id]))
            assert_same_space(a, built)
        assert with_sidecars.effective_threshold() == text_only.effective_threshold()

    def test_edited_model_loads_its_text_value(self, tmp_path):
        reg = build_registry(objects=["mobile", "stapler"])
        reg.save_dir(str(tmp_path))
        model = tmp_path / "stapler.eig"
        lines = model.read_text().split("\n")
        mean = lines[5].split(" ")
        mean[3] = "0.5"
        lines[5] = " ".join(mean)
        model.write_text("\n".join(lines))
        loaded = ObjectRegistry.load_dir(str(tmp_path))
        assert loaded.find("stapler").mean[2] == 0.5
        assert_same_space(loaded.find("stapler"), eg.load_model(model.read_bytes()))
        assert_same_space(loaded.find("mobile"), reg.find("mobile"))

    def test_unreadable_sidecar_falls_back_to_the_text(self, tmp_path):
        reg = build_registry(objects=["mobile"])
        reg.save_dir(str(tmp_path))
        (tmp_path / "mobile.f8").unlink()
        (tmp_path / "mobile.f8").mkdir()
        assert_same_space(ObjectRegistry.load_dir(str(tmp_path)).find("mobile"), reg.find("mobile"))
