import copy
import math
import os
import shutil
from importlib.util import find_spec
from threading import Event, Thread

import numpy as np
import pytest

import eigengaze as eg
from eigengaze.errors import (
    CorruptField,
    DimensionMismatch,
    DuplicateObject,
    EmptyRegistry,
    InsufficientData,
    InvalidObjectId,
)
from eigengaze import eigenspace as eigenspace_module
from eigengaze import recog
from eigengaze import registry as registry_module
from dataclasses import replace

from eigengaze.registry import (
    AUTO,
    MANIFEST_NAME,
    EnrollmentPolicy,
    ObjectRegistry,
    render_manifest,
)

from conftest import (
    assert_cut_by_its_tau,
    assert_same_space,
    build_registry,
    held_files,
    project,
    query_set,
    training_appearances,
)


def unit_vec(values, label=eg.ViewLabel("", 0)):
    values = np.asarray(values, dtype=np.float64)
    return eg.AppearanceVector(values / np.linalg.norm(values), label)


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
        es = reg.accumulate("A", training_appearances("A"), eg.EigenspaceConfig())
        with pytest.raises(DuplicateObject, match="^object 'A' already enrolled$"):
            reg.accumulate("A", training_appearances("A"), eg.EigenspaceConfig())
        assert reg.spaces == (es,)

    @pytest.mark.parametrize("side", [16], ids=["dim"])
    def test_space_of_another_dim_or_norm_mode_is_rejected(self, side):
        """Only the dim can differ: every view is unit-normalized."""
        reg = build_registry(objects=["A"])
        with pytest.raises(DimensionMismatch):
            reg.accumulate("B", training_appearances("B", side=side), eg.EigenspaceConfig())
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

    @pytest.mark.parametrize("tau", [0.5, 0.9, 0.95, 1.0])
    def test_every_space_is_cut_by_its_tau(self, tmp_path, tau):
        """Every space that build_eigenspace, accumulate, classify_or_enroll
        and load_dir give keeps the k that its recorded energy threshold picks
        from its views, so its model file says how it was cut."""
        config = eg.EigenspaceConfig(tau)
        views = {obj: training_appearances(obj) for obj in ["key-holder", "pencil-box", "stapler"]}
        reg = ObjectRegistry(EnrollmentPolicy(1e-6))
        for obj in ["key-holder", "pencil-box"]:
            assert_cut_by_its_tau(eg.build_eigenspace(obj, views[obj], config), views[obj])
            assert_cut_by_its_tau(reg.accumulate(obj, views[obj], config), views[obj])
        query = eg.vectorize(eg.synth_view("stapler", 45, 32, 1))
        name = reg.classify_or_enroll(query, pending_views=views["stapler"]).enrolled_id
        views[name] = views.pop("stapler")
        reg.save_dir(str(tmp_path))
        spaces = reg.spaces + ObjectRegistry.load_dir(str(tmp_path)).spaces
        assert [es.object_id for es in spaces] == 2 * ["key-holder", "pencil-box", name]
        for es in spaces:
            assert_cut_by_its_tau(es, views[es.object_id])

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
        clone.accumulate("B", wide, eg.EigenspaceConfig())
        assert clone.spaces[1].spread > reg.snapshot.spread
        assert reg.spaces is before
        assert reg.snapshot is snapshot and reg.effective_threshold() == threshold
        assert [es.object_id for es in reg.spaces] == ["A"]
        assert [es.object_id for es in clone.spaces] == ["A", "B"]
        assert clone.spaces[0] is before[0]
        assert clone.effective_threshold() == clone.policy.auto_margin * clone.spaces[1].spread

    def test_a_snapshot_admits_each_id_once(self):
        (es,) = build_registry(objects=["A"]).spaces
        with pytest.raises(DuplicateObject, match="^object 'A' already enrolled$"):
            recog.Snapshot((es, es))

    def test_a_snapshot_admits_one_dim(self):
        (wide,) = build_registry(objects=["A"]).spaces
        narrow = eg.build_eigenspace("B", training_appearances("B", side=16), eg.EigenspaceConfig())
        with pytest.raises(DimensionMismatch):
            recog.Snapshot((wide, narrow))

    def test_an_empty_snapshot_derives_nothing(self):
        assert vars(recog.Snapshot()) == {"spaces": (), "spread": None,
                                          "means": None, "coords": None}

    @pytest.fixture
    def built(self, monkeypatch):
        """The ids of each snapshot built from here on, one tuple a snapshot."""
        built = []

        class Spy(recog.Snapshot):
            def __init__(self, spaces=()):
                built.append(tuple(es.object_id for es in spaces))
                super().__init__(spaces)

        monkeypatch.setattr(recog, "Snapshot", Spy)
        return built

    def test_a_load_builds_one_snapshot_and_an_enrollment_two(self, tmp_path, built):
        build_registry(objects=["A", "B", "C"]).save_dir(str(tmp_path))
        built.clear()
        ObjectRegistry.load_dir(str(tmp_path))
        assert built == [("A", "B", "C")]
        built.clear()
        ObjectRegistry.enroll_dir(str(tmp_path), "D", training_appearances("D"),
                                  eg.EigenspaceConfig())
        assert built == [("A", "B", "C"), ("A", "B", "C", "D")]

    def test_reads_leave_the_snapshot_as_its_mutation_built_it(self):
        reg = build_registry(objects=["A"])
        reg.accumulate("B", training_appearances("B"), eg.EigenspaceConfig())
        snap = reg.snapshot
        attributes = dict(vars(snap))
        arrays = {name: value.copy() for name, value in attributes.items()
                  if isinstance(value, np.ndarray)}
        v = training_appearances("A")[0]
        reg.decide(v)
        recog.recognize(reg, v)
        recog.evaluate(reg, query_set(objects=["A", "B"]))
        assert reg.snapshot is snap
        assert vars(snap).keys() == attributes.keys()
        assert all(vars(snap)[name] is value for name, value in attributes.items())
        assert all(np.array_equal(vars(snap)[name], a) for name, a in arrays.items())


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
        # a centred build of one view is degenerate, so the one-point space is made by hand
        reg = ObjectRegistry(EnrollmentPolicy(AUTO))
        reg._append(eg.Eigenspace("x", np.zeros(2), np.ones(1), np.eye(2)[:1],
                                  eg.EigenspaceConfig(), np.zeros((1, 1)), (eg.ViewLabel("x", 0),)))
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
    def test_decide_is_recognize_against_threshold(self, four_object_registry):
        reg = four_object_registry
        for v, _ in query_set()[::4]:
            decision = reg.decide(v)
            assert decision.result == eg.recognize(reg, v)
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
        query = eg.vectorize(eg.synth_view("widget", 45, 32, 1))
        decision = reg.classify_or_enroll(query, pending_views=pending)
        assert not decision.known
        assert decision.enrolled_id == "object-5"
        assert reg.find("object-5") is not None
        assert len(reg.spaces) == 5

    def test_enrolled_space_reloads_unchanged(self):
        reg = build_registry(policy=EnrollmentPolicy(1e-6), objects=["mobile"])
        query = eg.vectorize(eg.synth_view("widget", 45, 32, 1))
        # the pending views are labelled "widget", the space is named object-2
        decision = reg.classify_or_enroll(query, pending_views=training_appearances("widget"))
        es = reg.find(decision.enrolled_id)
        assert {label.object_id for label in es.labels} == {"object-2"}
        assert_same_space(eg.load_model(eg.save_model(es)), es)

    def test_unknown_without_views_does_not_enroll(self):
        reg = build_registry(policy=EnrollmentPolicy(1e-6))
        query = eg.vectorize(eg.synth_view("widget", 45, 32, 1))
        decision = reg.classify_or_enroll(query)
        assert not decision.known
        assert decision.enrolled_id is None
        assert len(reg.spaces) == 4

    def test_auto_name_skips_taken_names(self):
        reg = build_registry(policy=EnrollmentPolicy(1e-6), objects=["object-2"])
        query = eg.vectorize(eg.synth_view("widget", 45, 32, 1))
        decision = reg.classify_or_enroll(query, pending_views=training_appearances("widget"))
        assert decision.enrolled_id == "object-3"
        assert [es.object_id for es in reg.spaces] == ["object-2", "object-3"]

    @pytest.mark.parametrize(
        "config",
        [eg.EigenspaceConfig(), eg.EigenspaceConfig(energy_threshold=0.9)],
        ids=["default", "tau-0.9"],
    )
    def test_reloaded_registry_enrolls_like_the_original(self, tmp_path, config):
        pending = training_appearances("widget")
        query = eg.vectorize(eg.synth_view("widget", 45, 32, 1))
        reg = build_registry(config=config, policy=EnrollmentPolicy(1e-6))
        path = str(tmp_path / "reg")
        reg.save_dir(path)
        loaded = ObjectRegistry.load_dir(path)
        for r in (reg, loaded):
            assert r.classify_or_enroll(query, pending_views=pending).enrolled_id == "object-5"
        want, got = reg.find("object-5"), loaded.find("object-5")
        # the first space's config, as a reload gives it: what accumulate builds from config
        assert want.config == got.config == reg.spaces[0].config == config
        direct = eg.build_eigenspace("object-5", pending, config)
        assert eg.save_model(got) == eg.save_model(want) == eg.save_model(direct)
        reg.save_dir(path + "-enrolled")
        assert ObjectRegistry.load_dir(path + "-enrolled").find("object-5").config == config

    def test_empty_registry_without_views(self):
        reg = ObjectRegistry()
        query = eg.vectorize(eg.synth_view("A", 0, 32, 1))
        with pytest.raises(EmptyRegistry, match="no enrolled objects"):
            reg.classify_or_enroll(query)

    def test_empty_registry_enrolls_pending(self):
        reg = ObjectRegistry()
        query = eg.vectorize(eg.synth_view("A", 0, 32, 1))
        decision = reg.classify_or_enroll(query, pending_views=training_appearances("A"))
        assert not decision.known
        assert decision.enrolled_id == "object-1"
        assert len(reg.spaces) == 1


class TestReadsDuringMutations:
    def test_decide_does_not_wait_for_a_build(self, monkeypatch):
        """accumulate builds outside the registry's lock, so a decide made
        while a build is held returns at once, against the spaces before it."""
        reg = build_registry(objects=["A", "B"])
        build, building, release = registry_module.build_eigenspace, Event(), Event()

        def held_build(*args):
            building.set()
            release.wait(60)
            return build(*args)

        monkeypatch.setattr(registry_module, "build_eigenspace", held_build)
        decided = []
        threads = [
            Thread(target=reg.accumulate,
                   args=("C", training_appearances("C"), eg.EigenspaceConfig())),
            Thread(target=lambda: decided.append(reg.decide(training_appearances("A")[3]))),
        ]
        try:
            threads[0].start()
            assert building.wait(60)
            threads[1].start()
            threads[1].join(1.0)
            assert not threads[1].is_alive(), "decide waited for the build"
        finally:
            release.set()
            for thread in threads:
                thread.join(60)
        assert not any(thread.is_alive() for thread in threads)
        (decision,) = decided
        assert [o for o, _ in decision.result.ranked_candidates] == ["A", "B"]
        assert [es.object_id for es in reg.spaces] == ["A", "B", "C"]

    def test_a_decision_scores_and_thresholds_one_snapshot(self, monkeypatch):
        """An enrollment that lands between decide's score and its threshold,
        of a space wider than any before it, cannot pair the old score with
        the new threshold: the threshold is the margin times the widest
        spread of the spaces the result ranks."""
        reg = build_registry(objects=["A"])
        wide = [unit_vec([1.0, 0.0] * 512), unit_vec([0.0, 1.0] * 512, eg.ViewLabel("", 90))]
        recognize, writers = recog.recognize, []

        def recognize_then_enroll(*args):
            result = recognize(*args)
            if not writers:
                writers.append(Thread(target=reg.accumulate,
                                      args=("wide", wide, eg.EigenspaceConfig())))
                writers[0].start()
                writers[0].join(1.0)  # at most 1 s for the enrollment to land
            return result

        monkeypatch.setattr(recog, "recognize", recognize_then_enroll)
        try:
            decision = reg.decide(training_appearances("A")[3])
        finally:
            for writer in writers:
                writer.join(60)
        assert [es.object_id for es in reg.spaces] == ["A", "wide"]
        ranked = {object_id for object_id, _ in decision.result.ranked_candidates}
        scored = [es for es in reg.spaces if es.object_id in ranked]
        assert decision.threshold == reg.policy.auto_margin * spread_of(scored)


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
        """A save creates a registry, so one that fails leaves what its
        directory held, no registry: the empty directory stays empty, with no
        `.tmp`, and a retry commits. The "old" cases fail on a file of a space
        held before widget was accumulated."""
        reg = build_registry(objects=["mobile", "stapler"])
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
            # each write's temporary file is <target>.<random hex>.tmp
            name = os.path.basename(path)
            if not (name.startswith(failing_write + ".") and name.endswith(".tmp")):
                return f
            failed.append(path)
            return HalfWritten(f)

        monkeypatch.setattr(registry_module, "open", failing_open, raising=False)
        with pytest.raises(OSError) as info:
            reg.save_dir(str(tmp_path))
        monkeypatch.undo()
        assert len(failed) == 1 and info.type is OSError
        # nothing is renamed until every file is staged, and no .tmp is left
        assert list(tmp_path.iterdir()) == []

        reg.save_dir(str(tmp_path))
        loaded = ObjectRegistry.load_dir(str(tmp_path))
        assert [es.object_id for es in loaded.spaces] == ["mobile", "stapler", "widget"]
        for got, want in zip(loaded.spaces, reg.spaces):
            assert eg.save_model(got) == eg.save_model(want)

    def test_a_second_writer_mid_write_leaves_one_whole_file(self, tmp_path, monkeypatch):
        target = str(tmp_path / "registry.manifest")
        first, second = b"1" * 10, b"2" * 100
        real_open = open

        class Interrupted:
            """The first writer's file: before its bytes land, a second writer
            writes the same target whole."""

            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                monkeypatch.setattr(registry_module, "open", real_open, raising=False)
                commit(second)
                self.f.write(data)

        def commit(data):
            with registry_module._staging() as staged:
                registry_module._stage(staged, target, data)

        monkeypatch.setattr(registry_module, "open",
                            lambda *args: Interrupted(real_open(*args)), raising=False)
        commit(first)
        # the first writer renames last, so its bytes are the target's, whole
        assert os.listdir(tmp_path) == ["registry.manifest"]
        assert (tmp_path / "registry.manifest").read_bytes() == first

    @pytest.mark.skipif(find_spec("fcntl") is None, reason="no flock on this platform")
    def test_a_save_waits_for_an_enrollment_in_progress(self, tmp_path, monkeypatch):
        """An enroll_dir holds the directory's lock through its build, so a
        save_dir into the same directory waits for it, then finds the
        enrollment's manifest and raises FileExistsError."""
        reg = build_registry(objects=["mobile", "stapler"])
        path = str(tmp_path / "reg")
        build, building, release = registry_module.build_eigenspace, Event(), Event()

        def held_build(*args):
            building.set()
            release.wait(60)
            return build(*args)

        def save():
            try:
                reg.save_dir(path)
            except FileExistsError as exc:
                errors.append(exc)

        monkeypatch.setattr(registry_module, "build_eigenspace", held_build)
        widget, errors = training_appearances("widget"), []
        threads = [
            Thread(target=ObjectRegistry.enroll_dir,
                   args=(path, "widget", widget, eg.EigenspaceConfig())),
            Thread(target=save),
        ]
        try:
            threads[0].start()
            assert building.wait(60)
            threads[1].start()
            threads[1].join(0.5)
            assert threads[1].is_alive()
        finally:
            release.set()
            for thread in threads:
                thread.join(60)
        assert not any(thread.is_alive() for thread in threads)
        manifest = tmp_path / "reg" / MANIFEST_NAME
        assert [str(exc) for exc in errors] == [f"a registry is already committed: {manifest}"]
        assert sorted(p.name for p in manifest.parent.iterdir()) == [
            MANIFEST_NAME, "widget.eig", "widget.f8"]
        assert manifest.read_bytes() == render_manifest(EnrollmentPolicy(), ["widget"]).encode()
        (got,) = ObjectRegistry.load_dir(path).spaces
        assert_same_space(got, eg.build_eigenspace("widget", widget, eg.EigenspaceConfig()))

    def test_a_failed_first_save_makes_no_directory(self, tmp_path, monkeypatch):
        reg, stage = build_registry(objects=["mobile"]), registry_module._stage

        def failing_stage(staged, target, data):
            stage(staged, target, data)
            if target.endswith(MANIFEST_NAME):
                raise OSError("no space left on device")

        monkeypatch.setattr(registry_module, "_stage", failing_stage)
        with pytest.raises(OSError):
            reg.save_dir(str(tmp_path / "new" / "reg"))
        assert list(tmp_path.iterdir()) == []

    def test_without_flock_both_writers_commit_the_same_bytes(self, tmp_path, monkeypatch):
        """Where fcntl does not exist the writers take no lock, and write the
        files they write with it."""
        reg = build_registry(objects=["mobile", "stapler"])
        widget = training_appearances("widget")
        trees = []
        for fcntl in (registry_module.fcntl, None):
            monkeypatch.setattr(registry_module, "fcntl", fcntl)
            path = tmp_path / f"reg-{len(trees)}"
            reg.save_dir(str(path))
            ObjectRegistry.enroll_dir(str(path), "widget", widget, eg.EigenspaceConfig())
            trees.append({p.name: p.read_bytes() for p in path.iterdir()})
        assert trees[0] == trees[1]
        assert sorted(trees[1]) == ["mobile.eig", "mobile.f8", MANIFEST_NAME, "stapler.eig",
                                    "stapler.f8", "widget.eig", "widget.f8"]

    def test_layout(self, tmp_path):
        reg = build_registry()
        reg.save_dir(str(tmp_path))
        names = sorted(p.name for p in tmp_path.iterdir())
        assert "registry.manifest" in names
        assert "mobile.eig" in names and "mobile.f8" in names
        assert sum(name.endswith(".eig") for name in names) == 4
        assert sum(name.endswith(".f8") for name in names) == 4
        assert len(names) == 9


class CutRenames:
    """Stands in for os.replace: after `cut` renames the next one raises, so a
    write leaves its directory as a process killed there would, less the
    `.tmp` files of the renames it did not make."""

    def __init__(self, replace, cut):
        self.replace, self.cut, self.calls = replace, cut, 0

    def __call__(self, src, dst):
        if self.calls == self.cut:
            raise OSError(f"cut after {self.cut} renames")
        self.calls += 1
        self.replace(src, dst)


def registry_state(path):
    """What load_dir loads from directory path, as its manifest's bytes and
    each space's save_model bytes; None for a directory with no manifest."""
    if not (path / MANIFEST_NAME).exists():
        return None
    spaces = ObjectRegistry.load_dir(str(path)).spaces
    return (path / MANIFEST_NAME).read_bytes(), [eg.save_model(es) for es in spaces]


def state_of(reg):
    """registry_state of the directory a save of reg writes."""
    manifest = render_manifest(reg.policy, [es.object_id for es in reg.spaces])
    return manifest.encode(), [eg.save_model(es) for es in reg.spaces]


def three_models(views_of=("mobile", "stapler", "key-holder")):
    """A registry of mobile, stapler and key-holder, built from the views of views_of."""
    reg = ObjectRegistry()
    for object_id, views in zip(("mobile", "stapler", "key-holder"), views_of):
        reg.accumulate(object_id, training_appearances(views), eg.EigenspaceConfig())
    return reg


class TestCrashCuts:
    """A write cut after any number of its renames leaves the old registry
    or the new one; for a first save, no registry counts as the old one."""

    def cut_writes(self, tmp_path, monkeypatch, old_dir, write, new):
        """Run write on a copy of old_dir cut after j renames, for every j up to
        the count an uncut write makes, and check each cut; return each
        copy, the renames made in it and the error write raised there."""
        old, replace = registry_state(old_dir), os.replace

        def run(cut):
            path = tmp_path / f"cut-{cut}"
            shutil.copytree(old_dir, path)
            stub, error = CutRenames(replace, cut), None
            monkeypatch.setattr(registry_module.os, "replace", stub)
            try:
                write(str(path))
            except OSError as exc:
                error = exc
            finally:
                monkeypatch.setattr(registry_module.os, "replace", replace)
            assert registry_state(path) in (old, new), f"cut after {cut} renames"
            assert not list(path.glob("*.tmp"))
            return path, stub.calls, error

        renames = run(math.inf)[1]
        return [run(cut) for cut in range(renames + 1)]

    @pytest.mark.parametrize("stored, policy", [(False, {}), (True, {}),
                                                (True, {"unknown_threshold": 0.5})],
                             ids=["empty", "three-models", "three-models-new-policy"])
    def test_enroll_dir(self, tmp_path, monkeypatch, stored, policy):
        old_dir, reg = tmp_path / "old", three_models() if stored else ObjectRegistry()
        old_dir.mkdir()
        if stored:
            reg.save_dir(str(old_dir))
        views, config = training_appearances("widget"), eg.EigenspaceConfig()
        reg.accumulate("widget", views, config)
        reg.policy = replace(reg.policy, **policy)
        write = lambda path: ObjectRegistry.enroll_dir(path, "widget", views, config, **policy)
        cuts = self.cut_writes(tmp_path, monkeypatch, old_dir, write, state_of(reg))
        assert len(cuts) == 1 + 2 * len(reg.spaces) + 1
        assert [error is None for *_, error in cuts] == [False] * (len(cuts) - 1) + [True]
        # the registry is the new one exactly once the manifest is renamed
        assert registry_state(cuts[-2][0]) == registry_state(old_dir)
        assert registry_state(cuts[-1][0]) == state_of(reg)

    def test_save_dir_into_an_empty_directory_then_a_retry(self, tmp_path, monkeypatch):
        old_dir, reg = tmp_path / "old", three_models()
        old_dir.mkdir()
        cuts = self.cut_writes(tmp_path, monkeypatch, old_dir, reg.save_dir, state_of(reg))
        assert [error is None for *_, error in cuts] == [False] * 7 + [True]
        for path, _, error in cuts[:-1]:
            # a cut leaves models but no manifest, so a retry commits
            assert registry_state(path) is None
            reg.save_dir(str(path))
            assert registry_state(path) == state_of(reg)

    def test_save_dir_over_a_committed_registry_changes_nothing(self, tmp_path, monkeypatch):
        """The same ids, built from other views: mixing the two would load as
        neither, so save_dir refuses the directory before staging any file."""
        old_dir, other = tmp_path / "old", three_models(("stapler", "key-holder", "mobile"))
        three_models().save_dir(str(old_dir))
        before = held_files(old_dir)
        cuts = self.cut_writes(tmp_path, monkeypatch, old_dir, other.save_dir, state_of(other))
        ((path, renames, error),) = cuts
        assert renames == 0 and isinstance(error, FileExistsError)
        assert str(error) == f"a registry is already committed: {path / MANIFEST_NAME}"
        # each cut ran on a copy, so the inodes are checked on the saved directory
        with pytest.raises(FileExistsError):
            other.save_dir(str(old_dir))
        assert held_files(old_dir) == before


def count_renders(monkeypatch) -> list:
    """The ids of the spaces save_dir renders with save_model, in call order."""
    rendered = []

    def counting(es):
        rendered.append(es.object_id)
        return eg.save_model(es)

    monkeypatch.setattr(registry_module, "save_model", counting)
    return rendered


class TestResave:
    """A loaded registry saved again, into a new directory."""

    def test_resave_renders_every_model_and_keeps_each_files_bytes(self, tmp_path, monkeypatch):
        build_registry(objects=["mobile", "stapler"]).save_dir(str(tmp_path / "a"))
        before = {p.name: p.read_bytes() for p in (tmp_path / "a").iterdir()}
        reg = ObjectRegistry.load_dir(str(tmp_path / "a"))
        reg.accumulate("widget", training_appearances("widget"), eg.EigenspaceConfig())
        rendered = count_renders(monkeypatch)
        reg.save_dir(str(tmp_path / "b"))
        assert rendered == ["mobile", "stapler", "widget"]
        for name in ("mobile.eig", "mobile.f8", "stapler.eig", "stapler.f8"):
            assert (tmp_path / "b" / name).read_bytes() == before[name], name
        for es in reg.spaces:
            assert (tmp_path / "b" / f"{es.object_id}.eig").read_bytes() == eg.save_model(es)

    def test_a_learn_loads_each_stored_model_once_and_hashes_it_twice(self, tmp_path, monkeypatch):
        """load_dir, accumulate and save_dir over sidecars that match: load_dir
        loads and hashes each stored model, and save_dir hashes it once more to
        write its sidecar, with no second load; the new model is hashed once."""
        build_registry(objects=["mobile", "stapler"]).save_dir(str(tmp_path / "a"))
        before = {p.name: p.read_bytes() for p in (tmp_path / "a").iterdir()}
        loaded, hashed = [], []
        load, digest = registry_module.load_model, eigenspace_module._sidecar_digest
        monkeypatch.setattr(registry_module, "load_model",
                            lambda data, sidecar=None: loaded.append(data) or load(data, sidecar))
        monkeypatch.setattr(eigenspace_module, "_sidecar_digest",
                            lambda data, block: hashed.append(bytes(data)) or digest(data, block))
        reg = ObjectRegistry.load_dir(str(tmp_path / "a"))
        reg.accumulate("widget", training_appearances("widget"), eg.EigenspaceConfig())
        reg.save_dir(str(tmp_path / "b"))
        stored = [before["mobile.eig"], before["stapler.eig"]]
        assert loaded == stored
        assert hashed == stored + stored + [eg.save_model(reg.find("widget"))]
        for name, data in before.items():
            if name != "registry.manifest":
                assert (tmp_path / "b" / name).read_bytes() == data, name


class TestSidecar:
    @pytest.mark.parametrize(
        "config, tau",
        [("1 unit", None), ("0 unit", None), ("1 raw", None), ("0 raw", None), ("1 unit", 0.9)],
        ids=["centered-unit", "uncentered-unit", "centered-raw", "uncentered-raw", "k-3"],
    )
    def test_sidecars_load_what_the_text_loads(self, tmp_path, config, tau):
        """The `config` line's centring and norm fields: a centred, unit model
        loads alike from its sidecar and from its text, whatever its k. A model
        of a removed mode, beside a sidecar made for its bytes, loads from
        neither."""
        if tau is None:
            reg = build_registry()
        else:  # the two objects that 0.9 cuts at k = 3
            reg = build_registry(config=eg.EigenspaceConfig(tau), objects=["mobile", "stapler"])
            assert [es.k for es in reg.spaces] == [3, 3]
        reg.save_dir(str(tmp_path))
        if config != "1 unit":
            for es in reg.spaces:
                eig = tmp_path / f"{es.object_id}.eig"
                data = eig.read_bytes().replace(b"\nconfig 1 unit ", f"\nconfig {config} ".encode())
                eig.write_bytes(data)
                (tmp_path / f"{es.object_id}.f8").write_bytes(
                    eigenspace_module.save_sidecar(es, data))
            with pytest.raises(CorruptField, match="model file line 5 "):
                ObjectRegistry.load_dir(str(tmp_path))
            for es in reg.spaces:
                (tmp_path / f"{es.object_id}.f8").unlink()
            with pytest.raises(CorruptField, match="model file line 5 "):
                ObjectRegistry.load_dir(str(tmp_path))
            return
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
