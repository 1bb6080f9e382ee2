"""The registry lifecycle as a state machine: any sequence of enrolments,
policy changes, saves into a new directory, enrolments into the directory,
failed saves and enrolments, reloads and damage leaves a directory that loads
to the last state committed to it, or, once damaged and not saved since,
refuses to load with an EigengazeError. A save into the directory itself
raises FileExistsError once it holds a registry, and changes no byte."""

import copy
import functools
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

import eigengaze as eg
from eigengaze import registry as registry_module
from eigengaze.errors import EigengazeError
from eigengaze.registry import AUTO, Decision, EnrollmentPolicy, ObjectRegistry

from conftest import assert_same_space
from test_recog import recognize_oracle

SIDE = 8
# "object-2" can also be a name classify_or_enroll picks for itself
OBJECTS = ["cup", "pen", "object-2", "key-holder"]


@functools.lru_cache(maxsize=None)
def view(obj, angle, occluded):
    image = eg.synth_view(obj, angle, SIDE, 1)
    if occluded:
        image = eg.apply_occlusion(image, eg.OcclusionSpec(1, 2, 4, 3, 0))
    return eg.vectorize(image, label=eg.ViewLabel(obj, angle, occluded))


# held-out views of every pool object, one occluded, and an object never enrolled
PROBES = [view(obj, 25, False) for obj in OBJECTS]
PROBES += [view("cup", 65, True), view("widget", 0, False)]

VIEWS = st.tuples(
    st.sampled_from(OBJECTS),
    st.lists(st.tuples(st.integers(0, 359), st.booleans()), min_size=3, max_size=6),
).map(lambda drawn: [view(drawn[0], angle, occluded) for angle, occluded in drawn[1]])


def decision(reg, v):
    """reg's Decision on v, or the type of the error it raises."""
    try:
        return reg.decide(v)
    except EigengazeError as exc:
        return type(exc)


def threshold_bits(reg):
    try:
        return reg.effective_threshold().hex()
    except EigengazeError as exc:
        return type(exc)


def assert_agrees_with_oracle(reg, v):
    """recognize scores as the per-point oracle does, within 1e-12, and picks
    its best object or one that ties with it that closely."""
    got, want = eg.recognize(reg, v), recognize_oracle(reg, v)
    scores = dict(want.ranked_candidates)
    assert sorted(scores) == sorted(obj for obj, _ in got.ranked_candidates)
    for obj, score in got.ranked_candidates:
        assert score == pytest.approx(scores[obj], abs=1e-12)
    assert scores[got.best_object] <= want.combined_score + 1e-12
    if got.best_object == want.best_object:
        assert got.best_view == want.best_view


def assert_same_registry(got, want):
    assert len(got.spaces) == len(want.spaces)
    for a, b in zip(got.spaces, want.spaces):
        assert_same_space(a, b)
    assert got.policy == want.policy
    assert threshold_bits(got) == threshold_bits(want)
    for v in PROBES:
        assert decision(got, v) == decision(want, v)
        if got.spaces:
            assert_agrees_with_oracle(got, v)


def assert_meets_invariants(reg):
    for es in reg.spaces:
        assert es.labels and all(label.object_id == es.object_id for label in es.labels)
        for values in (es.mean, es.eigenvalues, es.basis, es.coords):
            assert np.isfinite(values).all()
        assert (es.eigenvalues > 0).all() and (np.diff(es.eigenvalues) <= 0).all()
        assert np.abs(es.basis @ es.basis.T - np.eye(es.k)).max() <= 1e-6
    threshold = threshold_bits(reg)
    assert not isinstance(threshold, str) or np.isfinite(float.fromhex(threshold))
    for v in PROBES:
        d = decision(reg, v)
        assert not isinstance(d, Decision) or np.isfinite(d.result.combined_score)


def directory_bytes(path):
    """Each file's bytes by name; None where path is no directory."""
    if not os.path.isdir(path):
        return None
    return {name: Path(path, name).read_bytes() for name in os.listdir(path)}


class FailingStage:
    """Stands in for registry._stage; its call number `fail_at` raises."""

    def __init__(self, real, fail_at):
        self.real, self.fail_at, self.calls = real, fail_at, 0

    def __call__(self, staged, target, data):
        self.calls += 1
        if self.calls == self.fail_at:
            raise OSError(f"stage {self.calls} fails")
        self.real(staged, target, data)


class RegistryLifecycle(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.root = tempfile.mkdtemp(prefix="eigengaze-lifecycle-")
        self.saves = 0  # names each save's new directory
        self.dir = os.path.join(self.root, "registry")
        os.mkdir(self.dir)
        self.reg = ObjectRegistry()
        self.saved = None  # a copy of the registry as the directory last committed it
        self.damaged = False

    def teardown(self):
        shutil.rmtree(self.root)

    @initialize(enrolled=st.lists(VIEWS, max_size=3))
    def enrol(self, enrolled):
        """Start most runs with a few objects, which the rules below then grow."""
        for object_id, views in zip(OBJECTS, enrolled):
            self.accumulate(object_id, views)

    def _assert_unchanged(self, before):
        assert self.reg.spaces == before.spaces and self.reg.policy == before.policy

    @precondition(lambda self: not self.damaged)
    @rule(object_id=st.sampled_from(OBJECTS), views=VIEWS)
    def accumulate(self, object_id, views):
        before = copy.copy(self.reg)
        duplicate = self.reg.find(object_id) is not None
        try:
            es = self.reg.accumulate(object_id, views, eg.EigenspaceConfig())
        except EigengazeError:
            self._assert_unchanged(before)
            return
        assert not duplicate
        assert self.reg.spaces == before.spaces + (es,)

    @precondition(lambda self: not self.damaged)
    @rule(probe=st.sampled_from(PROBES), pending=st.none() | VIEWS)
    def classify_or_enroll(self, probe, pending):
        before = copy.copy(self.reg)
        try:
            d = self.reg.classify_or_enroll(probe, pending)
        except EigengazeError:
            self._assert_unchanged(before)
            return
        if d.enrolled_id is None:
            self._assert_unchanged(before)
        else:
            assert not d.known and pending is not None
            assert [es.object_id for es in self.reg.spaces[len(before.spaces):]] == [d.enrolled_id]

    @precondition(lambda self: not self.damaged)
    @rule(threshold=st.none() | st.floats(1e-3, 10.0), margin=st.floats(1.0, 4.0))
    def set_policy(self, threshold, margin):
        self.reg.policy = EnrollmentPolicy(AUTO if threshold is None else threshold, margin)

    def _commit(self, write, fail_at=None, path=None):
        """Run write with registry._stage's call number fail_at failing, and
        say whether it committed. A write that fails leaves every file of the
        directory it writes, path or self.dir, as it was, and no other, and
        makes no directory."""
        path = path or self.dir
        before = directory_bytes(path)
        failing = FailingStage(registry_module._stage, fail_at)
        registry_module._stage = failing
        try:
            write()
        except (OSError, EigengazeError) as exc:
            # an OSError comes only from the failing stage
            assert not isinstance(exc, OSError) or failing.calls == fail_at
            assert directory_bytes(path) == before
            return False
        finally:
            registry_module._stage = failing.real
        return True

    def _save(self, fail_at=None):
        """Save into a new directory, which becomes self.dir if the save
        commits. A save into self.dir raises once it holds a registry."""
        if self.saved is not None:
            before = directory_bytes(self.dir)
            with pytest.raises(FileExistsError):
                self.reg.save_dir(self.dir)
            assert directory_bytes(self.dir) == before
        self.saves += 1
        path = os.path.join(self.root, f"save-{self.saves}")
        if not self._commit(lambda: self.reg.save_dir(path), fail_at, path):
            return False
        self.dir, self.saved = path, copy.copy(self.reg)
        return True

    @rule()
    def save(self):
        """A save into a new directory also repairs a damaged registry: it
        renders every model."""
        assert self._save()
        self.damaged = False
        for es in self.reg.spaces:
            assert Path(self.dir, f"{es.object_id}.eig").read_bytes() == eg.save_model(es)

    @precondition(lambda self: not self.damaged)
    @rule(fail_at=st.integers(1, 16))
    def save_with_a_failing_stage(self, fail_at):
        self._save(fail_at)

    @precondition(lambda self: not self.damaged)
    @rule(object_id=st.sampled_from(OBJECTS), views=VIEWS)
    def enroll_dir(self, object_id, views):
        """Enroll into the directory as `learn` does; self.reg is untouched."""
        self.enroll_dir_with_a_failing_stage(object_id, views, None)

    @precondition(lambda self: not self.damaged)
    @rule(object_id=st.sampled_from(OBJECTS), views=VIEWS, fail_at=st.integers(1, 16))
    def enroll_dir_with_a_failing_stage(self, object_id, views, fail_at):
        expected = copy.copy(self.saved) if self.saved is not None else ObjectRegistry()
        try:
            expected.accumulate(object_id, views, eg.EigenspaceConfig())
        except EigengazeError:
            expected = None
        enroll = functools.partial(ObjectRegistry.enroll_dir, self.dir, object_id, views,
                                   eg.EigenspaceConfig())
        if self._commit(enroll, fail_at):
            assert expected is not None
            self.saved = expected
        else:
            assert expected is None or fail_at is not None

    @precondition(lambda self: self.saved is not None)
    @rule()
    def load(self):
        if self.damaged:
            try:
                assert_meets_invariants(ObjectRegistry.load_dir(self.dir))
            except EigengazeError:
                pass
            return
        self.reg = ObjectRegistry.load_dir(self.dir)
        # a save of the reload writes every file of the last save again, byte for byte
        with tempfile.TemporaryDirectory() as fresh:
            self.reg.save_dir(fresh)
            for name in os.listdir(fresh):
                assert Path(fresh, name).read_bytes() == Path(self.dir, name).read_bytes(), name

    @precondition(lambda self: self.saved is not None and not self.damaged)
    @rule(data=st.data())
    def damage_one_byte(self, data):
        name = data.draw(st.sampled_from(sorted(os.listdir(self.dir))))
        content = bytearray(Path(self.dir, name).read_bytes())
        i = data.draw(st.integers(0, len(content) - 1))
        content[i] ^= data.draw(st.integers(1, 255))
        Path(self.dir, name).write_bytes(content)
        self.damaged = True

    @invariant()
    def directory_holds_the_last_save(self):
        if self.saved is not None and not self.damaged:
            assert_same_registry(ObjectRegistry.load_dir(self.dir), self.saved)


RegistryLifecycle.TestCase.settings = settings(
    max_examples=100, stateful_step_count=20, deadline=None, derandomize=True, database=None
)
TestRegistryLifecycle = RegistryLifecycle.TestCase
