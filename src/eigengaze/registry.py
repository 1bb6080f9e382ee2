"""Successive accumulation of per-object eigenspaces and known/unknown decisions.

Each enrolled object keeps its own independently built eigenspace; enrolling a
new object never touches existing spaces. A mutation (accumulate / enroll)
builds its space outside any lock, then rebinds one snapshot behind an internal
lock: an immutable tuple of spaces, each holding its manifold in view-angle
order, whose constructor admits them (each id once, one dim) and derives the
scorer's arrays and the widest `spread`, which the auto threshold scales.
Snapshots are only ever replaced, never changed, so `save_dir` and `decide`
take no lock: a save writes the snapshot it read, and a decision scores and
takes the threshold, and repeats both if the snapshot was replaced meanwhile.
Classification thus runs concurrently with mutations, never waits for a
build, and sees a whole set of spaces. Every model invariant is checked by
the `Eigenspace` constructor, not here.
`_read_model` alone knows which files make up a stored model. The manifest
has one renderer: `_stage_manifest` writes it, and `_load_manifest` accepts
only a manifest that it reproduces byte for byte.

A registry directory is created once and then only appended to, as the paper
accumulates one eigenspace per new object: save_dir creates one, and refuses a
directory that already holds a manifest; enroll_dir appends one object to one.
A directory is read by `_load_manifest` and `_stored_model`, for load_dir and
for enroll_dir. Both writes keep one commit rule: under the directory's flock
every file is staged, the manifest last, and renamed into place only once all
are staged, so a write that fails changes no file and concurrent writers each
land whole. A write cut between two renames leaves the old registry or the
new one: each rename before the manifest's puts in place a file the old
manifest does not name, or a stored model's `.eig` as it was read with a
sidecar for those bytes.
"""

import math
import os
import re
import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace
from itertools import takewhile

try:
    import fcntl
except ImportError:  # no flock here, so no registry write is serialized
    fcntl = None

from .eigenspace import (
    Eigenspace,
    EigenspaceConfig,
    build_eigenspace,
    check_rendered,
    load_model,
    save_model,
    save_sidecar,
)
from .errors import (
    CorruptField,
    InsufficientData,
    InvalidObjectId,
)
from .imgio import AppearanceVector
from .linalg import is_real
from . import recog

MANIFEST_NAME = "registry.manifest"
MANIFEST_MAGIC = "EIGENGAZE-REGISTRY"
MANIFEST_VERSION = 1

AUTO = "auto"

# an id names its model file inside the registry directory and one manifest line
_OBJECT_ID = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")


def _check_object_id(object_id):
    if not isinstance(object_id, str) or _OBJECT_ID.fullmatch(object_id) is None:
        raise InvalidObjectId(f"object id {object_id!r} must match {_OBJECT_ID.pattern}")


@contextmanager
def _staging():
    """A list of (temporary file, target) for _stage to fill. At a clean exit
    each file is renamed into place, in order; each lies in its target's
    directory, so os.replace never crosses devices. On any failure every file
    not yet renamed is removed."""
    staged = []
    try:
        yield staged
        while staged:
            os.replace(*staged[0])
            del staged[0]
    finally:
        for tmp, _ in staged:
            if os.path.exists(tmp):
                os.remove(tmp)


def _stage(staged: list, target: str, data: bytes):
    """Write data to a temporary file of its own beside target."""
    tmp = f"{target}.{os.urandom(8).hex()}.tmp"
    staged.append((tmp, target))
    with open(tmp, "xb") as f:
        f.write(data)


def _read_model(eig_path: str) -> tuple[Eigenspace, bytes, bytes | None]:
    """The space a stored model loads as, its floats from its `.f8` sidecar if
    that matches, with the `.eig` bytes and the sidecar's, None if unreadable."""
    with open(eig_path, "rb") as f:
        data = f.read()
    try:
        with open(os.path.splitext(eig_path)[0] + ".f8", "rb") as f:
            sidecar = f.read()
    except OSError:  # an unreadable sidecar leaves the floats to the text
        sidecar = None
    return load_model(data, sidecar), data, sidecar


def _stored_model(path: str, object_id: str) -> tuple[Eigenspace, bytes, bytes | None]:
    """The space that manifest id object_id names in directory path, with the
    `.eig` and `.f8` bytes it loaded from. The id is checked before its file is
    opened, a missing `.eig` is a CorruptField, and the space must hold the id."""
    _check_object_id(object_id)
    try:
        es, data, sidecar = _read_model(os.path.join(path, f"{object_id}.eig"))
    except FileNotFoundError as exc:
        raise CorruptField(f"no model file for manifest id {object_id!r}") from exc
    if es.object_id != object_id:
        raise CorruptField(f"{object_id}.eig holds object {es.object_id!r}")
    return es, data, sidecar


def _stage_model(staged: list, path: str, es: Eigenspace, data: bytes, sidecar=None):
    """Stage es's `.eig` bytes `data` in directory path, and its sidecar:
    `sidecar` if given, else the one es writes for data."""
    stem = os.path.join(path, es.object_id)
    _stage(staged, stem + ".eig", data)
    _stage(staged, stem + ".f8", sidecar or save_sidecar(es, data))


@contextmanager
def _locked(path: str):
    """Hold an exclusive flock on directory path, or no lock where fcntl does
    not exist. The directory and its missing ancestors are made if need be and
    removed again, if empty, when the body fails; one removed so while this
    waited is made again."""
    made, head = [], path
    while head and not os.path.isdir(head):
        made.append(head)
        head = os.path.dirname(head)
    fd = None
    try:
        while fd is None:
            os.makedirs(path, exist_ok=True)
            if fcntl is None:
                break
            fd = os.open(path, os.O_RDONLY)
            fcntl.flock(fd, fcntl.LOCK_EX)
            if not os.fstat(fd).st_nlink:
                os.close(fd)
                fd = None
        yield
    except BaseException:
        for directory in made:  # deepest first
            try:
                os.rmdir(directory)
            except OSError:  # not empty, so in use
                break
        raise
    finally:
        if fd is not None:
            os.close(fd)  # which releases the lock


@dataclass(frozen=True)
class EnrollmentPolicy:
    unknown_threshold: float | str = AUTO  # positive real, or "auto"
    auto_margin: float = 1.5

    def __post_init__(self):
        thr, margin = self.unknown_threshold, self.auto_margin
        if thr != AUTO and not (is_real(thr) and 0 < thr < math.inf):
            raise ValueError(f"unknown_threshold must be 'auto' or positive and finite, not {thr!r}")
        if not (is_real(margin) and 1.0 <= margin < math.inf):
            raise ValueError(f"auto_margin must be finite and >= 1, not {margin!r}")


def render_manifest(policy: EnrollmentPolicy, object_ids) -> str:
    """The manifest text: the policy, then the ids in acquisition order.
    save_dir and enroll_dir write it through _stage_manifest, and load_dir
    accepts only a manifest it reproduces."""
    thr = policy.unknown_threshold
    thr_text = AUTO if thr == AUTO else format(float(thr), ".17g")
    lines = [
        f"{MANIFEST_MAGIC} {MANIFEST_VERSION}",
        f"policy {thr_text} {format(policy.auto_margin, '.17g')}",
        *(f"object {object_id}" for object_id in object_ids),
        "END",
    ]
    return "\n".join(lines) + "\n"


def _stage_manifest(staged: list, path: str, policy: EnrollmentPolicy, spaces):
    """Stage directory path's manifest for policy and spaces. Staged last, it
    is renamed last, so it names only models already in place."""
    manifest = render_manifest(policy, [es.object_id for es in spaces])
    _stage(staged, os.path.join(path, MANIFEST_NAME), manifest.encode("utf-8"))


def _load_manifest(path: str) -> tuple[EnrollmentPolicy, list]:
    """The policy and ids of directory path's manifest, which loads only if it
    is, byte for byte, what render_manifest writes for them."""
    manifest_path = os.path.join(path, MANIFEST_NAME)
    with open(manifest_path, "rb") as f:
        data = f.read()
    try:
        lines = data.decode("utf-8").split("\n")
        _, thr, margin = lines[1].split()
        policy = EnrollmentPolicy(AUTO if thr == AUTO else float(thr), float(margin))
    except (IndexError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
        raise CorruptField(f"{manifest_path}: not text, or a bad policy line: {exc}") from exc
    ids = [line.partition(" ")[2] for line in takewhile("END".__ne__, lines[2:])]
    check_rendered(lines, render_manifest(policy, ids).split("\n"), manifest_path)
    return policy, ids


@dataclass(frozen=True)
class Decision:
    known: bool
    result: recog.RecognitionResult | None
    threshold: float
    enrolled_id: str | None = None


class ObjectRegistry:
    """Ordered collection of per-object eigenspaces (insertion = acquisition)."""

    # every registry starts from this one empty snapshot; _append rebinds its
    # own, and no snapshot is changed in place
    _snapshot = recog.Snapshot()

    def __init__(self, policy: EnrollmentPolicy | None = None):
        self.policy = policy if policy is not None else EnrollmentPolicy()
        self._lock = threading.RLock()

    @property
    def spaces(self) -> tuple[Eigenspace, ...]:
        """The enrolled spaces in acquisition order, as one immutable tuple."""
        return self._snapshot.spaces

    @property
    def snapshot(self) -> recog.Snapshot:
        """The enrolled spaces with the scorer's arrays over them, as one value."""
        return self._snapshot

    def find(self, object_id: str) -> Eigenspace | None:
        return self._snapshot.index.get(object_id)

    def _append(self, *spaces: Eigenspace):
        self._snapshot = recog.Snapshot(self.spaces + spaces)

    def accumulate(self, object_id: str, appearances, config: EigenspaceConfig) -> Eigenspace:
        """Build one object's eigenspace with build_eigenspace, cut by config's energy
        threshold, and enroll it; others untouched. No reader waits for the lockless build."""
        _check_object_id(object_id)
        es = build_eigenspace(object_id, appearances, config)
        with self._lock:
            self._append(es)
        return es

    def effective_threshold(self) -> float:
        """Known/unknown score cutoff: the explicit policy value, or the largest
        intra-space leave-self-out nearest-neighbor spread times the margin.
        The widest spread is computed once per snapshot."""
        if self.policy.unknown_threshold != AUTO:
            return float(self.policy.unknown_threshold)
        spread = self._snapshot.spread
        if spread is None:
            raise InsufficientData(
                "auto threshold needs at least one space with 2+ manifold points"
            )
        return self.policy.auto_margin * spread

    def next_auto_name(self) -> str:
        """The first free object-N, counting up from the number of spaces + 1."""
        n = len(self.spaces) + 1
        while self.find(f"object-{n}") is not None:
            n += 1
        return f"object-{n}"

    def decide(self, v: AppearanceVector) -> Decision:
        """Known if v's best score is within the effective threshold. It takes
        no lock: a score and a threshold count only if the snapshot was not
        replaced while they were taken, so both read the same set of spaces."""
        while True:
            snap = self._snapshot
            result = recog.recognize(self, v)
            threshold = self.effective_threshold()
            if self._snapshot is snap:
                return Decision(result.combined_score <= threshold, result, threshold)

    def classify_or_enroll(self, v: AppearanceVector, pending_views=None) -> Decision:
        """Recognize v if close enough to an enrolled object; otherwise report
        unknown and, when pending_views are supplied, enroll them as a new
        auto-named object, built with the first space's config (the default
        config in an empty registry). With no pending views it is decide, and
        takes no lock (on no spaces, decide raises EmptyRegistry); otherwise the
        lock spans the decision and the enrollment, so two calls cannot enroll
        one object under two names."""
        if pending_views is None:
            return self.decide(v)
        with self._lock:
            decision = self.decide(v) if self.spaces else Decision(False, None, float("inf"))
            if decision.known:
                return decision
            config = self.spaces[0].config if self.spaces else EigenspaceConfig()
            name = self.next_auto_name()
            self.accumulate(name, pending_views, config)
            return replace(decision, enrolled_id=name)

    # --- directory persistence ---

    def save_dir(self, path: str):
        """Create a registry in directory path from the spaces and policy read
        at its start, under no registry lock: write every model (its `.eig`
        text, rendered, and its `.f8` sidecar), then the manifest, as enroll_dir
        commits: under the directory's lock, each file is staged beside its
        target and renamed into place only once all are staged, the manifest
        last. A directory that already holds a manifest raises FileExistsError
        before any file is staged; one without, even one that a cut save left
        models in, is saved into. So a save that fails changes no file, leaves
        no `.tmp` and removes the directories it made."""
        spaces, policy = self.spaces, self.policy
        with _locked(path), _staging() as staged:
            manifest_path = os.path.join(path, MANIFEST_NAME)
            if os.path.exists(manifest_path):
                raise FileExistsError(f"a registry is already committed: {manifest_path}")
            for es in spaces:
                _stage_model(staged, path, es, save_model(es))
            _stage_manifest(staged, path, policy, spaces)

    @classmethod
    def load_dir(cls, path: str) -> "ObjectRegistry":
        """Load a directory that save_dir wrote: its manifest, then each model
        it names, in order, into one snapshot."""
        policy, ids = _load_manifest(path)
        reg = cls(policy)
        reg._append(*(_stored_model(path, object_id)[0] for object_id in ids))
        return reg

    @classmethod
    def enroll_dir(cls, path: str, object_id: str, appearances, config: EigenspaceConfig,
                   **policy) -> Eigenspace:
        """Append one object, its space cut by config's energy threshold, to the
        registry in directory path (one is created if it holds no manifest), with
        the policy fields given here replaced. In one pass the directory comes to
        hold what load_dir, accumulate and a save_dir into a new directory write:
        each stored model is read and loaded once and written back from the bytes
        read, its `.f8` kept if its floats came from it, else replaced by the
        sidecar save_dir writes. One snapshot admits the stored spaces and the
        new one, and the manifest names its spaces. A bad id is refused first; then it
        commits as save_dir does, under the directory's lock from reading the manifest
        to renaming it: a failed enrollment changes no file, and concurrent ones each land."""
        _check_object_id(object_id)
        with _locked(path), _staging() as staged:
            stored_policy, ids, stored = EnrollmentPolicy(), [], []
            if os.path.exists(os.path.join(path, MANIFEST_NAME)):
                stored_policy, ids = _load_manifest(path)
            for stored_id in ids:
                space, data, sidecar = _stored_model(path, stored_id)
                stored.append(space)
                _stage_model(staged, path, space, data, sidecar if space.from_sidecar else None)
            policy = replace(stored_policy, **policy)
            es = build_eigenspace(object_id, appearances, config)
            spaces = recog.Snapshot((*stored, es)).spaces
            _stage_model(staged, path, es, save_model(es))
            _stage_manifest(staged, path, policy, spaces)
        return es
