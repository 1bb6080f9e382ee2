"""Successive accumulation of per-object eigenspaces and known/unknown decisions.

Each enrolled object keeps its own independently built eigenspace; enrolling a
new object never touches existing spaces. Mutation (accumulate / enroll) is
serialized behind an internal lock. Each mutation rebinds one snapshot: an
immutable tuple of spaces, each holding its manifold in view-angle order, with
the scorer's arrays and the widest `spread`, which the auto threshold scales,
each derived once per snapshot. A read takes the snapshot once, so
classification may run concurrently with mutations and sees a whole set of
spaces. Every model invariant is checked by the `Eigenspace` constructor, not
here. `_read_model` alone knows which files make up a stored model. The
manifest has one renderer: save_dir writes it, and load_dir accepts only a
manifest that it reproduces byte for byte.
"""

import math
import os
import re
import threading
from dataclasses import dataclass, replace
from itertools import takewhile

from .eigenspace import (
    Eigenspace,
    EigenspaceConfig,
    _block,
    build_eigenspace,
    check_rendered,
    load_model,
    save_model,
    save_sidecar,
)
from .errors import (
    CorruptField,
    DimensionMismatch,
    DuplicateObject,
    EigengazeError,
    EmptyRegistryNoViews,
    InsufficientData,
    InvalidObjectId,
)
from .imgio import AppearanceVector
from . import recog

MANIFEST_NAME = "registry.manifest"
MANIFEST_MAGIC = "EIGENGAZE-REGISTRY"
MANIFEST_VERSION = 1

AUTO = "auto"

# an id names its model file inside the registry directory and one manifest line
_OBJECT_ID = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")


def _check_object_id(object_id: str):
    if _OBJECT_ID.fullmatch(object_id) is None:
        raise InvalidObjectId(f"object id {object_id!r} must match {_OBJECT_ID.pattern}")


def _write_atomic(target: str, data: bytes):
    """Write data beside target, then rename it into place. The temporary file
    stays inside the registry directory, so os.replace never crosses devices."""
    tmp = target + ".tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _read_model(eig_path: str) -> tuple[bytes, Eigenspace]:
    """The `.eig` file's bytes and the space they load as, its floats from the
    `.f8` sidecar beside it if that matches; the sidecar is only a cache."""
    with open(eig_path, "rb") as f:
        data = f.read()
    try:
        with open(os.path.splitext(eig_path)[0] + ".f8", "rb") as f:
            sidecar = f.read()
    except OSError:  # an unreadable sidecar leaves the floats to the text
        sidecar = None
    return data, load_model(data, sidecar)


def _held_model(path: str, es: Eigenspace) -> bytes | None:
    """es's `.eig` bytes in directory `path` if they load as es itself, with the
    same id, config and labels and bit-identical floats (so -0.0 is not 0.0), and
    so are what save_model(es) renders; None if missing, damaged or another space's."""
    try:
        data, held = _read_model(os.path.join(path, f"{es.object_id}.eig"))
    except (OSError, EigengazeError):
        return None
    same = (held.object_id, held.config, held.labels) == (es.object_id, es.config, es.labels)
    return data if same and _block(held).tobytes() == _block(es).tobytes() else None


@dataclass(frozen=True)
class EnrollmentPolicy:
    unknown_threshold: float | str = AUTO  # positive real, or "auto"
    auto_margin: float = 1.5

    def __post_init__(self):
        thr = self.unknown_threshold
        if thr != AUTO and (isinstance(thr, str) or not 0 < thr < math.inf):
            raise ValueError("unknown_threshold must be 'auto' or positive and finite")
        if not 1.0 <= self.auto_margin < math.inf:
            raise ValueError("auto_margin must be finite and >= 1")


def render_manifest(policy: EnrollmentPolicy, object_ids) -> str:
    """The manifest text: the policy, then the ids in acquisition order.
    save_dir writes it, and load_dir accepts only a manifest it reproduces."""
    thr = policy.unknown_threshold
    thr_text = AUTO if thr == AUTO else format(float(thr), ".17g")
    lines = [
        f"{MANIFEST_MAGIC} {MANIFEST_VERSION}",
        f"policy {thr_text} {format(policy.auto_margin, '.17g')}",
        *(f"object {object_id}" for object_id in object_ids),
        "END",
    ]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Decision:
    known: bool
    result: recog.RecognitionResult | None
    threshold: float
    enrolled_id: str | None = None


class ObjectRegistry:
    """Ordered collection of per-object eigenspaces (insertion = acquisition)."""

    def __init__(self, policy: EnrollmentPolicy | None = None):
        # rebound by _append, never mutated in place
        self._snapshot = recog.Snapshot()
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
        for es in self.spaces:
            if es.object_id == object_id:
                return es
        return None

    def _append(self, es: Eigenspace):
        if self.find(es.object_id) is not None:
            raise DuplicateObject(f"object {es.object_id!r} already enrolled")
        if self.spaces:
            first = self.spaces[0]
            if es.dim != first.dim or es.config.norm_mode != first.config.norm_mode:
                raise DimensionMismatch(
                    "all enrolled spaces must share dim and norm_mode"
                )
        self._snapshot = recog.Snapshot(self.spaces + (es,))

    def accumulate(self, object_id: str, appearances, config: EigenspaceConfig) -> Eigenspace:
        """Build and enroll one object's eigenspace; existing spaces untouched."""
        _check_object_id(object_id)
        with self._lock:
            if self.find(object_id) is not None:
                raise DuplicateObject(f"object {object_id!r} already enrolled")
            es = build_eigenspace(object_id, appearances, config)
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

    def decide(self, v: AppearanceVector, in_space_only: bool = False) -> Decision:
        """Known if v's best score is within the effective threshold. The lock
        makes the score and the threshold read the same set of spaces."""
        with self._lock:
            result = recog.recognize(self, v, in_space_only=in_space_only)
            threshold = self.effective_threshold()
            return Decision(result.combined_score <= threshold, result, threshold)

    def classify_or_enroll(self, v: AppearanceVector, pending_views=None) -> Decision:
        """Recognize v if close enough to an enrolled object; otherwise report
        unknown and, when pending_views are supplied, enroll them as a new
        auto-named object, built with the first space's config (the default
        config in an empty registry)."""
        with self._lock:
            if self.spaces:
                decision = self.decide(v)
            elif pending_views is None:
                raise EmptyRegistryNoViews("empty registry and no pending views to enroll")
            else:
                decision = Decision(False, None, float("inf"))
            if decision.known or pending_views is None:
                return decision
            config = self.spaces[0].config if self.spaces else EigenspaceConfig()
            name = self.next_auto_name()
            self.accumulate(name, pending_views, config)
            return replace(decision, enrolled_id=name)

    # --- directory persistence ---

    def save_dir(self, path: str):
        """Write every model (its `.eig` text, then its `.f8` sidecar), then
        the manifest. A model whose `.eig` already loads as its space is
        written from those bytes, not rendered again. Each file is written
        beside its target and renamed into place, so a save that fails
        part-way leaves no truncated file, and the old manifest names only old
        models. Loading ignores a sidecar whose digest does not match its
        `.eig`, so a stale sidecar changes nothing."""
        os.makedirs(path, exist_ok=True)
        with self._lock:
            spaces = self.spaces
            for es in spaces:
                data = _held_model(path, es) or save_model(es)
                _write_atomic(os.path.join(path, f"{es.object_id}.eig"), data)
                _write_atomic(os.path.join(path, f"{es.object_id}.f8"), save_sidecar(es, data))
            manifest = render_manifest(self.policy, [es.object_id for es in spaces])
            _write_atomic(os.path.join(path, MANIFEST_NAME), manifest.encode("utf-8"))

    @classmethod
    def load_dir(cls, path: str) -> "ObjectRegistry":
        """Load a directory that save_dir wrote. The manifest loads only if it
        is, byte for byte, what render_manifest writes for its policy and ids;
        each id is checked before its model file is opened."""
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
        reg = cls(policy)
        for object_id in ids:
            _check_object_id(object_id)
            try:
                _, es = _read_model(os.path.join(path, f"{object_id}.eig"))
            except FileNotFoundError as exc:
                raise CorruptField(f"no model file for manifest id {object_id!r}") from exc
            if es.object_id != object_id:
                raise CorruptField(f"{object_id}.eig holds object {es.object_id!r}")
            reg._append(es)
        return reg
