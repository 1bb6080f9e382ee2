"""Seeded input generation for the benchmark workloads.

Every input is a pure function of the workload seed: views come from
`synth_view(object_id, angle, 32, seed)`, occlusions are 16x10 black
rectangles at seeded positions, and files are canonical P2 bytes from
`write_pgm`. The program under test only ever sees these files or vectors.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

import eigengaze as eg

SIDE = 32
OCC_W, OCC_H = 16, 10


@dataclass(frozen=True)
class Sizes:
    """Workload sizes; the defaults are the benchmark's, tests pass tiny ones."""

    train_angles: tuple = tuple(range(0, 360, 10))   # 36 views per object
    eval_angles: tuple = tuple(range(5, 360, 20))    # 18 held-out offset angles
    eval_occluded: int = 2                           # occluded eval views per object
    enroll_objects: int = 20
    query_objects: int = 30
    recognize_clean: int = 16
    recognize_occluded: int = 12
    recognize_novel: int = 12
    ow_initial: int = 10
    ow_arrivals: int = 20
    ow_decisions: int = 8      # classify_or_enroll calls after each arrival
    novel_objects: int = 10    # never-enrolled object pool


def object_ids(prefix: str, count: int):
    return [f"{prefix}-{i:02d}" for i in range(count)]


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """Independent generator per (seed, purpose), so sizes of one stream
    never shift the draws of another."""
    digest = hashlib.sha256(f"{seed}/{stream}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "big"))


def draw_occlusion(rng) -> eg.OcclusionSpec:
    x0 = int(rng.integers(0, SIDE - OCC_W + 1))
    y0 = int(rng.integers(0, SIDE - OCC_H + 1))
    return eg.OcclusionSpec(x0, y0, OCC_W, OCC_H, 0)


@dataclass(frozen=True)
class View:
    object_id: str
    angle: int
    occluded: bool
    image: eg.RasterImage

    @property
    def filename(self) -> str:
        """`<obj>_<angle>[_occ].pgm`, the labels `eigengaze learn` reads."""
        return f"{self.object_id}_{self.angle}{'_occ' if self.occluded else ''}.pgm"

    def pgm(self) -> bytes:
        return eg.write_pgm(self.image)

    def vector(self) -> eg.AppearanceVector:
        """Training vector, labelled with its object, angle and occlusion."""
        return eg.vectorize(
            self.image, "unit", eg.ViewLabel(self.object_id, self.angle, self.occluded)
        )

    def query(self) -> eg.AppearanceVector:
        """Query vector: no label, so the program sees pixels only."""
        return eg.vectorize(self.image, "unit")


def make_view(object_id: str, angle: int, seed: int, occlusion=None) -> View:
    image = eg.synth_view(object_id, angle, SIDE, seed)
    if occlusion is not None:
        image = eg.apply_occlusion(image, occlusion)
    return View(object_id, angle, occlusion is not None, image)


def training_views(object_id: str, seed: int, sizes: Sizes):
    """All training angles of one object, one of them occluded."""
    rng = rng_for(seed, f"train/{object_id}")
    occluded_idx = int(rng.integers(0, len(sizes.train_angles)))
    occlusion = draw_occlusion(rng)
    return [
        make_view(object_id, a, seed, occlusion if i == occluded_idx else None)
        for i, a in enumerate(sizes.train_angles)
    ]


def eval_views(object_id: str, seed: int, sizes: Sizes):
    """Held-out offset-angle views of one object, `eval_occluded` of them occluded."""
    rng = rng_for(seed, f"eval/{object_id}")
    n = len(sizes.eval_angles)
    occluded = set(rng.choice(n, size=min(sizes.eval_occluded, n), replace=False).tolist())
    return [
        make_view(object_id, a, seed, draw_occlusion(rng) if i in occluded else None)
        for i, a in enumerate(sizes.eval_angles)
    ]


def held_out_angle(rng, sizes: Sizes) -> int:
    """A uniformly drawn angle that is not a training angle."""
    train = set(sizes.train_angles)
    while True:
        a = int(rng.integers(0, 360))
        if a not in train:
            return a


def digest(items) -> str:
    """sha256 over (name, bytes) pairs in the given order."""
    h = hashlib.sha256()
    for name, data in items:
        h.update(name.encode() + b"\0" + len(data).to_bytes(8, "big") + data)
    return h.hexdigest()


def vector_bytes(v: eg.AppearanceVector) -> bytes:
    lab = v.source_label
    return f"{lab.object_id}/{lab.view_angle_deg}/{int(lab.occluded)}/".encode() + v.values.tobytes()
