"""Command-line pipeline: synth, occlude, learn, recognize, evaluate, inspect.

Exit codes: 0 success (or Known), 1 error (a usage error included),
2 Unknown appearance.
"""

import argparse
import os
import re
import sys
from dataclasses import replace

import numpy as np

from . import imgio, recog
from .eigenspace import EigenspaceConfig, load_model
from .errors import EigengazeError, EmptyQuerySet, NoImages
from .imgio import OcclusionSpec, ViewLabel
from .registry import _OBJECT_ID, AUTO, MANIFEST_NAME, ObjectRegistry, _check_object_id

DEFAULT_ANGLES = list(range(0, 100, 10))
# a training file's name ends in _<angle>[_occ], as cmd_synth writes it; ASCII digits only
_VIEW_STEM = re.compile(r".*_([0-9]+)(_occ)?")
# a manifest's angle column follows the same digit rule
_ANGLE = re.compile(r"[0-9]+")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNKNOWN = 2


def _parse_angles(text: str):
    angles = [int(a) for a in text.split(",") if a.strip() != ""]
    if not angles or any(a < 0 or a > 359 for a in angles):
        raise ValueError("angles must be a non-empty list of integers in [0,359]")
    return angles


def _parse_threshold(text: str):
    if text == AUTO:
        return AUTO
    value = float(text)
    if value <= 0:
        raise ValueError("threshold must be positive or 'auto'")
    return value


def _registry_dir(args) -> str:
    if args.registry:
        return args.registry
    env = os.environ.get("EIGENGAZE_REGISTRY")
    if env:
        return env
    raise EigengazeError("no registry directory: pass --registry or set EIGENGAZE_REGISTRY")


def _load_registry(args):
    """The registry args name, which must hold a space, and its norm mode."""
    reg = ObjectRegistry.load_dir(_registry_dir(args))
    if not reg.spaces:
        raise EigengazeError("registry is empty")
    return reg, reg.spaces[0].config.norm_mode


def _override_policy(reg: ObjectRegistry, threshold=None, margin=None):
    """Set the policy fields whose flag was given; keep the others."""
    given = {"unknown_threshold": threshold, "auto_margin": margin}
    reg.policy = replace(reg.policy, **{k: v for k, v in given.items() if v is not None})


def _label_from_filename(path: str, object_id: str) -> ViewLabel:
    """Convention from cmd_synth: <obj>_<angle>[_occ].pgm."""
    match = _VIEW_STEM.fullmatch(os.path.splitext(os.path.basename(path))[0])
    if match is None:
        raise EigengazeError(f"{path}: file name must end in _<angle> or _<angle>_occ")
    return ViewLabel(object_id, int(match[1]) % 360, match[2] is not None)


def _read_image(path: str) -> imgio.RasterImage:
    with open(path, "rb") as f:
        return imgio.parse_pgm(f.read())


def _read_manifest(path: str):
    """Lines: path<TAB>object_id[<TAB>angle[<TAB>occluded]], and no more
    columns. The object id follows the registry's rule, the angle is ASCII
    decimal digits, taken modulo 360 as in file names, and the occluded flag
    is 0 or 1; a missing column reads as 0. Paths are resolved relative to
    the manifest file."""
    base = os.path.dirname(os.path.abspath(path))
    entries = []
    with open(path, "r") as f:
        for number, raw in enumerate(f, 1):
            line = raw.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            angle = fields[2] if len(fields) > 2 else "0"
            occluded = fields[3] if len(fields) > 3 else "0"
            if not (2 <= len(fields) <= 4 and _OBJECT_ID.fullmatch(fields[1])
                    and _ANGLE.fullmatch(angle) and occluded in ("0", "1")):
                raise EigengazeError(
                    f"{path}:{number}: bad manifest line {line!r} (path, object id "
                    f"{_OBJECT_ID.pattern}, angle in ASCII digits, occluded 0 or 1)"
                )
            img_path = fields[0]
            if not os.path.isabs(img_path):
                img_path = os.path.join(base, img_path)
            entries.append((img_path, fields[1], int(angle) % 360, occluded == "1"))
    return entries


def _config_from_args(args) -> EigenspaceConfig:
    return EigenspaceConfig(
        centered=args.centered,
        norm_mode=args.norm,
        energy_threshold=args.tau,
        k_override=getattr(args, "k", None),
    )


# --- commands ---

def cmd_synth(args) -> int:
    objects = [o for o in args.objects.split(",") if o]
    # an id names its files, so it follows the registry's rule
    for obj in objects:
        _check_object_id(obj)
    os.makedirs(args.out, exist_ok=True)
    for obj in objects:
        for angle in args.angles:
            image = imgio.synth_view(obj, angle, args.side, args.seed)
            out = os.path.join(args.out, f"{obj}_{angle}.pgm")
            with open(out, "wb") as f:
                f.write(imgio.write_pgm(image, binary=args.binary))
    print(f"wrote {len(objects) * len(args.angles)} images to {args.out}")
    return EXIT_OK


def cmd_occlude(args) -> int:
    x0, y0, w, h = (int(v) for v in args.rect.split(","))
    image = _read_image(args.input)
    occluded = imgio.apply_occlusion(image, OcclusionSpec(x0, y0, w, h, args.fill))
    with open(args.output, "wb") as f:
        f.write(imgio.write_pgm(occluded, binary=args.binary))
    print(f"wrote {args.output}")
    return EXIT_OK


def cmd_learn(args) -> int:
    config = _config_from_args(args)
    if args.manifest:
        entries = [
            (path, ViewLabel(obj, angle, occ))
            for path, obj, angle, occ in _read_manifest(args.manifest)
            if obj == args.object
        ]
    else:
        entries = [(p, _label_from_filename(p, args.object)) for p in args.images]
    if not entries:
        raise NoImages(f"no input images for object {args.object!r}")

    appearances = [
        imgio.vectorize(_read_image(path), config.norm_mode, label)
        for path, label in entries
    ]

    reg_dir = _registry_dir(args)
    if os.path.exists(os.path.join(reg_dir, MANIFEST_NAME)):
        reg = ObjectRegistry.load_dir(reg_dir)
    else:
        reg = ObjectRegistry()
    _override_policy(reg, args.threshold, args.margin)
    es = reg.accumulate(args.object, appearances, config)
    reg.save_dir(reg_dir)

    print(f"object {args.object}: {len(appearances)} appearances, k = {es.k}")
    total = float(np.sum(es.eigenvalues)) or 1.0
    cum = 0.0
    print("  i  eigenvalue        energy  cumulative")
    for i, lam in enumerate(es.eigenvalues):
        cum += float(lam) / total
        print(f"  {i:<2} {float(lam):<16.10g} {float(lam) / total:7.4f}  {cum:9.4f}")
    return EXIT_OK


def cmd_recognize(args) -> int:
    reg, norm = _load_registry(args)
    _override_policy(reg, threshold=args.threshold)
    v = imgio.vectorize(_read_image(args.image), norm)

    decision = reg.decide(v, in_space_only=args.in_space_only)
    result = decision.result
    status = "Known" if decision.known else "Unknown"
    print(
        f"{status}: {result.best_object} angle={result.best_view.view_angle_deg} "
        f"score={result.combined_score:.6f} in_space={result.in_space_distance:.6f} "
        f"residual={result.residual:.6f} threshold={decision.threshold:.6f}"
    )
    for object_id, score in result.ranked_candidates:
        print(f"  candidate {object_id} score={score:.6f}")
    return EXIT_OK if decision.known else EXIT_UNKNOWN


def cmd_evaluate(args) -> int:
    reg, norm = _load_registry(args)

    entries = _read_manifest(args.manifest)
    if not entries:
        raise EmptyQuerySet(f"manifest {args.manifest} lists no queries")
    # evaluate reads only each query's true id
    queries = [(imgio.vectorize(_read_image(path), norm), obj) for path, obj, _, _ in entries]

    report = recog.evaluate(reg, queries, in_space_only=args.in_space_only)
    if args.csv:
        with open(args.csv, "w", newline="\n") as f:
            f.write(recog.report_csv(report))
    if args.text:
        with open(args.text, "w", newline="\n") as f:
            f.write(recog.report_text(report))
    print(f"r = {float(report.r):.4f} ({report.m}/{report.P})")
    return EXIT_OK


def cmd_inspect(args) -> int:
    with open(args.model, "rb") as f:
        es = load_model(f.read())
    rows = recog.dump_coordinates(es, args.dims)
    lines = ["angle_deg,occluded," + ",".join(f"c{i + 1}" for i in range(args.dims))]
    for angle, occluded, coords in rows:
        lines.append(
            f"{angle},{1 if occluded else 0}," + ",".join(format(c, ".17g") for c in coords)
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", newline="\n") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# --- argument parsing ---

def _add_config_flags(p):
    p.add_argument("--tau", type=float, default=0.95, help="energy threshold for k")
    p.add_argument("--k", type=int, default=None, help="fixed k override")
    p.add_argument("--norm", choices=["raw", "unit"], default="unit")
    centering = p.add_mutually_exclusive_group()
    centering.add_argument("--centered", dest="centered", action="store_true", default=True)
    centering.add_argument("--uncentered", dest="centered", action="store_false")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigengaze",
        description="Learn per-object eigenspaces and recognize appearances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic view images")
    p.add_argument("--objects", required=True, help="comma-separated object ids")
    p.add_argument("--out", required=True)
    p.add_argument("--side", type=int, default=32)
    p.add_argument("--angles", type=_parse_angles, default=DEFAULT_ANGLES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--binary", action="store_true", help="write P5 instead of P2")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("occlude", help="overwrite a rectangle of an image")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--rect", required=True, help="x0,y0,w,h")
    p.add_argument("--fill", type=int, default=0)
    p.add_argument("--binary", action="store_true")
    p.set_defaults(func=cmd_occlude)

    p = sub.add_parser("learn", help="build and enroll one object's eigenspace")
    p.add_argument("images", nargs="*", help="PGM files named <obj>_<angle>[_occ].pgm")
    p.add_argument("--manifest", help="tab-separated path/object/angle/occluded list")
    p.add_argument("--object", required=True)
    p.add_argument("--registry", default=None)
    p.add_argument("--threshold", type=_parse_threshold, default=None,
                   help="unknown cutoff or 'auto' (default: keep the registry's, else auto)")
    p.add_argument("--margin", type=float, default=None,
                   help="auto threshold margin (default: keep the registry's, else 1.5)")
    _add_config_flags(p)
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("recognize", help="classify one appearance")
    p.add_argument("image")
    p.add_argument("--registry", default=None)
    p.add_argument("--threshold", type=_parse_threshold, default=None)
    p.add_argument("--in-space-only", action="store_true",
                   help="ignore the off-subspace residual in scores")
    p.set_defaults(func=cmd_recognize)

    p = sub.add_parser("evaluate", help="recognition rate over a labeled manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--registry", default=None)
    p.add_argument("--csv", default=None)
    p.add_argument("--text", default=None)
    p.add_argument("--in-space-only", action="store_true")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("inspect", help="dump manifold coordinates as CSV")
    p.add_argument("model")
    p.add_argument("--dims", type=int, default=3)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, which here means Unknown
        return EXIT_ERROR if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (EigengazeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
