"""Command-line pipeline: synth, occlude, learn, recognize, evaluate, inspect.

Every integer the CLI reads, in a flag, a `--rect` or `--angles` field, a
training file name or a manifest, is ASCII decimal digits and nothing else
(no sign, `_`, surrounding space or other digits), read by `_integer`. Every
decimal flag (`--tau`, `--margin`, `--threshold`) is read by `_decimal`: ASCII
digits, then an optional fraction and an optional exponent. A comma list
(`--objects`, `--angles`, `--rect`) is split by `_fields`, which strips each
field and rejects an empty one; `synth` also rejects a repeated object or
angle. A manifest line has one grammar, `_MANIFEST_LINE`. Range checks stay
with the types that hold the values.

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
from .eigenspace import EigenspaceConfig
from .errors import EigengazeError, EmptyQuerySet, NoImages
from .imgio import OcclusionSpec, ViewLabel
from .registry import _OBJECT_ID, AUTO, MANIFEST_NAME, ObjectRegistry, _check_object_id, _read_model

DEFAULT_ANGLES = "0,10,20,30,40,50,60,70,80,90"
# every integer the CLI reads, in flags, file names and manifests; ASCII only, unlike int()
_DIGITS = re.compile(r"[0-9]+")
# every decimal flag: digits, an optional fraction and exponent; ASCII only, unlike float()
_DECIMAL = re.compile(r"[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?")
# a training file's name ends in _<angle>[_occ], as cmd_synth writes it
_VIEW_STEM = re.compile(rf".*_({_DIGITS.pattern})(_occ)?")
# path<TAB>object_id[<TAB>angle[<TAB>occluded]]
_MANIFEST_LINE = re.compile(
    rf"([^\t]*)\t({_OBJECT_ID.pattern})(?:\t({_DIGITS.pattern})(?:\t([01]))?)?")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNKNOWN = 2


class _BadValue(ValueError, argparse.ArgumentTypeError):
    """A value outside a reader's rule. As an ArgumentTypeError, argparse
    reports its message after the flag's name (for a plain ValueError it
    names the reader function); as a ValueError, main reports it as error."""


def _integer(text: str) -> int:
    if _DIGITS.fullmatch(text) is None:
        raise _BadValue(f"{text!r} is not an integer in ASCII digits 0-9")
    return int(text)


def _decimal(text: str) -> float:
    if _DECIMAL.fullmatch(text) is None:
        raise _BadValue(f"{text!r} is not a decimal number: ASCII digits 0-9, "
                        "then an optional .digits and an optional e[+-]digits")
    return float(text)


def _fields(text: str, flag: str) -> list:
    """A comma-separated list's fields, each stripped of spaces; none may be empty."""
    fields = [field.strip() for field in text.split(",")]
    if "" in fields:
        raise EigengazeError(f"{flag} {text!r} has an empty field")
    return fields


def _integers(text: str, flag: str) -> list:
    """A comma list's fields, each read by _integer; a bad one's error names flag."""
    try:
        return [_integer(field) for field in _fields(text, flag)]
    except _BadValue as exc:
        raise EigengazeError(f"{flag} {text!r}: {exc}") from None


def _distinct(values: list, flag: str) -> list:
    """values, none of which may repeat, since each one names its own files."""
    repeated = sorted({value for value in values if values.count(value) > 1})
    if repeated:
        raise EigengazeError(f"{flag} names {', '.join(map(str, repeated))} more than once")
    return values


def _parse_threshold(text: str):
    if text == AUTO:
        return AUTO
    value = _decimal(text)
    if value <= 0:
        raise _BadValue(f"{text!r} is not a positive decimal number or 'auto'")
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
    return ViewLabel(object_id, _integer(match[1]) % 360, match[2] is not None)


def _read_image(path: str) -> imgio.RasterImage:
    with open(path, "rb") as f:
        return imgio.parse_pgm(f.read())


def _read_manifest(path: str):
    """Each line is path<TAB>object_id[<TAB>angle[<TAB>occluded]], as
    _MANIFEST_LINE spells it; a missing angle or occluded column reads as 0,
    and the angle is taken modulo 360 as in file names. The file is UTF-8, and a
    path names the file spelt by its UTF-8 bytes, relative to the manifest."""
    base = os.path.dirname(os.path.abspath(path))
    entries = []
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        for number, raw in enumerate(f, 1):
            line = raw.rstrip("\n")
            if line.encode("utf-8", "replace").decode() != line:  # a byte that is not UTF-8
                spelt = line.encode("utf-8", "surrogateescape")
                raise EigengazeError(f"{path}:{number}: manifest line {spelt!r} is not UTF-8")
            if not line or line.startswith("#"):
                continue
            match = _MANIFEST_LINE.fullmatch(line)
            if match is None:
                raise EigengazeError(
                    f"{path}:{number}: bad manifest line {line!r} (path, object id "
                    f"{_OBJECT_ID.pattern}, angle in ASCII digits, occluded 0 or 1)"
                )
            image, obj, angle, flag = match.groups("0")
            image = os.path.join(base, os.fsdecode(image.encode("utf-8")))
            entries.append((image, obj, _integer(angle) % 360, flag == "1"))
    return entries


# --- commands ---

def cmd_synth(args) -> int:
    objects = _distinct(_fields(args.objects, "--objects"), "--objects")
    # an id names its files, so it follows the registry's rule
    for obj in objects:
        _check_object_id(obj)
    angles = _distinct(_integers(args.angles, "--angles"), "--angles")
    if max(angles) > 359:
        raise ValueError("--angles must lie in [0, 359]")
    for obj in objects:
        for angle in angles:
            image = imgio.synth_view(obj, angle, args.side, args.seed)
            os.makedirs(args.out, exist_ok=True)  # after a render: a bad --side writes nothing
            out = os.path.join(args.out, f"{obj}_{angle}.pgm")
            with open(out, "wb") as f:
                f.write(imgio.write_pgm(image, binary=args.binary))
    print(f"wrote {len(objects) * len(angles)} images to {args.out}")
    return EXIT_OK


def cmd_occlude(args) -> int:
    rect = _integers(args.rect, "--rect")
    if len(rect) != 4:
        raise EigengazeError(f"--rect {args.rect!r} must be four integers x0,y0,w,h")
    x0, y0, w, h = rect
    image = _read_image(args.input)
    occluded = imgio.apply_occlusion(image, OcclusionSpec(x0, y0, w, h, args.fill))
    with open(args.output, "wb") as f:
        f.write(imgio.write_pgm(occluded, binary=args.binary))
    print(f"wrote {args.output}")
    return EXIT_OK


def cmd_learn(args) -> int:
    config = EigenspaceConfig(args.centered, args.norm, args.tau, args.k)
    if args.manifest and args.images:
        raise EigengazeError(f"learn takes its labels from --manifest ({args.manifest}) or "
                             f"from image file names ({args.images[0]}, ...), not both")
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
    total = float(np.sum(es.eigenvalues))
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
        with open(args.csv, "w", encoding="utf-8", newline="\n") as f:
            f.write(recog.report_csv(report))
    if args.text:
        with open(args.text, "w", encoding="utf-8", newline="\n") as f:
            f.write(recog.report_text(report))
    print(f"r = {float(report.r):.4f} ({report.m}/{report.P})")
    return EXIT_OK


def cmd_inspect(args) -> int:
    _, es = _read_model(args.model)
    rows = recog.dump_coordinates(es, args.dims)
    lines = ["angle_deg,occluded," + ",".join(f"c{i + 1}" for i in range(args.dims))]
    for angle, occluded, coords in rows:
        lines.append(
            f"{angle},{1 if occluded else 0}," + ",".join(format(c, ".17g") for c in coords)
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# --- argument parsing ---

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigengaze",
        description="Learn per-object eigenspaces and recognize appearances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic view images")
    p.add_argument("--objects", required=True, help="comma-separated object ids")
    p.add_argument("--out", required=True)
    p.add_argument("--side", type=_integer, default=32)
    p.add_argument("--angles", default=DEFAULT_ANGLES)
    p.add_argument("--seed", type=_integer, default=1)
    p.add_argument("--binary", action="store_true", help="write P5 instead of P2")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("occlude", help="overwrite a rectangle of an image")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--rect", required=True, help="x0,y0,w,h")
    p.add_argument("--fill", type=_integer, default=0)
    p.add_argument("--binary", action="store_true")
    p.set_defaults(func=cmd_occlude)

    p = sub.add_parser("learn", help="build and enroll one object's eigenspace")
    p.add_argument("images", nargs="*", help="PGM files named <obj>_<angle>[_occ].pgm")
    p.add_argument("--manifest", help="tab-separated path/object/angle/occluded list")
    p.add_argument("--object", required=True)
    p.add_argument("--registry", default=None)
    p.add_argument("--threshold", type=_parse_threshold, default=None,
                   help="unknown cutoff or 'auto' (default: keep the registry's, else auto)")
    p.add_argument("--margin", type=_decimal, default=None,
                   help="auto threshold margin (default: keep the registry's, else 1.5)")
    p.add_argument("--tau", type=_decimal, default=0.95, help="energy threshold for k")
    p.add_argument("--k", type=_integer, default=None, help="fixed k override")
    p.add_argument("--norm", choices=["raw", "unit"], default="unit")
    centering = p.add_mutually_exclusive_group()
    centering.add_argument("--centered", dest="centered", action="store_true", default=True)
    centering.add_argument("--uncentered", dest="centered", action="store_false")
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
    p.add_argument("--dims", type=_integer, default=3)
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
