"""Command-line pipeline: synth, occlude, learn, recognize, evaluate, inspect.

Every flag value is read by an argparse `type=` reader, so a bad one is a
usage error naming the flag, raised before any command runs. Every integer
the CLI reads is ASCII decimal digits and nothing else (no sign, `_`,
surrounding space or other digits): `_integer` reads flags and list fields,
`_VIEW_STEM` file names and `_MANIFEST_LINE` manifest lines. Every decimal
flag (`--tau`, `--margin`, `--threshold`) is read by `_decimal`: ASCII digits,
then an optional fraction and exponent. A comma list is split by `_fields`,
which strips each field, rejects an empty one and quotes the list in a bad
field's error. Every range check but `--angles`', and `learn`'s defaults, stay
with the code that holds them: `imgio.vectorize`, `EigenspaceConfig`, `EnrollmentPolicy`.

Each command reads its flags and images, leaves the work to the library and
prints the result. `learn` makes one library call, `ObjectRegistry.enroll_dir`,
which reads and writes the registry directory in one locked pass.

Exit codes: 0 success (or Known), 1 error (a usage error included),
2 Unknown appearance.
"""

import os
import re
import sys
from argparse import ArgumentParser, ArgumentTypeError
from dataclasses import replace

import numpy as np

from . import imgio, recog
from .eigenspace import EigenspaceConfig
from .errors import EigengazeError
from .imgio import OcclusionSpec, ViewLabel
from .registry import _OBJECT_ID, AUTO, ObjectRegistry, _read_model

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


def _integer(text: str) -> int:
    if _DIGITS.fullmatch(text) is None:
        raise ArgumentTypeError(f"{text!r} is not an integer in ASCII digits 0-9")
    return int(text)


def _decimal(text: str) -> float:
    if _DECIMAL.fullmatch(text) is None:
        raise ArgumentTypeError(f"{text!r} is not a decimal number: ASCII digits 0-9, "
                                "then an optional .digits and an optional e[+-]digits")
    return float(text)


def _fields(text: str, read) -> list:
    """A comma list's fields, each stripped and read by `read`; none may be empty."""
    fields = [field.strip() for field in text.split(",")]
    if "" in fields:
        raise ArgumentTypeError(f"{text!r} has an empty field")
    try:
        return [read(field) for field in fields]
    except ArgumentTypeError as exc:
        raise ArgumentTypeError(f"{text!r}: {exc}") from None


def _distinct(text: str, read) -> list:
    """The list's fields, none of which may repeat, since each one names its own files."""
    values = _fields(text, read)
    repeated = sorted({value for value in values if values.count(value) > 1})
    if repeated:
        raise ArgumentTypeError(f"{text!r} names {', '.join(map(str, repeated))} more than once")
    return values


def _object_id(text: str) -> str:
    """An id names its files, so it follows the registry's rule."""
    if _OBJECT_ID.fullmatch(text) is None:
        raise ArgumentTypeError(f"object id {text!r} must match {_OBJECT_ID.pattern}")
    return text


def _angles(text: str) -> list:
    angles = _distinct(text, _integer)
    if max(angles) > 359:
        raise ArgumentTypeError(f"{text!r} names an angle outside [0, 359]")
    return angles


def _rect(text: str) -> list:
    rect = _fields(text, _integer)
    if len(rect) != 4:
        raise ArgumentTypeError(f"{text!r} must be four integers x0,y0,w,h")
    return rect


def _registry(text: str) -> str:
    """A registry directory's path; an empty one would name the working directory."""
    if not text:
        raise ArgumentTypeError("the registry path is empty")
    return text


def _parse_threshold(text: str):
    return AUTO if text == AUTO else _decimal(text)


def _given(args, **dests) -> dict:
    """field=value for each field whose flag, named by its dest, was given."""
    return {field: getattr(args, dest) for field, dest in dests.items()
            if getattr(args, dest) is not None}


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
            entries.append((image, obj, int(angle) % 360, flag == "1"))
    return entries


# --- commands ---

def cmd_synth(args) -> int:
    for obj in args.objects:
        for angle in args.angles:
            image = imgio.synth_view(obj, angle, args.side, args.seed)
            os.makedirs(args.out, exist_ok=True)  # after a render: a bad --side writes nothing
            out = os.path.join(args.out, f"{obj}_{angle}.pgm")
            with open(out, "wb") as f:
                f.write(imgio.write_pgm(image, binary=args.binary))
    print(f"wrote {len(args.objects) * len(args.angles)} images to {args.out}")
    return EXIT_OK


def cmd_occlude(args) -> int:
    occluded = imgio.apply_occlusion(_read_image(args.input), OcclusionSpec(*args.rect, args.fill))
    with open(args.output, "wb") as f:
        f.write(imgio.write_pgm(occluded, binary=args.binary))
    print(f"wrote {args.output}")
    return EXIT_OK


def cmd_learn(args) -> int:
    config = EigenspaceConfig(**_given(args, energy_threshold="tau"))
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
        raise EigengazeError(f"no input images for object {args.object!r}")

    appearances = [
        imgio.vectorize(_read_image(path), label=label)
        for path, label in entries
    ]

    policy = _given(args, unknown_threshold="threshold", auto_margin="margin")
    es = ObjectRegistry.enroll_dir(args.registry, args.object, appearances, config, **policy)

    print(f"object {args.object}: {len(appearances)} appearances, k = {es.k}")
    # shares of the whole spectrum's energy, the Gram trace: the views' summed |v - mean|^2
    shares = es.eigenvalues / float(sum(np.sum((v.values - es.mean) ** 2) for v in appearances))
    print("  i  eigenvalue        energy  cumulative")
    for i, (lam, share, cum) in enumerate(zip(es.eigenvalues, shares, np.cumsum(shares))):
        print(f"  {i:<2} {lam:<16.10g} {share:7.4f}  {cum:9.4f}")
    return EXIT_OK


def cmd_recognize(args) -> int:
    reg = ObjectRegistry.load_dir(args.registry)
    reg.policy = replace(reg.policy, **_given(args, unknown_threshold="threshold"))
    v = imgio.vectorize(_read_image(args.image))

    decision = reg.decide(v)
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
    reg = ObjectRegistry.load_dir(args.registry)

    # evaluate reads only each query's true id, and raises EmptyQuerySet on none
    queries = [(imgio.vectorize(_read_image(path)), obj)
               for path, obj, _, _ in _read_manifest(args.manifest)]

    report = recog.evaluate(reg, queries)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="\n") as f:
            f.write(recog.report_csv(report))
    if args.text:
        with open(args.text, "w", encoding="utf-8", newline="\n") as f:
            f.write(recog.report_text(report))
    print(f"r = {float(report.r):.4f} ({report.m}/{report.P})")
    return EXIT_OK


def cmd_inspect(args) -> int:
    es = _read_model(args.model)[0]
    if not 1 <= args.dims <= es.k:
        raise EigengazeError(f"dims must be in [1, {es.k}], got {args.dims}")
    lines = ["angle_deg,occluded," + ",".join(f"c{i + 1}" for i in range(args.dims))]
    for label, coords in zip(es.labels, es.coords[:, : args.dims].tolist()):
        lines.append(f"{label.view_angle_deg},{int(label.occluded)},"
                     + ",".join(format(c, ".17g") for c in coords))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# --- argument parsing ---

def build_parser() -> ArgumentParser:
    parser = ArgumentParser(
        prog="eigengaze",
        description="Learn per-object eigenspaces and recognize appearances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic view images")
    p.add_argument("--objects", type=lambda text: _distinct(text, _object_id), required=True,
                   help="comma-separated object ids")
    p.add_argument("--out", required=True)
    p.add_argument("--side", type=_integer, default=32)
    p.add_argument("--angles", type=_angles, default=DEFAULT_ANGLES)
    p.add_argument("--seed", type=_integer, default=1)
    p.add_argument("--binary", action="store_true", help="write P5 instead of P2")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("occlude", help="overwrite a rectangle of an image")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--rect", type=_rect, required=True, help="x0,y0,w,h")
    p.add_argument("--fill", type=_integer, default=0)
    p.add_argument("--binary", action="store_true")
    p.set_defaults(func=cmd_occlude)

    p = sub.add_parser("learn", help="build and enroll one object's eigenspace")
    p.add_argument("images", nargs="*", help="PGM files named <obj>_<angle>[_occ].pgm")
    p.add_argument("--manifest", help="tab-separated path/object/angle/occluded list")
    p.add_argument("--object", type=_object_id, required=True)
    p.add_argument("--registry", type=_registry, required=True)
    p.add_argument("--threshold", type=_parse_threshold,
                   help="unknown cutoff or 'auto' (default: keep the registry's, else auto)")
    p.add_argument("--margin", type=_decimal,
                   help="auto threshold margin (default: keep the registry's, else 1.5)")
    p.add_argument("--tau", type=_decimal, help="energy threshold for k")
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("recognize", help="classify one appearance")
    p.add_argument("image")
    p.add_argument("--registry", type=_registry, required=True)
    p.add_argument("--threshold", type=_parse_threshold)
    p.set_defaults(func=cmd_recognize)

    p = sub.add_parser("evaluate", help="recognition rate over a labeled manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--registry", type=_registry, required=True)
    p.add_argument("--csv", default=None)
    p.add_argument("--text", default=None)
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
