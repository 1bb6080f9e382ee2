"""Run the README's CLI walkthrough against one source tree, print what it
did as JSON and check seven invariants of it.

    python tests/walkthrough.py src > walkthrough.json

`src` is a checkout's `src` or the directory holding an installed
`eigengaze`. Each of the JSON's `steps` is one of `commands()`, run in a
fresh temporary directory: its argv, exit code, stdout, stderr and the
sha256 of each file it wrote (`null` if removed, `dir` for a directory);
`files` holds the same for each path left. Two trees that behave alike
print identical JSON on one machine; digests may differ across BLAS builds.
The script prints each broken invariant to stderr and then exits 1:

- I1: after their four learns, models/ (P2 views) equals models-p5/ (P5);
- I2: each documented usage error exits 1 and writes nothing;
- I3: recognize with --threshold 1e-12 exits 2, and every other step,
  the plain recognize included, exits 0;
- I4: the resave writes a resaved/ equal to models/;
- I5: without the .f8 sidecars, each query repeats its exit code,
  stdout and stderr, and writes nothing;
- I6: the last learn leaves each earlier .eig, and the .f8 it writes again,
  equal to resaved/'s;
- I7: no file whose name ends in .tmp is left anywhere in the tree.

pytest does not collect this file; tests/test_walkthrough.py tests `check`.
"""

import hashlib
import json
import os
import shlex
import subprocess
import sys
import tempfile
from glob import glob
from pathlib import Path

OBJECTS = ["key-holder", "mobile", "pencil-box", "stapler"]
SYNTH = ["eigengaze", "synth", "--objects", ",".join(OBJECTS)]


def learn(obj, registry, *args):
    return ["eigengaze", "learn", "--object", obj, "--registry", registry, *args]


LAST_P5 = learn(OBJECTS[-1], "models-p5", f"data-p5/{OBJECTS[-1]}_*.pgm")
EXTRA = learn("extra", "models", "data/mobile_*.pgm")
RECOGNIZE = ["eigengaze", "recognize", "data/mobile_20.pgm", "--registry", "models"]
UNKNOWN = [*RECOGNIZE, "--threshold", "1e-12"]
EVALUATE = ["eigengaze", "evaluate", "--manifest", "queries.tsv", "--registry", "models"]
INSPECT = ["eigengaze", "inspect", "models/mobile.eig", "--dims"]
QUERIES = [
    RECOGNIZE, UNKNOWN, [*EVALUATE, "--csv", "report.csv"], [*EVALUATE, "--text", "report.txt"],
    [*INSPECT, "3"], [*INSPECT, "5", "--out", "coords.csv"],
]
USAGE_ERRORS = [
    ["eigengaze", "synth", "--out", "bad", *flags,
     *([] if "--objects" in flags else ["--objects", "mobile"])]
    for flags in (["--side", "1_6"], ["--side", " 16"], ["--seed", "+1"], ["--seed", "-1"],
                  ["--objects", ",A,,B,", "--angles", ",10,,20,"], ["--objects", "A,A"],
                  ["--angles", "10,010"], ["--objects", ""], ["--objects", ","],
                  ["--objects", "../x"])
] + [
    ["eigengaze", "occlude", "data/mobile_20.pgm", "bad.pgm", "--rect", rect, "--fill", fill]
    for rect, fill in (("١,+2,1_0,4", "0"), ("1,2,3,1_0", "0"), ("2, 2, 16, 10", "+0"))
] + [
    [*EXTRA, *flags]
    for flags in (["--k", "٢"], ["--margin", "1_5"], ["--tau", ".9_5"], ["--threshold", "٠.٥"],
                  ["--margin", " 2"], ["--threshold", "0"], ["--margin", "0.5"],
                  ["--manifest", "queries.tsv"], ["--k", "0"], ["--centered"], ["--norm", "unit"],
                  ["--uncentered"], ["--k", "3"])
] + [learn("extra", "models", "queries.tsv"), learn("../x", "models", "--manifest", "queries.tsv"),
     [*INSPECT, "３"], [*RECOGNIZE, "--in-space-only"],
     ["EIGENGAZE_REGISTRY=models", "eigengaze", "recognize", "data/mobile_20.pgm"]]
RESAVE = ["python", "-c",
          "import eigengaze as eg; eg.ObjectRegistry.load_dir('models').save_dir('resaved')"]
RM_SIDECARS = ["rm", "models/*.f8"]


def commands():
    """The walkthrough's argv lists, in order."""
    for out, registry, binary in (("data", "models", []), ("data-p5", "models-p5", ["--binary"])):
        yield [*SYNTH, "--out", out, "--side", "32", "--seed", "1", *binary]
        yield ["eigengaze", "occlude", f"{out}/mobile_40.pgm", f"{out}/mobile_40_occ.pgm",
               "--rect", "2,2,16,10", "--fill", "0", *binary]
        for obj in OBJECTS:
            yield learn(obj, registry, f"{out}/{obj}_*.pgm")
    for obj in OBJECTS:
        yield learn(obj, "models-raw", f"data/{obj}_*.pgm",
                    "--tau", "0.9", "--threshold", "0.5", "--margin", "2")
    yield ["eigengaze", "synth", "--objects", "mobile,stapler", "--out", "held-out", "--side", "32",
           "--seed", "1", "--angles", "15,45"]
    yield learn("mobile", "models-manifest", "--manifest", "queries.tsv")
    # an odd side and a second seed
    for out, binary in (("side-33", []), ("side-33-p5", ["--binary"])):
        yield [*SYNTH, "--out", out, "--side", "33", "--seed", "12", *binary]
    yield from QUERIES
    yield from USAGE_ERRORS
    yield RESAVE
    yield RM_SIDECARS
    yield from QUERIES
    yield EXTRA


def digests(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            if p.is_file() else "dir" for p in sorted(root.rglob("*"))}


def walk(src: Path, work: Path) -> list:
    """Run `commands()` in `work` as a shell would: leading NAME=value words set
    the environment, a word with `*` expands to the sorted paths it matches,
    `eigengaze` is the package's CLI and `python` this interpreter."""
    base = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    prefix = {"eigengaze": [sys.executable, "-m", "eigengaze.cli"], "python": [sys.executable]}
    steps, seen = [], digests(work)
    for argv in commands():
        n = next(i for i, word in enumerate(argv) if "=" not in word)
        args = [word for arg in argv[n + 1:]
                for word in (sorted(glob(arg, root_dir=work)) if "*" in arg else [arg])]
        proc = subprocess.run([*prefix.get(argv[n], [argv[n]]), *args], capture_output=True,
                              cwd=work, env={**base, **dict(w.split("=", 1) for w in argv[:n])})
        now = digests(work)
        written = {name: d for name, d in now.items() if seen.get(name) != d}
        written.update({name: None for name in seen if name not in now})
        seen = now
        steps.append({"argv": argv, "exit": proc.returncode,
                      "stdout": proc.stdout.decode("utf-8", "backslashreplace"),
                      "stderr": proc.stderr.decode("utf-8", "backslashreplace"),
                      "written": written})
    return steps


def files_after(steps, prefix: str) -> dict:
    """The files under `prefix` once `steps` have run, replayed from their `written`."""
    files = {name[len(prefix):]: digest for step in steps
             for name, digest in step["written"].items() if name.startswith(prefix)}
    return {name: digest for name, digest in files.items() if digest is not None}


def check(result) -> list:
    """One message per broken invariant (I1-I7 in the module docstring)."""
    steps, errors = result["steps"], []

    def runs(invariant, argv):
        found = [i for i, step in enumerate(steps) if step["argv"] == argv]
        if not found:
            errors.append(f"{invariant}: no step runs {shlex.join(argv)}")
        return found

    def differ(i, prefix, names=()):
        """The names whose file under `prefix` and under models/, after step i, differ."""
        models, other = files_after(steps[:i + 1], "models/"), files_after(steps[:i + 1], prefix)
        return sorted(name for name in names or models.keys() | other.keys()
                      if name not in models or models[name] != other.get(name))

    for invariant, argv, prefix, names in (
            ("I1", LAST_P5, "models-p5/", ()), ("I4", RESAVE, "resaved/", ()),
            ("I6", EXTRA, "resaved/", [obj + ext for obj in OBJECTS for ext in (".eig", ".f8")])):
        for i in runs(invariant, argv):
            if changed := differ(i, prefix, names):
                errors.append(f"{invariant}: after {shlex.join(argv)}, {prefix} and models/ "
                              f"differ in {changed}")
    for argv in [*USAGE_ERRORS, RECOGNIZE, UNKNOWN]:
        runs("I2" if argv in USAGE_ERRORS else "I3", argv)
    for step in steps:
        usage = step["argv"] in USAGE_ERRORS
        code = 1 if usage else 2 if step["argv"] == UNKNOWN else 0
        if step["exit"] != code or (usage and step["written"]):
            errors.append(f"{'I2' if usage else 'I3'}: {shlex.join(step['argv'])}: exit "
                          f"{step['exit']}, want {code}; writes {sorted(step['written'])}")
    for rm in runs("I5", RM_SIDECARS):
        pairs = list(zip((step for step in steps[:rm] if step["argv"] in QUERIES),
                         (step for step in steps[rm + 1:] if step["argv"] in QUERIES)))
        changed = [shlex.join(before["argv"]) for before, after in pairs if after["written"] or any(
            before[key] != after[key] for key in ("argv", "exit", "stdout", "stderr"))]
        if len(pairs) != len(QUERIES) or changed:
            errors.append(f"I5: without sidecars, {len(pairs)} of {len(QUERIES)} queries rerun, "
                          f"and {changed} change")
    # each save writes a temporary file of its own name, so a leaked one would
    # otherwise show only as JSON that differs from run to run
    if left := sorted(name for name in result["files"] if name.endswith(".tmp")):
        errors.append(f"I7: temporary files left: {left}")
    return sorted(errors)


def main() -> int:
    if len(sys.argv) != 2:
        print("usage: python tests/walkthrough.py <src>", file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory(prefix="eigengaze-walkthrough-") as tmp:
        work = Path(tmp)
        (work / "queries.tsv").write_text("".join(
            f"held-out/{obj}_{angle}.pgm\t{obj}\t{angle}\t0\n"
            for obj in ("mobile", "stapler") for angle in (15, 45)
        ), encoding="utf-8")
        result = {"steps": walk(Path(sys.argv[1]).resolve(), work), "files": digests(work)}
    json.dump(result, sys.stdout, indent=1)
    print()
    errors = check(result)
    for error in errors:
        print(error, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
