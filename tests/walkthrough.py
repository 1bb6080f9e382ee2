"""Run the README's CLI walkthrough against one source tree and print what it did.

    python tests/walkthrough.py src > walkthrough.json

The walkthrough runs in a fresh temporary directory, with the package
imported from the given `src` path. It learns a registry from P2 views and
another from the same views written as P5, writes side-33 views of a second
seed as P2 and P5, recognizes, evaluates, inspects, tries each documented
usage error, resaves the loaded registry, and then repeats the queries and a
`learn` after deleting the `.f8` sidecars.

It prints one JSON object. `steps` holds, for each command, its argv, exit
code, stdout, stderr and the sha256 of every file it created or changed
(`null` for a file it removed). `files` holds the sha256 of every file left
at the end. Two source trees that behave alike print identical JSON on one
machine; digests may differ across BLAS builds. pytest does not collect this
file.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

OBJECTS = ["key-holder", "mobile", "pencil-box", "stapler"]
RESAVE = "import eigengaze as eg; eg.ObjectRegistry.load_dir('models').save_dir('resaved')"


def digests(root: Path) -> dict:
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class Walk:
    def __init__(self, src: Path, work: Path):
        self.work = work
        self.env = {k: v for k, v in os.environ.items() if k != "EIGENGAZE_REGISTRY"}
        self.env["PYTHONPATH"] = str(src)
        self.env["PYTHONDONTWRITEBYTECODE"] = "1"
        self.steps = []
        self.seen = digests(work)

    def run(self, *argv):
        """`eigengaze <argv>`, or a Python snippet when argv starts with "-c"."""
        shown = ["python", *argv] if argv[0] == "-c" else ["eigengaze", *argv]
        cmd = [sys.executable, *(argv if argv[0] == "-c" else ("-m", "eigengaze.cli", *argv))]
        proc = subprocess.run(cmd, cwd=self.work, env=self.env, capture_output=True)
        self.steps.append({
            "argv": shown,
            "exit": proc.returncode,
            "stdout": proc.stdout.decode("utf-8", "backslashreplace"),
            "stderr": proc.stderr.decode("utf-8", "backslashreplace"),
            "written": self.changes(),
        })

    def changes(self) -> dict:
        now = digests(self.work)
        written = {name: d for name, d in now.items() if self.seen.get(name) != d}
        written.update({name: None for name in self.seen if name not in now})
        self.seen = now
        return written


def views(work: Path, out: str, obj: str) -> list:
    """The shell glob `<out>/<obj>_*.pgm`, as relative paths."""
    return sorted(p.relative_to(work).as_posix() for p in (work / out).glob(f"{obj}_*.pgm"))


def walkthrough(walk: Walk):
    run, work = walk.run, walk.work
    names = ",".join(OBJECTS)
    for out, binary in (("data", []), ("data-p5", ["--binary"])):
        run("synth", "--objects", names, "--out", out, "--side", "32", "--seed", "1", *binary)
        run("occlude", f"{out}/mobile_40.pgm", f"{out}/mobile_40_occ.pgm",
            "--rect", "2,2,16,10", "--fill", "0", *binary)
        registry = "models" if out == "data" else "models-p5"
        for obj in OBJECTS:
            run("learn", "--object", obj, "--registry", registry, *views(work, out, obj))

    run("synth", "--objects", "mobile,stapler", "--out", "held-out", "--side", "32",
        "--seed", "1", "--angles", "15,45")
    # an odd side and a second seed
    for out, binary in (("side-33", []), ("side-33-p5", ["--binary"])):
        run("synth", "--objects", names, "--out", out, "--side", "33", "--seed", "12", *binary)
    (work / "queries.tsv").write_text("".join(
        f"held-out/{obj}_{angle}.pgm\t{obj}\t{angle}\t0\n"
        for obj in ("mobile", "stapler") for angle in (15, 45)
    ), encoding="utf-8")
    walk.changes()

    def queries():
        run("recognize", "data/mobile_20.pgm", "--registry", "models")
        run("recognize", "data/mobile_20.pgm", "--registry", "models", "--threshold", "1e-12")
        run("evaluate", "--manifest", "queries.tsv", "--registry", "models", "--csv", "report.csv")
        run("inspect", "models/mobile.eig", "--dims", "3")
        run("inspect", "models/mobile.eig", "--dims", "5", "--out", "coords.csv")

    queries()

    # each documented usage error exits 1 and writes nothing
    mobile = views(work, "data", "mobile")
    for flags in (["--side", "1_6"], ["--side", " 16"], ["--seed", "+1"], ["--seed", "-1"],
                  ["--objects", ",A,,B,", "--angles", ",10,,20,"], ["--objects", "A,A"],
                  ["--angles", "10,010"], ["--objects", ""], ["--objects", ","],
                  ["--objects", "../x"]):
        argv = ["synth", "--out", "bad", *flags]
        run(*(argv if "--objects" in flags else [*argv, "--objects", "mobile"]))
    for rect, fill in (("١,+2,1_0,4", "0"), ("1,2,3,1_0", "0"), ("2, 2, 16, 10", "+0")):
        run("occlude", "data/mobile_20.pgm", "bad.pgm", "--rect", rect, "--fill", fill)
    for flags in (["--k", "٢"], ["--margin", "1_5"], ["--tau", ".9_5"], ["--threshold", "٠.٥"],
                  ["--margin", " 2"], ["--threshold", "0"], ["--margin", "0.5"],
                  ["--manifest", "queries.tsv"]):
        run("learn", "--object", "extra", "--registry", "models", *mobile, *flags)
    run("learn", "--object", "extra", "--registry", "models", "queries.tsv")
    run("inspect", "models/mobile.eig", "--dims", "３")

    run("-c", RESAVE)
    for sidecar in sorted((work / "models").glob("*.f8")):
        sidecar.unlink()
    walk.changes()
    queries()
    run("learn", "--object", "extra", "--registry", "models", *mobile)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python tests/walkthrough.py <src>", file=sys.stderr)
        return 1
    src = Path(argv[0]).resolve()
    with tempfile.TemporaryDirectory(prefix="eigengaze-walkthrough-") as tmp:
        work = Path(tmp)
        walk = Walk(src, work)
        walkthrough(walk)
        files = digests(work)
    json.dump({"steps": walk.steps, "files": files}, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
