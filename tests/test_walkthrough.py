"""tests/walkthrough.py's `check` names each invariant a walkthrough breaks.

Each case takes a result that keeps every invariant and breaks one, as a
faulty source tree would, and the checker must name it: mutation analysis of
the checker itself, with no subprocess run. One test also runs the
walkthrough on the package under test and pins its stdout's sha256.
"""

import hashlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

import eigengaze

from conftest import assert_matches_golden

_spec = importlib.util.spec_from_file_location(
    "walkthrough", Path(__file__).with_name("walkthrough.py"))
wt = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(wt)

SAVED = [obj + ext for obj in wt.OBJECTS for ext in (".eig", ".f8")] + ["registry.manifest"]
# the steps the mutations below break, named by argv so that no reordering retargets one
BAD_SIDE = ["eigengaze", "synth", "--out", "bad", "--side", "1_6", "--objects", "mobile"]
REPEATED_OBJECT = ["eigengaze", "synth", "--out", "bad", "--objects", "A,A"]
IN_SPACE_ONLY = [*wt.RECOGNIZE, "--in-space-only"]
REGISTRY_VARIABLE = ["EIGENGAZE_REGISTRY=models", "eigengaze", "recognize", "data/mobile_20.pgm"]
EVALUATE_CSV = [*wt.EVALUATE, "--csv", "report.csv"]
EVALUATE_TEXT = [*wt.EVALUATE, "--text", "report.txt"]
INSPECT_OUT = [*wt.INSPECT, "5", "--out", "coords.csv"]


# numpy version -> sha256 of the walkthrough's stdout
WALKTHROUGH_GOLDENS = {
    "2.4.6": "3173db75a3eb99f9ca117f0e0b4b99b2576065a6a143964fcc546010042202cc",
}


def walkthrough_stdout() -> bytes:
    """The walkthrough's JSON for the package under test; it must exit 0."""
    src = Path(eigengaze.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, wt.__file__, str(src)], capture_output=True)
    assert (proc.returncode, proc.stderr) == (0, b"")
    return proc.stdout


def registry(directory):
    return {f"{directory}/{name}": f"digest of {name}" for name in SAVED}


def clean():
    """The walkthrough's own steps, with the outputs of a tree that keeps every invariant."""
    first = wt.learn(wt.OBJECTS[0], "models", f"data/{wt.OBJECTS[0]}_*.pgm")
    written = {
        tuple(first): registry("models"),
        tuple(wt.LAST_P5): registry("models-p5"),
        tuple(wt.RESAVE): registry("resaved"),
        tuple(wt.RM_SIDECARS): {f"models/{obj}.f8": None for obj in wt.OBJECTS},
        tuple(wt.EXTRA): {**{f"models/{obj}.f8": f"digest of {obj}.f8" for obj in wt.OBJECTS},
                          "models/extra.eig": "new", "models/extra.f8": "new"},
    }
    steps = [{
        "argv": argv,
        "exit": 1 if argv in wt.USAGE_ERRORS else 2 if argv == wt.UNKNOWN else 0,
        "stdout": "",
        "stderr": "",
        "written": dict(written.get(tuple(argv), {})),
    } for argv in wt.commands()]
    return {"steps": steps, "files": {}}


def runs(result, argv):
    return [step for step in result["steps"] if step["argv"] == argv]


def drop(result, argv):
    result["steps"] = [step for step in result["steps"] if step["argv"] != argv]


def write_no_sidecars(result):
    for step in result["steps"]:
        step["written"] = {name: d for name, d in step["written"].items() if name[-3:] != ".f8"}


def lose_a_sidecar(result):
    runs(result, wt.RESAVE)[0]["written"].pop("resaved/mobile.f8")
    runs(result, wt.EXTRA)[0]["written"].pop("models/mobile.f8")


BREAKS = {
    "p5-model-differs": ("I1", lambda r: runs(r, wt.LAST_P5)[0]["written"].update(
        {"models-p5/mobile.eig": "other"})),
    "p5-learn-missing": ("I1", lambda r: drop(r, wt.LAST_P5)),
    "usage-error-writes": ("I2", lambda r: runs(r, [*wt.EXTRA, "--margin", "1_5"])[0].update(
        written={"models/extra.eig": "new"})),
    "usage-error-exits-0": ("I2", lambda r: runs(r, BAD_SIDE)[0].update(exit=0)),
    "usage-error-makes-a-directory": ("I2", lambda r: runs(r, REPEATED_OBJECT)[0].update(
        written={"bad": "dir"})),
    "usage-error-missing": ("I2", lambda r: drop(r, IN_SPACE_ONLY)),
    "registry-variable-read": ("I2", lambda r: [step.update(exit=0)
                                                for step in runs(r, REGISTRY_VARIABLE)]),
    "unknown-exits-0": ("I3", lambda r: runs(r, wt.UNKNOWN)[0].update(exit=0)),
    "known-exits-2": ("I3", lambda r: runs(r, wt.RECOGNIZE)[-1].update(exit=2)),
    "evaluate-exits-1": ("I3", lambda r: [step.update(exit=1) for step in runs(r, EVALUATE_TEXT)]),
    "p5-learn-fails": ("I3", lambda r: runs(r, wt.LAST_P5)[0].update(exit=1)),
    "rm-fails": ("I3", lambda r: runs(r, wt.RM_SIDECARS)[0].update(exit=1, written={})),
    "last-learn-fails": ("I3", lambda r: runs(r, wt.EXTRA)[0].update(exit=1)),
    "resaved-differs": ("I4", lambda r: runs(r, wt.RESAVE)[0]["written"].update(
        {"resaved/mobile.f8": "other"})),
    "resave-misses-a-file": ("I4", lambda r: runs(r, wt.RESAVE)[0]["written"].pop(
        "resaved/registry.manifest")),
    "resave-fails": ("I4", lambda r: runs(r, wt.RESAVE)[0].update(exit=1, written={})),
    "stdout-changes": ("I5", lambda r: runs(r, wt.RECOGNIZE)[-1].update(stdout="other")),
    "exit-changes": ("I5", lambda r: runs(r, EVALUATE_TEXT)[-1].update(exit=1)),
    "stderr-changes": ("I5", lambda r: runs(r, INSPECT_OUT)[-1].update(stderr="warning")),
    "query-writes": ("I5", lambda r: runs(r, EVALUATE_TEXT)[-1].update(
        written={"report.csv": "other"})),
    "query-skipped": ("I5", lambda r: r["steps"].remove(runs(r, EVALUATE_CSV)[-1])),
    "query-replaced": ("I5", lambda r: runs(r, EVALUATE_CSV)[-1].update(argv=wt.RECOGNIZE)),
    "last-query-not-repeated": ("I5", lambda r: r["steps"].remove(runs(r, INSPECT_OUT)[-1])),
    "eig-changes": ("I6", lambda r: runs(r, wt.EXTRA)[0]["written"].update(
        {"models/mobile.eig": "other"})),
    "sidecar-not-rewritten": ("I6", lambda r: runs(r, wt.EXTRA)[0]["written"].pop(
        "models/mobile.f8")),
    "sidecars-never-written": ("I6", write_no_sidecars),
    "sidecar-lost-in-resave-and-last-learn": ("I6", lose_a_sidecar),
    "temporary-file-left": ("I7", lambda r: r["files"].update(
        {"models/registry.manifest.0123456789abcdef.tmp": "partial"})),
}


def test_a_clean_walkthrough_breaks_no_invariant():
    assert wt.check(clean()) == []
    assert_matches_golden(WALKTHROUGH_GOLDENS, "walkthrough",
                          lambda: hashlib.sha256(walkthrough_stdout()).hexdigest())


@pytest.mark.parametrize("invariant, breaks", BREAKS.values(), ids=BREAKS)
def test_each_broken_invariant_is_named(invariant, breaks):
    result = clean()
    breaks(result)
    errors = wt.check(result)
    assert any(error.startswith(f"{invariant}: ") for error in errors), errors
