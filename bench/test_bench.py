"""Tests of the benchmark's own code: span arithmetic, percentile rules,
failure counting, seeded inputs, and tiny runs of every workload, including
corrupted results that the output checks must reject."""

import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import eigengaze as eg  # noqa: E402
import inputs  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from measure import Op, beyond, fail_counts, percentile, tail_percentile  # noqa: E402
from workloads import WORKLOADS, Context  # noqa: E402

TINY = inputs.Sizes(
    train_angles=(0, 45, 90, 135, 180, 225, 270, 315),
    eval_angles=(20, 200),
    eval_occluded=1,
    enroll_objects=2,
    query_objects=3,
    recognize_clean=1,
    recognize_occluded=1,
    recognize_novel=1,
    ow_initial=2,
    ow_arrivals=2,
    ow_decisions=2,
    novel_objects=2,
)


def span(name, start, end, parent=-1):
    return {"name": name, "start": start, "end": end, "parent": parent, "op": None, "attrs": {}}


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        span("a", 0.0, 10.0),
        span("b", 1.0, 4.0, 0),
        span("c", 3.0, 6.0, 0),   # overlaps b: union of b and c is [1, 6]
        span("d", 8.0, 12.0, 0),  # runs past a: only [8, 10] counts
        span("e", 2.0, 3.0, 1),   # grandchild: counts against b, not a
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 4.0, 1.0])


def test_reduce_attributes_cli_time_to_import_main_and_startup():
    spans = [span("cli.import", 0.0, 0.2), span("cli.main", 0.2, 1.0),
             span("registry.load_dir", 0.3, 0.6, 1), span("eigenspace.load_model", 0.4, 0.5, 2)]
    spans[3]["attrs"] = {"bytes": 7}
    calls, self_s, tot, layer_self = tracing.reduce([(spans, 1.5)])
    assert calls["registry.load_dir"] == 1
    assert self_s["registry.load_dir"] == pytest.approx(0.2)
    assert self_s["cli.main"] == pytest.approx(0.5)
    assert tot["import_s"] == pytest.approx(0.2)
    assert tot["startup_s"] == pytest.approx(0.5)
    assert tot["load_bytes"] == 7
    assert layer_self == pytest.approx(1.5)


def test_threshold_calls_are_useful_only_after_the_registry_changed():
    states = ["a", "a", "a/b", "a/b", "a/b"]
    spans = [span("registry.effective_threshold", i, i + 0.5) for i in range(5)]
    for s, st in zip(spans, states):
        s["attrs"] = {"state": st}
    _, _, tot, _ = tracing.reduce([(spans, 5.0)])
    assert tot["threshold_useful"] == 2


def test_tail_is_the_highest_percentile_with_ten_samples_beyond_it():
    assert [tail_percentile(n) for n in (20, 35, 39, 100, 200, 1000, 10_000)] == \
        [50, 50, 75, 90, 95, 99, 99.9]
    assert tail_percentile(5) == 50  # too few for any: the median
    for n in (20, 40, 100, 1000):
        p = tail_percentile(n)
        xs = list(range(n))
        assert sum(x > percentile(xs, p) for x in xs) == beyond(n, p) >= 10


def test_percentile_matches_numpy():
    xs = np.random.default_rng(0).random(37).tolist()
    for p in (0, 50, 75, 90, 100):
        assert percentile(xs, p) == pytest.approx(np.percentile(xs, p))


def test_fail_counts_every_failed_operation_once():
    ops = [Op("learn", 1.0), Op("learn", 1.0, ["exit 1"]), Op("learn", 1.0, ["a", "b"])]
    assert fail_counts(ops) == (3, 2)


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    ctx = Context(tmp_path, {}, 7, TINY, False)
    a = WORKLOADS["enroll"]().setup(ctx, tmp_path / "a")
    b = WORKLOADS["enroll"]().setup(ctx, tmp_path / "b")
    files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*.pgm"))
    assert files and a["digest"] == b["digest"]
    assert all((tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes() for f in files)
    other = WORKLOADS["enroll"]().setup(Context(tmp_path, {}, 8, TINY, False), tmp_path / "c")
    assert other["digest"] != a["digest"]


def test_model_checks_reject_a_broken_basis():
    views = inputs.training_views("obj-00", 3, TINY)
    es = eg.build_eigenspace("obj-00", [v.vector() for v in views], eg.EigenspaceConfig())
    units = {v.angle: ref.unit_vector(v.image) for v in views}
    model = ref.Model.from_eigenspace(es)
    assert ref.model_problems(model, units) == []
    model.basis[0] *= 1.01
    assert any("orthonormal" in p for p in ref.model_problems(model, units))


@pytest.mark.parametrize("name", ["enroll", "query", "open_world"])
def test_tiny_run_passes_every_check(name, tmp_path):
    report = run.run_workload(name, 5, 0, 0, tmp_path, TINY)
    assert report["problems"] == []
    assert report["fail"][0] > 0 and report["fail"][1] == 0
    assert set(run.metrics_of(report, 0)) == {n for n, _ in run.END_TO_END}
    assert all(v["value"] > 0 for v in run.metrics_of(report, 0).values())


def test_traced_run_reports_every_layer_and_stays_within_its_wall(tmp_path):
    report = run.run_workload("enroll", 5, 0, 1, tmp_path, TINY)
    assert report["problems"] == []
    layers = report["layers"]
    assert set(layers) == {n for n, _ in run.PER_LAYER}
    assert layers["cli.processes"] == TINY.enroll_objects
    assert layers["linalg.sym_eigen.order_sum"] == TINY.enroll_objects * len(TINY.train_angles)
    # learn k rewrites all k models: 2 new of 1 + 2 written
    assert layers["registry.save_dir.useful_ratio"] == pytest.approx(2 / 3)
    assert layers["trace.layer_self_s"] <= layers["trace.wall_s"] + 1e-3


def test_query_checks_reject_a_corrupted_model_file(tmp_path):
    workload = WORKLOADS["query"]()
    ctx = Context(tmp_path, dict(os.environ, PYTHONPATH=str(run.SRC)), 5, TINY, False)
    state = workload.setup(ctx, tmp_path / "s")
    workload.verify(ctx, state)
    assert not any(op.failed for op in workload.run_pass(ctx, state).ops)
    model = tmp_path / "s" / "registry" / "obj-00.eig"
    lines = model.read_text().split("\n")
    mean = lines[5].split(" ")
    mean[1:] = [repr(float(x) * 1.001) for x in mean[1:]]
    lines[5] = " ".join(mean)
    model.write_text("\n".join(lines))
    ops = workload.run_pass(ctx, state).ops
    assert all(op.failed for op in ops if op.kind == "recognize")


def test_open_world_checks_reject_a_wrong_threshold(tmp_path, monkeypatch):
    real = eg.ObjectRegistry.effective_threshold
    monkeypatch.setattr(eg.ObjectRegistry, "effective_threshold", lambda self: 0.5 * real(self))
    report = run.run_workload("open_world", 5, 0, 0, tmp_path, TINY)
    decides = TINY.ow_arrivals * TINY.ow_decisions
    assert report["fail"][1] == decides
    assert all("threshold" in p for p in report["problems"])
