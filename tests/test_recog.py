import math
import sys
import threading
import time
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import eigengaze as eg
from eigengaze.errors import DimensionMismatch, DimsTooLarge, EmptyQuerySet, EmptyRegistry
from eigengaze.recog import RecognitionResult, report_csv, report_text
from eigengaze.registry import EnrollmentPolicy, ObjectRegistry

from conftest import (
    OBJECTS,
    build_registry,
    project,
    query_set,
    residual,
    training_appearances,
)


def recognize_oracle(reg, v, in_space_only=False):
    """Reference: recognize written as a loop over every manifold point."""
    entries = []
    for order, es in enumerate(reg.spaces):
        g = project(es, v)
        dists = [float(np.linalg.norm(g - p.coords)) for p in es.manifold]
        best_idx = min(
            range(len(dists)),
            key=lambda i: (dists[i], es.manifold[i].label.view_angle_deg),
        )
        in_space = dists[best_idx]
        res = residual(es, v)
        score = in_space if in_space_only else math.hypot(in_space, res)
        label = es.manifold[best_idx].label
        entries.append((score, order, label.view_angle_deg, es, in_space, res, label))
    entries.sort(key=lambda e: e[:3])
    score, _, _, es, in_space, res, label = entries[0]
    ranked = tuple((e[3].object_id, e[0]) for e in entries)
    return RecognitionResult(es.object_id, label, in_space, res, score, ranked)


def assert_matches_oracle(reg, v, in_space_only):
    got = eg.recognize(reg, v, in_space_only=in_space_only)
    want = recognize_oracle(reg, v, in_space_only=in_space_only)
    assert got.best_object == want.best_object
    assert got.best_view == want.best_view
    assert [o for o, _ in got.ranked_candidates] == [o for o, _ in want.ranked_candidates]
    for (_, a), (_, b) in zip(got.ranked_candidates, want.ranked_candidates):
        assert a == pytest.approx(b, abs=1e-12)
    assert got.in_space_distance == pytest.approx(want.in_space_distance, abs=1e-12)
    assert got.residual == pytest.approx(want.residual, abs=1e-12)


def oracle_queries():
    """Held-out views, freshly occluded views at seeded spots, and views of
    an object that was never enrolled."""
    queries = [v for v, _ in query_set()]
    rng = np.random.default_rng(41)
    for _ in range(24):
        obj = OBJECTS[int(rng.integers(len(OBJECTS)))]
        img = eg.synth_view(obj, int(rng.integers(0, 100)), 32, 1)
        x0, y0 = (int(c) for c in rng.integers(0, 20, size=2))
        img = eg.apply_occlusion(img, eg.OcclusionSpec(x0, y0, 12, 12, 0))
        queries.append(eg.vectorize(img, "unit"))
    for angle in range(0, 100, 15):
        queries.append(eg.vectorize(eg.synth_view("widget", angle, 32, 1), "unit"))
    return queries


def cycled(items, n):
    """The first n items of items repeated end to end."""
    return [items[i % len(items)] for i in range(n)]


def twin_view_registry():
    """Object A, with its view at 50 degrees enrolled twice, first labelled 70."""
    apps = training_appearances("A")
    twin = next(a for a in apps if a.source_label.view_angle_deg == 50)
    apps.insert(0, eg.AppearanceVector(
        twin.dim, twin.values, twin.norm_mode, eg.ViewLabel("A", 70)
    ))
    reg = ObjectRegistry()
    reg.accumulate("A", apps, eg.EigenspaceConfig())
    return reg


# twins of A and of B, alternating, acquired in reverse name order: two groups
# of tied scores, which an unstable sort need not keep in order
MANY_TWINS = tuple((f"twin-{i:02d}", "AB"[i % 2]) for i in range(24, 0, -1))


def twin_space_registry(twins=(("zeta", "A"), ("alpha", "A"))):
    """Spaces acquired in order, each (name, obj) built from obj's views, so
    the spaces of one obj are twins."""
    reg = ObjectRegistry()
    for name, obj in twins:
        reg.accumulate(name, training_appearances(obj), eg.EigenspaceConfig())
    return reg


def mixed_shape_registry():
    """Spaces of every shape the stacked scorer pads: (views, k) of (1, 1),
    (3, 1), (36, 3) and (36, full k by the energy rule)."""
    def views(obj, angles):
        return [eg.vectorize(eg.synth_view(obj, a, 32, 1), "unit", eg.ViewLabel(obj, a))
                for a in angles]

    reg = ObjectRegistry()
    reg.accumulate("solo", views("solo", [30]), eg.EigenspaceConfig(centered=False))
    reg.accumulate("trio", views("trio", [0, 120, 240]), eg.EigenspaceConfig(k_override=1))
    reg.accumulate("wide", views("wide", range(0, 360, 10)), eg.EigenspaceConfig(k_override=3))
    reg.accumulate("full", views("full", range(0, 360, 10)), eg.EigenspaceConfig())
    return reg


@pytest.fixture(scope="module")
def full_rank_registry():
    # k pinned to full rank so training views project losslessly
    config = eg.EigenspaceConfig(k_override=64)
    return build_registry(config=config)


class TestRecognize:
    def test_self_match_at_full_rank(self, full_rank_registry):
        for obj in OBJECTS:
            for v in training_appearances(obj):
                result = eg.recognize(full_rank_registry, v)
                assert result.best_object == obj
                assert result.best_view.view_angle_deg == v.source_label.view_angle_deg
                assert result.combined_score <= 1e-8

    def test_single_object_always_wins(self):
        reg = build_registry(objects=["solo"])
        rng = np.random.default_rng(21)
        for _ in range(10):
            w = rng.standard_normal(32 * 32)
            v = eg.AppearanceVector(w.size, w / np.linalg.norm(w), "unit")
            assert eg.recognize(reg, v).best_object == "solo"

    def test_occluded_held_out_view(self, four_object_registry):
        img = eg.synth_view("mobile", 35, 32, 1)
        img = eg.apply_occlusion(img, eg.OcclusionSpec(10, 16, 16, 10, 0))
        v = eg.vectorize(img, "unit")
        assert eg.recognize(four_object_registry, v).best_object == "mobile"

    def test_combined_score_pythagoras(self, four_object_registry):
        v = query_set()[7][0]
        result = eg.recognize(four_object_registry, v)
        assert result.combined_score ** 2 == pytest.approx(
            result.in_space_distance ** 2 + result.residual ** 2, abs=1e-8
        )

    def test_ranked_candidates_cover_all_objects(self, four_object_registry):
        v = query_set()[0][0]
        result = eg.recognize(four_object_registry, v)
        assert result.best_object == result.ranked_candidates[0][0]
        assert sorted(o for o, _ in result.ranked_candidates) == sorted(OBJECTS)
        scores = [s for _, s in result.ranked_candidates]
        assert scores == sorted(scores)

    def test_in_space_only_flag(self, four_object_registry):
        v = query_set()[3][0]
        result = eg.recognize(four_object_registry, v, in_space_only=True)
        assert result.combined_score == pytest.approx(result.in_space_distance, abs=0)

    def test_pixel_space_oracle_agreement(self, full_rank_registry):
        train = [
            (v.values, obj) for obj in OBJECTS for v in training_appearances(obj)
        ]
        agree = 0
        queries = query_set()
        for v, _ in queries:
            predicted = eg.recognize(full_rank_registry, v).best_object
            oracle = min(train, key=lambda t: np.linalg.norm(t[0] - v.values))[1]
            agree += predicted == oracle
        assert agree >= 0.9 * len(queries)

    def test_empty_registry(self):
        v = eg.vectorize(eg.synth_view("A", 0, 32, 1), "unit")
        with pytest.raises(EmptyRegistry):
            eg.recognize(ObjectRegistry(), v)

    @pytest.mark.parametrize("side, norm_mode", [(16, "unit"), (32, "raw")])
    def test_query_of_another_dim_or_norm_is_rejected(self, four_object_registry, side, norm_mode):
        v = eg.vectorize(eg.synth_view("mobile", 20, side, 1), norm_mode)
        with pytest.raises(DimensionMismatch):
            eg.recognize(four_object_registry, v)

    def test_scale_invariant_decisions(self):
        config = eg.EigenspaceConfig(centered=False, norm_mode="raw")
        base = build_registry(config=config)
        scaled = ObjectRegistry()
        for obj in OBJECTS:
            apps = [
                eg.AppearanceVector(a.dim, 3.0 * a.values, "raw", a.source_label)
                for a in training_appearances(obj, "raw")
            ]
            scaled.accumulate(obj, apps, config)
        for es_base, es_scaled in zip(base.spaces, scaled.spaces):
            assert es_scaled.eigenvalues == pytest.approx(
                9.0 * es_base.eigenvalues, rel=1e-8
            )
        for v, _ in query_set(norm_mode="raw"):
            v3 = eg.AppearanceVector(v.dim, 3.0 * v.values, "raw", v.source_label)
            a = eg.recognize(base, v)
            b = eg.recognize(scaled, v3)
            assert a.best_object == b.best_object
            assert b.combined_score == pytest.approx(3.0 * a.combined_score, rel=1e-6)


class TestRecognizeOracle:
    @pytest.mark.parametrize("in_space_only", [False, True])
    def test_array_scoring_matches_point_loop(self, four_object_registry, in_space_only):
        for v in oracle_queries():
            assert_matches_oracle(four_object_registry, v, in_space_only)

    @pytest.mark.parametrize("in_space_only", [False, True])
    def test_tied_views_resolve_to_lower_angle(self, in_space_only):
        reg = twin_view_registry()
        for angle in (50, 52):
            v = eg.vectorize(eg.synth_view("A", angle, 32, 1), "unit")
            assert eg.recognize(reg, v, in_space_only).best_view.view_angle_deg == 50
            assert_matches_oracle(reg, v, in_space_only)

    @pytest.mark.parametrize("in_space_only", [False, True])
    def test_tied_spaces_resolve_to_earlier_acquisition(self, in_space_only):
        queries = query_set(objects=["A"])
        v = queries[3][0]
        for twins in ((("zeta", "A"), ("alpha", "A")), MANY_TWINS):
            reg = twin_space_registry(twins)
            result = eg.recognize(reg, v, in_space_only)
            of_a = [name for name, obj in twins if obj == "A"]
            ranked = of_a + [name for name, obj in twins if obj == "B"]
            assert result.best_object == of_a[0]
            assert [o for o, _ in result.ranked_candidates] == ranked
            assert len({score for _, score in result.ranked_candidates[:len(of_a)]}) == 1
            assert_matches_oracle(reg, v, in_space_only)
            report = eg.evaluate(reg, [(q, of_a[0]) for q, _ in queries], in_space_only)
            assert report.confusion == {(of_a[0], of_a[0]): len(queries)}

    @pytest.mark.parametrize("in_space_only", [False, True])
    def test_spaces_of_mixed_k_and_point_count(self, in_space_only):
        """No padded point or axis of a smaller space is ever nearest, and the
        padding computes nothing that warns."""
        reg = mixed_shape_registry()
        assert [(len(es.labels), es.k) for es in reg.spaces[:3]] == [(1, 1), (3, 1), (36, 3)]
        assert reg.spaces[3].k > 3
        spaces = {es.object_id: es for es in reg.spaces}
        queries = [eg.vectorize(eg.synth_view(obj, angle, 32, 1), "unit")
                   for obj in ("solo", "trio", "wide", "full", "widget")
                   for angle in range(0, 360, 25)]
        queries += [eg.vectorize(eg.synth_view("solo", 30, 32, 1), "unit")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            labelled = []
            for v in queries:
                result = eg.recognize(reg, v, in_space_only)
                assert result.best_view in spaces[result.best_object].labels
                assert_matches_oracle(reg, v, in_space_only)
                labelled.append((v, recognize_oracle(reg, v, in_space_only).best_object))
            report = eg.evaluate(reg, labelled, in_space_only)
        assert {obj for _, obj in labelled} == set(spaces)
        assert report.m == report.P == len(queries)

    def test_a_score_on_the_threshold_is_known(self):
        """Known means a score within the threshold, the threshold included."""
        reg = build_registry(objects=["A", "B"])
        v = training_appearances("A")[3]
        score = eg.recognize(reg, v).combined_score
        assert score > 0
        reg.policy = EnrollmentPolicy(score)
        assert reg.decide(v).known
        reg.policy = EnrollmentPolicy(float(np.nextafter(score, 0)))
        assert not reg.decide(v).known


class TestTrainingOrder:
    @pytest.mark.parametrize("in_space_only", [False, True])
    def test_reversed_training_order_gives_the_same_decisions(
        self, four_object_registry, in_space_only
    ):
        reversed_reg = ObjectRegistry()
        for obj in OBJECTS:
            reversed_reg.accumulate(obj, training_appearances(obj)[::-1], eg.EigenspaceConfig())
        for v, _ in query_set():
            a = four_object_registry.decide(v, in_space_only=in_space_only)
            b = reversed_reg.decide(v, in_space_only=in_space_only)
            assert (a.known, a.result.best_object, a.result.best_view) == (
                b.known, b.result.best_object, b.result.best_view
            )
            assert [o for o, _ in a.result.ranked_candidates] == [
                o for o, _ in b.result.ranked_candidates
            ]
            for (_, x), (_, y) in zip(a.result.ranked_candidates, b.result.ranked_candidates):
                assert x == pytest.approx(y, abs=1e-12)
            assert a.result.in_space_distance == pytest.approx(
                b.result.in_space_distance, abs=1e-12
            )
            assert a.result.residual == pytest.approx(b.result.residual, abs=1e-12)
            assert a.threshold == pytest.approx(b.threshold, abs=1e-12)


class TestEvaluate:
    def test_training_views_full_rank_perfect(self, full_rank_registry):
        queries = [
            (v, obj) for obj in OBJECTS for v in training_appearances(obj)
        ]
        report = eg.evaluate(full_rank_registry, queries)
        assert report.m == report.P
        assert report.r == Fraction(1)

    def test_unenrolled_label_scores_zero(self, four_object_registry):
        queries = [(v, "nonexistent") for v, _ in query_set()[:5]]
        report = eg.evaluate(four_object_registry, queries)
        assert report.m == 0
        assert report.r == Fraction(0)

    def test_rate_arithmetic(self, four_object_registry):
        report = eg.evaluate(four_object_registry, query_set())
        assert report.r == Fraction(report.m, report.P)
        assert sum(report.confusion.values()) == report.P
        assert sum(m for _, m, _ in report.per_object.values()) == report.m
        assert sum(p for p, _, _ in report.per_object.values()) == report.P

    def test_permutation_invariant(self, four_object_registry):
        queries = query_set()
        a = eg.evaluate(four_object_registry, queries)
        b = eg.evaluate(four_object_registry, list(reversed(queries)))
        assert a == b

    def test_empty_queries(self, four_object_registry):
        with pytest.raises(EmptyQuerySet):
            eg.evaluate(four_object_registry, [])

    def test_empty_registry(self):
        with pytest.raises(EmptyRegistry):
            eg.evaluate(ObjectRegistry(), query_set()[:1])


class TestEvaluateBlocks:
    """evaluate scores its queries in blocks, as many as the registry's
    budget allows; each prediction must be the one recognize makes for that
    query alone."""

    @pytest.mark.parametrize("registry", ["four", "twin_spaces", "twin_views"])
    @pytest.mark.parametrize("in_space_only", [False, True])
    def test_prediction_is_recognize_best_object(self, four_object_registry, registry,
                                                 in_space_only):
        reg = {
            "four": lambda: four_object_registry,
            "twin_spaces": twin_space_registry,
            "twin_views": twin_view_registry,
        }[registry]()
        step = reg.snapshot.block_size()
        queries = cycled(oracle_queries(), step + 1)
        assert len(queries) > step
        # each query is labelled with recognize's answer, so every miss is a disagreement
        labelled = [(v, eg.recognize(reg, v, in_space_only).best_object) for v in queries]
        report = eg.evaluate(reg, labelled, in_space_only)
        assert report.m == report.P == len(queries)
        if registry == "twin_spaces":
            assert set(report.confusion) == {("zeta", "zeta")}

    # n is 1, or s - 1, s or s + 1 for the registry's block size s
    @pytest.mark.parametrize("blocks, extra", [(0, 1), (1, -1), (1, 0), (1, 1)],
                             ids=["1", "s-1", "s", "s+1"])
    def test_block_boundaries_give_the_same_report_as_single_queries(
        self, four_object_registry, blocks, extra
    ):
        n = blocks * four_object_registry.snapshot.block_size() + extra
        queries = query_set() + [(v, "widget") for v in oracle_queries()[len(query_set()):]]
        queries = cycled(queries, n)
        assert len(queries) == n
        alone = [next(iter(eg.evaluate(four_object_registry, [q]).confusion)) for q in queries]
        report = eg.evaluate(four_object_registry, queries)
        assert report.confusion == dict(Counter(alone))
        assert report.m == sum(t == p for t, p in alone)
        assert report.P == n

    @pytest.mark.parametrize("position", [0, 40, 63, 64, 70])
    @pytest.mark.parametrize("side, norm_mode", [(16, "unit"), (32, "raw")])
    def test_a_mismatched_query_anywhere_is_rejected(self, four_object_registry, position,
                                                     side, norm_mode):
        queries = [(v, "x") for v in oracle_queries()]
        bad = eg.vectorize(eg.synth_view("mobile", 20, side, 1), norm_mode)
        queries[position] = (bad, "mobile")
        with pytest.raises(DimensionMismatch):
            eg.evaluate(four_object_registry, queries)


class TestConcurrentReads:
    def test_reads_during_accumulate_see_whole_snapshots(self):
        """Threads call decide, recognize and evaluate while objects are
        enrolled one by one. Each result must rank a prefix of the final
        acquisition order, scored exactly as a registry holding just that
        prefix scores it, and each report must predict every query as some
        prefix registry does."""
        objects = OBJECTS + ["A", "B", "widget"]
        appearances = {obj: training_appearances(obj) for obj in objects}
        queries = [v for v, _ in query_set()[::7]]
        # one true id per query, so a report's confusion lists every prediction
        labelled = [(v, f"query-{i}") for i, v in enumerate(queries)]
        reg = ObjectRegistry()
        reg.accumulate(objects[0], appearances[objects[0]], eg.EigenspaceConfig())

        # more readers than cores, switching often
        kinds = ("decide", "recognize", "recognize", "evaluate")
        stop = threading.Event()
        calls = [0] * len(kinds)
        seen = [[] for _ in kinds]
        errors = []

        def reader(slot):
            i = 0
            try:
                while not stop.is_set():
                    v = queries[i % len(queries)]
                    in_space_only = bool(i // len(queries) % 2)
                    if kinds[slot] == "decide":
                        out = reg.decide(v, in_space_only)
                    elif kinds[slot] == "evaluate":
                        out = eg.evaluate(reg, labelled, in_space_only)
                    else:
                        out = eg.recognize(reg, v, in_space_only)
                    seen[slot].append((v, in_space_only, out))
                    calls[slot] += 1
                    i += 1
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        def wait_for_reads():
            # every reader finishes two calls after the latest mutation
            want = [c + 2 for c in calls]
            deadline = time.monotonic() + 30
            while not errors and any(c < w for c, w in zip(calls, want)):
                assert time.monotonic() < deadline, "readers made no progress"
                stop.wait(0.001)

        threads = [threading.Thread(target=reader, args=(slot,)) for slot in range(len(kinds))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            wait_for_reads()
            for obj in objects[1:]:
                reg.accumulate(obj, appearances[obj], eg.EigenspaceConfig())
                wait_for_reads()
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors

        final = reg.spaces
        assert [es.object_id for es in final] == objects
        prefixes = {}
        for j in range(1, len(final) + 1):
            prefixes[j] = ObjectRegistry()
            for es in final[:j]:
                prefixes[j]._append(es)
        reports = {
            in_space_only: [eg.evaluate(prefix, labelled, in_space_only)
                            for prefix in prefixes.values()]
            for in_space_only in (False, True)
        }
        lengths = set()
        for kind, records in zip(kinds, seen):
            for v, in_space_only, out in records:
                if kind == "evaluate":
                    assert out in reports[in_space_only]
                    continue
                result = out.result if kind == "decide" else out
                ids = [o for o, _ in result.ranked_candidates]
                n = len(ids)
                assert sorted(ids) == sorted(objects[:n])
                lengths.add(n)
                prefix = prefixes[n]
                assert result == eg.recognize(prefix, v, in_space_only)
                want = recognize_oracle(prefix, v, in_space_only)
                assert ids == [o for o, _ in want.ranked_candidates]
                for (_, a), (_, b) in zip(result.ranked_candidates, want.ranked_candidates):
                    assert a == pytest.approx(b, abs=1e-12)
                if kind == "decide":
                    assert out.threshold == prefix.effective_threshold()
                    assert out.known == (result.combined_score <= out.threshold)
        assert lengths == set(range(1, len(objects) + 1))


class TestDumpCoordinates:
    def test_ten_views_three_dims(self, four_object_registry):
        es = four_object_registry.spaces[0]
        assert es.k >= 3
        rows = eg.dump_coordinates(es, 3)
        assert len(rows) == 10
        assert all(len(coords) == 3 for _, _, coords in rows)
        assert sum(occluded for _, occluded, _ in rows) == 1

    def test_dims_equals_k(self, four_object_registry):
        es = four_object_registry.spaces[0]
        rows = eg.dump_coordinates(es, es.k)
        for point, (_, _, coords) in zip(es.manifold, rows):
            assert coords == tuple(point.coords)

    def test_dims_too_large(self, four_object_registry):
        es = four_object_registry.spaces[0]
        with pytest.raises(DimsTooLarge):
            eg.dump_coordinates(es, es.k + 1)


class TestReports:
    def test_csv_layout(self, four_object_registry):
        report = eg.evaluate(four_object_registry, query_set())
        lines = report_csv(report).strip().split("\n")
        assert lines[0] == "true_id,predicted_id,count"
        assert lines[-2] == "P,m,r"
        P, m, r = lines[-1].split(",")
        assert int(P) == report.P and int(m) == report.m
        assert float(r) == pytest.approx(float(report.r), abs=1e-6)
        assert len(r.split(".")[1]) >= 6

    def test_text_mentions_rate(self, four_object_registry):
        report = eg.evaluate(four_object_registry, query_set())
        text = report_text(report)
        assert f"{float(report.r):.6f}" in text
        assert str(report.P) in text
