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
from eigengaze.errors import DimensionMismatch, EmptyQuerySet, EmptyRegistry
from eigengaze.recog import RecognitionResult, _score, report_csv, report_text
from eigengaze.registry import EnrollmentPolicy, ObjectRegistry

from conftest import (
    OBJECTS,
    build_registry,
    project,
    query_set,
    residual,
    training_appearances,
)


def recognize_oracle(reg, v):
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
        score = math.hypot(in_space, res)
        label = es.manifold[best_idx].label
        entries.append((score, order, label.view_angle_deg, es, in_space, res, label))
    entries.sort(key=lambda e: e[:3])
    score, _, _, es, in_space, res, label = entries[0]
    ranked = tuple((e[3].object_id, e[0]) for e in entries)
    return RecognitionResult(es.object_id, label, in_space, res, score, ranked)


def assert_matches_oracle(reg, v):
    got = eg.recognize(reg, v)
    want = recognize_oracle(reg, v)
    assert got.best_object == want.best_object
    assert got.best_view == want.best_view
    assert [o for o, _ in got.ranked_candidates] == [o for o, _ in want.ranked_candidates]
    for (_, a), (_, b) in zip(got.ranked_candidates, want.ranked_candidates):
        assert a == pytest.approx(b, abs=1e-12)
    assert got.in_space_distance == pytest.approx(want.in_space_distance, abs=1e-12)
    assert got.residual == pytest.approx(want.residual, abs=1e-12)


def in_space_distances(reg, v):
    """Each space's in-space distance from v, as the scorer computes it for
    recognize: a list in acquisition order."""
    ((_, in_space, _, _),) = _score(reg.snapshot, [v.values], 1)
    return in_space[:, 0].tolist()


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
        queries.append(eg.vectorize(img))
    for angle in range(0, 100, 15):
        queries.append(eg.vectorize(eg.synth_view("widget", angle, 32, 1)))
    return queries


def cycled(items, n):
    """The first n items of items repeated end to end."""
    return [items[i % len(items)] for i in range(n)]


def twin_view_registry():
    """Object A, with its view at 50 degrees enrolled twice, first labelled 70."""
    apps = training_appearances("A")
    twin = next(a for a in apps if a.source_label.view_angle_deg == 50)
    apps.insert(0, eg.AppearanceVector(twin.values, eg.ViewLabel("A", 70)))
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
    (3, 1), (36, 4) and (36, 20), each cut by its energy threshold."""
    def views(obj, angles):
        return [eg.vectorize(eg.synth_view(obj, a, 32, 1), label=eg.ViewLabel(obj, a))
                for a in angles]

    config = eg.EigenspaceConfig()
    reg = ObjectRegistry()
    # a centred build of one view is degenerate: the one-point space keeps one
    # point of a two-view build
    pair = eg.build_eigenspace("solo", views("solo", [30, 40]), config)
    reg._append(eg.Eigenspace("solo", pair.mean, pair.eigenvalues, pair.basis, config,
                              pair.coords[:1], pair.labels[:1]))
    reg.accumulate("trio", views("trio", [0, 120, 240]), eg.EigenspaceConfig(0.5))
    reg.accumulate("wide", views("wide", range(0, 360, 10)), eg.EigenspaceConfig(0.5))
    reg.accumulate("full", views("full", range(0, 360, 10)), config)
    return reg


@pytest.fixture(scope="module")
def full_rank_registry():
    # every eigenvalue kept, so training views project losslessly
    return build_registry(config=eg.EigenspaceConfig(1.0))


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
            v = eg.AppearanceVector(w / np.linalg.norm(w))
            assert eg.recognize(reg, v).best_object == "solo"

    def test_occluded_held_out_view(self, four_object_registry):
        img = eg.synth_view("mobile", 35, 32, 1)
        img = eg.apply_occlusion(img, eg.OcclusionSpec(10, 16, 16, 10, 0))
        v = eg.vectorize(img)
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

    def test_score_is_the_distance_to_the_nearest_reconstructed_view(self, four_object_registry):
        """The residual is orthogonal to the subspace, so hypot(in_space,
        residual) is the pixel-space distance from the query to the space's
        nearest reconstructed training view."""
        spaces = {es.object_id: es for es in four_object_registry.spaces}
        for v, _ in query_set():
            for object_id, score in eg.recognize(four_object_registry, v).ranked_candidates:
                es = spaces[object_id]
                views = es.mean + es.coords @ es.basis
                assert score == pytest.approx(
                    np.linalg.norm(v.values - views, axis=1).min(), abs=1e-12
                )

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
        v = eg.vectorize(eg.synth_view("A", 0, 32, 1))
        with pytest.raises(EmptyRegistry):
            eg.recognize(ObjectRegistry(), v)

    # every view is unit-normalized, so only the dim can differ
    @pytest.mark.parametrize("side", [16], ids=["16-unit"])
    def test_query_of_another_dim_or_norm_is_rejected(self, four_object_registry, side):
        v = eg.vectorize(eg.synth_view("mobile", 20, side, 1))
        with pytest.raises(DimensionMismatch):
            eg.recognize(four_object_registry, v)

    def test_scale_invariant_decisions(self, four_object_registry):
        """Unit normalization cancels an intensity scale: spaces built from
        dimmed views, and dimmed queries, decide as the originals do."""
        dimmed = build_registry(dim=True)
        for es_base, es_dim in zip(four_object_registry.spaces, dimmed.spaces):
            assert es_dim.eigenvalues == pytest.approx(es_base.eigenvalues, rel=1e-8)
        for (v, _), (w, _) in zip(query_set(), query_set(dim=True)):
            a = eg.recognize(four_object_registry, v)
            for reg in (four_object_registry, dimmed):
                b = eg.recognize(reg, w)
                assert a.best_object == b.best_object
                assert b.combined_score == pytest.approx(a.combined_score, rel=1e-6)


class TestRecognizeOracle:
    def test_array_scoring_matches_point_loop(self, four_object_registry):
        for v in oracle_queries():
            assert_matches_oracle(four_object_registry, v)

    def test_tied_views_resolve_to_lower_angle(self):
        reg = twin_view_registry()
        for angle in (50, 52):
            v = eg.vectorize(eg.synth_view("A", angle, 32, 1))
            assert eg.recognize(reg, v).best_view.view_angle_deg == 50
            assert_matches_oracle(reg, v)

    def test_tied_spaces_resolve_to_earlier_acquisition(self):
        queries = query_set(objects=["A"])
        v = queries[3][0]
        for twins in ((("zeta", "A"), ("alpha", "A")), MANY_TWINS):
            reg = twin_space_registry(twins)
            result = eg.recognize(reg, v)
            of_a = [name for name, obj in twins if obj == "A"]
            ranked = of_a + [name for name, obj in twins if obj == "B"]
            assert result.best_object == of_a[0]
            assert [o for o, _ in result.ranked_candidates] == ranked
            assert len({score for _, score in result.ranked_candidates[:len(of_a)]}) == 1
            in_space = in_space_distances(reg, v)
            assert {in_space[s] for s, (_, obj) in enumerate(twins) if obj == "A"} == {
                result.in_space_distance
            }
            assert_matches_oracle(reg, v)
            report = eg.evaluate(reg, [(q, of_a[0]) for q, _ in queries])
            assert report.confusion == {(of_a[0], of_a[0]): len(queries)}

    def test_spaces_of_mixed_k_and_point_count(self):
        """No padded point or axis of a smaller space is ever nearest, and the
        padding computes nothing that warns."""
        reg = mixed_shape_registry()
        assert [(len(es.labels), es.k) for es in reg.spaces] == [(1, 1), (3, 1), (36, 4), (36, 20)]
        spaces = {es.object_id: es for es in reg.spaces}
        queries = [eg.vectorize(eg.synth_view(obj, angle, 32, 1))
                   for obj in ("solo", "trio", "wide", "full", "widget")
                   for angle in range(0, 360, 25)]
        queries += [eg.vectorize(eg.synth_view("solo", 30, 32, 1))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            labelled = []
            for v in queries:
                result = eg.recognize(reg, v)
                assert result.best_view in spaces[result.best_object].labels
                assert_matches_oracle(reg, v)
                labelled.append((v, recognize_oracle(reg, v).best_object))
            report = eg.evaluate(reg, labelled)
        assert {obj for _, obj in labelled} == set(spaces)
        assert report.m == report.P == len(queries)

    # a residual share of 1.1e-3 takes |wc|^2 - |g|^2, and 0.9e-3 the direct |wc - g B|
    @pytest.mark.parametrize("share", [1.1e-3, 0.9e-3])
    def test_residuals_on_both_sides_of_the_direct_rule(self, share):
        """Unit queries inside each space's subspace but for a residual of
        `share` of their distance from its mean score as the per-point
        oracle does in recognize and in evaluate's blocks. Just above the
        rule the difference of squares is within about 1.5e-12 |wc| of the
        direct residual. (A residual of 0, where the difference of squares
        alone would leave about 1e-8, is test_self_match_at_full_rank's.)"""
        reg = mixed_shape_registry()
        rng = np.random.default_rng(31)
        queries = []
        for es in reg.spaces:
            for _ in range(3):
                p = rng.standard_normal(es.k) @ es.basis
                u = rng.standard_normal(es.dim)
                for _ in range(2):
                    u -= es.basis.T @ (es.basis @ u)
                d = math.sqrt(1 - share**2) * p / np.linalg.norm(p) + share * u / np.linalg.norm(u)
                # the step along d from the mean that reaches the unit sphere
                t = -(es.mean @ d) + math.sqrt((es.mean @ d) ** 2 + 1 - es.mean @ es.mean)
                x = es.mean + t * d
                v = eg.AppearanceVector(x / np.linalg.norm(x))
                assert (residual(es, v) / np.linalg.norm(v.values - es.mean)) ** 2 == (
                    pytest.approx(share**2, rel=1e-6))
                queries.append((v, recognize_oracle(reg, v).best_object))
        snap = reg.snapshot
        blocks = list(_score(snap, [v.values for v, _ in queries], 5))
        score, _, res, _ = (np.concatenate(a, axis=1) for a in zip(*blocks))
        for j, (v, _) in enumerate(queries):
            assert_matches_oracle(reg, v)
            want = {o: s for o, s in recognize_oracle(reg, v).ranked_candidates}
            for s, es in enumerate(snap.spaces):
                assert score[s, j] == pytest.approx(want[es.object_id], abs=1e-12)
                assert res[s, j] == pytest.approx(residual(es, v), abs=1e-12)
        report = eg.evaluate(reg, queries)
        assert report.m == report.P == len(queries)

    def test_twins_are_exact_at_every_stacked_offset(self):
        """Twins of A interleaved with one space of odd, larger k and point
        count: k_max and n_max are odd, so the twins' slices of the stacked
        arrays start at different alignments. recognize, and every block of
        evaluate whatever its length, must still score the twins bit for bit
        alike and break their ties in acquisition order."""
        odd = [eg.vectorize(eg.synth_view("odd", a, 32, 1), label=eg.ViewLabel("odd", a))
               for a in range(0, 350, 10)]
        names = ["twin-0", "odd", "twin-1", "twin-2", "twin-3"]
        reg = ObjectRegistry()
        for name in names:
            views, tau = (odd, 0.82) if name == "odd" else (training_appearances("A"), 0.95)
            reg.accumulate(name, views, eg.EigenspaceConfig(tau))
        twins = [s for s, name in enumerate(names) if name != "odd"]
        assert reg.snapshot.coords.shape[1:] == (7, 35)
        assert all(reg.spaces[s].k < 7 and len(reg.spaces[s].labels) < 35 for s in twins)
        views = [v for v, _ in query_set(objects=["A", "B"])]
        views += [eg.vectorize(eg.synth_view("odd", a, 32, 1)) for a in (5, 95, 185)]

        labelled = []
        for v in views:
            result = eg.recognize(reg, v)
            ranked = [name for name, _ in result.ranked_candidates]
            assert [name for name in ranked if name != "odd"] == [names[s] for s in twins]
            assert len({score for name, score in result.ranked_candidates if name != "odd"}) == 1
            in_space = in_space_distances(reg, v)
            assert len({in_space[s] for s in twins}) == 1
            assert result.in_space_distance == in_space[names.index(result.best_object)]
            assert result.best_object in ("twin-0", "odd")
            labelled.append((v, result.best_object))
        assert {obj for _, obj in labelled} == {"twin-0", "odd"}

        s = reg.snapshot.block_size()
        for n in (1, 2, s - 1, s, s + 1):
            queries = cycled(labelled, n)
            blocks = list(_score(reg.snapshot, [v.values for v, _ in queries], s))
            assert sum(block[0].shape[1] for block in blocks) == n
            for block in blocks:
                for a in block:
                    assert all(np.array_equal(a[t], a[twins[0]]) for t in twins)
            report = eg.evaluate(reg, queries)
            assert report.m == report.P == n

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
    def test_reversed_training_order_gives_the_same_decisions(self, four_object_registry):
        reversed_reg = ObjectRegistry()
        for obj in OBJECTS:
            reversed_reg.accumulate(obj, training_appearances(obj)[::-1], eg.EigenspaceConfig())
        for v, _ in query_set():
            a = four_object_registry.decide(v)
            b = reversed_reg.decide(v)
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
    def test_prediction_is_recognize_best_object(self, four_object_registry, registry):
        reg = {
            "four": lambda: four_object_registry,
            "twin_spaces": twin_space_registry,
            "twin_views": twin_view_registry,
        }[registry]()
        step = reg.snapshot.block_size()
        queries = cycled(oracle_queries(), step + 1)
        assert len(queries) > step
        # each query is labelled with recognize's answer, so every miss is a disagreement
        labelled = [(v, eg.recognize(reg, v).best_object) for v in queries]
        report = eg.evaluate(reg, labelled)
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

    # every view is unit-normalized, so only the dim can differ
    @pytest.mark.parametrize("position", [0, 40, 63, 64, 70])
    @pytest.mark.parametrize("side", [16], ids=["16-unit"])
    def test_a_mismatched_query_anywhere_is_rejected(self, four_object_registry, position, side):
        queries = [(v, "x") for v in oracle_queries()]
        bad = eg.vectorize(eg.synth_view("mobile", 20, side, 1))
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
                    if kinds[slot] == "decide":
                        out = reg.decide(v)
                    elif kinds[slot] == "evaluate":
                        out = eg.evaluate(reg, labelled)
                    else:
                        out = eg.recognize(reg, v)
                    seen[slot].append((v, out))
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
        reports = [eg.evaluate(prefix, labelled) for prefix in prefixes.values()]
        lengths = set()
        for kind, records in zip(kinds, seen):
            for v, out in records:
                if kind == "evaluate":
                    assert out in reports
                    continue
                result = out.result if kind == "decide" else out
                ids = [o for o, _ in result.ranked_candidates]
                n = len(ids)
                assert sorted(ids) == sorted(objects[:n])
                lengths.add(n)
                prefix = prefixes[n]
                assert result == eg.recognize(prefix, v)
                want = recognize_oracle(prefix, v)
                assert ids == [o for o, _ in want.ranked_candidates]
                for (_, a), (_, b) in zip(result.ranked_candidates, want.ranked_candidates):
                    assert a == pytest.approx(b, abs=1e-12)
                if kind == "decide":
                    assert out.threshold == prefix.effective_threshold()
                    assert out.known == (result.combined_score <= out.threshold)
        assert lengths == set(range(1, len(objects) + 1))


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
