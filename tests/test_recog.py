import math
from fractions import Fraction

import numpy as np
import pytest

import eigengaze as eg
from eigengaze.errors import DimensionMismatch, DimsTooLarge, EmptyQuerySet, EmptyRegistry
from eigengaze.recog import RecognitionResult, report_csv, report_text
from eigengaze.registry import ObjectRegistry

from conftest import (
    OBJECTS,
    build_registry,
    query_set,
    training_appearances,
)


def recognize_oracle(reg, v, in_space_only=False):
    """Reference: recognize written as a loop over every manifold point."""
    entries = []
    for order, es in enumerate(reg.spaces):
        g = eg.project(es, v)
        dists = [float(np.linalg.norm(g - p.coords)) for p in es.manifold]
        best_idx = min(
            range(len(dists)),
            key=lambda i: (dists[i], es.manifold[i].label.view_angle_deg),
        )
        in_space = dists[best_idx]
        res = eg.residual(es, v)
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
        # the view at 50 degrees is enrolled twice, first labelled 70
        apps = training_appearances("A")
        twin = next(a for a in apps if a.source_label.view_angle_deg == 50)
        apps.insert(0, eg.AppearanceVector(
            twin.dim, twin.values, twin.norm_mode, eg.ViewLabel("A", 70)
        ))
        reg = ObjectRegistry()
        reg.accumulate("A", apps, eg.EigenspaceConfig())
        for angle in (50, 52):
            v = eg.vectorize(eg.synth_view("A", angle, 32, 1), "unit")
            assert eg.recognize(reg, v, in_space_only).best_view.view_angle_deg == 50
            assert_matches_oracle(reg, v, in_space_only)

    @pytest.mark.parametrize("in_space_only", [False, True])
    def test_tied_spaces_resolve_to_earlier_acquisition(self, in_space_only):
        reg = ObjectRegistry()
        for name in ("zeta", "alpha"):
            reg.accumulate(name, training_appearances("A"), eg.EigenspaceConfig())
        v = query_set(objects=["A"])[3][0]
        result = eg.recognize(reg, v, in_space_only)
        assert result.best_object == "zeta"
        assert [o for o, _ in result.ranked_candidates] == ["zeta", "alpha"]
        assert result.ranked_candidates[0][1] == result.ranked_candidates[1][1]
        assert_matches_oracle(reg, v, in_space_only)


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
