"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Run with `pytest tests/test_acceptance.py -v -s`."""

import time
from fractions import Fraction

import numpy as np

import eigengaze as eg
from eigengaze.registry import ObjectRegistry

from conftest import (
    OBJECTS,
    QUERY_ANGLES,
    SEED,
    SIDE,
    TRAIN_ANGLES,
    TRAIN_OCCLUSION,
    build_registry,
    charpoly_roots_3x3,
    energy_shares,
    jacobi_eigen,
    project,
    query_set,
    random_symmetric,
    residual,
    training_appearances,
)


def report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_synthetic_recognition_rate():
    """4 objects x 10 training views (1 occluded each); 40 offset-angle
    queries (2 freshly occluded per object); r >= 0.90 within 10 s."""
    start = time.time()
    reg = build_registry()
    result = eg.evaluate(reg, query_set())
    elapsed = time.time() - start
    ok = result.r >= Fraction(9, 10) and elapsed <= 10.0
    report(
        "criterion 1: synthetic protocol rate",
        ok,
        f"r = {float(result.r):.4f} ({result.m}/{result.P}), {elapsed:.2f}s",
    )


def test_criterion_2_eigensolver_correctness():
    start = time.time()
    rng = np.random.default_rng(2024)
    worst_res, worst_orth, worst_trace = 0.0, 0.0, 0.0
    for _ in range(100):
        n = int(rng.integers(2, 13))
        Q = random_symmetric(rng, n)
        decomp = eg.sym_eigen(Q)
        for lam, v in zip(decomp.values, decomp.vectors):
            res = float(np.linalg.norm(Q @ v - lam * v)) / (1 + abs(lam))
            worst_res = max(worst_res, res)
        orth = float(np.max(np.abs(decomp.vectors @ decomp.vectors.T - np.eye(n))))
        worst_orth = max(worst_orth, orth)
        trace = float(np.trace(Q))
        worst_trace = max(
            worst_trace,
            abs(float(decomp.values.sum()) - trace) / (1 + abs(trace)),
        )
        if n == 3:
            roots = charpoly_roots_3x3(Q)
            assert np.max(np.abs(decomp.values - roots)) <= 1e-7
    # guarantee 3x3 coverage regardless of the size draw above
    for _ in range(10):
        Q = random_symmetric(rng, 3)
        assert np.max(np.abs(eg.sym_eigen(Q).values - charpoly_roots_3x3(Q))) <= 1e-7
    elapsed = time.time() - start
    ok = worst_res <= 1e-8 and worst_orth <= 1e-8 and worst_trace <= 1e-8 and elapsed <= 5.0
    report(
        "criterion 2: eigensolver correctness",
        ok,
        f"residual {worst_res:.2e}, orth {worst_orth:.2e}, "
        f"trace {worst_trace:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_gram_trick_equivalence():
    rng = np.random.default_rng(33)
    worst_val, worst_vec = 0.0, 0.0
    for _ in range(50):
        d = int(rng.integers(2, 13))
        m = int(rng.integers(1, 7))
        X = rng.standard_normal((d, m))
        got = eg.gram_pca(X)

        Xt = X - X.mean(axis=1)[:, None]
        C = Xt @ Xt.T
        direct = jacobi_eigen(0.5 * (C + C.T))
        cutoff = max(1e-10, 1e-12 * max(float(direct.values[0]), 0.0))
        keep = direct.values > cutoff
        want_vals, want_vecs = direct.values[keep], direct.vectors[keep]

        assert got.eigenvalues.size == want_vals.size
        if want_vals.size:
            worst_val = max(
                worst_val,
                float(np.max(np.abs(got.eigenvalues - want_vals) / want_vals)),
            )
            worst_vec = max(worst_vec, float(np.max(np.abs(got.basis - want_vecs))))
    ok = worst_val <= 1e-9 and worst_vec <= 1e-7
    report(
        "criterion 3: Gram-trick equivalence",
        ok,
        f"eigenvalue rel {worst_val:.2e}, basis abs {worst_vec:.2e}",
    )


def test_criterion_4_projection_reconstruction():
    es = build_registry().spaces[1]
    rng = np.random.default_rng(44)
    worst = 0.0
    for _ in range(1000):
        w = rng.standard_normal(es.dim)
        v = eg.AppearanceVector(w / np.linalg.norm(w))
        in_space = float(np.linalg.norm(project(es, v)))
        res = residual(es, v)
        total = float(np.linalg.norm(v.values - es.mean))
        worst = max(worst, abs(res ** 2 + in_space ** 2 - total ** 2))
    pythagoras_ok = worst <= 1e-8

    monotone_ok = True
    final_errors = []
    for obj in OBJECTS:
        apps = training_appearances(obj)
        X = np.column_stack([a.values for a in apps])
        errors = []
        for k, tau in enumerate(energy_shares(apps), 1):
            space = eg.build_eigenspace(obj, apps, eg.EigenspaceConfig(tau))
            assert space.k == k
            Xt = X - space.mean[:, None]
            E = space.basis.T
            errors.append(float(np.linalg.norm(Xt - E @ (E.T @ Xt))))
        monotone_ok &= all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))
        final_errors.append(errors[-1])
    full_rank_ok = max(final_errors) <= 1e-8
    ok = pythagoras_ok and monotone_ok and full_rank_ok
    report(
        "criterion 4: projection/reconstruction",
        ok,
        f"pythagoras {worst:.2e}, monotone {monotone_ok}, "
        f"full-rank err {max(final_errors):.2e}",
    )


def test_criterion_5_self_recognition():
    reg = build_registry(config=eg.EigenspaceConfig(1.0))
    queries = [(v, obj) for obj in OBJECTS for v in training_appearances(obj)]
    result = eg.evaluate(reg, queries)
    ok = result.m == result.P and result.r == Fraction(1)
    report(
        "criterion 5: self-recognition",
        ok,
        f"m = {result.m}, P = {result.P}, r = {float(result.r)}",
    )


def test_criterion_6_determinism_and_persistence(tmp_path):
    from eigengaze.cli import main

    imgs_a, imgs_b = tmp_path / "a", tmp_path / "b"
    for out in (imgs_a, imgs_b):
        assert main(["synth", "--objects", "A,B", "--out", str(out), "--seed", "7"]) == 0
    synth_ok = all(
        (imgs_a / p.name).read_bytes() == p.read_bytes() for p in imgs_b.iterdir()
    )

    learn_ok = True
    regs = []
    for reg_dir in (tmp_path / "r1", tmp_path / "r2"):
        for obj in ("A", "B"):
            files = sorted(str(p) for p in imgs_a.glob(f"{obj}_*.pgm"))
            assert main(["learn", "--object", obj, "--registry", str(reg_dir)] + files) == 0
        regs.append(reg_dir)
    for name in ("A.eig", "B.eig", "registry.manifest"):
        learn_ok &= (regs[0] / name).read_bytes() == (regs[1] / name).read_bytes()

    es = eg.build_eigenspace("A", training_appearances("A"), eg.EigenspaceConfig())
    data = eg.save_model(es)
    loaded = eg.load_model(data)
    roundtrip_ok = (
        eg.save_model(loaded) == data
        and np.array_equal(loaded.mean, es.mean)
        and np.array_equal(loaded.basis, es.basis)
        and np.array_equal(loaded.eigenvalues, es.eigenvalues)
        and all(
            np.array_equal(g.coords, w.coords) and g.label == w.label
            for g, w in zip(loaded.manifold, es.manifold)
        )
    )
    ok = synth_ok and learn_ok and roundtrip_ok
    report(
        "criterion 6: determinism and persistence",
        ok,
        f"synth {synth_ok}, learn {learn_ok}, round-trip {roundtrip_ok}",
    )


def test_criterion_7_scale_invariance():
    """Views 0.748 times as bright build the same spaces and decide alike:
    unit normalization cancels the scale."""
    base = build_registry()
    scaled = build_registry(dim=True)

    eig_ok = all(
        np.max(np.abs(s.eigenvalues - b.eigenvalues) / b.eigenvalues) <= 1e-8
        for b, s in zip(base.spaces, scaled.spaces)
    )
    changed = 0
    for (v, _), (w, _) in zip(query_set(), query_set(dim=True)):
        if eg.recognize(base, v).best_object != eg.recognize(scaled, w).best_object:
            changed += 1
    ok = eig_ok and changed == 0
    report(
        "criterion 7: scale invariance",
        ok,
        f"eigenvalues unchanged {eig_ok}, changed decisions {changed}",
    )


def test_criterion_8_rate_arithmetic():
    reg = build_registry(objects=["only"])
    views = training_appearances("only")
    cases = [
        ([(v, "only") for v in views], Fraction(1)),            # P=10, m=10
        ([(v, "absent") for v in views], Fraction(0)),           # P=10, m=0
        (
            [(v, "only") for v in views[:9]] + [(views[9], "absent")],
            Fraction(9, 10),
        ),
    ]
    ok = True
    got = []
    for queries, expected in cases:
        result = eg.evaluate(reg, queries)
        got.append(float(result.r))
        ok &= result.r == expected and result.P == 10
    report("criterion 8: rate arithmetic", ok, f"rates {got}")


def test_criterion_9_a_defined_occlusion_is_learned():
    """Queries occluded by the training rectangle at every offset angle: a
    registry that learned one view under that rectangle recognizes them at
    a higher rate than one trained on the same ten views, all clean. At seed 1
    the rates measure 0.950 and 0.725; the bounds leave three queries' slack."""
    queries = [
        (eg.vectorize(eg.apply_occlusion(eg.synth_view(obj, angle, SIDE, SEED), TRAIN_OCCLUSION)),
         obj)
        for obj in OBJECTS for angle in QUERY_ANGLES
    ]
    clean = ObjectRegistry()
    for obj in OBJECTS:
        views = [eg.vectorize(eg.synth_view(obj, angle, SIDE, SEED),
                              label=eg.ViewLabel(obj, angle)) for angle in TRAIN_ANGLES]
        clean.accumulate(obj, views, eg.EigenspaceConfig())
    r_occluded = eg.evaluate(build_registry(), queries).r
    r_clean = eg.evaluate(clean, queries).r
    ok = r_occluded - r_clean >= Fraction(3, 20) and r_occluded >= Fraction(9, 10)
    report(
        "criterion 9: defined occlusion",
        ok,
        f"r with the occluded view {float(r_occluded):.3f}, "
        f"all views clean {float(r_clean):.3f} ({len(queries)} queries)",
    )
