"""eigengaze benchmark: one workload per run, or all three in sequence.

    python3 bench/run.py --workload {enroll,query,open_world,all} \
        --seed N --seconds S --trace {0,1}

Run from a checkout: the package is imported from its `src/` directory and
CLI operations run as `python3 bench/launcher.py <args>` children with that
directory on PYTHONPATH. Inputs are generated from --seed; set-up runs three
times and setup_s is the median; then whole passes of the workload repeat
until --seconds have elapsed. Every output is checked against the numpy
reference. The last stdout line is one JSON object: end-to-end metrics with
--trace 0, per-layer metrics (from a run with tracing wrappers installed)
with --trace 1. The exit code is 0 only when every check passed.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
NAMES = ("enroll", "query", "open_world")


def cap_blas_threads():
    """Cap BLAS thread counts at the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def environment(nproc):
    import numpy as np

    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.exists():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).exists():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError, ValueError):
        blas = None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": commit, "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas, "nproc": nproc, "cpu": cpu,
        **{var: os.environ.get(var) for var in THREAD_VARS},
    }


# (name, unit) of every per-layer metric, in report order
PER_LAYER = [
    ("imgio.parse_pgm.calls", "count"), ("imgio.parse_pgm.self_s", "s"),
    ("imgio.parse_pgm.bytes", "B"),
    ("imgio.vectorize.calls", "count"), ("imgio.vectorize.self_s", "s"),
    ("linalg.sym_eigen.calls", "count"), ("linalg.sym_eigen.self_s", "s"),
    ("linalg.sym_eigen.order_sum", "count"), ("linalg.gram_pca.self_s", "s"),
    ("eigenspace.build_eigenspace.calls", "count"), ("eigenspace.build_eigenspace.self_s", "s"),
    ("eigenspace.save_model.calls", "count"), ("eigenspace.save_model.self_s", "s"),
    ("eigenspace.save_model.bytes", "B"),
    ("eigenspace.load_model.calls", "count"), ("eigenspace.load_model.self_s", "s"),
    ("eigenspace.load_model.bytes", "B"),
    ("eigenspace.project.calls", "count"), ("eigenspace.project.self_s", "s"),
    ("eigenspace.residual.calls", "count"), ("eigenspace.residual.self_s", "s"),
    ("registry.load_dir.calls", "count"), ("registry.load_dir.self_s", "s"),
    ("registry.save_dir.calls", "count"), ("registry.save_dir.self_s", "s"),
    ("registry.save_dir.useful_ratio", "ratio"),
    ("registry.effective_threshold.calls", "count"),
    ("registry.effective_threshold.self_s", "s"),
    ("registry.effective_threshold.useful_ratio", "ratio"),
    ("registry.accumulate.calls", "count"), ("registry.accumulate.self_s", "s"),
    ("registry.classify_or_enroll.self_s", "s"),
    ("recog.recognize.calls", "count"), ("recog.recognize.self_s", "s"),
    ("recog.recognize.spaces_scored", "count"), ("recog.evaluate.self_s", "s"),
    ("cli.processes", "count"), ("cli.startup_s", "s"), ("cli.import_s", "s"),
    ("cli.main.self_s", "s"),
    ("recog.r_clean", "ratio"), ("recog.r_occluded", "ratio"),
    ("registry.decision_accuracy", "ratio"),
    ("trace.wall_s", "s"), ("trace.layer_self_s", "s"), ("trace.op_p50_ms", "ms"),
]
END_TO_END = [
    ("setup_s", "s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"), ("batch_s", "s"),
    ("peak_rss_mb", "MB"),
]


def ratio(tally):
    return tally[0] / tally[1] if tally and tally[1] else 0.0


def summarize(workload, setup_times, passes):
    """End-to-end metrics of one run, and the sample counts behind them."""
    from measure import percentile, tail_percentile

    ops = [op for p in passes for op in p.ops]
    prim = [op.seconds for op in ops if op.kind == workload.primary]
    per_pass = len(prim) // len(passes)
    tail_p = tail_percentile(per_pass)
    batches = [sum(op.seconds for op in p.ops if op.kind in workload.batch) / workload.rounds
               for p in passes]
    outcomes = {}
    for p in passes:
        for name, (right, total) in p.outcomes.items():
            tally = outcomes.setdefault(name, [0, 0])
            tally[0] += right
            tally[1] += total
    e2e = {
        "setup_s": statistics.median(setup_times),
        "op_p50_ms": 1e3 * percentile(prim, 50),
        "op_tail_ms": 1e3 * percentile(prim, tail_p),
        "batch_s": statistics.median(batches),
        "peak_rss_mb": max(p.peak_rss_kb for p in passes) / 1024,
    }
    acc = [op.seconds for op in ops if op.kind == "accumulate"]
    return e2e, {"tail_p": tail_p, "samples": len(prim), "passes": len(passes),
                 "rounds": len(passes) * workload.rounds,
                 "outcomes": outcomes,
                 "accumulate_p50_ms": 1e3 * percentile(acc, 50) if acc else 0.0}


def per_layer(passes, e2e, outcomes):
    import tracing

    processes = [t for p in passes for t in p.traced]
    calls, self_s, tot, layer_self = tracing.reduce(processes)
    n = len(passes)
    written = sum(p.saves_written for p in passes)
    values = {
        "registry.save_dir.useful_ratio":
            sum(p.saves_new for p in passes) / written if written else 0.0,
        "registry.effective_threshold.useful_ratio":
            tot["threshold_useful"] / calls["registry.effective_threshold"]
            if calls["registry.effective_threshold"] else 0.0,
        "imgio.parse_pgm.bytes": tot["parse_bytes"] / n,
        "eigenspace.save_model.bytes": tot["save_bytes"] / n,
        "eigenspace.load_model.bytes": tot["load_bytes"] / n,
        "linalg.sym_eigen.order_sum": tot["order_sum"] / n,
        "recog.recognize.spaces_scored": tot["spaces_scored"] / n,
        "cli.processes": tot["processes"] / n,
        "cli.startup_s": tot["startup_s"] / n,
        "cli.import_s": tot["import_s"] / n,
        "recog.r_clean": ratio(outcomes.get("r_clean")),
        "recog.r_occluded": ratio(outcomes.get("r_occluded")),
        "registry.decision_accuracy": ratio(outcomes.get("decision_accuracy")),
        "trace.wall_s": tot["wall_s"] / n,
        "trace.layer_self_s": layer_self / n,
        "trace.op_p50_ms": e2e["op_p50_ms"],
    }
    for span in tracing.LAYER_SPANS:
        values.setdefault(f"{span}.calls", calls[span] / n)
        values.setdefault(f"{span}.self_s", self_s[span] / n)
    # self time is disjoint by construction; allow clock rounding per span
    slack = 1e-6 * (1 + sum(len(spans) for spans, _ in processes))
    consistent = layer_self <= tot["wall_s"] + slack
    return {name: values[name] for name, _ in PER_LAYER}, processes, consistent


def figure_lines(name, e2e, info, fail):
    """Each figure of this workload under its own name (learn_p50_s,
    recognize_tail_s, decide_p50_ms, ...), with its unit and sample base."""
    tail = f"p{info['tail_p']:g} of n={info['samples']}"
    o = info["outcomes"]
    if name == "enroll":
        rows = [("enroll_s", e2e["batch_s"], "s", "all learn processes of one pass"),
                ("learn_p50_s", e2e["op_p50_ms"] / 1e3, "s", f"n={info['samples']}"),
                ("learn_tail_s", e2e["op_tail_ms"] / 1e3, "s", tail)]
    elif name == "query":
        queries = sum(o.get(k, [0, 0])[1] for k in ("r_clean", "r_occluded")) / info["rounds"]
        rows = [("recognize_p50_s", e2e["op_p50_ms"] / 1e3, "s", f"n={info['samples']}"),
                ("recognize_tail_s", e2e["op_tail_ms"] / 1e3, "s", tail),
                ("evaluate_qps", queries / e2e["batch_s"], "queries/s",
                 f"{queries:g} queries, clean and occluded evaluate processes")]
        for key in ("r_clean", "r_occluded", "decision_accuracy"):
            right, total = o.get(key, [0, 0])
            rows.append((key, ratio(o.get(key)), "ratio", f"{right}/{total}"))
    else:
        rows = [("decide_p50_ms", e2e["op_p50_ms"], "ms", f"n={info['samples']}"),
                ("decide_tail_ms", e2e["op_tail_ms"], "ms", tail),
                ("accumulate_p50_ms", info["accumulate_p50_ms"], "ms", ""),
                ("decision_accuracy", ratio(o.get("decision_accuracy")), "ratio",
                 "{}/{}".format(*o.get("decision_accuracy", [0, 0])))]
    rows += [("setup_s", e2e["setup_s"], "s", f"median of {SETUP_REPEATS} set-ups"),
             ("peak_rss_mb", e2e["peak_rss_mb"], "MB", ""),
             ("fail_ratio", fail[1] / fail[0], "ratio", f"{fail[1]}/{fail[0]} operations")]
    return [f"  {n:<18} {v:>12.6g} {u:<10} {note}" for n, v, u, note in rows]


def run_workload(name, seed, seconds, trace, workdir, sizes=None):
    """Set up, verify, measure and check one workload; return its report."""
    import inputs
    from measure import fail_counts
    from workloads import WORKLOADS, Context, SetupError

    workload = WORKLOADS[name]()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    ctx = Context(workdir, env, seed, sizes or inputs.Sizes(), bool(trace))
    setup_times, digests = [], set()
    for r in range(SETUP_REPEATS):
        root = workdir / f"setup{r}"
        t0 = time.perf_counter()
        state = workload.setup(ctx, root)
        setup_times.append(time.perf_counter() - t0)
        digests.add(state["digest"])
        if r + 1 < SETUP_REPEATS:
            shutil.rmtree(root, ignore_errors=True)
    if len(digests) != 1:
        raise SetupError("the same seed generated different inputs")
    workload.verify(ctx, state)

    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        passes.append(workload.run_pass(ctx, state))
        if time.perf_counter() >= deadline:
            break
    ops = [op for p in passes for op in p.ops]
    fail = fail_counts(ops)
    e2e, info = summarize(workload, setup_times, passes)
    report = {"name": name, "e2e": e2e, "info": info, "fail": fail,
              "problems": [f"{op.kind}: {msg}" for op in ops for msg in op.problems],
              "digest": digests.pop()}
    if trace:
        layers, processes, consistent = per_layer(passes, e2e, info["outcomes"])
        report["layers"] = layers
        report["spans"] = processes
        if not consistent:
            report["problems"].append("layer self times exceed the traced wall time")
    return report


def print_report(report, seed, seconds, trace):
    print(f"# workload={report['name']} seed={seed} seconds={seconds} trace={trace} "
          f"passes={report['info']['passes']} inputs={report['digest'][:16]}")
    for msg in report["problems"][:20]:
        print(f"  CHECK FAILED {msg}")
    print("  end-to-end figures:")
    print("\n".join(figure_lines(report["name"], report["e2e"], report["info"], report["fail"])))
    if trace:
        print("  per layer (per pass, traced):")
        for name, unit in PER_LAYER:
            print(f"  {name:<44} {report['layers'][name]:>14.6g} {unit}")


def metrics_of(report, trace):
    table = PER_LAYER if trace else END_TO_END
    values = report["layers"] if trace else report["e2e"]
    return {name: {"value": values[name], "unit": unit} for name, unit in table}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "eigengaze" / "__init__.py").is_file():
        print(f"error: no eigengaze package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    nproc = cap_blas_threads()  # before numpy is imported
    sys.path.insert(0, str(SRC))
    import eigengaze

    if Path(eigengaze.__file__).resolve().parent != SRC / "eigengaze":
        print(f"error: imported eigengaze from {eigengaze.__file__}", file=sys.stderr)
        return 2
    from workloads import SetupError

    print("# env " + json.dumps(environment(nproc)))
    names = NAMES if args.workload == "all" else (args.workload,)
    workdir = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    reports = []
    try:
        for name in names:
            sub = workdir / name
            sub.mkdir(parents=True)
            reports.append(run_workload(name, args.seed, args.seconds, args.trace, sub))
            print_report(reports[-1], args.seed, args.seconds, args.trace)
    except SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        OUT.mkdir(exist_ok=True)
        for r in reports:
            path = OUT / f"spans-{r['name']}-s{args.seed}.json"
            with open(path, "w") as f:
                json.dump([{"wall_s": wall, "spans": spans} for spans, wall in r["spans"]], f)
    correct = all(not r["problems"] for r in reports)
    attempted = sum(r["fail"][0] for r in reports)
    failed = sum(r["fail"][1] for r in reports)
    if len(reports) == 1:
        metrics = metrics_of(reports[0], args.trace)
    else:
        metrics = {f"{r['name']}.{k}": v for r in reports for k, v in metrics_of(r, args.trace).items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
