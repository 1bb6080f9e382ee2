"""The three closed-loop workloads: enroll, query and open_world.

Each workload has a `setup` (input generation and the starting registry,
timed as setup_s), a `verify` of what setup produced (untimed), and a `run_pass`
that performs one full sequence of operations, one at a time, checking every
output against the numpy reference in `reference.py` outside the timed calls.
"""

import copy
import hashlib
import os
import re
import resource
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import eigengaze as eg
from eigengaze.registry import ObjectRegistry

import inputs
import reference as ref
import tracing
from launcher import OP_ENV, SPANS_ENV
from measure import Op, run_cli


class SetupError(Exception):
    """Set-up produced inputs or models that fail their checks."""


@dataclass
class Context:
    workdir: Path
    env: dict          # environment for CLI children
    seed: int
    sizes: inputs.Sizes
    trace: bool


@dataclass
class Pass:
    ops: list = field(default_factory=list)
    traced: list = field(default_factory=list)   # (spans, wall_s) per traced op
    outcomes: dict = field(default_factory=dict)  # name -> [right, total]
    peak_rss_kb: int = 0
    saves_written: int = 0   # model files (re)written by learn processes
    saves_new: int = 0       # of which were new

    def score(self, name, right):
        tally = self.outcomes.setdefault(name, [0, 0])
        tally[0] += bool(right)
        tally[1] += 1


def _write(root: Path, rel: str, data: bytes):
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)


def _units(views):
    return {v.angle: ref.unit_vector(v.image) for v in views}


class CliRunner:
    """Runs CLI operations of one pass, tracing them when asked."""

    def __init__(self, ctx: Context, result: Pass, name: str):
        self.ctx, self.result, self.name = ctx, result, name
        self.count = 0

    def __call__(self, args):
        self.count += 1
        stem = self.ctx.workdir / "logs" / f"{self.name}-{self.count:04d}"
        stem.parent.mkdir(exist_ok=True)
        env = self.ctx.env
        spans = stem.with_suffix(".spans.json")
        if self.ctx.trace:
            env = dict(env, **{SPANS_ENV: str(spans), OP_ENV: f"{self.name}:{self.count}"})
        child = run_cli(args, self.ctx.workdir, env, stem)
        self.result.peak_rss_kb = max(self.result.peak_rss_kb, child.maxrss_kb)
        if self.ctx.trace:
            self.result.traced.append((tracing.load(spans) if spans.exists() else [], child.seconds))
        return child


def _guarded(op: Op, check, *args):
    """Run an output check; an exception in it is a failed check."""
    try:
        op.problems.extend(check(*args))
    except Exception as exc:  # any malformed output fails the op, never the run
        op.problems.append(f"{type(exc).__name__}: {exc}")
    return op


# --- enroll ---

class Enroll:
    """Successive acquisition through the CLI: one `learn` process per object."""

    primary, batch, rounds = "learn", ("learn",), 1

    def setup(self, ctx: Context, root: Path):
        objects = []
        files = []
        for oid in inputs.object_ids("obj", ctx.sizes.enroll_objects):
            views = inputs.training_views(oid, ctx.seed, ctx.sizes)
            rels = [f"train/{v.filename}" for v in views]
            for rel, v in zip(rels, views):
                data = v.pgm()
                _write(root, rel, data)
                files.append((rel, data))
            objects.append((oid, rels, views))
        return {"root": root, "objects": objects, "digest": inputs.digest(files)}

    def verify(self, ctx, state):
        state["units"] = {oid: _units(views) for oid, _, views in state["objects"]}

    def run_pass(self, ctx: Context, state) -> Pass:
        result = Pass()
        reg = state["root"] / "registry"
        shutil.rmtree(reg, ignore_errors=True)
        cli = CliRunner(ctx, result, "learn")
        digests = {}
        for i, (oid, rels, _) in enumerate(state["objects"]):
            before = _file_stats(reg) if ctx.trace else None
            child = cli(["learn", "--object", oid, "--registry", str(reg.relative_to(ctx.workdir)),
                         *(str((state["root"] / r).relative_to(ctx.workdir)) for r in rels)])
            op = Op("learn", child.seconds)
            _guarded(op, self._check, child, reg, oid, state, i, digests)
            if ctx.trace:
                after = _file_stats(reg)
                written = [n for n, st in after.items() if before.get(n) != st]
                result.saves_written += len(written)
                result.saves_new += sum(n not in before for n in written)
            result.ops.append(op)
        # earlier models must still hold the bytes their own learn wrote
        for (oid, _, _), op in zip(state["objects"], result.ops):
            if oid in digests and _sha(reg / f"{oid}.eig") != digests[oid]:
                op.problems.append(f"{oid}.eig changed after its learn")
        return result

    @staticmethod
    def _check(child, reg, oid, state, i, digests):
        if child.returncode != 0:
            return [f"learn {oid}: exit {child.returncode}: {child.stderr.strip()[-200:]}"]
        data = (reg / f"{oid}.eig").read_bytes()
        digests[oid] = hashlib.sha256(data).hexdigest()
        model = ref.parse_model(data)
        problems = ref.model_problems(model, state["units"][oid])
        n = len(state["objects"][i][1])
        head = child.stdout.split("\n", 1)[0]
        if head != f"object {oid}: {n} appearances, k = {model.eigenvalues.size}":
            problems.append(f"learn {oid}: unexpected output {head!r}")
        margin, thr, ids = ref.parse_manifest((reg / "registry.manifest").read_text())
        expected = [o for o, _, _ in state["objects"][: i + 1]]
        if ids != expected or thr is not None or margin != 1.5:
            problems.append(f"manifest lists {ids} with threshold {thr}, margin {margin}")
        return problems


def _file_stats(directory: Path):
    if not directory.exists():
        return {}
    return {
        e.name: (e.inode(), e.stat().st_mtime_ns, e.stat().st_size)
        for e in os.scandir(directory) if e.name.endswith(".eig")
    }


def _sha(path: Path):
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


# --- query ---

LINE = re.compile(
    r"(Known|Unknown): (\S+) angle=(\d+) score=(\S+) in_space=(\S+) "
    r"residual=(\S+) threshold=(\S+)$"
)
CANDIDATE = re.compile(r"  candidate (\S+) score=(\S+)$")
RATE = re.compile(r"r = (\d\.\d{4}) \((\d+)/(\d+)\)$")


class Query:
    """Recognition against a populated registry through the CLI."""

    primary, batch = "recognize", ("evaluate",)
    rounds = 2  # evaluations of all held-out views per pass

    def setup(self, ctx: Context, root: Path):
        sizes, seed = ctx.sizes, ctx.seed
        enrolled = inputs.object_ids("obj", sizes.query_objects)
        novel = inputs.object_ids("new", sizes.novel_objects)
        files, items, training = [], [], {}
        reg = ObjectRegistry()
        for oid in enrolled:
            views = inputs.training_views(oid, seed, sizes)
            vectors = [v.vector() for v in views]
            items += [(oid, inputs.vector_bytes(x)) for x in vectors]
            reg.accumulate(oid, vectors, eg.EigenspaceConfig())
            training[oid] = views
        reg.save_dir(str(root / "registry"))

        rng = inputs.rng_for(seed, "recognize")
        kinds = (["clean"] * sizes.recognize_clean + ["occluded"] * sizes.recognize_occluded
                 + ["novel"] * sizes.recognize_novel)
        rng.shuffle(kinds)
        recognize = []
        for j, kind in enumerate(kinds):
            pool = novel if kind == "novel" else enrolled
            oid = pool[int(rng.integers(0, len(pool)))]
            occlusion = inputs.draw_occlusion(rng) if kind == "occluded" else None
            view = inputs.make_view(oid, inputs.held_out_angle(rng, sizes), seed, occlusion)
            rel = f"q/rec-{j:03d}.pgm"
            recognize.append((rel, kind, None if kind == "novel" else oid, view))
            files.append((rel, view.pgm()))

        manifests = {"clean": [], "occluded": []}
        for oid in enrolled:
            for v in inputs.eval_views(oid, seed, sizes):
                rel = f"q/{v.filename}"
                files.append((rel, v.pgm()))
                manifests["occluded" if v.occluded else "clean"].append((rel, v))
        for name, entries in manifests.items():
            text = "".join(f"{r[2:]}\t{v.object_id}\t{v.angle}\t{int(v.occluded)}\n"
                           for r, v in entries)
            files.append((f"q/{name}.tsv", text.encode()))
        for rel, data in files:
            _write(root, rel, data)
        return {"root": root, "training": training, "recognize": recognize,
                "manifests": manifests, "digest": inputs.digest(items + files)}

    def verify(self, ctx, state):
        root = state["root"] / "registry"
        margin, thr, ids = ref.parse_manifest((root / "registry.manifest").read_text())
        if ids != list(state["training"]):
            raise SetupError(f"registry lists {ids}")
        reference = ref.Reference(margin, thr)
        for oid in ids:
            model = ref.parse_model((root / f"{oid}.eig").read_bytes())
            problems = ref.model_problems(model, _units(state["training"][oid]))
            if problems:
                raise SetupError("; ".join(problems))
            reference.add(model)
        queries = [view for _, _, _, view in state["recognize"]]
        state["expected"] = reference.decide_many([ref.unit_vector(v.image) for v in queries])
        state["confusion"] = {}
        for name, entries in state["manifests"].items():
            decisions = reference.decide_many([ref.unit_vector(v.image) for _, v in entries])
            confusion = {}
            for (_, v), d in zip(entries, decisions):
                confusion[(v.object_id, d.best)] = confusion.get((v.object_id, d.best), 0) + 1
            state["confusion"][name] = confusion

    def run_pass(self, ctx: Context, state) -> Pass:
        result = Pass()
        cli = CliRunner(ctx, result, "query")
        recognize = list(zip(state["recognize"], state["expected"]))
        evaluations = ["clean", "occluded"] * self.rounds
        # spread the evaluate processes through the recognize series, so both
        # figures sample the same stretch of a machine whose speed drifts
        step = -(-len(recognize) // len(evaluations))
        for k, name in enumerate(evaluations):
            for (rel, _, truth, _), expected in recognize[k * step:(k + 1) * step]:
                self._recognize(ctx, state, cli, result, rel, truth, expected)
            self._evaluate(ctx, state, cli, result, name)
        return result

    @staticmethod
    def _recognize(ctx, state, cli, result, rel, truth, expected):
        path = str((state["root"] / rel).relative_to(ctx.workdir))
        reg = str((state["root"] / "registry").relative_to(ctx.workdir))
        child = cli(["recognize", path, "--registry", reg])
        op = _guarded(Op("recognize", child.seconds), Query._check_recognize, child, expected)
        result.ops.append(op)
        if not op.failed:
            known = child.returncode == 0
            best = LINE.match(child.stdout.split("\n", 1)[0]).group(2)
            result.score("decision_accuracy", known and best == truth if truth else not known)

    @staticmethod
    def _evaluate(ctx, state, cli, result, name):
        manifest = state["root"] / "q" / f"{name}.tsv"
        csv = state["root"] / f"report-{name}.csv"
        reg = state["root"] / "registry"
        child = cli(["evaluate", "--manifest", str(manifest.relative_to(ctx.workdir)),
                     "--registry", str(reg.relative_to(ctx.workdir)),
                     "--csv", str(csv.relative_to(ctx.workdir))])
        confusion = state["confusion"][name]
        op = _guarded(Op("evaluate", child.seconds), Query._check_evaluate, child, csv, confusion)
        result.ops.append(op)
        if not op.failed:
            tally = result.outcomes.setdefault(f"r_{name}", [0, 0])
            tally[0] += sum(c for (t, p), c in confusion.items() if t == p)
            tally[1] += sum(confusion.values())

    @staticmethod
    def _check_recognize(child, expected: ref.Decision):
        lines = child.stdout.rstrip("\n").split("\n")
        m = LINE.match(lines[0])
        if child.returncode not in (0, 2) or not m:
            return [f"recognize: exit {child.returncode}: {child.stderr.strip()[-200:]}"]
        status, best, angle, score, in_space, res, thr = m.groups()
        ranked = [CANDIDATE.match(line).groups() for line in lines[1:]]
        problems = ref.decision_problems(
            expected, best, int(angle), float(score), float(in_space), float(res),
            float(thr), status == "Known", [(o, float(s)) for o, s in ranked], ref.PRINT_TOL)
        if (status == "Known") != (child.returncode == 0):
            problems.append(f"status {status} with exit {child.returncode}")
        return problems

    @staticmethod
    def _check_evaluate(child, csv: Path, confusion):
        m = RATE.match(child.stdout.strip())
        if child.returncode != 0 or not m:
            return [f"evaluate: exit {child.returncode}: {child.stderr.strip()[-200:]}"]
        right = sum(c for (t, p), c in confusion.items() if t == p)
        total = sum(confusion.values())
        problems = []
        if (int(m.group(2)), int(m.group(3))) != (right, total):
            problems.append(f"evaluate reports {m.group(2)}/{m.group(3)}, reference {right}/{total}")
        rows = csv.read_text().split("\n")
        got = {}
        for row in rows[1: rows.index("P,m,r")]:
            t, p, c = row.split(",")
            got[(t, p)] = int(c)
        if got != confusion:
            problems.append("evaluate confusion differs from the reference")
        return problems


# --- open_world ---

class OpenWorld:
    """In-process library use: accumulate arrivals, decide queries between them."""

    primary, batch, rounds = "decide", ("accumulate", "decide"), 1

    def setup(self, ctx: Context, root: Path):
        sizes, seed = ctx.sizes, ctx.seed
        initial = inputs.object_ids("obj", sizes.ow_initial)
        arrivals = inputs.object_ids("arr", sizes.ow_arrivals)
        never = inputs.object_ids("new", sizes.novel_objects)
        items, training = [], {}

        def vectors(oid):
            views = inputs.training_views(oid, seed, sizes)
            training[oid] = views
            out = [v.vector() for v in views]
            items.extend((oid, inputs.vector_bytes(x)) for x in out)
            return out

        reg = ObjectRegistry()
        for oid in initial:
            reg.accumulate(oid, vectors(oid), eg.EigenspaceConfig())
        rng = inputs.rng_for(seed, "decide")
        steps = []
        for j, oid in enumerate(arrivals):
            new = vectors(oid)
            enrolled = initial + arrivals[: j + 1]
            unseen = arrivals[j + 1:] + never
            queries = []
            for _ in range(sizes.ow_decisions):
                is_known = rng.random() < 2 / 3
                pool = enrolled if is_known else unseen
                target = pool[int(rng.integers(0, len(pool)))]
                occlusion = inputs.draw_occlusion(rng) if rng.random() < 0.2 else None
                view = inputs.make_view(target, int(rng.integers(0, 360)), seed, occlusion)
                q = view.query()
                items.append(("query", inputs.vector_bytes(q)))
                queries.append((q, view, target if is_known else None))
            steps.append((oid, new, queries))
        return {"registry": reg, "training": training, "steps": steps,
                "digest": inputs.digest(items)}

    def verify(self, ctx, state):
        reg = state["registry"]
        reference = ref.Reference(reg.policy.auto_margin)
        for es in reg.spaces:
            model = ref.Model.from_eigenspace(es)
            problems = ref.model_problems(model, _units(state["training"][es.object_id]))
            if problems:
                raise SetupError("; ".join(problems))
            reference.add(model)
        state["reference"] = reference

    def run_pass(self, ctx: Context, state) -> Pass:
        result = Pass()
        # mutations rebind the registry's immutable tuple of spaces, so a
        # shallow copy leaves the set-up registry untouched for the next pass
        reg = copy.copy(state["registry"])
        reference = copy.copy(state["reference"])
        reference.models = list(reference.models)
        tracer = tracing.Tracer() if ctx.trace else None
        restore = tracing.install(tracer) if tracer else None
        try:
            for n, (oid, vectors, queries) in enumerate(state["steps"]):
                es, op = self._timed(tracer, f"accumulate:{n}", "accumulate",
                                     reg.accumulate, oid, vectors, eg.EigenspaceConfig())
                if not op.failed:
                    _guarded(op, self._check_accumulate, es, reg, state, reference)
                result.ops.append(op)
                for i, (q, view, truth) in enumerate(queries):
                    d, op = self._timed(tracer, f"decide:{n}.{i}", "decide",
                                        reg.classify_or_enroll, q)
                    if not op.failed:
                        expected = reference.decide_many(ref.unit_vector(view.image))[0]
                        _guarded(op, self._check_decision, d, expected)
                    result.ops.append(op)
                    if not op.failed:
                        result.score("decision_accuracy",
                                     d.known and d.result.best_object == truth
                                     if truth else not d.known)
        finally:
            if restore:
                restore()
        if tracer:
            walls = [s["end"] - s["start"] for s in tracer.spans if s["name"] == "bench.op"]
            result.traced.append((tracer.spans, sum(walls)))
        result.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return result

    @staticmethod
    def _timed(tracer, op_id, kind, fn, *args):
        span = None
        if tracer:
            tracer.op = op_id
            span = tracer.begin("bench.op")
        t0 = time.perf_counter()
        try:
            out, problems = fn(*args), []
        except Exception as exc:  # a raising call is a failed operation
            out, problems = None, [f"{kind}: {type(exc).__name__}: {exc}"]
        seconds = time.perf_counter() - t0
        if span:
            tracer.end(span)
        return out, Op(kind, seconds, problems)

    @staticmethod
    def _check_accumulate(es, reg, state, reference):
        if reg.spaces[-1] is not es:
            return [f"{es.object_id} is not the newest space"]
        model = ref.Model.from_eigenspace(es)
        problems = ref.model_problems(model, _units(state["training"][es.object_id]))
        reference.add(model)
        return problems

    @staticmethod
    def _check_decision(d, expected: ref.Decision):
        r = d.result
        if r is None or d.enrolled_id is not None:
            return ["decision without a recognition result, or with an enrollment"]
        return ref.decision_problems(
            expected, r.best_object, r.best_view.view_angle_deg, r.combined_score,
            r.in_space_distance, r.residual, d.threshold, d.known,
            list(r.ranked_candidates), ref.SCORE_TOL)


WORKLOADS = {"enroll": Enroll, "query": Query, "open_world": OpenWorld}
