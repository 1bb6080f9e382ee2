"""Spans around the package's public functions, and their per-layer reduction.

Wrappers are installed at the import sites the package's own callers use
(`cli` calls `imgio.parse_pgm` through the module, `registry` binds
`build_eigenspace`, `save_model` and `load_model` itself, `recog` binds
`project` and `residual`, `eigenspace` binds `gram_pca`), so every call the
program makes is seen once. Spans stay in memory until the run ends.

This module imports only the standard library, so a traced CLI process can
load it before timing the import of the package.
"""

import functools
import importlib
import json
import time

# (module, class or None, attribute, span name)
SITES = (
    ("eigengaze.imgio", None, "parse_pgm", "imgio.parse_pgm"),
    ("eigengaze.imgio", None, "vectorize", "imgio.vectorize"),
    ("eigengaze.linalg", None, "sym_eigen", "linalg.sym_eigen"),
    ("eigengaze.eigenspace", None, "gram_pca", "linalg.gram_pca"),
    ("eigengaze.registry", None, "build_eigenspace", "eigenspace.build_eigenspace"),
    ("eigengaze.registry", None, "save_model", "eigenspace.save_model"),
    ("eigengaze.registry", None, "load_model", "eigenspace.load_model"),
    ("eigengaze.cli", None, "load_model", "eigenspace.load_model"),
    ("eigengaze.recog", None, "project", "eigenspace.project"),
    ("eigengaze.recog", None, "residual", "eigenspace.residual"),
    ("eigengaze.recog", None, "recognize", "recog.recognize"),
    ("eigengaze.recog", None, "evaluate", "recog.evaluate"),
    ("eigengaze.registry", "ObjectRegistry", "load_dir", "registry.load_dir"),
    ("eigengaze.registry", "ObjectRegistry", "save_dir", "registry.save_dir"),
    ("eigengaze.registry", "ObjectRegistry", "accumulate", "registry.accumulate"),
    ("eigengaze.registry", "ObjectRegistry", "effective_threshold", "registry.effective_threshold"),
    ("eigengaze.registry", "ObjectRegistry", "classify_or_enroll", "registry.classify_or_enroll"),
)


def _spaces(reg):
    return getattr(reg, "spaces", ())


# attributes recorded before a call (free of the span's time) ...
BEFORE = {
    "imgio.parse_pgm": lambda a, kw: {"bytes": len(a[0])},
    "eigenspace.load_model": lambda a, kw: {"bytes": len(a[0])},
    "linalg.sym_eigen": lambda a, kw: {"order": len(a[0])},
    "recog.recognize": lambda a, kw: {"spaces": len(_spaces(a[0]))},
    # the registry state a threshold is computed for: ids are never re-enrolled
    "registry.effective_threshold": lambda a, kw: {
        "state": "/".join(es.object_id for es in _spaces(a[0]))
    },
}
# ... and after it
AFTER = {
    "eigenspace.save_model": lambda out: {"bytes": len(out)},
}


class Tracer:
    """Collects spans: name, start, end, parent index, operation id, attrs."""

    def __init__(self, op=None):
        self.spans = []
        self.op = op
        self._stack = []

    def begin(self, name, attrs=None):
        span = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else -1,
            "op": self.op,
            "attrs": attrs or {},
        }
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span):
        span["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        before, after = BEFORE.get(name), AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name, before(args, kwargs) if before else None)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(span)
            if after:
                span["attrs"].update(after(out))
            return out

        return traced


def install(tracer):
    """Wrap every site that exists; return a callable that restores them."""
    undo = []
    for module, cls, attr, name in SITES:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls, None)
        raw = vars(owner).get(attr) if owner is not None else None
        if raw is None:
            continue  # the site moved; its layer then reads zero
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(tracer.wrap(name, raw.__func__))
        else:
            wrapped = tracer.wrap(name, raw)
        setattr(owner, attr, wrapped)
        undo.append((owner, attr, raw))

    def restore():
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)

    return restore


def dump(spans, path):
    with open(path, "w") as f:
        json.dump(spans, f)


def load(path):
    with open(path) as f:
        return json.load(f)


# --- reduction ---

def self_times(spans):
    """Each span's duration minus the part of its interval its children cover.

    `spans` is one process's list; `parent` indexes into it.
    """
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            children[s["parent"]].append(i)
    out = []
    for s, kids in zip(spans, children):
        covered, reach = 0.0, s["start"]
        for c in sorted(kids, key=lambda j: spans[j]["start"]):
            lo = max(spans[c]["start"], reach)
            hi = min(spans[c]["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s["end"] - s["start"] - covered)
    return out


LAYER_SPANS = (
    "imgio.parse_pgm", "imgio.vectorize",
    "linalg.sym_eigen", "linalg.gram_pca",
    "eigenspace.build_eigenspace", "eigenspace.save_model", "eigenspace.load_model",
    "eigenspace.project", "eigenspace.residual",
    "registry.load_dir", "registry.save_dir", "registry.effective_threshold",
    "registry.accumulate", "registry.classify_or_enroll",
    "recog.recognize", "recog.evaluate",
    "cli.main",
)


def reduce(processes):
    """Per-layer totals over traced processes.

    `processes` is a list of (spans, wall_s); wall_s is the process (or
    library call) wall time measured by the caller. A process without a
    `cli.main` span is an in-process library call.
    Returns (calls by span name, self time by span name, other totals,
    summed self time of all layers including CLI import and start-up).
    """
    calls = dict.fromkeys(LAYER_SPANS, 0)
    self_s = dict.fromkeys(LAYER_SPANS, 0.0)
    tot = {"parse_bytes": 0, "save_bytes": 0, "load_bytes": 0, "order_sum": 0,
           "spaces_scored": 0, "processes": 0, "import_s": 0.0, "startup_s": 0.0,
           "wall_s": 0.0}
    thresholds = []  # registry state of every effective_threshold call, in order
    for spans, wall in processes:
        tot["wall_s"] += wall
        st = self_times(spans)
        cli_main = cli_import = None
        for s, own in zip(spans, st):
            name, attrs = s["name"], s["attrs"]
            if name in calls:
                calls[name] += 1
                self_s[name] += own
            if name == "cli.main":
                cli_main = s["end"] - s["start"]
            elif name == "cli.import":
                cli_import = own
            elif name == "imgio.parse_pgm":
                tot["parse_bytes"] += attrs["bytes"]
            elif name == "eigenspace.save_model":
                tot["save_bytes"] += attrs.get("bytes", 0)
            elif name == "eigenspace.load_model":
                tot["load_bytes"] += attrs["bytes"]
            elif name == "linalg.sym_eigen":
                tot["order_sum"] += attrs["order"]
            elif name == "recog.recognize":
                tot["spaces_scored"] += attrs["spaces"]
            elif name == "registry.effective_threshold":
                thresholds.append(attrs["state"])
        if cli_main is not None:
            tot["processes"] += 1
            tot["import_s"] += cli_import or 0.0
            tot["startup_s"] += wall - (cli_import or 0.0) - cli_main
    useful, prev = 0, None
    for state in thresholds:
        useful += state != prev
        prev = state
    tot["threshold_useful"] = useful
    layer_self = sum(self_s.values()) + tot["import_s"] + tot["startup_s"]
    return calls, self_s, tot, layer_self
