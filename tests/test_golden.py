"""The program's model bytes, pinned by a golden sha256.

For each seed, every object of the benchmark's inputs (`bench/inputs.py`,
imported from its file and left as it is: ids obj-00..29, arr-00..19 and
new-00..09, 36 training views each, one of them occluded) is built under
two configs: the default and energy threshold 1.0. Each model's `.eig`
bytes and then its `.f8` sidecar feed one sha256, in (seed, object, config)
order: 120 models a seed.

Tier-1 runs seed 1; CI also runs seeds 1-3:

    PYTHONPATH=src python tests/test_golden.py 1 2 3

The goldens are keyed by numpy version (see conftest.assert_matches_golden).
A change that moves model bytes on purpose updates its golden and says why.
"""

import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eigengaze as eg
from eigengaze.eigenspace import save_sidecar

from conftest import assert_matches_golden

_spec = importlib.util.spec_from_file_location(
    "bench_inputs", Path(__file__).resolve().parents[1] / "bench" / "inputs.py")
inputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(inputs)

# numpy version -> seeds -> sha256 of their models
MODEL_GOLDENS = {
    "2.4.6": {
        (1,): "27c7defaebd2c8a122e99637a3052b4c9718c0bda7585c099a2a4ef1e794856a",
        (1, 2, 3): "287f15236fdd860c17489b60a21bb5ef0eb813ae2b205f9335b4a44b5ad9fdba",
    },
}
OBJECTS = [*inputs.object_ids("obj", 30), *inputs.object_ids("arr", 20),
           *inputs.object_ids("new", 10)]
CONFIGS = [eg.EigenspaceConfig(), eg.EigenspaceConfig(energy_threshold=1.0)]
# seeds -> the digest of this process's first render of their models, which
# the BLAS-thread test reuses rather than render them again
FIRST_RENDERS = {}


def models_digest(seeds) -> str:
    h = hashlib.sha256()
    for seed in seeds:
        for object_id in OBJECTS:
            views = [v.vector() for v in inputs.training_views(object_id, seed, inputs.Sizes())]
            for config in CONFIGS:
                es = eg.build_eigenspace(object_id, views, config)
                data = eg.save_model(es)
                h.update(data)
                h.update(save_sidecar(es, data))
    return h.hexdigest()


def test_bench_models_hash_to_their_golden(seeds=(1,)):
    goldens = {version: by_seeds[seeds] for version, by_seeds in MODEL_GOLDENS.items()
               if seeds in by_seeds}

    def render():
        # only the first render is kept: a second, on a numpy with no
        # golden, must render again to check that two renders agree
        digest = models_digest(seeds)
        FIRST_RENDERS.setdefault(seeds, digest)
        return digest

    assert_matches_golden(goldens, f"seeds {seeds} model", render)


def test_models_do_not_depend_on_the_blas_thread_count():
    """A child held to one BLAS thread writes the same seed-1 models as this
    process, on any numpy version, so a process may be held to one BLAS thread
    without moving a byte it writes. This process's digest is the golden
    test's first render if that test has run here, else a render of its own."""
    tests = Path(__file__).resolve().parent
    src = Path(eg.__file__).resolve().parents[1]
    code = (f"import sys; sys.path[:0] = [{str(src)!r}, {str(tests)!r}]; "
            "from test_golden import models_digest; print(models_digest((1,)))")
    child = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True,
                             env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    digest = FIRST_RENDERS.get((1,)) or models_digest((1,))
    out, _ = child.communicate()
    assert child.returncode == 0
    assert out.strip() == digest


if __name__ == "__main__":
    main_seeds = tuple(int(arg) for arg in sys.argv[1:])
    try:
        test_bench_models_hash_to_their_golden(main_seeds)
    except pytest.skip.Exception as exc:
        print(exc.msg)
    else:
        print(f"the models of seeds {main_seeds} hash to their golden")
