"""The program's model bytes, pinned by a golden sha256.

For each seed, every object of the benchmark's inputs (`bench/inputs.py`,
imported from its file and left as it is: ids obj-00..29, arr-00..19 and
new-00..09, 36 training views each, one of them occluded) is built under
three configs: the default, uncentered, and energy threshold 1.0. Each
model's `.eig` bytes and then its `.f8` sidecar feed one sha256, in (seed,
object, config) order: 180 models a seed.

Tier-1 runs seed 1; CI also runs seeds 1-3:

    PYTHONPATH=src python tests/test_golden.py 1 2 3

The goldens are keyed by numpy version (see conftest.assert_matches_golden).
A change that moves model bytes on purpose updates its golden and says why.
"""

import hashlib
import importlib.util
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
        (1,): "5d37c1374dec355c86f2987f0ee219cd6553f45480f0ea1c24818777bd48ad3b",
        (1, 2, 3): "ccb98e0a4a0e65c39c8c8c6027c3736a1398c3f345e94505788702ec387e0eb9",
    },
}
OBJECTS = [*inputs.object_ids("obj", 30), *inputs.object_ids("arr", 20),
           *inputs.object_ids("new", 10)]
CONFIGS = [eg.EigenspaceConfig(), eg.EigenspaceConfig(centered=False),
           eg.EigenspaceConfig(energy_threshold=1.0)]


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
    assert_matches_golden(goldens, f"seeds {seeds} model", lambda: models_digest(seeds))


if __name__ == "__main__":
    main_seeds = tuple(int(arg) for arg in sys.argv[1:])
    try:
        test_bench_models_hash_to_their_golden(main_seeds)
    except pytest.skip.Exception as exc:
        print(exc.msg)
    else:
        print(f"the models of seeds {main_seeds} hash to their golden")
