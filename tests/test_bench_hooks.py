"""The benchmark's span tracer (bench/tracing.py) wraps mgflow functions where
their callers look them up.  Some of those names are re-exports that look
unused inside the package, such as `dynamics.risk`,
`dynamics.generalized_gradient` and `gradients.forward`; deleting one breaks
the benchmark, not the package.  `Architecture.neuron_indices` is kept only
for the tracer's `params.neuron_indices` counter: no package code calls it,
since the package reaches a neuron through `Architecture.subvector_rows`.
Installing the tracer must find every hook, and uninstalling it must put every
original back."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_resolves_and_uninstall_restores_every_hook():
    tracing = _load_tracing()
    hooks = [(owner, attr) for owner, attr, _ in tracing.SPANNED + tracing.COUNTED]
    originals = [vars(owner)[attr] for owner, attr in hooks]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (owner, attr), original in zip(hooks, originals):
            assert vars(owner)[attr] is not original, attr
    finally:
        tracer.uninstall()
    for (owner, attr), original in zip(hooks, originals):
        assert vars(owner)[attr] is original, attr
