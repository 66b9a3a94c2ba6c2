"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest bench/test_bench.py -q
"""

import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import bicausal as bc  # noqa: E402
from tracing import LAYERS, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_self_time_on_synthetic_nested_trace():
    # 0:A [0,10] has children 1:B [1,4] and 3:C [5,9]; 2:D [2,3] is B's
    # child; 4:E [11,12] is a second root.
    parent = np.array([-1, 0, 1, 0, -1])
    start = np.array([0.0, 1.0, 2.0, 5.0, 11.0])
    end = np.array([10.0, 4.0, 3.0, 9.0, 12.0])
    np.testing.assert_allclose(self_times(parent, start, end), [3.0, 2.0, 1.0, 4.0, 1.0])


def test_self_time_clips_children_and_rejects_overlapping_siblings():
    # A child that outlives its parent only covers the parent's part.
    np.testing.assert_allclose(self_times(np.array([-1, 0]), np.array([0.0, 3.0]), np.array([4.0, 6.0])), [3.0, 3.0])
    with pytest.raises(ValueError):
        self_times(np.array([-1, 0, 0]), np.array([0.0, 1.0, 2.0]), np.array([10.0, 3.0, 4.0]))


def _bindings():
    """Every function object bound in a bicausal module, by (module, name)."""
    import bicausal.cli  # noqa: F401

    return {
        (name, attr): val
        for name, mod in list(sys.modules.items())
        if name == "bicausal" or name.startswith("bicausal.")
        for attr, val in vars(mod).items()
        if inspect.isfunction(val)
    }


def test_traced_run_restores_every_original_function():
    before = _bindings()
    tracer = Tracer(bc.BicausalError)
    with pytest.raises(bc.InvalidParameter):
        with tracer:
            assert bc.experiments.sample_obs is not before[("bicausal.experiments", "sample_obs")]
            assert bc.sample_obs.__wrapped__ is before[("bicausal", "sample_obs")]
            st = bc.suffstats(bc.sample_obs(bc.Structure.S1, bc.Params(1.0, 1.0, 1.0), 50, 0))
            bc.posterior(st, bc.bge_symmetric_hyper(3.0, 0.5))
            bc.sample_obs(bc.Structure.S1, bc.Params(1.0, 1.0, 1.0), -1, 0)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    wrapped = {(mod.__name__, attr) for mod, attr, _ in tracer.patched}
    assert ("bicausal.experiments", "sample_obs") in wrapped and ("bicausal.sem", "sample_obs") in wrapped
    m = layer_metrics(tracer, wall_s=1.0)
    assert m["sem.sample_obs.calls"] == 2 and m["exact.log_marginal_mixed.calls"] == 3
    assert m["sem.rows_out"] == 50 and m["estimation.suffstats.rows_in"] == 50
    assert tracer.counters["sem.errors"] == 1
    spans = tracer.arrays()
    roots = spans["parent"] < 0
    assert sum(m[f"layer.{layer}.self_s"] for layer in LAYERS) == pytest.approx(
        float(np.sum(spans["end"][roots] - spans["start"][roots]))
    )


def _traced_pass(name, seed, outdir):
    wl = WORKLOADS[name](bc, seed, outdir)
    tracer = Tracer(bc.BicausalError)
    with tracer:
        res = wl.run()
    out = wl.evaluate(res)
    calls = dict(zip(tracer.names, np.bincount(np.asarray(tracer.name), minlength=len(tracer.names))))
    return out, calls, tracer.counters


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_changes_inputs_not_counts(name, tmp_path):
    a, calls_a, counters_a = _traced_pass(name, 1, tmp_path / "a")
    b, calls_b, counters_b = _traced_pass(name, 2, tmp_path / "b")
    assert [ok for _, ok, _ in a.checks] == [True] * len(a.checks)
    assert [ok for _, ok, _ in b.checks] == [True] * len(b.checks)
    assert a.digest != b.digest
    assert a.counts == b.counts
    assert calls_a == calls_b
    assert counters_a == counters_b
