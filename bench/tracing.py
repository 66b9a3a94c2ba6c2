"""Span tracer that wraps the public functions of bicausal's modules.

The tracer lives entirely in the benchmark: it replaces each public function
of the eight layer modules with a recording wrapper, both at the defining
module attribute and at every other ``bicausal`` module binding the same
object (for example ``bicausal.experiments.sample_obs``), and puts the
original objects back afterwards. Spans are kept in flat arrays in memory
and written out once, when the run ends.

A span is ``(name, start, end, parent)``; the parent is the span that was
open when the call began, so the spans of a single-threaded run nest.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

#: The program's layers, one per module, in call-graph order.
LAYERS = ("sem", "estimation", "priors", "exact", "approx", "rates", "experiments", "cli")

_WRITE_CSV = (
    "experiments.write_concentration_csv",
    "experiments.write_plateau_csv",
    "experiments.write_chi2_csv",
    "experiments.write_slopes_csv",
)
_RUN = ("experiments.run_concentration", "experiments.run_odds_plateau", "experiments.run_chi2_diagnostic")
_EXPONENTS = ("rates.d12", "rates.d21", "rates.d13", "rates.d23")
_COMMANDS = ("cmd_simulate", "cmd_posterior", "cmd_rates", "cmd_experiment")


def _count_sampled(counters, out):
    counters["sem.rows_out"] += out.shape[0]
    counters["sem.bytes_out"] += out.nbytes


def _count_suffstats(counters, out):
    counters["estimation.suffstats.rows_in"] += out.n + out.m


def _count_read(counters, out):
    obs, interv = out
    counters["cli.read_dataset.rows"] += obs.shape[0] + (0 if interv is None else interv.shape[0])


def _count_cells(counters, out):
    result = out[0] if isinstance(out, tuple) else out
    counters["experiments.cells"] += len(result.records)
    counters["experiments.cells_skipped"] += result.skipped


# run_odds_plateau returns run_concentration's result, which is counted there.
_OBSERVERS = {
    "sem.sample_obs": _count_sampled,
    "sem.sample_interv": _count_sampled,
    "estimation.suffstats": _count_suffstats,
    "cli.read_dataset": _count_read,
    "experiments.run_concentration": _count_cells,
    "experiments.run_chi2_diagnostic": _count_cells,
}

_COUNTERS = (
    "sem.rows_out",
    "sem.bytes_out",
    "estimation.suffstats.rows_in",
    "cli.read_dataset.rows",
    "experiments.cells",
    "experiments.cells_skipped",
) + tuple(f"{layer}.errors" for layer in LAYERS)


class Tracer:
    """Records one span per call of a wrapped function, plus counters."""

    def __init__(self, error_type: type[BaseException]):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counters = dict.fromkeys(_COUNTERS, 0)
        self._error_type = error_type
        self._stack: list[int] = []
        self._last_error: BaseException | None = None
        #: (module, attribute, original function) for every binding replaced.
        self.patched: list[tuple[object, str, object]] = []
        self._installed = False

    def wrap(self, qualname: str, fn):
        """Return a wrapper of ``fn`` that records a span named ``qualname``."""
        nid = len(self.names)
        self.names.append(qualname)
        layer = qualname.split(".", 1)[0]
        observe = _OBSERVERS.get(qualname)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self._stack
        counters = self.counters

        def wrapper(*args, **kwargs):
            idx = len(ends)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            except self._error_type as exc:
                # Count an error once, in the layer that raised it.
                if exc is not self._last_error:
                    self._last_error = exc
                    counters[f"{layer}.errors"] += 1
                raise
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(counters, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every public function of the layer modules at all its bindings."""
        if self.patched:
            raise RuntimeError("a tracer is installed once")
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"bicausal.{layer}")
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrappers[id(fn)] = (fn, self.wrap(f"{layer}.{attr}", fn))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "bicausal" or modname.startswith("bicausal.")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self.patched.append((mod, attr, val))
                    setattr(mod, attr, hit[1])
        self._installed = True

    def restore(self) -> None:
        """Put every original function object back where it was found."""
        if self._installed:
            for mod, attr, original in reversed(self.patched):
                setattr(mod, attr, original)
            self._installed = False

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def arrays(self) -> dict[str, np.ndarray]:
        """Views of the recorded spans; record no more spans while they live."""
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the part of it that its child spans cover.

    Children are clipped to their parent's interval. Sibling spans must not
    overlap, which holds for any single-threaded trace; a trace where they do
    is rejected rather than double-counted.
    """
    parent = np.asarray(parent, dtype=np.int64)
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    dur = end - start
    kids = np.flatnonzero(parent >= 0)
    if kids.size == 0:
        return dur.copy()
    p = parent[kids]
    order = np.lexsort((start[kids], p))
    ks, ps = kids[order], p[order]
    same = ps[1:] == ps[:-1]
    if np.any(start[ks[1:]][same] < end[ks[:-1]][same]):
        raise ValueError("sibling spans overlap; self time is undefined")
    lo = np.maximum(start[kids], start[p])
    hi = np.minimum(end[kids], end[p])
    covered = np.bincount(p, weights=np.maximum(hi - lo, 0.0), minlength=dur.size)
    return dur - covered


def _under(flag: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Spans that are, or descend from, a span with ``flag`` set."""
    out = flag.copy()
    has_parent = parent >= 0
    while True:
        nxt = out.copy()
        nxt[has_parent] |= out[parent[has_parent]]
        if np.array_equal(nxt, out):
            return out
        out = nxt


_TIMED = (
    "sem.sample_obs",
    "sem.sample_interv",
    "estimation.suffstats",
    "estimation.mle_mixed",
    "estimation.loglik",
    "priors.prior_logpdf",
    "exact.log_marginal_mixed",
    "exact.posterior",
    "exact.log_inverse_odds",
    "exact.augmented_odds_statistic",
    "approx.quadrature_log_marginal",
    "approx.quadrature_log_marginal_generic",
    "approx.laplace_log_marginal",
    "approx.hessian_diagnostics",
    "rates.optimal_eta",
    "cli.read_dataset",
)
_SELF_TIMED = (
    "exact.posterior",
    "approx.quadrature_log_marginal_generic",
) + tuple(f"cli.{cmd}" for cmd in _COMMANDS)
_REPORTED_COUNTERS = (
    "sem.rows_out",
    "sem.bytes_out",
    "estimation.suffstats.rows_in",
    "cli.read_dataset.rows",
    "experiments.cells",
    "experiments.cells_skipped",
    "approx.errors",
)


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-function calls and busy time, per-layer self time and share, counters."""
    arr = tracer.arrays()
    names = tracer.names
    nid, parent = arr["name"], arr["parent"]
    dur = arr["end"] - arr["start"]
    self_t = self_times(parent, arr["start"], arr["end"])
    # A function a later version removes reports zero calls and time.
    calls = dict(zip(names, np.bincount(nid, minlength=len(names)).tolist()))
    busy = dict(zip(names, np.bincount(nid, weights=dur, minlength=len(names)).tolist()))
    own = dict(zip(names, np.bincount(nid, weights=self_t, minlength=len(names)).tolist()))

    def member(group):
        return np.array([n in group for n in names], dtype=bool)[nid]

    def group_busy(group):
        # Time inside any span of the group, counted once: d13 calls d12.
        inside = _under(member(group), parent)
        nested = np.zeros_like(inside)
        nested[parent >= 0] = inside[parent[parent >= 0]]
        return float(np.sum(dur[member(group) & ~nested]))

    m: dict[str, float] = {}
    for n in _TIMED:
        m[f"{n}.calls"] = calls.get(n, 0)
        m[f"{n}.busy_s"] = busy.get(n, 0.0)
    for n in _SELF_TIMED:
        m[f"{n}.self_s"] = own.get(n, 0.0)
    m["rates.exponent.calls"] = sum(calls.get(n, 0) for n in _EXPONENTS)
    m["rates.exponent.busy_s"] = group_busy(_EXPONENTS)
    m["experiments.run.self_s"] = sum(own.get(n, 0.0) for n in _RUN)
    m["experiments.write_csv.busy_s"] = group_busy(_WRITE_CSV)
    for key in _REPORTED_COUNTERS:
        m[key] = tracer.counters[key]
    # log_marginal_mixed calls made inside the Monte Carlo harness, per cell.
    cells = m["experiments.cells"] + m["experiments.cells_skipped"]
    in_run = _under(member(_RUN), parent) & member(("exact.log_marginal_mixed",))
    m["exact.log_marginal_mixed.calls_per_cell"] = int(np.count_nonzero(in_run)) / cells if cells else 0.0

    layer_of = np.array([LAYERS.index(n.split(".", 1)[0]) for n in names], dtype=np.int64)
    layer_self = np.bincount(layer_of[nid], weights=self_t, minlength=len(LAYERS))
    for i, layer in enumerate(LAYERS):
        m[f"layer.{layer}.self_s"] = float(layer_self[i])
        m[f"layer.{layer}.self_share"] = float(layer_self[i]) / wall_s
    m["trace.spans"] = int(nid.size)
    return m
