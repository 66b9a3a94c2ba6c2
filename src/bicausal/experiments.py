"""Deterministic Monte Carlo harness for the concentration studies.

Each ``(trial, N)`` cell draws its sufficient statistics directly (the
draw of :func:`bicausal.estimation.sample_suffstats`, at a cost flat in
``N``). At one size, the trials come in fixed blocks of ``_BLOCK``: block
``b`` draws from one generator, seeded by
``numpy.random.SeedSequence(base_seed, spawn_key=(size_index, b))``, which
draws each variate for the whole block as one vector. Whole blocks are
always drawn and the first ``trials`` rows kept, so a cell's statistics
depend only on ``(base_seed, size_index, trial)``: not on execution order,
not on ``trials``, and a full run is reproducible byte for byte. The
trials' statistics at a size form one batch
:class:`~bicausal.estimation.SuffStats`, validated once and scored by one
evidence call per structure. A cell whose evidence is not finite (a
non-positive augmented determinant) is skipped and counted.

An :class:`ExperimentResult` holds the kept cells as columns (trial, N, n,
m, the posterior, log inverse odds, ``p(S1)/p(S2)`` and the two scaled odds
statistics), one row per cell in fixed ``(trial, N)`` order; its
``records`` are the same rows as :class:`TrialRecord` objects. Trial
averages are accumulated in trial order.

``PRESETS`` holds the experiments behind the source's figures, and
:func:`run_bundle` runs one preset or config-file experiment into a bundle
directory. The files a bundle holds (floats use 17 significant digits):

* ``concentration_obs.csv`` (observational) or ``concentration_eta<eta>.csv``
  (one per mixing proportion): trial, N, n, m, p_s1, p_s2, p_s3, log_inv_odds
* ``plateau.csv``: trial, n, ratio_12, theory_limit
* ``chi2.csv``: trial, stat_s1, stat_s2
* ``slopes.csv``: eta, fitted_slope, theory_exponent, rel_err
* ``rates_a.csv``, ``rates_b.csv`` (one per preset parameter set):
  eta, d12, d21, d13, d23, d12_gain, d21_gain
"""

from __future__ import annotations

import math
import numbers
from dataclasses import astuple, dataclass, fields
from functools import cached_property
from itertools import chain, islice, repeat
from pathlib import Path

import numpy as np

from .errors import ArgumentOutOfDomain, ConfigError, InvalidParameter
from .estimation import SuffStats, _draw_sums
from .exact import StructurePosterior, _log_evidence, augmented_odds_statistic
from .priors import BgeHyper
from .rates import (
    RateId,
    RateInput,
    d12,
    d21,
    gain_transform,
    mixing_helps_s1,
    optimal_eta,
    sample_curve,
)
from .rates import _CURVE_POINTS, _log_prior_ratio
from .sem import STRUCTURES, InterventionSpec, Params, Structure, _edge, _integer, _node1_is_child, gamma_map_inverse
# the raw sampler stays bound here: bench/tracing.py wraps it at every module
# that binds it, and bench/test_bench.py checks this binding
from .sem import sample_obs  # noqa: F401


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration of one Monte Carlo experiment.

    ``eta = None`` selects the observational-only regime (``sample_sizes``
    are then observational counts). Otherwise ``n = floor(eta*N + 1/2)`` and
    ``m = N - n`` per total size ``N``.
    """

    true_model: Structure
    theta_star: Params
    hyper: BgeHyper
    y: float = 0.0
    eta: float | None = None
    sample_sizes: tuple[int, ...] = (50, 100, 200, 400, 800, 1600, 3200)
    trials: int = 100
    base_seed: int = 0

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "true_model", Structure(self.true_model))
        except ValueError:
            raise InvalidParameter(f"true_model must be S1, S2 or S3, got {self.true_model!r}") from None
        sizes = tuple(_integer("sample size", v) for v in self.sample_sizes)
        if len(sizes) == 0 or any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise InvalidParameter("sample_sizes must be a strictly increasing nonempty list")
        if sizes[0] < 2:
            raise InvalidParameter("smallest sample size must be >= 2")
        object.__setattr__(self, "sample_sizes", sizes)
        object.__setattr__(self, "trials", _integer("trials", self.trials))
        object.__setattr__(self, "base_seed", _integer("base_seed", self.base_seed))
        if self.trials < 1:
            raise InvalidParameter(f"trials must be >= 1, got {self.trials}")
        if self.base_seed < 0:
            raise InvalidParameter(f"base_seed must be >= 0, got {self.base_seed}")
        if not (isinstance(self.y, numbers.Real) and math.isfinite(self.y)):
            raise InvalidParameter(f"y must be a finite number, got {self.y!r}")
        if self.eta is not None and not (isinstance(self.eta, numbers.Real) and 0.0 < self.eta < 1.0):
            raise InvalidParameter(f"eta must lie in (0, 1) when mixed, got {self.eta!r}")

    @property
    def mixed(self) -> bool:
        return self.eta is not None

    def split(self, total: int) -> tuple[int, int]:
        """(n, m) for total size ``total``; half counts round up."""
        if not self.mixed:
            return total, 0
        n = int(math.floor(self.eta * total + 0.5))
        n = min(max(n, 1), total - 1)
        return n, total - n


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one (trial, N) cell."""

    trial: int
    total: int
    n: int
    m: int
    p: tuple[float, float, float]
    log_inv_odds: float
    ratio_12: float
    stat_s1: float = math.nan
    stat_s2: float = math.nan


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    """The kept cells' outcomes as columns, one row per cell in ``(trial, N)``
    order: the fields of :class:`TrialRecord`, with ``p`` of shape
    ``(cells, 3)``, plus the count of skipped cells."""

    trial: np.ndarray
    total: np.ndarray
    n: np.ndarray
    m: np.ndarray
    p: np.ndarray
    log_inv_odds: np.ndarray
    ratio_12: np.ndarray
    stat_s1: np.ndarray
    stat_s2: np.ndarray
    skipped: int = 0

    @cached_property
    def records(self) -> list[TrialRecord]:
        """The rows as :class:`TrialRecord` objects, built on first use.

        A NaN statistic becomes the one ``math.nan`` object, the field's
        default, so that records with the same fields compare equal.
        """
        *head, s1, s2 = (getattr(self, f.name).tolist() for f in fields(TrialRecord))
        s1, s2 = ([math.nan if math.isnan(v) else v for v in stats] for stats in (s1, s2))
        return [TrialRecord(t, N, n, m, tuple(p), *rest) for t, N, n, m, p, *rest in zip(*head, s1, s2)]

    def _at(self, total: int) -> np.ndarray:
        """The mask of the rows at size ``total``."""
        mask = self.total == total
        if not mask.any():
            raise InvalidParameter(f"no records at N={total}")
        return mask

    def mean_log_inv_odds(self, total: int) -> float:
        """Trial average at one size, accumulated in trial order."""
        return _trial_mean(self.log_inv_odds[self._at(total)])


def _trial_mean(values: np.ndarray) -> float:
    """The mean of ``values`` summed in order (``np.sum`` sums pairwise)."""
    return float(np.cumsum(values)[-1]) / values.size


#: Trials drawn from one generator; whole blocks are drawn and the first
#: ``trials`` rows kept. The draws of the benchmark's ``mc_many_cells``
#: configurations took 5.5 ms with blocks of 128, 11.7 ms at 64, 6.2 ms at
#: 256 and 10.1 ms at 1,024 (numpy 2.4.6, one core of a 2-core Xeon).
_BLOCK = 128


def _draw_size(cfg: ExperimentConfig, size_index: int) -> SuffStats:
    """One batch holding every trial's statistics at one size, in trial order.

    Trials ``[b*_BLOCK, (b+1)*_BLOCK)`` draw from one generator, seeded by
    ``SeedSequence(base_seed, spawn_key=(size_index, b))``.
    """
    n, m = cfg.split(cfg.sample_sizes[size_index])
    iv = InterventionSpec(cfg.y) if m else None
    blocks = [
        _draw_sums(
            cfg.true_model, cfg.theta_star, n, m, iv,
            np.random.default_rng(np.random.SeedSequence(cfg.base_seed, spawn_key=(size_index, block))),
            _BLOCK,
        )
        for block in range(-(-cfg.trials // _BLOCK))
    ]
    sums = [np.concatenate(column)[: cfg.trials] for column in zip(*blocks)]
    return SuffStats(*sums, n, m, iv.value if m else None)


def _run(cfg: ExperimentConfig, size_indices, chi2: bool = False) -> ExperimentResult:
    """The result over the trials and the given sizes, rows in ``(trial, N)``
    order; a cell whose evidence is not finite is skipped and counted. Each
    size is drawn and scored as one batch; the posterior and the columns are
    formed once, over every cell. ``chi2`` adds the scaled odds statistics."""
    batches = [_draw_size(cfg, idx) for idx in size_indices]
    k = len(batches)
    # the evidence stacked (structure, trial, size), then flattened trial-major
    logp = np.stack([_log_evidence(st, cfg.hyper) for st in batches], axis=2)
    post = StructurePosterior.from_logp(logp.reshape(len(STRUCTURES), -1))
    stats = np.full((2, post.p.shape[1]), math.nan)
    for j, st in enumerate(batches if chi2 else ()):  # S1 and S2 against S3, at the size's counts
        at_size = StructurePosterior(post.logp[:, j::k], post.p[:, j::k])
        stats[:, j::k] = [augmented_odds_statistic(st, at_size, s, cfg.theta_star, cfg.hyper) for s in STRUCTURES[:2]]
    # ratio_12 saturates to inf far in the tail
    with np.errstate(over="ignore"):
        ratio_12 = np.exp(post.log_odds(Structure.S1, Structure.S2))
    keep = np.isfinite(post.logp).all(axis=0)
    trial = np.repeat(np.arange(cfg.trials), k)
    counts = np.tile([(st.total, st.n, st.m) for st in batches], (cfg.trials, 1)).T
    columns = [trial, *counts, post.p.T, post.log_inverse_odds(cfg.true_model), ratio_12, *stats]
    return ExperimentResult(*(c[keep] for c in columns), skipped=int(keep.size - keep.sum()))


def run_concentration(cfg: ExperimentConfig) -> ExperimentResult:
    """Posterior results over the (trial, size) grid for the configured model.

    Cells whose statistics fail a numerical check (a non-positive augmented
    determinant, so NaN evidence) are skipped and counted; at the default
    configurations they are vanishingly rare.
    """
    return _run(cfg, range(len(cfg.sample_sizes)))


def plateau_theory_ratio(cfg: ExperimentConfig) -> float:
    """Limiting observational posterior ratio ``p(S1)/p(S2)``.

    Determined by the generating law alone: with ``theta`` the law's ``S1``
    coordinates, the ratio tends to ``prior(theta | S1)`` over the pulled-back
    ``S2`` prior at ``theta``.
    """
    edge = _edge(cfg.true_model)
    if edge is None:
        raise InvalidParameter("plateau defined for connected true models")
    theta = cfg.theta_star if _node1_is_child(edge) else gamma_map_inverse(cfg.theta_star)
    log_ratio = -_log_prior_ratio(theta, cfg.hyper)
    try:
        return math.exp(log_ratio)
    except OverflowError:
        raise ArgumentOutOfDomain(f"plateau ratio exp({log_ratio!r}) overflows at {theta!r}") from None


def run_odds_plateau(cfg: ExperimentConfig) -> ExperimentResult:
    """Observational posterior-odds trajectory against its theoretical plateau."""
    if cfg.mixed:
        raise InvalidParameter("plateau experiment is observational-only")
    if _edge(cfg.true_model) is None:
        raise InvalidParameter("plateau experiment requires a connected true model")
    # the limit depends on the generating law alone: refuse an overflow before any draw
    plateau_theory_ratio(cfg)
    return run_concentration(cfg)


def run_chi2_diagnostic(cfg: ExperimentConfig) -> tuple[ExperimentResult, float, float]:
    """Scaled posterior-odds statistics under a true independence model.

    Uses the largest configured sample size for every trial. Returns the
    records plus the worse (larger-distance) of the two per-structure
    Kolmogorov-Smirnov comparisons against the chi-squared(1) law.
    """
    if _edge(cfg.true_model) is not None:
        raise InvalidParameter("chi-squared diagnostic requires true model S3")
    result = _run(cfg, [len(cfg.sample_sizes) - 1], chi2=True)
    ks1, p1 = ks_test_chi2_1(result.stat_s1)
    ks2, p2 = ks_test_chi2_1(result.stat_s2)
    if ks1 >= ks2:
        return result, ks1, p1
    return result, ks2, p2


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    r_squared: float


def fit_slope(x_values, y_values) -> SlopeFit:
    """Ordinary least squares of ``y`` on ``x``; needs >= 4 distinct x."""
    x = np.asarray(x_values, dtype=np.float64)
    y = np.asarray(y_values, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise InvalidParameter("x and y must be 1d arrays of equal length")
    if np.unique(x).size < 4:
        raise InvalidParameter("slope fit needs at least 4 distinct x values")
    xbar = float(np.mean(x))
    ybar = float(np.mean(y))
    sxx = float(np.sum((x - xbar) ** 2))
    sxy = float(np.sum((x - xbar) * (y - ybar)))
    slope = sxy / sxx
    intercept = ybar - slope * xbar
    resid = y - (intercept + slope * x)
    sst = float(np.sum((y - ybar) ** 2))
    ssr = float(np.sum(resid ** 2))
    r2 = 1.0 if sst == 0.0 else max(0.0, 1.0 - ssr / sst)
    return SlopeFit(slope=slope, intercept=intercept, r_squared=r2)


def fitted_exponent(cfg: ExperimentConfig, result: ExperimentResult, min_size: int = 0) -> SlopeFit:
    """Slope of trial-averaged ``log(1/p_true - 1)`` against total sample size,
    over the configured sizes of at least ``min_size``."""
    sizes = [total for total in cfg.sample_sizes if total >= min_size]
    means = [result.mean_log_inv_odds(total) for total in sizes]
    return fit_slope(np.array(sizes, dtype=np.float64), np.array(means))


#: The exponent of each connected true model's trial-averaged log inverse odds.
_EXPONENTS = {Structure.S1: d12, Structure.S2: d21}


def theory_exponent(cfg: ExperimentConfig) -> float:
    """The exponent the fitted slope should approach (sign flipped)."""
    if not cfg.mixed:
        raise InvalidParameter("exponent defined for mixed-data configurations")
    if _edge(cfg.true_model) is None:
        raise InvalidParameter("exponent defined for connected true models")
    return _EXPONENTS[cfg.true_model](RateInput(cfg.theta_star, cfg.y, cfg.eta))


# ---------------------------------------------------------------------------
# chi-squared(1) CDF and Kolmogorov-Smirnov helpers (no stats dependency)
# ---------------------------------------------------------------------------


def chi2_1_cdf(x: float) -> float:
    """CDF of chi-squared with one degree of freedom: ``erf(sqrt(x/2))``."""
    if x <= 0.0:
        return 0.0
    return math.erf(math.sqrt(0.5 * x))


def _kolmogorov_sf(t: float) -> float:
    """Survival function of the Kolmogorov distribution (asymptotic series)."""
    if t <= 0.0:
        return 1.0
    total = 0.0
    for k in range(1, 101):
        term = 2.0 * (-1.0) ** (k - 1) * math.exp(-2.0 * k * k * t * t)
        total += term
        if abs(term) < 1e-12:
            break
    return min(max(total, 0.0), 1.0)


def ks_test_chi2_1(samples: np.ndarray) -> tuple[float, float]:
    """One-sample KS statistic and approximate p-value against chi-squared(1).

    The p-value uses the Stephens small-sample correction of the asymptotic
    Kolmogorov law, accurate for a few dozen samples and up.
    """
    x = np.sort(np.asarray(samples, dtype=np.float64))
    nn = x.size
    if nn == 0:
        raise InvalidParameter("empty sample")
    cdf = np.array([chi2_1_cdf(float(v)) for v in x])
    upper = np.arange(1, nn + 1) / nn
    lower = np.arange(0, nn) / nn
    d = float(max(np.max(upper - cdf), np.max(cdf - lower)))
    root = math.sqrt(nn)
    p = _kolmogorov_sf((root + 0.12 + 0.11 / root) * d)
    return d, p


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------


#: Every float in a written file: 17 significant digits, enough to round-trip.
_FLOAT = "%.17g"
#: A table column's format by its letter: a count, a float, a string.
_FORMATS = {"d": "%d", "g": _FLOAT, "s": "%s"}


def _fmt(v: float) -> str:
    return _FLOAT % v


def _open_output(path):
    """Open ``path`` for writing text, making its directories (no other code
    makes one); a path that cannot be made or written is a ConfigError."""
    try:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {Path(path).parent}: {exc}") from exc
    try:
        return open(path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


#: Rows a table writer formats with one ``%`` call.
_WRITE_BLOCK = 4096


def _write_table(path, header, columns: str, formats: str, rows) -> None:
    """Write one CSV table, making its directory: the ``#`` header lines, the
    column-name row, then one line per row tuple. ``formats`` has one letter
    per column: ``d`` for a count, ``g`` for a float, ``s`` for a string."""
    fmt = ",".join(_FORMATS[f] for f in formats) + "\n"
    rows = iter(rows)
    with _open_output(path) as fh:
        fh.writelines(f"{line}\n" for line in header)
        fh.write(f"{columns}\n")
        # one format call per block of rows: the same bytes as one per row
        while block := tuple(chain.from_iterable(islice(rows, _WRITE_BLOCK))):
            fh.write(fmt * (len(block) // len(formats)) % block)


def _header_lines(cfg: ExperimentConfig, extra: dict | None = None) -> list[str]:
    th = cfg.theta_star
    *alphas, beta, lam = astuple(cfg.hyper)
    items = {
        "true_model": cfg.true_model.value,
        "w": _fmt(th.w),
        "tau1_sq": _fmt(th.tau1_sq),
        "tau2_sq": _fmt(th.tau2_sq),
        "y": _fmt(cfg.y),
        "eta": "" if cfg.eta is None else _fmt(cfg.eta),
        "sample_sizes": ",".join(str(v) for v in cfg.sample_sizes),
        "trials": str(cfg.trials),
        "base_seed": str(cfg.base_seed),
        "alpha": ",".join(_fmt(a) for a in alphas),
        "beta": _fmt(beta),
        "lambda": _fmt(lam),
    }
    if extra:
        items.update({k: str(v) for k, v in extra.items()})
    return [f"# {k} = {v}" for k, v in items.items()]


def log_inv_odds_quantiles(result: ExperimentResult, total: int) -> tuple[float, float, float]:
    """Per-size 10/50/90% quantile band of ``log(1/p_true - 1)`` across trials."""
    return tuple(np.quantile(result.log_inv_odds[result._at(total)], (0.1, 0.5, 0.9)).tolist())


def write_concentration_csv(path, cfg: ExperimentConfig, result: ExperimentResult) -> None:
    header = _header_lines(cfg, {"skipped": result.skipped})
    for total in np.unique(result.total).tolist():
        q10, q50, q90 = log_inv_odds_quantiles(result, total)
        header.append(
            f"# log_inv_odds_quantiles N={total}: "
            f"q10={_fmt(q10)} q50={_fmt(q50)} q90={_fmt(q90)}"
        )
    columns = (result.trial, result.total, result.n, result.m, *result.p.T, result.log_inv_odds)
    rows = zip(*(c.tolist() for c in columns))
    _write_table(path, header, "trial,N,n,m,p_s1,p_s2,p_s3,log_inv_odds", "ddddgggg", rows)


def write_plateau_csv(path, cfg: ExperimentConfig, result: ExperimentResult) -> None:
    limit = plateau_theory_ratio(cfg)
    header = _header_lines(cfg, {"skipped": result.skipped})
    rows = zip(result.trial.tolist(), result.n.tolist(), result.ratio_12.tolist(), repeat(limit))
    _write_table(path, header, "trial,n,ratio_12,theory_limit", "ddgg", rows)


def write_chi2_csv(
    path, cfg: ExperimentConfig, result: ExperimentResult, ks: float, pvalue: float
) -> None:
    header = _header_lines(
        cfg, {"skipped": result.skipped, "ks_statistic": _fmt(ks), "ks_pvalue": _fmt(pvalue)}
    )
    rows = zip(*(c.tolist() for c in (result.trial, result.stat_s1, result.stat_s2)))
    _write_table(path, header, "trial,stat_s1,stat_s2", "dgg", rows)


def write_slopes_csv(path, rows: list[tuple[float, float, float]], header_lines: list[str]) -> None:
    """Rows are (eta, fitted_slope, theory_exponent)."""
    table = (
        (eta, slope, theory, abs(slope + theory) / abs(theory) if theory != 0.0 else math.nan)
        for eta, slope, theory in rows
    )
    _write_table(path, header_lines, "eta,fitted_slope,theory_exponent,rel_err", "gggg", table)


def write_rates_csv(
    path, theta: Params, y: float, points: int, header_lines: list[str]
) -> tuple[bool, tuple[float, float], tuple[float, float]]:
    """The four exponents and the two gains on ``points`` grid values of eta.

    Returns the ``mixing_helps_s1`` flag and the ``(eta, value)`` optima of
    ``d12`` and ``d21`` that the header records.
    """
    curves = [
        sample_curve(r, theta, y, num=points)
        for r in (RateId.D12, RateId.D21, RateId.D13, RateId.D23)
    ]
    gains = [gain_transform(c) for c in curves[:2]]
    columns = [curves[0].eta] + [c.values for c in curves + gains]
    helps = mixing_helps_s1(theta, y)
    eta12, v12 = optimal_eta(RateId.D12, theta, y)
    eta21, v21 = optimal_eta(RateId.D21, theta, y)
    header = list(header_lines) + [
        f"# mixing_helps_s1 = {helps}",
        f"# optimal_eta_d12 = {_fmt(eta12)} (value {_fmt(v12)})",
        f"# optimal_eta_d21 = {_fmt(eta21)} (value {_fmt(v21)})",
    ]
    _write_table(path, header, "eta,d12,d21,d13,d23,d12_gain,d21_gain", "g" * len(columns), zip(*columns))
    return helps, (eta12, v12), (eta21, v21)


# ---------------------------------------------------------------------------
# presets and bundles
# ---------------------------------------------------------------------------

_INDEPENDENT, _UNIT = Params(0.0, 1.0, 1.0), Params(1.0, 1.0, 1.0)
_DECADES = (100, 1000, 10000, 100000)

#: Preset experiments by name, as ``(kind, spec)``. A spec holds
#: :class:`ExperimentConfig` fields plus, optionally, ``etas`` (one run per
#: mixing proportion) and ``fit_min_size`` (smallest size in the slope fit); a
#: ``rates`` spec holds the ``(tag, theta, y)`` parameter ``sets`` it writes.
#: Generating parameters the source figures leave unstated are artifact
#: defaults and are flagged in the output headers.
PRESETS: dict[str, tuple[str, dict]] = {
    "figure1": ("rates", {"sets": [("a", Params(1.0, 1.0, 4.0), 0.1), ("b", _UNIT, 2.0)]}),
    "figure2": (
        "concentration",
        {"true_model": Structure.S3, "theta_star": _INDEPENDENT, "sample_sizes": _DECADES, "trials": 200},
    ),
    "figure3": (
        "chi2",
        {"true_model": Structure.S3, "theta_star": _INDEPENDENT, "sample_sizes": (5000,), "trials": 500},
    ),
    "figure4": (
        "concentration",
        {
            "true_model": Structure.S1, "theta_star": _UNIT, "y": 1.5, "etas": (0.1, 0.5, 0.9),
            "sample_sizes": (50, 100, 200, 400, 800, 1600, 3200), "trials": 100, "fit_min_size": 200,
        },
    ),
    "figure5": (
        "concentration",
        {
            "true_model": Structure.S3, "theta_star": _INDEPENDENT, "y": 1.5, "etas": (0.5,),
            "sample_sizes": _DECADES, "trials": 200,
        },
    ),
    "figure6": (
        "plateau",
        {
            "true_model": Structure.S1, "theta_star": _UNIT,
            "sample_sizes": (100, 316, 1000, 3162, 10000, 31623, 100000), "trials": 20,
        },
    ),
}
#: The source's figure 7 revisits figure 1's two parameter sets.
PRESETS["figure7"] = PRESETS["figure1"]


def run_bundle(kind: str, spec: dict, seed: int, hyper: BgeHyper, outdir) -> list[str]:
    """Run one experiment of ``kind`` and write its files into ``outdir``.

    ``spec`` has the shape of a :data:`PRESETS` spec; ``seed`` and ``hyper``
    complete its :class:`ExperimentConfig`. A ``chi2`` or ``plateau`` spec
    takes at most one eta; ``plateau`` is observational and refuses one. All
    configurations are checked before the first trial, and ``outdir`` is made
    with its first file. Returns one summary line per file written or fit made.
    """
    if kind not in ("rates", "chi2", "plateau", "concentration"):
        raise ConfigError(f"unknown experiment kind {kind!r}")
    outdir = Path(outdir)
    if kind == "rates":
        lines = []
        for tag, theta, y in spec["sets"]:
            header = [f"# preset parameter set {tag} (artifact defaults; source unstated)"]
            write_rates_csv(outdir / f"rates_{tag}.csv", theta, y, _CURVE_POINTS, header)
            lines.append(f"wrote rates_{tag}.csv")
        return lines

    fields = {k: v for k, v in spec.items() if k not in ("etas", "fit_min_size")}
    min_size = spec.get("fit_min_size", 0)
    cfgs = [ExperimentConfig(hyper=hyper, eta=eta, base_seed=seed, **fields) for eta in spec.get("etas") or (None,)]
    if kind in ("chi2", "plateau") and len(cfgs) > 1:
        raise ConfigError(f"a {kind} experiment takes one eta, got {len(cfgs)}")
    cfg = cfgs[0]
    if kind == "chi2":
        result, ks, pvalue = run_chi2_diagnostic(cfg)
        write_chi2_csv(outdir / "chi2.csv", cfg, result, ks, pvalue)
        return [f"chi2.csv: KS distance {_fmt(ks)}, p-value {_fmt(pvalue)} over {result.trial.size} trials"]
    if kind == "plateau":
        result = run_odds_plateau(cfg)
        write_plateau_csv(outdir / "plateau.csv", cfg, result)
        largest = cfg.sample_sizes[-1]
        tail = result.ratio_12[result._at(largest)]
        return [
            f"plateau.csv: mean ratio at n={largest} is {_fmt(_trial_mean(tail))}, "
            f"theory limit {_fmt(plateau_theory_ratio(cfg))}"
        ]
    lines, slope_rows = [], []
    for cfg in cfgs:
        result = run_concentration(cfg)
        tag = f"eta{cfg.eta:g}" if cfg.mixed else "obs"
        fitted = cfg.mixed and _edge(cfg.true_model) is not None
        if fitted:  # before the file is written, so that a refused fit writes nothing
            fit, theory = fitted_exponent(cfg, result, min_size=min_size), theory_exponent(cfg)
        write_concentration_csv(outdir / f"concentration_{tag}.csv", cfg, result)
        lines.append(f"wrote concentration_{tag}.csv ({result.trial.size} records)")
        if fitted:
            slope_rows.append((cfg.eta, fit.slope, theory))
            lines.append(
                f"  eta={cfg.eta:g}: fitted slope {_fmt(fit.slope)} vs theory {_fmt(-theory)} "
                f"(r2 {fit.r_squared:.4f})"
            )
    if slope_rows:
        header = [f"# fit over sizes >= {min_size}", f"# base_seed = {seed}"]
        write_slopes_csv(outdir / "slopes.csv", slope_rows, header)
        lines.append("wrote slopes.csv")
    return lines
