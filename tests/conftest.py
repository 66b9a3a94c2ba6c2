import re

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as hs

from bicausal import Params, bge_symmetric_hyper

# every property runs on the same examples each run, with no example database,
# and prints the blob that reproduces a failure
settings.register_profile("derandomized", derandomize=True, print_blob=True)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def symmetric_hyper():
    return bge_symmetric_hyper(3.0, 0.5)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion."""
    rows = []
    for status, label in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL")):
        for rep in terminalreporter.stats.get(status, []):
            m = re.search(r"test_acceptance\.py::test_criterion_(\d+)", rep.nodeid)
            if m:
                rows.append((int(m.group(1)), label))
    if not rows:
        return
    try:
        from test_acceptance import CRITERIA
    except ImportError:
        CRITERIA = {}
    terminalreporter.write_sep("-", "acceptance criteria")
    for num, label in sorted(rows):
        desc = CRITERIA.get(num, "")
        terminalreporter.write_line(f"{label} criterion {num:2d}: {desc}")


def random_params(rng: np.random.Generator, allow_zero_w: bool = False) -> Params:
    """Moderately-scaled random parameters for property tests."""
    w = rng.uniform(-2.0, 2.0)
    if not allow_zero_w and abs(w) < 0.05:
        w = 0.3 * np.sign(w or 1.0)
    return Params(float(w), float(rng.uniform(0.25, 4.0)), float(rng.uniform(0.25, 4.0)))


_coords = hs.floats(-10.0, 10.0, allow_subnormal=False)


@hs.composite
def mixed_data(draw, min_n: int = 0):
    """Raw mixed dataset for property tests: ``(obs, interv, y)`` with at most
    12 observational pairs and 8 interventional rows under ``do(node2 = y)``;
    ``interv`` is None when no interventional row is drawn."""
    pairs = draw(hs.lists(hs.tuples(_coords, _coords), min_size=min_n, max_size=12))
    y1 = draw(hs.lists(_coords, max_size=8))
    y = draw(hs.floats(-3.0, 3.0, allow_subnormal=False))
    obs = np.array(pairs, dtype=np.float64).reshape(-1, 2)
    interv = np.column_stack([y1, np.full(len(y1), y)]) if y1 else None
    return obs, interv, y
