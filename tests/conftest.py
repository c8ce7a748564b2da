import math

import numpy as np
import pytest

import locobf.domain as domain_mod
from locobf import LocationDomain, ObfuscationMatrix, min_mean_distance


@pytest.fixture
def triangle():
    # isoceles counterexample layout: edges AB=AC=130, BC=100, with the
    # extra point F sitting between the base and the apex
    return LocationDomain(
        [(50.0, 120.0), (0.0, 0.0), (100.0, 0.0), (50.0, 29.0)],  # A, B, C, F
        [0.25] * 4,
    )


@pytest.fixture
def line6():
    return LocationDomain([(float(i), 0.0) for i in range(6)], [1.0 / 6.0] * 6)


@pytest.fixture
def line6_tie(line6):
    """(eps, em) with exp(eps) * em exactly equal to line6's pair floor."""
    eps = 0.1
    floor = min_mean_distance(line6, [0, 1])
    em = floor / math.exp(eps)
    while math.exp(eps) * em < floor:
        em = math.nextafter(em, math.inf)
    while math.exp(eps) * em > floor:
        em = math.nextafter(em, 0.0)
    assert math.exp(eps) * em == floor
    return eps, em


@pytest.fixture
def watch_admits(monkeypatch):
    """watch_admits(*modules) wraps the modules' _admits with a recorder and
    returns a list that gets, per call, (entries the margin left undecided,
    exact floors computed during the call); a set of zero mass is decided."""
    real_admits, real_floor = domain_mod._admits, domain_mod._floor_or_none
    floors = []
    monkeypatch.setattr(domain_mod, "_floor_or_none",
                        lambda *args: floors.append(args) or real_floor(*args))

    def watch(*modules):
        calls = []

        def watched(domain, members, low_sum, mass, eps_region, em, record=None):
            before = len(floors)
            decided = []
            answer = real_admits(domain, members, low_sum, mass, eps_region, em, decided.append)
            floor, _, certified, _ = decided[0]
            undecided = int(np.sum(~np.asarray(certified) & ~np.isnan(floor)))
            calls.append((undecided, len(floors) - before))
            if record is not None:
                record(decided[0])
            return answer

        for module in modules:
            monkeypatch.setattr(module, "_admits", watched)
        return calls

    return watch


@pytest.fixture
def two_loc():
    domain = LocationDomain([(0.0, 0.0), (1.0, 0.0)], [0.75, 0.25])
    matrix = ObfuscationMatrix(np.array([[0.8, 0.2], [0.4, 0.6]]))
    return domain, matrix


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "criterion(num, title): acceptance criterion checked by this test"
    )
    config._criterion_results = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("criterion")
    if marker is None:
        return
    num, title = marker.args
    results = item.config._criterion_results
    if report.when == "setup" and report.failed:
        results[num] = ("FAIL", title)
    elif report.when == "call":
        status = "PASS" if report.passed else ("SKIP" if report.skipped else "FAIL")
        results[num] = (status, title)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results = getattr(config, "_criterion_results", {})
    if not results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(results):
        status, title = results[num]
        terminalreporter.write_line(f"criterion {num:2d}: {status}  {title}")
