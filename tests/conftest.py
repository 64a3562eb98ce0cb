"""Shared fixtures: application models and cached DIODE analyses.

Building an application model and running the full pipeline are cheap
(sub-second) but not free; the integration tests share a single analysis per
application through session-scoped fixtures.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.apps import get_application
from repro.core import Diode
from repro.smt.evalmodel import satisfies
from repro.smt.solver import PortfolioSolver, SolverSession


@pytest.fixture(scope="session")
def dillo_app():
    return get_application("dillo")


@pytest.fixture(scope="session")
def vlc_app():
    return get_application("vlc")


@pytest.fixture(scope="session")
def swfplay_app():
    return get_application("swfplay")


@pytest.fixture(scope="session")
def cwebp_app():
    return get_application("cwebp")


@pytest.fixture(scope="session")
def imagemagick_app():
    return get_application("imagemagick")


@pytest.fixture(scope="session")
def all_apps(dillo_app, vlc_app, swfplay_app, cwebp_app, imagemagick_app):
    return [dillo_app, vlc_app, swfplay_app, cwebp_app, imagemagick_app]


@pytest.fixture(scope="session")
def analysis_results(all_apps):
    """Full DIODE analysis of every benchmark application (cached)."""
    engine = Diode()
    return {app.name: engine.analyze(app) for app in all_apps}


class SessionOracle:
    """Holds every :meth:`SolverSession.check` to an independent check.

    Each session verdict is compared with an uncached one-shot
    :meth:`PortfolioSolver.check` of the same conjuncts under the same
    configuration; a SAT model must satisfy every conjunct and an UNSAT
    core must be a subset of the conjuncts.  ``problems`` lists each
    failure as a tuple led by its kind: ``"status"``, ``"model"`` or
    ``"core"``.
    """

    def __init__(self) -> None:
        self.statuses = Counter()
        self.cores = 0
        self.problems = []

    @property
    def checks(self) -> int:
        return sum(self.statuses.values())

    def record(self, session, result) -> None:
        conjuncts = list(session.conjuncts)
        reference = PortfolioSolver(session.solver.config).check(conjuncts)
        self.statuses[result.status] += 1
        if result.status != reference.status:
            self.problems.append(
                ("status", result.status, reference.status, conjuncts)
            )
        if result.is_sat and not all(satisfies(c, result.model) for c in conjuncts):
            self.problems.append(("model", result.model, conjuncts))
        if result.unsat_core is not None:
            self.cores += 1
            if not set(result.unsat_core) <= set(conjuncts):
                self.problems.append(("core", result.unsat_core, conjuncts))


@pytest.fixture
def session_oracle(monkeypatch):
    """A :class:`SessionOracle` watching every session check of the test."""
    oracle = SessionOracle()
    original = SolverSession.check

    def checked(session):
        result = original(session)
        oracle.record(session, result)
        return result

    monkeypatch.setattr(SolverSession, "check", checked)
    return oracle
