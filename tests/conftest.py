"""Shared fixtures for the test suite."""

from functools import lru_cache

import pytest

from opturan import extremal_search


def _top(default):
    return default[-1] if isinstance(default, range) else default


@lru_cache(maxsize=None)
def _run(name, overrides):
    return extremal_search.verify_suite(name, **dict(overrides))


@pytest.fixture(scope="session")
def suite_report():
    """verify_suite, run once per session for each distinct set of values.

    A value equal to the suite's default (a range parameter's top) is
    dropped before the call, so a test that spells out the defaults and a
    test that passes none share one run of verify_suite(name). Callers must
    not mutate the report.
    """
    def report(name, **params):
        defaults = extremal_search._SUITES[name][1]
        overrides = {key: value for key, value in params.items()
                     if value != _top(defaults.get(key))}
        return _run(name, tuple(sorted(overrides.items())))
    return report

