"""Fixtures shared by the test modules."""

import sys

import pytest


@pytest.fixture
def unlimited_str():
    """Lift the interpreter's int/str digit limit for a test's own str() and int() of huge
    values, and put back the limit found: main lifts it for its own run only."""
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:  # no limit before Python 3.11, or 3.10.7
        yield
        return
    limit = get()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(limit)
