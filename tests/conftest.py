from fractions import Fraction as F

import pytest

from takagi_lab import analysis, measure


@pytest.fixture
def short_over_budget(monkeypatch):
    """``cap(cells)``: a certificate query over ``cells`` cells comes back with bound 0.

    Over the cell budget the kernel raises; this fake returns a bound short
    of every positive target instead, so that a test can choose which
    certificates fall short and check the status rule on them.
    """
    def cap(cells):
        real = analysis.certify_lower

        def certify(x, r, alpha, direction, target, *, depth):
            try:
                return real(x, r, alpha, direction, target, depth=depth)
            except measure.BreakpointLimitError:
                return F(0), depth, measure.UNDECIDED

        monkeypatch.setattr(measure, "BREAKPOINT_CAP", cells)
        monkeypatch.setattr(analysis, "certify_lower", certify)

    return cap


@pytest.fixture
def no_query(monkeypatch):
    """Fail any measure query: a 3-cell budget, and ``analysis.certify_lower`` raises."""
    def never(*args, **kwargs):
        raise AssertionError("ran a measure query")

    monkeypatch.setattr(measure, "BREAKPOINT_CAP", 3)
    monkeypatch.setattr(analysis, "certify_lower", never)
