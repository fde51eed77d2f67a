"""Fixtures shared by more than one test module."""

import pytest
from hypothesis import settings

from adjvar.weylgroup import REGULAR, SINGULAR, DotResult, simple_reflection

# Fixed examples and no example database, so the suite is deterministic; each
# test sets only its own max_examples.
settings.register_profile("adjvar", deadline=None, derandomize=True, database=None)
settings.load_profile("adjvar")


@pytest.fixture
def random_order_dot():
    """The chamber reduction of ``dot_classify``, reflecting at a negative
    coordinate chosen by ``rng`` instead of the first one: the reduced
    length and the dominant weight must not depend on the order."""

    def classify(datum, lam, rng):
        v = tuple(a + 1 for a in lam)
        for count in range(2 * len(datum.positive_roots) + 1):
            if 0 in v:
                return DotResult(status=SINGULAR)
            negatives = [i for i, a in enumerate(v) if a < 0]
            if not negatives:
                return DotResult(REGULAR, count, tuple(a - 1 for a in v))
            v = simple_reflection(datum, rng.choice(negatives) + 1, v)
        raise AssertionError("chamber reduction exceeded its step bound")

    return classify
