"""Fixtures shared by more than one test module."""

import pytest
from hypothesis import settings

from fractions import Fraction

from adjvar.folforms import FolSampler, builtin_pencil, log_form
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


@pytest.fixture
def seeded_form():
    """The seeded form with rational coefficients of a pinned (kind, n, seed):
    "pencil" is builtin_pencil(n, FolSampler(n, seed)), "log3" the log form
    with residues (1/2, 2/3, -7/6) on three sections of FolSampler(n, seed),
    and "eulerAB" FolSampler(n, seed).euler_form((A, B))."""

    def build(kind, n, seed):
        sampler = FolSampler(n, seed=seed)
        if kind == "pencil":
            return builtin_pencil(n, sampler)
        if kind == "log3":
            residues = [Fraction(1, 2), Fraction(2, 3), Fraction(-7, 6)]
            return log_form(residues, [sampler.section11() for _ in range(3)])
        return sampler.euler_form((int(kind[-2]), int(kind[-1])))

    return build
