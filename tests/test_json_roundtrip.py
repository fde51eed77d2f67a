"""JSON round-trips of polynomials and forms.

The JSON term codec is the one place where a monomial's flat exponent tuple
(x_0..x_n, y_0..y_n) is split into its x- and y-exponents.  The properties
below check that decoding inverts encoding, through the JSON text, and that
the sorted term order is the order of the (x-exponents, y-exponents) pairs.
"""

import json
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from adjvar.bipoly import BiPoly, terms_from_json, terms_to_json
from adjvar.folforms import FolSampler, PolyOneForm


ns = st.integers(min_value=1, max_value=3)
coefficients = st.fractions(min_value=-50, max_value=50, max_denominator=20)


@st.composite
def bipolys(draw):
    """A BiPoly at n = 1..3, not necessarily bihomogeneous, possibly zero."""
    n = draw(ns)
    key = st.tuples(*[st.integers(min_value=0, max_value=3)] * (2 * n + 2))
    return BiPoly(n, draw(st.dictionaries(key, coefficients, max_size=12)))


def through_text(data):
    return json.loads(json.dumps(data, sort_keys=True))


@settings(max_examples=60)
@given(bipolys())
def test_bipoly_terms_round_trip(p):
    back = terms_from_json(p.n, through_text(terms_to_json(p)))
    assert back == p and back.n == p.n
    assert BiPoly.from_json(through_text(p.to_json())) == p


@settings(max_examples=60)
@given(bipolys())
def test_json_term_order_is_the_xy_pair_order(p):
    n1 = p.n + 1
    pairs = [(t["x"], t["y"]) for t in terms_to_json(p)]
    assert pairs == sorted((list(k[:n1]), list(k[n1:])) for k in p.terms)
    assert all(Fraction(t["c"]) == p.terms[tuple(t["x"] + t["y"])]
               for t in terms_to_json(p))


@settings(max_examples=30)
@given(
    ns,
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=5),
    st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]),
)
def test_euler_form_round_trip(n, seed, height, bidegree):
    w = FolSampler(n, seed=seed, height=height).euler_form(bidegree)
    back = PolyOneForm.from_json(through_text(w.to_json()))
    assert back.to_json() == w.to_json()
    assert back.coeffs == w.coeffs and back.bidegree == w.bidegree
