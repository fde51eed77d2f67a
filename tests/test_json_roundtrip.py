"""JSON round-trips of polynomials and forms.

The JSON term codec is the one place where a monomial's flat exponent tuple
(x_0..x_n, y_0..y_n) is split into its x- and y-exponents.  The properties
below check that decoding inverts encoding, through the JSON text, and that
the sorted term order is the order of the (x-exponents, y-exponents) pairs.
"""

import hashlib
import json
from fractions import Fraction

import pytest
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


# -- seeded forms with rational coefficients: their JSON must stay byte-identical

# sha256 of json.dumps(form.to_json(), sort_keys=True) for (kind, n, seed):
# "pencil" is builtin_pencil(n, FolSampler(n, seed)), "log3" the log form with
# residues (1/2, 2/3, -7/6) on three sections of FolSampler(2, seed), and
# "eulerAB" FolSampler(n, seed).euler_form((A, B))
SEEDED_DIGESTS = {
    ('euler22', 2, 7): "5c68dd1826d39e963081d06c28cf5980c801e16dc7640d95954a8e83b377925c",
    ('euler22', 2, 11): "ff78dd897107abf6a6b00670fb5cc8478edd547b39354fe7b16efd1279a0be17",
    ('euler22', 2, 2024): "8764022f765aaa26f4c53df77ed7397aa53cc97b3c4fccdb69a26bad0c00a431",
    ('euler22', 3, 7): "1b2c3f81efc1b5c055a54265d85e1545a03841da8b65c5df0f882716f4af6728",
    ('euler22', 3, 11): "43b1a91fa2368281dc21d97295bc2852971948b6a8c31fa571fb81f98e5b585e",
    ('euler22', 3, 2024): "7f3916f81eeb6f44c397faee335f89fe0430d9608ec22614c023604b311f26ca",
    ('euler23', 2, 7): "b305b3d91216f4df23cca9d240d408d22c9862250d9899d73657de740244674e",
    ('euler23', 2, 11): "5f01ad47081e79c6627b64bb03717f3af08ec9bd029edd00345a1abd9a6785dd",
    ('euler23', 2, 2024): "085d7f1bfa1418083c143c0c4b629b9e4433f7dc6d65be088ce5aff2f1ca5d9a",
    ('euler32', 2, 7): "4695baba0673643246e34a57cb978e64dbfdb46a0daef1919cc0ba8b33d0e08a",
    ('euler32', 2, 11): "3ec582b64f1998e056ffdb2556b4678b44aa3bcdf8482f9f0e2cd25a9efcc1ff",
    ('euler32', 2, 2024): "af605e3e94fef3bd94271710c19b07bc8837569ee236d6fc198c10805c2aa629",
    ('euler33', 2, 7): "1167148658a3ff2025cbc7df5ff81b3a8f66376507792a179379c9d6ae472b8f",
    ('euler33', 2, 11): "8cbd3301eda4957d30770c92a9e3f8c5ad4e75745a1d601a30cec15558f9fe09",
    ('euler33', 2, 2024): "d75eb3fddeb020d58cc4690b66bfeaa5bda28bcacce00fce7956cdc0c25515b6",
    ('log3', 2, 7): "58379cee4da5a8209ca18310ccc943d9f5ecf8c3a861721e1dc50a73f206e1ea",
    ('log3', 2, 11): "c7c493af1b2850f3dff8e4119b3f93f2950ff5b24df732a9ca1fdcface89d894",
    ('log3', 2, 2024): "872dce6cf55ab2d390be4c7c3bb49322064ebc9397ce1c281f6ffbe324b00800",
    ('pencil', 2, 7): "b02f73225bb717ba0ab5e67b3d661162c01cf387b9ffa93dc39d778fdff7b8a0",
    ('pencil', 2, 11): "b0549d1b4efe65c05bfcb55cb879bdb72740e5daab8ebb4693bd6d70280d688b",
    ('pencil', 2, 2024): "d7cb61c9d1e5e1bfd982bf06e38c7540c7828f79936e74fe0b19ca01a2e5e79b",
    ('pencil', 3, 7): "707a45c8c402bcb6565a27e3ea1411add6effebd44972cf716aba7d7ef172870",
    ('pencil', 3, 11): "c94a9d281106a949d67f6bde2041596da4a7d7468a08ee51b404e399470d9700",
    ('pencil', 3, 2024): "26fbed1e457c1379f3c86c8c68214718e5cc1724dc5e7e3c5357394bce7529b9",
    ('pencil', 4, 7): "3f6b477f93b8f42eae7008988d65d4357c0b7e5453532c64908d36b10c5020e7",
    ('pencil', 4, 11): "7c668de9d9013cf97107daced8207dbda68177619d65d917903c371044832ad1",
    ('pencil', 4, 2024): "a41e7696eda651e8a9d17876b31cca92f915c9ef24fb19bbc38e2141b1a7f1e2",
}


@pytest.mark.parametrize("kind,n,seed", sorted(SEEDED_DIGESTS))
def test_seeded_form_json_is_pinned(seeded_form, kind, n, seed):
    text = json.dumps(seeded_form(kind, n, seed).to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == SEEDED_DIGESTS[kind, n, seed]
