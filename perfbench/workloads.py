"""Seeded items of the four benchmark workloads, with their answer checks.

An item is one public adjvar call (or the short call sequence an ``adjvar``
command makes) whose answer is checked.  ``build(workload, seed)`` is the
benchmark's set-up: it generates the seeded inputs and fills the library's
caches through public calls (``build_datum`` and ``levi_diagram`` for every
type and node the items use), so the timed passes start warm.

Item ids are ``<call>:<input>``; inputs drawn from the seed end in
``@<seed>``.  Items whose id has no seed suffix give the same answer at every
seed, so the reference digests apply to them at any seed.

Every item carries an independent check that holds at any seed:
``check(doc)`` returns None or a message saying what is wrong.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

from adjvar import adjoint as A
from adjvar import bbw as B
from adjvar import folforms as F
from adjvar import parabolic as P
from adjvar import repcalc as R
from adjvar import rootsystem as RS
from adjvar import weylgroup as W

BBW_QUERIES = 8000
BBW_TYPES = (
    [("A", r) for r in range(1, 9)]
    + [("B", r) for r in range(2, 9)]
    + [("C", r) for r in range(2, 9)]
    + [("D", r) for r in range(4, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


def _same(doc):
    return doc


@dataclass
class Item:
    id: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    render: Callable[[Any], Any] = _same


def _expect(value):
    def check(doc):
        return None if doc == value else f"expected {value!r}, got {doc!r}"

    return check


def _fill_caches(types):
    for letter, rank in types:
        datum = RS.build_datum(letter, rank)
        for node in range(1, rank + 1):
            P.levi_diagram(P.MarkedDatum(ambient=datum, marked_node=node))


# -- adjoint_table -----------------------------------------------------------


def _row_check(letter, rank):
    label = f"{letter}{rank}"
    dim_g = RS.dim_g(RS.build_datum(letter, rank))

    def check(row):
        m = row["m"]
        problems = []
        if row["type"] != label:
            problems.append(f"type {row['type']}")
        if row["dim_g"] != dim_g or row["h0_O1"] != dim_g:
            problems.append("h0(O(1)) is not dim g")
        if row["dim_X"] != 2 * m + 1 or row["index"] != m + 1:
            problems.append("contact numerics")
        if row["h0_omega2_2"].get("value") != dim_g:
            problems.append(f"h0(Omega^2(2)) = {row['h0_omega2_2']}")
        h1 = row["h0_omega2_1"]
        if h1.get("value", h1.get("adjudicated")) != 0:
            problems.append(f"h0(Omega^2(1)) = {h1}")
        return "; ".join(problems) or None

    return check


def adjoint_table(seed):
    """The paper's per-type table: one section4_row per supported type."""
    types = A.section4_types(10)
    _fill_caches(types)
    random.Random(seed).shuffle(types)
    return [
        Item(
            id=f"section4_row:{letter}{rank}",
            call=lambda l=letter, r=rank: A.section4_row(l, r, compare_paper=True),
            check=_row_check(letter, rank),
        )
        for letter, rank in types
    ]


# -- bbw_sweep ---------------------------------------------------------------


def _bbw_check(datum, weight):
    def check(doc):
        if not doc["bundle"]:
            return "not a bundle weight"
        res = doc["cohomology"]
        p = W.regular_index_oracle(datum, weight)
        if p is None:
            return None if res["kind"] == B.ALL_ZERO else "oracle says singular"
        if res["kind"] != B.CONCENTRATED or res["degree"] != p:
            return f"degree {res.get('degree')} but the oracle gives {p}"
        top = tuple(res["top_weight"])
        if any(a < 0 for a in top) or res["dim"] != R.weyl_dim(datum, top):
            return "dimension does not match weyl_dim(top_weight)"
        return None

    return check


def _bbw_render(out):
    ok, res = out
    return {"bundle": ok, "cohomology": res.to_json() if res is not None else None}


def bbw_sweep(seed):
    """Distinct (type, node, bundle weight) queries, one ``adjvar bbw`` each."""
    rng = random.Random(seed)
    _fill_caches(BBW_TYPES)
    queries = set()
    while len(queries) < BBW_QUERIES:
        letter, rank = rng.choice(BBW_TYPES)
        node = rng.randint(1, rank)
        weight = tuple(
            rng.randint(-20, 4) if i == node - 1 else rng.randint(0, 4)
            for i in range(rank)
        )
        queries.add((letter, rank, node, weight))
    queries = sorted(queries)
    rng.shuffle(queries)

    def query(letter, rank, node, weight):
        datum = RS.build_datum(letter, rank)
        md = P.MarkedDatum(ambient=datum, marked_node=node)
        ok = P.is_bundle_weight(md, weight)
        return ok, (B.cohomology(md, weight) if ok else None)

    items = []
    for letter, rank, node, weight in queries:
        text = ",".join(map(str, weight))
        items.append(
            Item(
                id=f"bbw:{letter}{rank}/{node}/{text}",
                call=lambda q=(letter, rank, node, weight): query(*q),
                check=_bbw_check(RS.build_datum(letter, rank), weight),
                render=_bbw_render,
            )
        )
    return items


# -- fol_refute --------------------------------------------------------------

EULER_CASES = (((2, 2), 2), ((2, 3), 2), ((3, 2), 2), ((3, 3), 2), ((2, 2), 3))
INVARIANCE_SAMPLES = 10
PENCIL_PAIRS = 3


def fol_refute(seed):
    """Checks whose answer must be negative: the refutation path."""
    samplers = {n: F.FolSampler(n, seed=seed) for n in (2, 3)}
    items = []
    for bidegree, n in EULER_CASES:
        form = samplers[n].euler_form(bidegree)
        items.append(Item(
            id=f"integrable:euler{bidegree[0]}{bidegree[1]}_n{n}@{seed}",
            call=lambda w=form: F.integrable(w),
            check=_expect(False),
        ))
    affine = F.builtin_affine(2)[0]
    for k in range(INVARIANCE_SAMPLES):
        section = samplers[2].section11()
        items.append(Item(
            id=f"is_invariant:affine,section{k}@{seed}",
            call=lambda s=section: F.is_invariant(affine, s),
            check=_expect(False),
        ))
    for k in range(PENCIL_PAIRS):
        w1 = F.builtin_pencil(2, samplers[2])
        w2 = F.builtin_pencil(2, samplers[2])
        items.append(Item(
            id=f"same_foliation:pencils{k}@{seed}",
            call=lambda a=w1, b=w2: F.same_foliation(a, b),
            check=_expect(False),
        ))
    random.Random(seed).shuffle(items)
    return items


# -- fol_confirm -------------------------------------------------------------

BUILTINS = {
    # name: (constructor, tangency degree on family 1, on family 2)
    "pencil": (lambda n: F.builtin_pencil(n), 0, 0),
    "log4": (lambda n: F.builtin_log4(n), 0, 0),
    "pullback-d0": (lambda n: F.builtin_pullback(0, n), "-inf", 0),
    "pullback-d1": (lambda n: F.builtin_pullback(1, n), "-inf", 1),
}
LINES_PER_FAMILY = 6


def _degree_json(value):
    return "-inf" if value is F.MINUS_INFINITY else value


def _seeded_log3(seed):
    """Three seeded (1,1)-sections with seeded residues summing to zero."""
    sampler = F.FolSampler(2, seed=seed)
    rng = random.Random(seed)
    while True:
        a, b = rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([-3, -2, -1, 1, 2, 3])
        if a + b:
            break
    factors = [sampler.section11() for _ in range(3)]
    return F.log_form([a, b, -(a + b)], factors)


def _affine_render(out):
    omega, f1, f2 = out
    return {
        "form": omega.to_json(),
        "surfaces": [f.to_json() for f in (f1, f2)],
        "surface_bidegrees": [list(f.bidegree()) for f in (f1, f2)],
    }


def _affine_check(doc):
    degs = [doc["form"]["bidegree"]] + doc["surface_bidegrees"]
    return None if degs == [[2, 2], [2, 0], [0, 2]] else f"bidegrees {degs}"


def fol_confirm(seed):
    """Checks whose answer must be positive, and constructions: the symbolic
    path taken to the end."""
    forms = {}  # label -> (form, expected tangency degrees or None)
    for n in (2, 3, 4):
        for name, (make, d1, d2) in BUILTINS.items():
            forms[f"{name}_n{n}"] = (make(n), (d1, d2) if n < 4 else None)
    forms[f"pencil_n3@{seed}"] = (F.builtin_pencil(3, F.FolSampler(3, seed=seed)), None)
    forms[f"log3_n2@{seed}"] = (_seeded_log3(seed), None)
    affine, conic_x, conic_y = F.builtin_affine(2)
    forms["affine_n2"] = (affine, None)
    forms["torus_n2"] = (F.builtin_torus(2), (0, 0))

    items = [
        Item(
            id="builtin_affine:n2",
            call=lambda: F.builtin_affine(2),
            check=_affine_check,
            render=_affine_render,
        ),
        Item(
            id="builtin_torus:n2",
            call=lambda: F.builtin_torus(2),
            check=lambda doc: None if doc["bidegree"] == [2, 2] else "bidegree",
            render=lambda w: w.to_json(),
        ),
    ]
    for label, surface in (("conic_x", conic_x), ("conic_y", conic_y)):
        items.append(Item(
            id=f"is_invariant:affine_n2,{label}",
            call=lambda s=surface: F.is_invariant(affine, s),
            check=_expect(True),
        ))
    for label, (form, _) in forms.items():
        items.append(Item(
            id=f"integrable:{label}",
            call=lambda w=form: F.integrable(w),
            check=_expect(True),
        ))
        items.append(Item(
            id=f"has_divisorial_singularities:{label}",
            call=lambda w=form: F.has_divisorial_singularities(w),
            check=_expect(False),
        ))
    samplers = {n: F.FolSampler(n, seed=seed) for n in (2, 3)}
    for label, (form, degrees) in forms.items():
        if degrees is None:
            continue
        for family, expected in zip((1, 2), degrees):
            for k in range(LINES_PER_FAMILY):
                line = samplers[form.n].line(family)
                items.append(Item(
                    id=f"tangency_degree:{label},family{family},line{k}@{seed}",
                    call=lambda w=form, ln=line: F.tangency_degree(w, ln),
                    check=_expect(expected),
                    render=_degree_json,
                ))
    random.Random(seed).shuffle(items)
    return items


BUILDERS = {
    "adjoint_table": adjoint_table,
    "bbw_sweep": bbw_sweep,
    "fol_refute": fol_refute,
    "fol_confirm": fol_confirm,
}


def build(workload, seed):
    """Set up one workload: its seeded items, with the library's caches full."""
    return BUILDERS[workload](seed)
