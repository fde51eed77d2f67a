"""Command-line frontend: root-system dumps, single Bott-Borel-Weil queries,
the per-type adjoint table, and foliation checks, in text or JSON.

All output is deterministic: no answer draws a random number, and JSON is
emitted with sorted keys and a schema marker.  Exit status is 0 when every
requested check passed, 1 when a check failed, and 2 for a usage or input
error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .adjoint import section4_row, section4_table
from .bbw import cohomology
from .parabolic import MarkedDatum
from .rootsystem import build_datum, dim_g
from . import folforms as ff
from .folforms import SCHEMA


def _emit(data: dict, as_json: bool, text_lines) -> None:
    if as_json:
        data = dict(data)
        data["schema"] = SCHEMA
        print(json.dumps(data, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _input_error(message: str) -> SystemExit:
    """Print a usage or input error; the returned SystemExit exits with 2."""
    print(f"error: {message}", file=sys.stderr)
    return SystemExit(2)


#: one --weight coordinate: an optional sign and ASCII digits, so neither
#: int()'s underscores ("1_0") nor its non-ASCII digits ("\uff11") get through
_WEIGHT_FIELD = re.compile(r"[+-]?[0-9]+")


def _parse_weight(text: str, rank: int):
    parts = text.replace(" ", "").split(",")
    if len(parts) != rank:
        raise ValueError(f"weight needs {rank} comma-separated integers")
    if not all(_WEIGHT_FIELD.fullmatch(p) for p in parts):
        raise ValueError(f"weight coordinates must be integers: {text!r}")
    return tuple(int(p) for p in parts)


def cmd_roots(args) -> int:
    datum = build_datum(args.type, args.rank, max_classical_rank=args.max_classical_rank)
    roots = [
        {"simple_coords": list(c), "weight": list(w)}
        for c, w in zip(datum.positive_roots, datum.positive_root_weights)
    ]
    data = {
        "type": datum.letter,
        "rank": datum.rank,
        "cartan": [list(r) for r in datum.cartan],
        "count": len(roots),
        "dim_g": dim_g(datum),
        "positive_roots": roots,
    }
    lines = [
        f"{datum.letter}{datum.rank}: {len(roots)} positive roots, dim g = {dim_g(datum)}"
    ]
    lines += [
        f"  {r['simple_coords']}  ->  {r['weight']}" for r in roots
    ]
    _emit(data, args.json, lines)
    return 0


def cmd_bbw(args) -> int:
    datum = build_datum(args.type, args.rank, max_classical_rank=args.max_classical_rank)
    weight = _parse_weight(args.weight, datum.rank)
    md = MarkedDatum(ambient=datum, marked_node=args.node)
    res = cohomology(md, weight)
    data = {"type": datum.letter, "rank": datum.rank, "node": args.node,
            "weight": list(weight), "cohomology": res.to_json()}
    if res.is_zero:
        lines = [f"H^i = 0 for all i"]
    else:
        lines = [
            f"H^{res.degree} has dimension {res.dim} "
            f"(top weight {list(res.top_weight)}); other degrees vanish"
        ]
    _emit(data, args.json, lines)
    return 0


def cmd_adjoint_table(args) -> int:
    if (args.type is None) != (args.rank is None):
        raise _input_error("--type and --rank select a single row only together")
    if args.type is not None:
        rows = [section4_row(args.type, args.rank, args.compare_paper,
                             args.max_classical_rank)]
    else:
        rows = section4_table(
            max_classical_rank=args.max_classical_rank,
            compare_paper=args.compare_paper,
        )
    data = {"rows": rows}
    lines = []
    header = f"{'type':>5} {'dimX':>5} {'m':>3} {'idx':>4} {'dim g':>6} {'h0 O2(1)':>9} {'h0 O2(2)':>9}"
    if args.compare_paper:
        header += "  comparison"
    lines.append(header)
    for row in rows:
        h1 = row["h0_omega2_1"]
        h1txt = (
            str(h1["value"])
            if "value" in h1
            else f"[{h1['bounds'][0]},{h1['bounds'][1]}]~{h1.get('adjudicated')}"
        )
        h2txt = str(row["h0_omega2_2"].get("value", row["h0_omega2_2"]))
        line = (
            f"{row['type']:>5} {row['dim_X']:>5} {row['m']:>3} {row['index']:>4} "
            f"{row['dim_g']:>6} {h1txt:>9} {h2txt:>9}"
        )
        if args.compare_paper:
            line += f"  {row['comparison']['flag']}"
        lines.append(line)
    _emit(data, args.json, lines)
    return 0


# name: (smallest n, constructor)
_BUILTIN_FORMS = {
    "pencil": (1, ff.builtin_pencil),
    "log4": (1, ff.builtin_log4),
    "pullback-d0": (1, lambda n: ff.builtin_pullback(0, n)),
    "pullback-d1": (2, lambda n: ff.builtin_pullback(1, n)),
    "affine": (2, lambda n: ff.builtin_affine(n)[0]),
    "torus": (2, ff.builtin_torus),
}


def _load_form(args) -> ff.PolyOneForm:
    if args.builtin:
        if args.builtin not in _BUILTIN_FORMS:
            raise _input_error(
                f"unknown builtin {args.builtin!r}; "
                f"choices: {', '.join(sorted(_BUILTIN_FORMS))}"
            )
        min_n, make = _BUILTIN_FORMS[args.builtin]
        if args.n < min_n:
            raise _input_error(
                f"--n {args.n} is too small: builtin {args.builtin!r} "
                f"needs --n >= {min_n}"
            )
        return make(args.n)
    if not args.input:
        raise _input_error("provide --builtin NAME or --input FILE")
    try:
        with open(args.input) as fh:
            data = json.load(fh)
        return ff.PolyOneForm.from_json(data)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        raise _input_error(f"cannot read form from {args.input}: {exc}")


def _deg_json(val):
    return "-inf" if val is ff.MINUS_INFINITY else val


def cmd_fol(args) -> int:
    if args.fol_command == "build":
        form = _load_form(args)
        payload = form.to_json()
        if args.output:
            try:
                with open(args.output, "w") as fh:
                    json.dump(payload, fh, sort_keys=True)
            except OSError as exc:
                raise _input_error(f"cannot write {args.output}: {exc}")
            print(f"wrote {args.output}")
        else:
            print(json.dumps(payload, sort_keys=True))
        return 0

    if args.fol_command == "degree" and min(args.samples, args.height_bound) < 1:
        raise _input_error("--samples and --height-bound must be at least 1")
    form = _load_form(args)
    if args.fol_command == "check-integrable":
        ok = ff.integrable(form)
        saturated = not ff.has_divisorial_singularities(form)
        data = {
            "bidegree": list(form.bidegree),
            "integrable": ok,
            "saturated": saturated,
        }
        _emit(
            data,
            args.json,
            [
                f"bidegree {form.bidegree}; integrable: {ok}; saturated: {saturated}"
            ],
        )
        return 0 if ok else 1

    if args.fol_command == "degree":
        # --samples and --seed no longer change the answer; their JSON keys
        # stay until the next output schema
        deg1, deg2 = (ff.family_degree(form, family) for family in (1, 2))
        data = {
            "bidegree": list(form.bidegree),
            "deg_H1": _deg_json(deg1),
            "deg_H2": _deg_json(deg2),
            "samples": args.samples,
            "seed": args.seed,
        }
        _emit(data, args.json, [f"deg_H1 = {deg1}, deg_H2 = {deg2}"])
        return 0

    # "invariant", the last of the subcommands argparse admits
    surface = _parse_surface(args, form.n)
    ok = ff.is_invariant(form, surface)
    data = {"invariant": ok, "surface_bidegree": list(surface.bidegree())}
    _emit(data, args.json, [f"invariant: {ok}"])
    return 0 if ok else 1


def _parse_surface(args, n: int) -> ff.BiPoly:
    """The --surface polynomial; the conics are built on the form's P^n x P^n."""
    if not args.surface:
        raise _input_error("provide --surface conic-x|conic-y|FILE")
    if args.surface in ("conic-x", "conic-y"):
        f1, f2 = ff._affine_conics(n)
        return f1 if args.surface == "conic-x" else f2
    try:
        with open(args.surface) as fh:
            return ff.BiPoly.from_json(json.load(fh))
    except (OSError, KeyError, ValueError, TypeError) as exc:
        raise _input_error(f"cannot read surface {args.surface!r}: {exc}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adjvar",
        description=(
            "Exact homogeneous-bundle cohomology on adjoint varieties and "
            "symbolic foliation checks on hyperplane sections of P^n x P^n"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="emit JSON")
        p.add_argument(
            "--max-classical-rank", type=int, default=10, metavar="R",
            help="ceiling for classical ranks (default 10)",
        )

    p_roots = sub.add_parser("roots", help="positive roots of a simple type")
    p_roots.add_argument("--type", required=True)
    p_roots.add_argument("--rank", type=int, required=True)
    common(p_roots)
    p_roots.set_defaults(func=cmd_roots)

    p_bbw = sub.add_parser("bbw", help="Bott-Borel-Weil cohomology of E_lambda")
    p_bbw.add_argument("--type", required=True)
    p_bbw.add_argument("--rank", type=int, required=True)
    p_bbw.add_argument("--node", type=int, required=True)
    p_bbw.add_argument("--weight", required=True, help="comma-separated coordinates")
    common(p_bbw)
    p_bbw.set_defaults(func=cmd_bbw)

    p_tab = sub.add_parser(
        "adjoint-table", help="contact data and section counts per type"
    )
    p_tab.add_argument("--compare-paper", action="store_true",
                       help="include the printed-weight comparison column")
    p_tab.add_argument("--type", default=None,
                       help="print the row of this single type (with --rank)")
    p_tab.add_argument("--rank", type=int, default=None)
    p_tab.add_argument("--json", action="store_true", help="emit JSON")
    p_tab.add_argument(
        "--max-classical-rank", type=int, default=7, metavar="R",
        help="largest classical rank in the table (default 7)",
    )
    p_tab.set_defaults(func=cmd_adjoint_table)

    p_fol = sub.add_parser("fol", help="foliation checks on X in P^n x P^n")
    p_fol.add_argument("fol_command",
                       choices=["check-integrable", "degree", "invariant", "build"])
    p_fol.add_argument("--builtin", default=None,
                       help=f"one of: {', '.join(sorted(_BUILTIN_FORMS))}")
    p_fol.add_argument("--input", default=None, help="form JSON file")
    p_fol.add_argument("--output", default=None, help="output file for build")
    p_fol.add_argument("--surface", default=None,
                       help="conic-x, conic-y, or a surface JSON file")
    p_fol.add_argument("--n", type=int, default=2)
    p_fol.add_argument("--seed", type=int, default=2024)
    p_fol.add_argument("--samples", type=int, default=10)
    p_fol.add_argument("--height-bound", type=int, default=100)
    p_fol.add_argument("--json", action="store_true")
    p_fol.set_defaults(func=cmd_fol)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # roots, bbw and adjoint-table take this option; fol does not
        if getattr(args, "max_classical_rank", 1) < 1:
            raise ValueError("--max-classical-rank must be at least 1")
        return args.func(args)
    except (ValueError, IndexError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
