import hashlib
import json
from fractions import Fraction

import pytest

from adjvar.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_roots_g2(capsys):
    code, out, _ = run(capsys, "roots", "--type", "G", "--rank", "2")
    assert code == 0
    assert "6 positive roots" in out


def test_roots_e8_json(capsys):
    code, out, _ = run(capsys, "roots", "--type", "E", "--rank", "8", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 120
    assert data["schema"] == "1"


def test_roots_invalid_rank(capsys):
    code, _, err = run(capsys, "roots", "--type", "D", "--rank", "3")
    assert code == 2
    assert "invalid" in err


def test_adjoint_table_rejects_picard_two(capsys):
    code, _, err = run(capsys, "adjoint-table", "--type", "D", "--rank", "3")
    assert code == 2
    assert "Picard number two" in err


def test_adjoint_table_single_type(capsys):
    code, out, _ = run(capsys, "adjoint-table", "--type", "G", "--rank", "2", "--json")
    assert code == 0
    assert [row["type"] for row in json.loads(out)["rows"]] == ["G2"]
    code, out, _ = run(capsys, "adjoint-table", "--type", "E", "--rank", "8")
    assert code == 0
    assert len(out.splitlines()) == 2  # the header and the E8 row


def test_adjoint_table_type_without_printed_data(capsys):
    # type C is outside the table, and the paper prints nothing for it
    code, out, _ = run(capsys, "adjoint-table", "--type", "C", "--rank", "3",
                       "--compare-paper", "--json")
    assert code == 0
    (row,) = json.loads(out)["rows"]
    assert row["type"] == "C3"
    assert row["comparison"] == {"flag": "no-printed-data", "notes": []}


def test_adjoint_table_above_the_default_ceiling(capsys):
    # rows above rank 10 were built with the default ceiling and exited 2
    code, out, _ = run(capsys, "adjoint-table", "--max-classical-rank", "11", "--json")
    assert code == 0
    types = [row["type"] for row in json.loads(out)["rows"]]
    assert "B11" in types and "D11" in types and "B12" not in types
    code, out, _ = run(capsys, "adjoint-table", "--type", "B", "--rank", "11",
                       "--max-classical-rank", "11", "--json")
    assert code == 0
    assert [row["type"] for row in json.loads(out)["rows"]] == ["B11"]


@pytest.mark.parametrize("argv", [["--rank", "5"], ["--type", "B"]])
def test_adjoint_table_type_and_rank_go_together(capsys, argv):
    # --rank without --type used to be ignored, printing the whole table
    with pytest.raises(SystemExit) as info:
        main(["adjoint-table", *argv])
    assert info.value.code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_bbw_e6_adjoint(capsys):
    code, out, _ = run(
        capsys, "bbw", "--type", "E", "--rank", "6", "--node", "2",
        "--weight", "0,1,0,0,0,0",
    )
    assert code == 0
    assert "H^0 has dimension 78" in out


def test_bbw_minus_delta_vanishes(capsys):
    # -delta is a bundle weight only when every node is marked; on P^1 it is
    # O(-1), the classic cohomology-free line bundle
    code, out, _ = run(
        capsys, "bbw", "--type", "A", "--rank", "1", "--node", "1",
        "--weight=-1", "--json",
    )
    assert code == 0
    assert json.loads(out)["cohomology"] == {"kind": "zero"}


def test_bbw_rejects_non_bundle_weight(capsys):
    code, _, err = run(
        capsys, "bbw", "--type", "A", "--rank", "3", "--node", "1",
        "--weight=-1,-1,-1",
    )
    assert code == 2 and "bundle weight" in err


@pytest.mark.parametrize("node", ["0", "4"])
def test_bbw_rejects_node_out_of_range(capsys, node):
    code, _, err = run(
        capsys, "bbw", "--type", "A", "--rank", "3", "--node", node,
        "--weight", "1,0,0",
    )
    assert code == 2 and err.startswith("error:") and "out of range" in err


@pytest.mark.parametrize(
    "weight",
    ["1,0", "1,0,0,0", "1,x,0", "1.5,0,0", "1,,0", "1,,0,0", ",1,0,0,", "1_0,0,0",
     "\uff11,0,0"],
)
def test_bbw_rejects_malformed_weight(capsys, weight):
    code, _, err = run(
        capsys, "bbw", "--type", "A", "--rank", "3", "--node", "1",
        "--weight", weight,
    )
    assert code == 2 and err.startswith("error:") and "weight" in err


def test_bbw_p3_serre_dual(capsys):
    code, out, _ = run(
        capsys, "bbw", "--type", "A", "--rank", "3", "--node", "1",
        "--weight=-4,0,0", "--json",
    )
    assert code == 0
    coh = json.loads(out)["cohomology"]
    assert coh["degree"] == 3 and coh["dim"] == 1


def test_fol_degree_pencil(capsys):
    code, out, _ = run(capsys, "fol", "degree", "--builtin", "pencil", "--n", "2")
    assert code == 0
    assert out == "deg_H1 = 0, deg_H2 = 0\n"


def test_fol_degree_pullback_json(capsys):
    code, out, _ = run(
        capsys, "fol", "degree", "--builtin", "pullback-d1", "--n", "2", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["deg_H1"] == "-inf" and data["deg_H2"] == 1


def test_fol_json_determinism(capsys):
    args = ("fol", "degree", "--builtin", "log4", "--n", "2", "--json",
            "--seed", "99")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_fol_check_integrable_exit_codes(capsys):
    code, out, _ = run(capsys, "fol", "check-integrable", "--builtin", "affine")
    assert code == 0 and "integrable: True" in out


def test_fol_check_integrable_on_a_coordinate_divisor_is_not_saturated(tmp_path, capsys):
    # x_1 times the pencil is integrable, and it vanishes on V(x_1) ^ X
    from adjvar.folforms import BiPoly, PolyOneForm, builtin_pencil

    pencil = builtin_pencil(2)
    form = PolyOneForm(2, [BiPoly.x(2, 1) * c for c in pencil.coeffs])
    path = tmp_path / "x1pencil.json"
    path.write_text(json.dumps(form.to_json()))
    code, out, _ = run(capsys, "fol", "check-integrable", "--input", str(path), "--json")
    assert code == 0
    assert '"integrable": true, "saturated": false' in out


def test_fol_corrupted_input(tmp_path, capsys):
    bad = tmp_path / "form.json"
    bad.write_text("{not valid json")
    with pytest.raises(SystemExit):
        main(["fol", "check-integrable", "--input", str(bad)])


@pytest.mark.parametrize(
    "argv",
    [
        ["fol", "check-integrable"],
        ["fol", "check-integrable", "--builtin", "nosuch"],
        ["fol", "invariant", "--builtin", "affine"],
        ["fol", "invariant", "--builtin", "affine", "--surface", "no/such/dir.json"],
    ],
)
def test_fol_input_errors_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_fol_build_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "pencil.json"
    code, _, _ = run(
        capsys, "fol", "build", "--builtin", "pencil", "--n", "2",
        "--output", str(out_file),
    )
    assert code == 0
    code, out, _ = run(
        capsys, "fol", "check-integrable", "--input", str(out_file)
    )
    assert code == 0 and "integrable: True" in out


@pytest.mark.parametrize("where", ["no/such/dir/pencil.json", "."])
def test_fol_build_to_an_unwritable_path_exits_2(tmp_path, capsys, where):
    # a missing directory, or a path that is a directory, raised a traceback
    # and exited 1
    with pytest.raises(SystemExit) as info:
        main(["fol", "build", "--builtin", "pencil", "--output", str(tmp_path / where)])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {tmp_path / where}")
    assert captured.out == ""


@pytest.mark.parametrize(
    "key,value", [("bidegree", [5, 7]), ("schema", "9"), ("schema", 1)]
)
def test_fol_input_with_a_wrong_bidegree_or_schema_exits_2(tmp_path, capsys, key, value):
    # such a pencil file was checked as the [2, 2] form and exited 0
    path = tmp_path / "pencil.json"
    code, _, _ = run(capsys, "fol", "build", "--builtin", "pencil", "--output", str(path))
    assert code == 0
    data = json.loads(path.read_text())
    data[key] = value
    path.write_text(json.dumps(data))
    with pytest.raises(SystemExit) as info:
        main(["fol", "check-integrable", "--input", str(path)])
    assert info.value.code == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read form from {path}")


def test_fol_invariant_surface(capsys):
    code, out, _ = run(
        capsys, "fol", "invariant", "--builtin", "affine", "--surface", "conic-x"
    )
    assert code == 0 and "invariant: True" in out


def test_fol_invariant_second_conic(capsys):
    code, out, _ = run(capsys, "fol", "invariant", "--builtin", "affine",
                       "--surface", "conic-y", "--json")
    assert code == 0
    assert json.loads(out) == {"invariant": True, "schema": "1",
                               "surface_bidegree": [0, 2]}


def test_fol_invariant_surface_from_file(tmp_path, capsys):
    from adjvar.folforms import builtin_affine

    _, f1, _ = builtin_affine(2)
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(f1.to_json()))
    code, out, _ = run(
        capsys, "fol", "invariant", "--builtin", "affine", "--surface", str(path)
    )
    assert code == 0 and "invariant: True" in out


@pytest.mark.parametrize("schema", ["2", 1])
def test_fol_invariant_surface_with_a_wrong_schema_exits_2(tmp_path, capsys, schema):
    # such a surface file was read as schema "1" and exited 0
    from adjvar.folforms import builtin_affine

    surface = builtin_affine(2)[1].to_json()
    surface["schema"] = schema
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(surface))
    with pytest.raises(SystemExit) as info:
        main(["fol", "invariant", "--builtin", "affine", "--surface", str(path),
              "--json"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read surface {str(path)!r}")
    assert f"surface schema {schema!r} is not '1'" in err


@pytest.mark.parametrize(
    "extra", [["--samples", "0"], ["--height-bound", "0"], ["--n", "1"]]
)
def test_fol_degree_rejects_bad_input(capsys, extra):
    argv = ["fol", "degree", "--builtin", "log4", *extra]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["roots", "--type", "E", "--rank", "8"],
        ["bbw", "--type", "G", "--rank", "2", "--node", "1", "--weight", "1,0"],
        ["adjoint-table"],
    ],
)
@pytest.mark.parametrize("ceiling", ["0", "-5"])
def test_max_classical_rank_below_one_is_rejected(capsys, argv, ceiling):
    # adjoint-table used to exit 0 with the exceptional rows alone
    code, out, err = run(capsys, *argv, "--max-classical-rank", ceiling)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--max-classical-rank" in err


@pytest.mark.parametrize("exps", [[-1, 1, 1], [1, 1]])
def test_fol_invariant_rejects_bad_surface_exponents(tmp_path, capsys, exps):
    # a negative exponent used to answer "invariant: False", a short list
    # raised an IndexError
    surface = {"n": 2, "terms": [{"x": exps, "y": [0, 0, 0], "c": "1"},
                                 {"x": [0, 1, 0], "y": [0, 0, 0], "c": "1"}]}
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(surface))
    with pytest.raises(SystemExit) as info:
        main(["fol", "invariant", "--builtin", "affine", "--surface", str(path)])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "non-negative integers" in err


def test_fol_invariant_rejects_float_coefficient(tmp_path, capsys):
    # the conic x1^2 - 4 x0 x2 scaled by 1/10: a JSON 0.1 used to be read as
    # a binary float and answer "invariant: False" with exit 1
    from adjvar.folforms import builtin_affine

    surface = (builtin_affine(2)[1] * Fraction(1, 10)).to_json()
    path = tmp_path / "surface.json"
    argv = ["fol", "invariant", "--builtin", "affine", "--surface", str(path)]
    path.write_text(json.dumps(surface))
    assert run(capsys, *argv)[0] == 0
    for term in surface["terms"]:
        term["c"] = float(Fraction(term["c"]))
    path.write_text(json.dumps(surface))
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "an integer or" in err


@pytest.mark.parametrize(
    "builtin,n",
    [("pullback-d1", 1), ("pullback-d1", 0), ("pullback-d0", 0), ("log4", 0),
     ("pencil", 0), ("pencil", -1), ("affine", 1), ("torus", 1)],
)
@pytest.mark.parametrize("command", ["check-integrable", "degree", "build"])
def test_fol_builtin_below_its_smallest_n_exits_2(capsys, builtin, n, command):
    # pullback-d1 at --n 1 used to report "Euler contraction does not
    # vanish" and log4 at --n 0 "not bihomogeneous"
    with pytest.raises(SystemExit) as info:
        main(["fol", command, "--builtin", builtin, "--n", str(n)])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--n" in err


@pytest.mark.parametrize("builtin", ["pencil", "log4", "pullback-d0"])
def test_fol_builtin_at_n_1_is_accepted(capsys, builtin):
    code, out, _ = run(capsys, "fol", "check-integrable", "--builtin", builtin,
                       "--n", "1", "--json")
    assert code == 0 and json.loads(out)["integrable"] is True


def test_fol_invariant_on_the_curve_n_1(tmp_path, capsys):
    # at n = 1 every point of X is a leaf; these surfaces used to exit 1
    from adjvar.bipoly import BiPoly

    path = tmp_path / "surface.json"
    argv = ["fol", "invariant", "--builtin", "pullback-d0", "--n", "1",
            "--surface", str(path)]
    x0, x1, y0, y1 = BiPoly.x(1, 0), BiPoly.x(1, 1), BiPoly.y(1, 0), BiPoly.y(1, 1)
    for f in (y0, x1 * y0, x0 * y1 + x1 * y0 * 3):
        path.write_text(json.dumps(f.to_json()))
        code, out, _ = run(capsys, *argv)
        assert code == 0 and "invariant: True" in out
    path.write_text(json.dumps(BiPoly.incidence_quadric(1).to_json()))
    code, _, err = run(capsys, *argv)
    assert code == 2 and "ideal of X" in err


@pytest.mark.parametrize("n,builtin", [(2, "affine"), (1, "pencil")])
def test_fol_invariant_constant_surface_exits_2(tmp_path, capsys, n, builtin):
    # "invariant": true with exit 0, though V(F) ^ X is empty
    path = tmp_path / "surface.json"
    zeros = [0] * (n + 1)
    path.write_text(json.dumps({"n": n, "terms": [{"x": zeros, "y": zeros, "c": "5"}]}))
    code, out, err = run(capsys, "fol", "invariant", "--builtin", builtin,
                         "--n", str(n), "--surface", str(path), "--json")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "nonzero constant" in err


def exit_code(*argv):
    """The exit status of the CLI, whether main returns it or raises it."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("n", [3, 1])
def test_fol_invariant_rejects_a_surface_on_another_space(tmp_path, capsys, n):
    # a surface on P^3 x P^3 used to raise an IndexError in the witness (exit
    # 1), one on P^1 x P^1 a bare "tuple.index(x): x not in tuple" (exit 2)
    from adjvar.bipoly import BiPoly

    x, y = (lambda i: BiPoly.x(n, i)), (lambda j: BiPoly.y(n, j))
    f = x(1) * y(1) + x(0) * y(2) if n == 3 else x(0) * y(1)
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(f.to_json()))
    code = exit_code("fol", "invariant", "--builtin", "pencil", "--n", "2",
                     "--surface", str(path))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"P^{n} x P^{n}" in err and "P^2 x P^2" in err


@pytest.mark.parametrize("value", [2.7, True, "2", 0, -1])
def test_fol_json_n_must_be_a_positive_integer(tmp_path, capsys, value):
    # "n": 2.7 was read as 2 (exit 0), true as 1 and "2" as 2
    from adjvar.folforms import builtin_affine, builtin_pencil

    form, surface = builtin_pencil(2).to_json(), builtin_affine(2)[1].to_json()
    form["n"] = surface["n"] = value
    form_path, surface_path = tmp_path / "form.json", tmp_path / "surface.json"
    form_path.write_text(json.dumps(form))
    surface_path.write_text(json.dumps(surface))
    for argv in (
        ["check-integrable", "--input", str(form_path)],
        ["invariant", "--builtin", "affine", "--surface", str(surface_path)],
    ):
        assert exit_code("fol", *argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and '"n" must be an integer >= 1' in err


@pytest.mark.parametrize("k,code", [((1 << 15) - 1, 0), (1 << 15, 2)])
def test_fol_exponents_beyond_the_packed_slots_exit_2(tmp_path, capsys, k, code):
    # x2^k (x1 dx2 - x2 dx1) wedges exponents up to k + 1 with ones up to k
    from adjvar.bipoly import BiPoly
    from adjvar.folforms import PolyOneForm

    x, zero = (lambda i: BiPoly.x(2, i)), BiPoly.zero(2)
    m = BiPoly(2, {(0, 0, k, 0, 0, 0): 1})
    form = PolyOneForm(2, [zero, -(m * x(2)), m * x(1), zero, zero, zero])
    path = tmp_path / "form.json"
    path.write_text(json.dumps(form.to_json()))
    assert exit_code("fol", "check-integrable", "--input", str(path)) == code
    out, err = capsys.readouterr()
    if code:
        assert err.startswith("error:") and "16-bit" in err
    else:
        assert "integrable: True" in out


def test_fol_exponent_of_2_16_is_rejected_when_read(tmp_path, capsys):
    # it can never pass the packed wedge, but the integer witness first
    # raised an integer point to that power
    from adjvar.folforms import builtin_pencil

    form = builtin_pencil(2).to_json()
    form["dx"][1][0]["x"][2] = 1 << 16
    path = tmp_path / "form.json"
    path.write_text(json.dumps(form))
    assert exit_code("fol", "check-integrable", "--input", str(path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read form from") and "below 2^16" in err


@pytest.mark.parametrize("flag", ["--input", "--surface"])
def test_fol_zero_denominator_exits_2_with_the_file_context(tmp_path, capsys, flag):
    # a ZeroDivisionError escaped the reader: "error: Fraction(1, 0)"
    from adjvar.folforms import builtin_affine, builtin_pencil

    form, surface = builtin_pencil(2).to_json(), builtin_affine(2)[1].to_json()
    term = form["dx"][1][0] if flag == "--input" else surface["terms"][0]
    term["c"] = "1/0"
    form_path, surface_path = tmp_path / "form.json", tmp_path / "surface.json"
    form_path.write_text(json.dumps(form))
    surface_path.write_text(json.dumps(surface))
    argv = ["invariant", "--input", str(form_path), "--surface", str(surface_path)]
    assert exit_code("fol", *argv) == 2
    err = capsys.readouterr().err
    context = "cannot read form from" if flag == "--input" else "cannot read surface"
    assert err.startswith(f"error: {context}")
    assert "zero denominator in the coefficient '1/0' of x=" in err


def test_fol_degree_draws_no_line(capsys, monkeypatch):
    from adjvar import folforms

    def refuse(*args, **kwargs):
        raise AssertionError("fol degree must not sample lines")

    monkeypatch.setattr(folforms, "FolSampler", refuse)
    monkeypatch.setattr(folforms, "tangency_degree", refuse)
    code, out, _ = run(capsys, "fol", "degree", "--builtin", "pullback-d1", "--n", "3")
    assert code == 0 and out == "deg_H1 = -inf, deg_H2 = 1\n"


@pytest.mark.parametrize("surface,bidegree", [("conic-x", [2, 0]), ("conic-y", [0, 2])])
def test_fol_conics_on_the_pencil_at_n_3(capsys, surface, bidegree):
    # the conics exist at every n >= 2, whatever the form
    from adjvar.folforms import _affine_conics, builtin_pencil, is_invariant

    conic = dict(zip(("conic-x", "conic-y"), _affine_conics(3)))[surface]
    assert not is_invariant(builtin_pencil(3), conic)
    code, out, _ = run(capsys, "fol", "invariant", "--builtin", "pencil", "--n", "3",
                       "--surface", surface, "--json")
    assert code == 1
    assert json.loads(out) == {"invariant": False, "schema": "1",
                               "surface_bidegree": bidegree}


@pytest.mark.parametrize("surface,bidegree", [("conic-x", [2, 0]), ("conic-y", [0, 2])])
def test_fol_conics_take_the_n_of_a_form_file(tmp_path, capsys, surface, bidegree):
    # --n sizes builtins only; the conics were built at the default --n 2 and
    # the command exited 2 on a P^3 x P^3 form
    path = tmp_path / "p3.json"
    assert run(capsys, "fol", "build", "--builtin", "pencil", "--n", "3",
               "--output", str(path))[0] == 0
    code, out, err = run(capsys, "fol", "invariant", "--input", str(path),
                         "--surface", surface, "--json")
    assert (code, err) == (1, "")
    assert json.loads(out) == {"invariant": False, "schema": "1",
                               "surface_bidegree": bidegree}


@pytest.mark.parametrize("surface", ["conic-x", "conic-y"])
def test_fol_conics_at_n_1_exit_2(capsys, surface):
    code, out, err = run(capsys, "fol", "invariant", "--builtin", "pencil", "--n", "1",
                         "--surface", surface)
    assert code == 2 and out == ""
    assert err == "error: the conics need n >= 2, not n = 1\n"


# -- the fixed command set: its output must stay byte-identical ---------------

# sha256 of the stdout of `adjvar fol build --builtin B --n N`
BUILD_DIGESTS = {
    ("pencil", 1): "aab1b983b1ae2b7f408b153ee7efea7c32b77d04eb6dcb5f591685b285af250d",
    ("pencil", 2): "6a3a9adac51e49f765e836b61f537c098882f22e34100a1290bf99920d8cbfa4",
    ("pencil", 3): "d1d3bba4306ff61fa661cd3d45b0fe791b993d6985636f025fc5bf16185375b4",
    ("pencil", 4): "5d678b832008ac7ab55ec0fefad0abb7fe69a844d2e9230382cb9253206555f4",
    ("log4", 1): "d16b29d8df5eb02851349913fbc952a38cb1bf58a89871bb5c9edb5d9beb8337",
    ("log4", 2): "76a6a00d2594b16de92a9f90f698a30453e78738902d6e7cdf33f30be1d173c8",
    ("log4", 3): "e52aa5463b8c3bd241e9044de9cec4b510f64ca84a3bf9a69fd8526a94a6d10b",
    ("log4", 4): "363c2534479d21bcde472c1223d6048d1c0bdc3017bc514e69d7d79022eea6a7",
    ("pullback-d0", 1): "3976ce7d8dfd73378a0aa19987099142a3dc121dd6e687d0815e36eb9dfd3b86",
    ("pullback-d0", 2): "ee92250160a226f0cac03de94b756506f9e9aa748ed1987714845394bc0fa23f",
    ("pullback-d0", 3): "2df6dcb6f5dc8563037f03f627b706eecd081dc954edd3ce048cf626e7280167",
    ("pullback-d0", 4): "027377e191641f9c9d94523e461d464757ff34d3bab48da48ebdc22f16a5becf",
    ("pullback-d1", 2): "28314ff12008822656761c1ad75481fdf96a4950ce9ce88e857392122d4241a4",
    ("pullback-d1", 3): "81d768e89e7f6e1375f18c6176489da2e09659b575b8e85f0f6369d2c3332ebf",
    ("pullback-d1", 4): "13b3ed11713a82a3d11346617f064697d8b9787adb6eae04493f57fc900b32e5",
    ("affine", 2): "e91bdab9ac753b297e3e367b68f83f5f810e947d2d40c4e8928c77a7b81fafc8",
    ("torus", 2): "45797accdc492cba49645a176235ea6aa921c785bbea415edd38185a10bda6bc",
}
# sha256 of the stdout of `adjvar fol degree --builtin B --n N --json`, at every
# n >= 2 (X holds no lines at n = 1) up to 4 where the builtin exists
DEGREE_DIGESTS = {
    ("pencil", 2): "8ff7d1e97a9a5e2eab8a45e27dcf81033c3f7496a27969ebb9b17d3b65e30a39",
    ("pencil", 3): "8ff7d1e97a9a5e2eab8a45e27dcf81033c3f7496a27969ebb9b17d3b65e30a39",
    ("pencil", 4): "8ff7d1e97a9a5e2eab8a45e27dcf81033c3f7496a27969ebb9b17d3b65e30a39",
    ("log4", 2): "8ff7d1e97a9a5e2eab8a45e27dcf81033c3f7496a27969ebb9b17d3b65e30a39",
    ("log4", 3): "8ff7d1e97a9a5e2eab8a45e27dcf81033c3f7496a27969ebb9b17d3b65e30a39",
    ("log4", 4): "8ff7d1e97a9a5e2eab8a45e27dcf81033c3f7496a27969ebb9b17d3b65e30a39",
    ("pullback-d0", 2): "4b81d3c73059c8444753009594db1fcd6fd4968c5107fd84d7bbe8e197598689",
    ("pullback-d0", 3): "4b81d3c73059c8444753009594db1fcd6fd4968c5107fd84d7bbe8e197598689",
    ("pullback-d0", 4): "4b81d3c73059c8444753009594db1fcd6fd4968c5107fd84d7bbe8e197598689",
    ("pullback-d1", 2): "4bdcded40898143e9a7c26f7dc7101e5ff6b72c79e3a0e0d7e69f99853657b94",
    ("pullback-d1", 3): "4bdcded40898143e9a7c26f7dc7101e5ff6b72c79e3a0e0d7e69f99853657b94",
    ("pullback-d1", 4): "4bdcded40898143e9a7c26f7dc7101e5ff6b72c79e3a0e0d7e69f99853657b94",
    ("affine", 2): "8ff7d1e97a9a5e2eab8a45e27dcf81033c3f7496a27969ebb9b17d3b65e30a39",
    ("torus", 2): "8ff7d1e97a9a5e2eab8a45e27dcf81033c3f7496a27969ebb9b17d3b65e30a39",
}
# sha256 of the stdout of `adjvar fol check-integrable --builtin B --n N --json`,
# at every n <= 4 where the builtin exists
CHECK_DIGESTS = {
    ("pencil", 1): "c8247af983b11c493d44eb625e5c3ddd74a7be271b029a58f68ce430e60a1760",
    ("pencil", 2): "c8247af983b11c493d44eb625e5c3ddd74a7be271b029a58f68ce430e60a1760",
    ("pencil", 3): "c8247af983b11c493d44eb625e5c3ddd74a7be271b029a58f68ce430e60a1760",
    ("pencil", 4): "c8247af983b11c493d44eb625e5c3ddd74a7be271b029a58f68ce430e60a1760",
    ("log4", 1): "c8247af983b11c493d44eb625e5c3ddd74a7be271b029a58f68ce430e60a1760",
    ("log4", 2): "c8247af983b11c493d44eb625e5c3ddd74a7be271b029a58f68ce430e60a1760",
    ("log4", 3): "c8247af983b11c493d44eb625e5c3ddd74a7be271b029a58f68ce430e60a1760",
    ("log4", 4): "c8247af983b11c493d44eb625e5c3ddd74a7be271b029a58f68ce430e60a1760",
    ("pullback-d0", 1): "ac95f418a3bff31a3338f2660fa9abdceac053d07f9c67b524376f1ad8b052bb",
    ("pullback-d0", 2): "ac95f418a3bff31a3338f2660fa9abdceac053d07f9c67b524376f1ad8b052bb",
    ("pullback-d0", 3): "ac95f418a3bff31a3338f2660fa9abdceac053d07f9c67b524376f1ad8b052bb",
    ("pullback-d0", 4): "ac95f418a3bff31a3338f2660fa9abdceac053d07f9c67b524376f1ad8b052bb",
    ("pullback-d1", 2): "cb4c8757278a52aa630ad960ee05655f300cfb8f57cdaf1afc16da03e4d12886",
    ("pullback-d1", 3): "cb4c8757278a52aa630ad960ee05655f300cfb8f57cdaf1afc16da03e4d12886",
    ("pullback-d1", 4): "cb4c8757278a52aa630ad960ee05655f300cfb8f57cdaf1afc16da03e4d12886",
    ("affine", 2): "c8247af983b11c493d44eb625e5c3ddd74a7be271b029a58f68ce430e60a1760",
    ("torus", 2): "c8247af983b11c493d44eb625e5c3ddd74a7be271b029a58f68ce430e60a1760",
}
TABLE_DIGEST = "1c27316b0fd4ec9cae9ab83ef1d360df98847ff0c3ee9ba96cd2f0a66749abba"
# the same with --max-classical-rank 14, which adds the rows B11-B14 and D11-D14
TABLE_14_DIGEST = "638d3ae19d03a30532203d8383749bee9f67730b3f829739ce94f8b30e05c742"

# sha256 of the stdout of `adjvar roots --type T --rank R --json`, for every
# valid type up to rank 10
ROOTS_DIGESTS = {
    ("A", 1): "c54516dafca3d61f205ebf1bee18a11314a720b9bd6470816a84c75d65fb18b7",
    ("A", 2): "5072e3ba52da47a4a56738314704848f66955e1e63936045489de2a9d0a9570f",
    ("A", 3): "12ef58e29a46088a62fc98d120989fc69924f1c0c18801f4c981d60be732faec",
    ("A", 4): "a7e5e07e07efbfa2588f8fb6d59a39d68ea97911d27b3f230455989d0aa9e44c",
    ("A", 5): "287c37f1b5ca023de86a0dfd16f342c79561fb3bbcd4c03f872057fac3578c13",
    ("A", 6): "c80ea11733fa38a9db029b51b28259b0c849c66e4435b72a70864d28e03071d7",
    ("A", 7): "f7c1d73aa8f39888e8d9fd8a1525a1a85f546a57eff68abc1a61e15be54af223",
    ("A", 8): "bc22bdc423519b3055dbfeb7313baf3e2ec9f8b064c6bbdc72f75e8da594f872",
    ("A", 9): "7ca4dc547be2a04f140d93dfbd0d5128f2440c1c9f3527f250becca6befc5c7d",
    ("A", 10): "09a54ca4b8a3c35efad276d6aebe75ee3919480a7382f7fa6c618d4f375e91ca",
    ("B", 2): "f438982e69c3c83000b747739ac40457effc49f3c229330acdd3970743eff7c5",
    ("B", 3): "9e7e723c3be97607d083b97180fc06128abc62a0702adc786916f3c96865838a",
    ("B", 4): "5a2727a7d1c7044a1ca1e3f2b986fe3ba09e662bed38e3c15dff16c3a85d4d03",
    ("B", 5): "b25512253131975eed080dd8d1da0f777c6d1c7a6c7da43d1b8823154db3ef21",
    ("B", 6): "827356fff87e89bbdd6360fdf51ab723e98650081213fa43b82868a7606151ee",
    ("B", 7): "65429ea7b414dd23c0605dfbb1909530f011f12b8e90f4ebfe420b18a12e9937",
    ("B", 8): "ddd5458a05457ca1f11503af0c841c39ebe1beb304cfef31365e18794edc3bd5",
    ("B", 9): "f603222e16d7350f2aa65915ca1c6303a955464f67539642422d9728b863821c",
    ("B", 10): "41ad0aceb1007c59b6acb7e07f484b637470857c412e04d344f4d39f2d7639b7",
    ("C", 2): "e74db2f16050511192c66774faf15735cead0aaf7c10d7743febd9278a1430a0",
    ("C", 3): "f736a309e956cf0dc9fdb299d5172dc0d08bf10cddeb031edb70457e91169e13",
    ("C", 4): "f079ee090e05a957532d1774b21327997e3e2798797006306dda700c4617710a",
    ("C", 5): "3362967edb747fe9397c02fb28e60be95b8e9b457725a0638f647166ce2f71fb",
    ("C", 6): "7480df754741d319a17ff96b1c3e9415f16063d3e789889e10f5deea8a93ad75",
    ("C", 7): "32e1b0f0d19bd5725226968ac69f57c1440fb49ee9f9ee1707a1818befeba238",
    ("C", 8): "eda0d3de1c2632f0388f810cfc429fde24e12d4c5fbc1b8794a53c01e87e257c",
    ("C", 9): "be016411ee2a3d7fe8d52c4adeb9ff172eb2f03f55a90332d7c1dd2adc0b8517",
    ("C", 10): "a5b1f284c361a5c6bb2c0a0a2f8012d1f0b616eed7d657f3c7d83a5447c095dc",
    ("D", 4): "d31e1b027668221b1e1e5f63c39a80a732673239ff272dd00fb5009e054ac017",
    ("D", 5): "e28be04235005e5729c50b4bfdeded9df46706f2b22ae17f95c4f13db2865102",
    ("D", 6): "69ccdef2ca8fc32374ba23b582b9d00e7cad00a47756278f337ad7b94a7fb2f5",
    ("D", 7): "7d8ca8a28b781bd29db843ed7a16d145873a9426ae2f01ecfe7b4c8c15df7f6c",
    ("D", 8): "b160e17ba13fed9ef310a3ee957e430eb4f9cb97301e0aa5400e7ad28b449bcf",
    ("D", 9): "b0058be991c9669ea5cc82dac922dbdd1c8fbf2d54c5baceb31a3c22bd1262bd",
    ("D", 10): "397f2f94bf8e8acb1b826ac74a8293105adccff7f6c0cf9d9e3e090d3e789fdd",
    ("E", 6): "28d60dc9c541c953bcc6869f1d12f175c93910cd688c29251913d9a9a46765a9",
    ("E", 7): "62f9803e626584d1aadb3f5b6e36488e494f33400292c39a6c78c262021d7133",
    ("E", 8): "763b06a5a090992fcd0df36d879afb51821e4475de98eb248ba06702a4ac3e52",
    ("F", 4): "8c2878279efcf72754278b3f73a8dd577bb79f23bdcbfb7aa05a910c7b0ef3f3",
    ("G", 2): "afbed0c5e5b65a43ad04666d9f7bb0f9c5e0c1f92680374918de0442e5e0a394",
}


def stdout_digest(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("builtin,n", sorted(BUILD_DIGESTS))
def test_fol_build_output_is_pinned(capsys, builtin, n):
    digest = stdout_digest(capsys, "fol", "build", "--builtin", builtin, "--n", str(n))
    assert digest == BUILD_DIGESTS[builtin, n]


@pytest.mark.parametrize("builtin,n", sorted(DEGREE_DIGESTS))
def test_fol_degree_output_is_pinned(capsys, builtin, n):
    digest = stdout_digest(capsys, "fol", "degree", "--builtin", builtin, "--n", str(n),
                           "--json")
    assert digest == DEGREE_DIGESTS[builtin, n]


@pytest.mark.parametrize("builtin,n", sorted(CHECK_DIGESTS))
def test_fol_check_integrable_output_is_pinned(capsys, builtin, n):
    digest = stdout_digest(capsys, "fol", "check-integrable", "--builtin", builtin,
                           "--n", str(n), "--json")
    assert digest == CHECK_DIGESTS[builtin, n]


@pytest.mark.parametrize("letter,rank", sorted(ROOTS_DIGESTS))
def test_roots_output_is_pinned(capsys, letter, rank):
    digest = stdout_digest(capsys, "roots", "--type", letter, "--rank", str(rank), "--json")
    assert digest == ROOTS_DIGESTS[letter, rank]

def test_adjoint_table_output_is_pinned(capsys):
    digest = stdout_digest(capsys, "adjoint-table", "--max-classical-rank", "10",
                           "--compare-paper", "--json")
    assert digest == TABLE_DIGEST


def test_adjoint_table_to_rank_14_is_pinned(capsys):
    digest = stdout_digest(capsys, "adjoint-table", "--max-classical-rank", "14",
                           "--compare-paper", "--json")
    assert digest == TABLE_14_DIGEST


# sha256 of the stdout of `adjvar bbw --type T --rank R --node N --weight=W
# --json`: singular answers, degree 0, and the degree-57 = dim X query on
# E8/P8, whose chamber reduction is the longest one here
BBW_DIGESTS = {
    ("A", 1, 1, "-1"): "cce47918d1a63ed286d78b1c667a848061b94f1d24d951d4c76ebf444daeadbc",
    ("A", 1, 1, "-5"): "dff0eb70dc8c0f319589ec84839e9421c98bb90fc1599379ce190a900287ca56",
    ("A", 3, 1, "-4,0,0"): "4d79b51d62e9b0dd4ad2e8d795dc51d13d6925ddd961323d0dbfabd0b403e5fd",
    ("A", 4, 2, "1,-3,2,0"): "6c8f069df0d8a686a5867ade71fc44028d5028d37c9369d5bf6a811369a825cf",
    ("A", 4, 2, "1,-6,0,0"): "71688f5c1692091ca7108f1cc9e676207a0e34db7f865aaa699c1e6bd5898ba0",
    ("A", 5, 3, "0,0,-7,0,0"): "33d4172efaed02f48873bcc3782bdea51724f7f3903b85bbbabfdda888418867",
    ("B", 3, 1, "0,1,1"): "ea22058580f5ae6f9afe2f015a857d700bbd1ce4f2366324134dcb1924f60a4d",
    ("B", 4, 2, "1,-4,0,3"): "9e587f2dd2a773b8f28f6ab6ae7af0df50bb0c2439ae7d0f69d7c4c2b102a526",
    ("B", 5, 2, "1,3,2,0,1"): "60dced166a11e735cf20edc4f8725823002bc766ce73c1586c096de0d7c4f357",
    ("C", 3, 3, "1,0,-3"): "1b3f07294614336e3ebb94305847f551d38d429a24f5039a1681aa68796a159a",
    ("C", 3, 3, "1,0,-5"): "0aac6d38edc5f6af2543f8359dcdfe73ba93a55e55daa570d9c043bb21573a8f",
    ("C", 4, 1, "-8,1,0,2"): "69ebed1f5d0965170e98e427b44a69b84762b1fd921c533ec7c9481a8feb1968",
    ("D", 4, 2, "0,-1,0,0"): "1f68cc04916dec53475b6a249f7615d5dda699b49f23856b73ea93e3253e96cb",
    ("D", 5, 1, "-8,0,0,0,0"): "9b5a61f3877bd624e4049c96bbab85a81ea52b560b4015ff755494ee237bbe99",
    ("D", 6, 2, "0,-1,1,0,0,0"): "d03cc0984df25f3d0655a914a81cdbaf22bb6da52c0f58e53761777635acb5a7",
    ("E", 6, 2, "0,1,0,0,0,0"): "497170963cdf8107077e847bbb74d7ffb66a2fee6084ee56f9bf5aeb6953395c",
    ("E", 6, 1, "-13,0,0,0,0,0"): "fb408ab70e360282299a2b89c2251f64d003bb94c6f9a298a134c2f90af3bc9e",
    ("E", 7, 7, "0,0,0,0,0,0,-20"): "45431a6cc430c687a94ae06af180d2a8ec694b573509c78d0866b868946c48c5",
    ("E", 8, 8, "0,0,0,0,0,0,1,-3"): "54020d93892c4d9a8d08fddeb928c49ee104f9870ae8245c1b702ec26762eea0",
    ("E", 8, 8, "1,0,0,0,0,0,0,-40"): "6cd50fb45ce24b676a564f22e9bdb6ab81697158dc558498f24bddcbab3969a3",
    ("F", 4, 1, "2,1,0,3"): "ca3e472dfe00a7e23eb9ca03a9b0a2ef1f3dba9d1fd1c8de5387f0299a006447",
    ("F", 4, 4, "0,0,0,-12"): "00430c46a0bf15e1dfe31b189bdf4fd0e5dca330cd1237a8147a769fd060fddb",
    ("F", 4, 4, "1,0,2,-7"): "6a68755dab973f7b8c01192a816505b2d9d6dd7d470cae4803c00d643491080f",
    ("G", 2, 2, "1,-5"): "1903f633ec4fbea9189a47e09c96ac77e565e148d0247b5e7102ab6abcb77481",
    ("G", 2, 1, "-4,0"): "72fe4042fa19c5c19eee1982d56df31bedabc5654109e6d5ed6303cd2f449649",
}


@pytest.mark.parametrize("letter,rank,node,weight", sorted(BBW_DIGESTS))
def test_bbw_output_is_pinned(capsys, letter, rank, node, weight):
    digest = stdout_digest(capsys, "bbw", "--type", letter, "--rank", str(rank),
                           "--node", str(node), f"--weight={weight}", "--json")
    assert digest == BBW_DIGESTS[letter, rank, node, weight]


# sha256 of the stdout of `adjvar fol C --input F --json` for C in
# check-integrable and degree, F the to_json file of a seeded form with
# rational coefficients, so each run sends the file through from_json and the
# Euler check; the kinds are those of the ``seeded_form`` fixture
RATIONAL_INPUT_DIGESTS = {
    ("check-integrable", "pencil", 2, 2024):
        "c8247af983b11c493d44eb625e5c3ddd74a7be271b029a58f68ce430e60a1760",
    ("check-integrable", "pencil", 3, 2024):
        "c8247af983b11c493d44eb625e5c3ddd74a7be271b029a58f68ce430e60a1760",
    ("check-integrable", "euler22", 2, 2024):
        "c7a5a1d76e3cde6e8e4e58567610646457713c44926a4f2b0c84d24085549576",
    ("check-integrable", "log3", 2, 2024):
        "de6a75af7498e1cc210ae71507d873fbe45658e8bd97d61ca19fab2f047433b8",
    ("degree", "pencil", 2, 2024):
        "8ff7d1e97a9a5e2eab8a45e27dcf81033c3f7496a27969ebb9b17d3b65e30a39",
    ("degree", "pencil", 3, 2024):
        "8ff7d1e97a9a5e2eab8a45e27dcf81033c3f7496a27969ebb9b17d3b65e30a39",
    ("degree", "euler22", 2, 2024):
        "8ff7d1e97a9a5e2eab8a45e27dcf81033c3f7496a27969ebb9b17d3b65e30a39",
    ("degree", "log3", 2, 2024):
        "b7602dcc3748199fd2cc150e74bf8855166f67ba8371e5798813c8a49701eae3",
}


@pytest.mark.parametrize("command,kind,n,seed", sorted(RATIONAL_INPUT_DIGESTS))
def test_fol_output_on_a_rational_form_file_is_pinned(tmp_path, capsys, seeded_form,
                                                      command, kind, n, seed):
    path = tmp_path / "form.json"
    path.write_text(json.dumps(seeded_form(kind, n, seed).to_json()))
    code, out, err = run(capsys, "fol", command, "--input", str(path), "--json")
    assert code in (0, 1) and err == ""
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == RATIONAL_INPUT_DIGESTS[command, kind, n, seed]
