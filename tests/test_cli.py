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


@pytest.mark.parametrize("weight", ["1,0", "1,0,0,0", "1,x,0", "1.5,0,0"])
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
    assert "deg_H1 = 0, deg_H2 = 0" in out


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


def test_fol_degree_non_constant_tangency_exits_1(capsys, monkeypatch):
    from adjvar import folforms

    degrees = iter([0, 1])
    monkeypatch.setattr(folforms, "tangency_degree", lambda form, line: next(degrees))
    code, out, err = run(capsys, "fol", "degree", "--builtin", "pencil", "--n", "2",
                         "--samples", "2")
    assert code == 1 and out == ""
    assert err == "error: family 1 tangency degrees not constant: [0, 1]\n"


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
TABLE_DIGEST = "1c27316b0fd4ec9cae9ab83ef1d360df98847ff0c3ee9ba96cd2f0a66749abba"


def stdout_digest(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("builtin,n", sorted(BUILD_DIGESTS))
def test_fol_build_output_is_pinned(capsys, builtin, n):
    digest = stdout_digest(capsys, "fol", "build", "--builtin", builtin, "--n", str(n))
    assert digest == BUILD_DIGESTS[builtin, n]


def test_adjoint_table_output_is_pinned(capsys):
    digest = stdout_digest(capsys, "adjoint-table", "--max-classical-rank", "10",
                           "--compare-paper", "--json")
    assert digest == TABLE_DIGEST
