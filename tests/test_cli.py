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
