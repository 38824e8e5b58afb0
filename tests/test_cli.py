import json

import pytest

from essedge import AngleVector, build_angle_system, parse_triangulation
from essedge.cli import main
from essedge.moves import pillow_0_2
from conftest import fixture_text


@pytest.fixture()
def m136_path(tmp_path):
    path = tmp_path / "m136.tri"
    path.write_text(fixture_text("m136.tri"))
    return str(path)


@pytest.fixture()
def fig8_path(tmp_path):
    path = tmp_path / "fig8.tri"
    path.write_text(fixture_text("fig8.tri"))
    return str(path)


@pytest.fixture()
def shapes_path(tmp_path):
    path = tmp_path / "shapes.txt"
    path.write_text(fixture_text("m136_shapes.txt"))
    return str(path)


def test_validate_exit_codes(m136_path, tmp_path, capsys):
    assert main(["validate", m136_path]) == 0
    bad = tmp_path / "bad.tri"
    bad.write_text("tets: 1\n0: 0 (012) | 0 (013) | 0 (023) | 0 (123)\n")
    code = main(["validate", str(bad)])
    capsys.readouterr()
    assert code != 0


def test_info_matches_table(m136_path, capsys):
    assert main(["info", m136_path]) == 0
    out = capsys.readouterr().out
    assert "4, 4, 10, 10, 6, 4, 4" in str(
        tuple(int(line.split()[1]) for line in out.splitlines()
              if line.strip() and line.split()[0].isdigit()))


def test_info_json_round_trips(m136_path, capsys):
    assert main(["--json", "info", m136_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["tets"] == 7
    assert [e["degree"] for e in doc["edges"]] == [4, 4, 10, 10, 6, 4, 4]
    # re-parse and recompute: identical summary
    assert main(["--json", "info", m136_path]) == 0
    doc2 = json.loads(capsys.readouterr().out)
    assert doc == doc2


def test_angles_strict_exit(m136_path, fig8_path, capsys):
    code = main(["angles", "--strict", m136_path])
    out = capsys.readouterr().out
    assert code == 1
    assert "infeasible" in out and "t* = 0" in out
    assert main(["angles", "--strict", fig8_path]) == 0
    capsys.readouterr()


def test_angles_strict_without_solution(tmp_path, capsys):
    """q8 has no solution of the angle equations at all: the text says so
    rather than print an optimum, and the JSON form carries none."""
    path = tmp_path / "q8.tri"
    path.write_text(fixture_text("q8.tri"))
    assert main(["angles", "--strict", str(path)]) == 1
    out = capsys.readouterr().out
    assert out.strip() == (
        "strict: infeasible (the angle equations have no solution)")
    assert main(["--json", "angles", "--strict", str(path)]) == 1
    assert json.loads(capsys.readouterr().out) == {"mode": "strict",
                                                   "status": "infeasible"}


def test_angles_semi(m136_path, tmp_path, capsys):
    """The semi witness is the strict LP's optimal vertex: it satisfies the
    angle equations exactly with every entry >= 0, and the payload carries
    no optimum.  A pillow output without a semi-angle structure exits 1."""
    assert main(["--json", "angles", "--semi", m136_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "feasible" and "optimum" not in doc
    m136 = parse_triangulation(fixture_text("m136.tri"))
    witness = AngleVector(doc["witness"])
    assert build_angle_system(m136).satisfied_by(witness)
    assert witness.is_semi()
    pillow, _ = pillow_0_2(m136, 2, (3, 4))
    path = tmp_path / "pillow.json"
    path.write_text(json.dumps(pillow.to_json()))
    assert main(["angles", "--semi", str(path)]) == 1
    assert "semi: infeasible" in capsys.readouterr().out


def test_angles_taut(m136_path, capsys):
    assert main(["angles", "--taut", m136_path]) == 0
    out = capsys.readouterr().out
    assert "taut structures: 4" in out


def test_taut_limit_below_one_is_an_error(m136_path, capsys):
    for limit in ("0", "-1"):
        assert main(["angles", "--taut", "--limit", limit, m136_path]) == 3
        assert capsys.readouterr().err.startswith("error:")
    assert main(["angles", "--taut", "--limit", "1", m136_path]) == 0
    assert "taut structures: 1" in capsys.readouterr().out


def test_pi1_output(fig8_path, capsys):
    assert main(["pi1", "--peripheral", fig8_path]) == 0
    out = capsys.readouterr().out
    assert "3 generators" in out
    assert "peripheral words" in out


def test_shapes_verify(m136_path, shapes_path, capsys):
    assert main(["shapes", "--verify", shapes_path, m136_path]) == 0
    out = capsys.readouterr().out
    assert "passed: True" in out and "[3, 5]" in out


def test_shapes_verify_prints_exact_products(m136_path, tmp_path, capsys):
    """The exact edge and cusp products of a non-solution, constant i on
    m136, as printed, recorded before the fraction-free product kernel."""
    path = tmp_path / "constant_i.txt"
    path.write_text("i\n" * 7)
    assert main(["--json", "shapes", "--verify", str(path), m136_path]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["products"] == ["-1-i", "-1/2-1/2*i", "-2*i", "-1/2+1/2*i",
                               "1", "1", "-1/2-1/2*i"]
    assert doc["completeness"] == ["1/2-1/2*i", "-1/2-1/2*i"]
    assert doc["argument_sums"] == [1.25, 1.25, 3.5, 2.75, 2.0, 2.0, 1.25]
    assert doc["flat"] == [] and doc["passed"] is False


def test_shapes_solve(fig8_path, capsys):
    assert main(["--json", "shapes", "--solve", fig8_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "converged"
    assert abs(doc["shapes"][0][1] - 0.8660254037844386) < 1e-9


def test_move_roundtrip_via_files(fig8_path, tmp_path, capsys):
    out_path = str(tmp_path / "moved.json")
    assert main(["move", "--two-three", "0", "-o", out_path,
                 fig8_path]) == 0
    capsys.readouterr()
    assert main(["validate", out_path]) == 0
    capsys.readouterr()
    assert main(["--json", "info", out_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["tets"] == 3


def test_certify_exit_codes(fig8_path, m136_path, shapes_path, capsys):
    code = main(["certify", "--strong", fig8_path])
    out = capsys.readouterr().out
    assert code == 0
    assert "strict_angle" in out
    assert main(["certify", "--essential", m136_path]) == 0
    capsys.readouterr()
    assert main(["certify", "--strong", "--shapes", shapes_path,
                 m136_path]) == 0
    capsys.readouterr()


def test_certify_budget_and_methods(m136_path, capsys):
    assert main(["certify", "--essential", "--methods", "angle",
                 "--budget", "coset_nodes=10", m136_path]) == 0
    capsys.readouterr()
    assert main(["certify", "--essential", "--budget", "bogus=1",
                 m136_path]) > 2
    capsys.readouterr()


@pytest.mark.parametrize("methods", ["angles", "eometry,grou",
                                     "angle,bogus"])
def test_unknown_methods_are_an_error(fig8_path, capsys, methods):
    assert main(["certify", "--strong", "--methods", methods,
                 fig8_path]) == 3
    assert capsys.readouterr().err.startswith("error:")


def test_seed_accepted_and_ignored(m136_path, capsys):
    assert main(["--seed", "7", "validate", m136_path]) == 0
    capsys.readouterr()


def test_budget_env_override(m136_path, capsys, monkeypatch):
    monkeypatch.setenv("ESSEDGE_BUDGET", "coset_nodes=11")
    assert main(["certify", "--essential", "--methods", "angle",
                 m136_path]) == 0
    capsys.readouterr()
    monkeypatch.setenv("ESSEDGE_BUDGET", "bogus=11")
    assert main(["certify", "--essential", m136_path]) > 2
    capsys.readouterr()


def test_missing_file(capsys):
    assert main(["validate", "/nonexistent/file.tri"]) > 2
    capsys.readouterr()


def test_malformed_gluing_is_an_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"tets": 1, "gluings": [[5, null, null, null]]}')
    assert main(["certify", "--strong", str(path)]) == 3
    assert capsys.readouterr().err.startswith("error:")


def test_json_boolean_for_an_integer_is_an_error(tmp_path, capsys):
    path = tmp_path / "bool.json"
    path.write_text('{"tets": true, "gluings": [[[0, [1, 0, 3, 2]], '
                    '[0, [1, 0, 3, 2]], [0, [1, 0, 3, 2]], '
                    '[0, [1, 0, 3, 2]]]]}')
    assert main(["validate", str(path)]) == 3
    assert capsys.readouterr().err.startswith("error:")


def test_shapes_document_without_shapes_list_is_an_error(m136_path, tmp_path,
                                                          capsys):
    path = tmp_path / "shapes.json"
    path.write_text('{"x": 1}')
    assert main(["certify", "--shapes", str(path), m136_path]) == 3
    assert capsys.readouterr().err.startswith("error:")
    assert main(["shapes", "--verify", str(path), m136_path]) == 3
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("text", ["1/0\ni\n", '{"shapes": ["1/0", "i"]}'])
def test_zero_denominator_in_shapes_is_an_error(fig8_path, tmp_path, capsys,
                                                text):
    path = str(tmp_path / "bad.txt")
    with open(path, "w") as handle:
        handle.write(text)
    for command in (["certify", "--strong", "--shapes", path],
                    ["shapes", "--verify", path]):
        assert main(command + [fig8_path]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "zero denominator" in err


def test_negative_budget_is_an_error(m136_path, capsys):
    assert main(["certify", "--essential", "--methods", "group", "--budget",
                 "coset_nodes=-5,quotient_nodes=-1", m136_path]) == 3
    assert capsys.readouterr().err.startswith("error:")


def test_unwritable_move_output_is_an_error(fig8_path, tmp_path, capsys):
    out_path = str(tmp_path / "missing" / "moved.json")
    assert main(["move", "--two-three", "0", "-o", out_path,
                 fig8_path]) == 3
    assert capsys.readouterr().err.startswith("error:")


def test_move_site_out_of_range_is_an_error(fig8_path, capsys):
    for site in (["--two-three", "999"], ["--two-three=-1"],
                 ["--three-two", "99"], ["--zero-two", "99,0,1"]):
        assert main(["move"] + site + [fig8_path]) == 3
        assert capsys.readouterr().err.startswith("error:")


def test_shapes_for_another_triangulation_are_an_error(fig8_path, tmp_path,
                                                       shapes_path, capsys):
    """Supplied shapes are checked before any tier runs: m136's seven
    shapes do not fit fig8, which a strict angle structure would otherwise
    certify without reading them, and a closed triangulation takes none."""
    q8_path = tmp_path / "q8.tri"
    q8_path.write_text(fixture_text("q8.tri"))
    for path in (fig8_path, str(q8_path)):
        for mode in ("--strong", "--essential"):
            assert main(["certify", mode, "--shapes", shapes_path,
                         path]) == 3
            assert capsys.readouterr().err.startswith("error:")
