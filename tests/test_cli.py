"""Command-line interface: subcommands, JSON round-trips, figures, exit codes."""

import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from vortexsym import cli, targets


GOLDEN = Path(__file__).parent / "golden" / "all_check_appendix.json"
TRAPEZOID_GOLDEN = Path(__file__).parent / "golden" / "trapezoid.json"
GROEBNER_IN = Path(__file__).parent / "golden" / "groebner_in.txt"
FIGURES = Path(__file__).parent / "golden" / "figures"
FROZEN = Path(__file__).parent.parent / "benchmarks" / "frozen.json"


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGroebnerCommand:
    def test_plane_paraboloid(self, tmp_path, capsys):
        infile = tmp_path / "system.txt"
        infile.write_text("x - y - z + 2\nx^2 + y^2 - z\n")
        code, out, _ = run_cli(
            ["groebner", "--in", str(infile), "--vars", "x,y,z", "--order", "lex"],
            capsys,
        )
        assert code == 0
        assert "x - y - z + 2" in out
        assert "2*y^2 + 2*y*z - 4*y + z^2 - 5*z + 4" in out

    def test_elimination_flag(self, tmp_path, capsys):
        infile = tmp_path / "system.txt"
        infile.write_text("x - y - z + 2\nx^2 + y^2 - z\n")
        outfile = tmp_path / "basis.json"
        code, out, _ = run_cli(
            [
                "groebner",
                "--in",
                str(infile),
                "--vars",
                "x,y,z",
                "--eliminate",
                "z",
                "--json",
                str(outfile),
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(outfile.read_text())
        assert doc["eliminated"] == ["z"]
        assert doc["basis"] == ["x^2 + y^2 - x + y - 2"]

    def test_elimination_reports_the_order_of_its_basis(self, tmp_path, capsys):
        # --eliminate ignores --order: the basis is grevlex on the kept
        # variables whatever --order says
        infile = tmp_path / "system.txt"
        infile.write_text("x - y - z + 2\nx^2 + y^2 - z\n")
        for order in ("lex", "grevlex"):
            code, out, _ = run_cli(
                [
                    "groebner", "--in", str(infile), "--vars", "x,y,z",
                    "--order", order, "--eliminate", "x",
                ],
                capsys,
            )
            assert code == 0
            doc = json.loads(out[out.index("{"):])
            assert doc["order"] == "grevlex"
            assert doc["basis"] == ["2*y^2 + 2*y*z + z^2 - 4*y - 5*z + 4"]

    def test_malformed_polynomial_exits_nonzero(self, tmp_path, capsys):
        infile = tmp_path / "bad.txt"
        infile.write_text("x ++* 2y(\n")
        code, _, err = run_cli(
            ["groebner", "--in", str(infile), "--vars", "x,y"], capsys
        )
        assert code == 2
        assert "malformed" in err

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["groebner", "--in", str(tmp_path / "nope.txt"), "--vars", "x"], capsys
        )
        assert code == 2

    def test_unknown_eliminate_variable(self, tmp_path, capsys):
        infile = tmp_path / "system.txt"
        infile.write_text("x + y\n")
        code, _, err = run_cli(
            ["groebner", "--in", str(infile), "--vars", "x,y", "--eliminate", "w"],
            capsys,
        )
        assert code == 2

    def test_repeated_eliminate_variable(self, tmp_path, capsys):
        infile = tmp_path / "system.txt"
        infile.write_text("x + y + z\n")
        code, out, err = run_cli(
            ["groebner", "--in", str(infile), "--vars", "x,y,z", "--eliminate", "z,z"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err == "error: cannot eliminate variable 'z' twice\n"

    @pytest.mark.parametrize(
        "system, flags, message",
        [
            ("0\nx - x\n", [], "an ideal needs at least one nonzero generator"),
            ("x^2 - y\nx*y - 1\n", ["--order", "lex", "--eliminate", ","],
             "--eliminate names no variable"),
        ],
        ids=["zero-generators", "eliminate-no-names"],
    )
    def test_input_that_names_no_basis_is_a_usage_error(
        self, system, flags, message, tmp_path, capsys
    ):
        # exit 1 means a failed oracle check, so these end in one error line
        # and exit 2, not a traceback or a basis the user did not ask for
        infile = tmp_path / "system.txt"
        infile.write_text(system)
        code, out, err = run_cli(
            ["groebner", "--in", str(infile), "--vars", "x,y", *flags], capsys
        )
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "flags, golden",
        [
            (["--order", "lex"], "groebner_lex.json"),
            (["--order", "grevlex"], "groebner_grevlex.json"),
            (["--eliminate", "x"], "groebner_eliminate_x.json"),
            (["--eliminate", "z,x"], "groebner_eliminate_z_x.json"),
        ],
    )
    def test_matches_its_golden(self, flags, golden, tmp_path, capsys):
        outfile = tmp_path / "basis.json"
        code, _, _ = run_cli(
            ["groebner", "--in", str(GROEBNER_IN), "--vars", "x,y,z", *flags,
             "--json", str(outfile)],
            capsys,
        )
        assert code == 0
        assert outfile.read_text() == (GROEBNER_IN.parent / golden).read_text()

    def test_exponent_overflow_exits_cleanly(self, tmp_path, capsys):
        infile = tmp_path / "system.txt"
        infile.write_text("x^40000 - y\n")
        code, _, err = run_cli(
            ["groebner", "--in", str(infile), "--vars", "x,y"], capsys
        )
        assert code == 2
        assert "exponent" in err


class TestScenarioCommands:
    def test_square_json_roundtrip(self, tmp_path, capsys):
        outfile = tmp_path / "square.json"
        code, out, _ = run_cli(["square", "--json", str(outfile)], capsys)
        assert code == 0
        assert "never linearly stable" in out
        raw = outfile.read_text()
        doc = json.loads(raw)
        assert doc["scenario"] == "square"
        assert doc["conditions"] == ["mu1 - mu3", "mu2 - mu4"]
        # byte-identical round trip through the canonical serialiser
        assert cli.render_json(json.loads(raw)) == raw

    def test_kite_with_mu_and_svg(self, tmp_path, capsys):
        svgdir = tmp_path / "figs"
        code, out, _ = run_cli(
            ["kite", "--mu", "1,1,1,1", "--svg", str(svgdir), "--eps", "1e-9"],
            capsys,
        )
        assert code == 0
        svg = (svgdir / "kite.svg").read_text()
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        circles = [e for e in root.iter() if e.tag.endswith("circle")]
        assert len(circles) == 6  # unit circle + centre + four vortices

    @pytest.mark.parametrize(
        "argv",
        [
            ["square", "--eps", "1e-9"],
            ["kite", "--check-appendix"],
            ["all", "--mu", "1,1,1,1"],
            ["trapezoid", "--mu", "1,1,1,1"],
        ],
    )
    def test_options_a_scenario_does_not_read_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2

    def test_rejects_zero_circulation(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["kite", "--mu", "1,0,1,0"])
        assert err.value.code == 2

    def test_corrupted_reference_fails(self, capsys, monkeypatch):
        # the exit-code contract: a failing oracle check turns into exit 1
        monkeypatch.setattr(targets, "SQUARE_CONDITIONS", ("mu1 - mu2", "mu3 - mu4"))
        code, out, _ = run_cli(["square"], capsys)
        assert code == 1
        assert "[FAIL]" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["kite", "--json", "{missing}/kite.json"],
            ["square", "--svg", "{file}/figs"],
            ["groebner", "--in", "{system}", "--vars", "x,y", "--json", "{missing}/basis.json"],
        ],
        ids=["kite-json", "square-svg", "groebner-json"],
    )
    def test_unwritable_output_is_a_usage_error(self, argv, tmp_path, capsys):
        # exit 1 means a failed oracle check, so an output path that cannot
        # be written ends in one error line and exit 2, not a traceback
        system = tmp_path / "system.txt"
        system.write_text("x + y\n")
        blocker = tmp_path / "file"
        blocker.write_text("")
        paths = {"missing": tmp_path / "missing", "file": blocker, "system": system}
        code, _, err = run_cli([arg.format(**paths) for arg in argv], capsys)
        assert code == 2
        assert err.startswith("error: cannot write ") and err.count("\n") == 1


class TestSvg:
    def test_all_figures_match_their_golden_files(self, tmp_path, capsys):
        code, _, _ = run_cli(["all", "--svg", str(tmp_path)], capsys)
        assert code == 0
        goldens = sorted(FIGURES.iterdir())
        assert sorted(p.name for p in tmp_path.iterdir()) == [p.name for p in goldens]
        for golden in goldens:
            assert (tmp_path / golden.name).read_bytes() == golden.read_bytes(), golden.name

    def test_square_figure_points_on_axes(self, tmp_path):
        path = tmp_path / "square.svg"
        cli.emit_svg((0.0, math.pi / 2, math.pi, 3 * math.pi / 2), str(path))
        body = path.read_text()
        assert "1.00000,-0.00000" in body or "1.00000,0.00000" in body
        root = ET.fromstring(body)
        polygons = [e for e in root.iter() if e.tag.endswith("polygon")]
        assert len(polygons) == 1

    def test_trapezoid_figure(self, tmp_path):
        from vortexsym.trigvortex import TRAPEZOID3

        thetas = TRAPEZOID3.angles(0.687197)
        path = tmp_path / "trapezoid.svg"
        cli.emit_svg(thetas, str(path))
        assert path.exists()
        ET.fromstring(path.read_text())

    def test_kite_figure_reflection_symmetry(self, tmp_path):
        from vortexsym.trigvortex import KITE

        thetas = KITE.angles(2 * math.pi / 3)
        path = tmp_path / "kite.svg"
        cli.emit_svg(thetas, str(path))
        body = path.read_text()
        root = ET.fromstring(body)
        ys = []
        for e in root.iter():
            if e.tag.endswith("circle") and e.get("r") == "0.045":
                ys.append(float(e.get("cy")))
        # vortices 2 and 4 mirror across the horizontal axis
        assert any(abs(a + b) < 1e-9 and abs(a) > 0.1 for a in ys for b in ys)


def test_parse_fraction_forms():
    from fractions import Fraction

    assert cli._parse_fraction("3/2") == Fraction(3, 2)
    assert cli._parse_fraction("1e-9") == Fraction(1, 10**9)
    assert cli._parse_fraction("-2.5") == Fraction(-5, 2)


@pytest.mark.parametrize(
    "argv",
    [
        ["kite", "--mu", "1/0,1,1,1"],
        ["kite", "--mu", "abc,1,1,1"],
        ["kite", "--mu", "inf,1,1,1"],
        ["kite", "--mu", "nan,1,1,1"],
        ["kite", "--eps", "abc"],
        ["kite", "--eps", "inf"],
        ["kite", "--eps", "1/0"],
    ],
)
def test_malformed_rational_is_a_usage_error(argv, capsys):
    # exit 1 means a failed oracle check; a bad number is exit 2
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2
    assert "is not a finite rational" in capsys.readouterr().err


def test_kite_mismatched_pair_exits_cleanly(capsys):
    code = cli.main(["kite", "--mu", "1,2,1,3"])
    captured = capsys.readouterr()
    assert code == 2
    assert "mu2 == mu4" in captured.err


def test_all_report_matches_golden_file(
    kite_report, rectangle_report, square_report, trapezoid_report
):
    # The session reports use the CLI's default eps, so together they are
    # the report of ``vortexsym all --check-appendix --json``.
    reports = {
        "kite": kite_report,
        "rectangle": rectangle_report,
        "square": square_report,
        "trapezoid": trapezoid_report,
    }
    document = {"scenarios": [reports[name].to_document() for name in cli.SCENARIO_ORDER]}
    assert cli.render_json(document) == GOLDEN.read_text()


def test_all_report_keeps_the_benchmark_contract(
    kite_report, rectangle_report, square_report, trapezoid_report
):
    # The benchmark's classify workload reads every check named in its
    # frozen file, and at least its count of oracle lines; a check that
    # disappears from the report fails there, so it fails here first.
    frozen = json.loads(FROZEN.read_text())
    reports = {
        "kite": kite_report,
        "rectangle": rectangle_report,
        "square": square_report,
        "trapezoid": trapezoid_report,
    }
    assert set(frozen["classify"]) == set(reports)
    for name, contract in frozen["classify"].items():
        statuses = {c.name: c.status for c in reports[name].oracle_checks}
        assert {check: statuses.get(check) for check in contract["oracle_checks"]} == {
            check: "pass" for check in contract["oracle_checks"]
        }, name
    total = sum(len(report.oracle_checks) for report in reports.values())
    assert total >= frozen["classify_oracle_lines"]


def test_trapezoid_report_without_appendix_matches_golden_file(tmp_path, capsys):
    # ``vortexsym trapezoid --json`` runs without the appendix checks, the
    # path that skips the annihilating lines
    path = tmp_path / "trapezoid.json"
    code, out, _ = run_cli(["trapezoid", "--json", str(path)], capsys)
    assert code == 0
    assert "table_of_lines" not in out
    assert path.read_text() == TRAPEZOID_GOLDEN.read_text()
