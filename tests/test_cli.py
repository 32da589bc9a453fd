"""The command-line surface: reports, exit codes, determinism, caps."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from gridgaps import DigitalObject, census
from gridgaps.cli import (
    EXIT_CAP,
    EXIT_DISAGREEMENT,
    EXIT_INPUT,
    EXIT_OK,
    build_count_report,
    main,
)
from gridgaps.identities import check_object
from gridgaps.objects import CellCensus


@pytest.fixture
def diag_file(tmp_path):
    path = tmp_path / "diag.dvo"
    path.write_text("dvo 3\n0 0 0\n1 1 0\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def single_file(tmp_path):
    path = tmp_path / "single.dvo"
    path.write_text("dvo 3\n0 0 0\n", encoding="utf-8")
    return str(path)


class TestCount:
    def test_diagonal_pair(self, diag_file, capsys):
        assert main(["count", diag_file, "--json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["n"] == 3 and report["voxels"] == 2
        assert report["gaps"] == {"oracle": 1, "formula": 1, "block_formula": 1}
        assert report["agreement"] is True
        assert report["census"]["c"] == [14, 23, 12, 2]
        assert report["census"]["c_star"] == [14, 23, 12, 0]
        assert report["census"]["beta"] == report["census"]["c_prime"]

    def test_single_voxel_all_zero(self, single_file, capsys):
        assert main(["count", single_file, "--json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["gaps"] == {"oracle": 0, "formula": 0, "block_formula": 0}

    def test_hubs_flag(self, diag_file, capsys):
        assert main(["count", diag_file, "--json", "--hubs"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["hubs"] == [[1, 1, 0]]

    def test_text_output(self, diag_file, capsys):
        assert main(["count", diag_file]) == EXIT_OK
        out = capsys.readouterr().out
        assert "agreement=yes" in out

    def test_malformed_line_cited(self, tmp_path, capsys):
        path = tmp_path / "bad.dvo"
        path.write_text("dvo 3\n1 2\n", encoding="utf-8")
        assert main(["count", str(path)]) == EXIT_INPUT
        assert "line 2" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["count", str(tmp_path / "nope.dvo")]) == EXIT_INPUT

    def test_n1_object_reports_census_only(self, tmp_path, capsys):
        path = tmp_path / "line.dvo"
        path.write_text("dvo 1\n0\n1\n5\n", encoding="utf-8")
        assert main(["count", str(path), "--json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["gaps"] is None and report["agreement"] is True

    def test_dimension_cap(self, tmp_path, capsys):
        path = tmp_path / "big.dvo"
        path.write_text("dvo 9\n" + " ".join(["0"] * 9) + "\n", encoding="utf-8")
        assert main(["count", str(path)]) == EXIT_CAP

    def test_dimension_cap_is_checked_at_the_header(self, tmp_path, monkeypatch, capsys):
        from gridgaps import dvo

        calls = []
        real = dvo.voxel

        def counted(center):
            calls.append(center)
            return real(center)

        monkeypatch.setattr(dvo, "voxel", counted)
        path = tmp_path / "big.dvo"
        path.write_text(
            "dvo 9\n" + "".join(f"{k} 0 0 0 0 0 0 0 0\n" for k in range(3)),
            encoding="utf-8",
        )
        assert main(["count", str(path)]) == EXIT_CAP
        assert calls == []
        assert capsys.readouterr().err == "error: n=9 exceeds the full-census cap n <= 8\n"

    def test_memory_error_exits_4(self, diag_file, monkeypatch, capsys):
        from gridgaps import cli as cli_mod

        def exhausted(obj):
            raise MemoryError

        monkeypatch.setattr(cli_mod, "census", exhausted)
        assert main(["count", diag_file]) == EXIT_CAP
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_json_bytes_stable(self, diag_file, capsys):
        main(["count", diag_file, "--json", "--hubs"])
        first = capsys.readouterr().out
        main(["count", diag_file, "--json", "--hubs"])
        assert capsys.readouterr().out == first


class TestClassify:
    def test_square(self, tmp_path, capsys):
        path = tmp_path / "sq.dvo"
        path.write_text("dvo 2\n0 0\n0 1\n1 0\n1 1\n", encoding="utf-8")
        assert main(["classify", str(path), "--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["total"] == 9
        assert payload["histogram"] == {
            "simple": 4,
            "facet_pair_block": 4,
            "gap_tandem": 0,
            "l_block": 0,
            "full_block": 1,
        }

    def test_single_voxel(self, single_file, capsys):
        assert main(["classify", single_file, "--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["histogram"]["simple"] == 12
        assert payload["total"] == 12

    def test_n1_rejected(self, tmp_path, capsys):
        path = tmp_path / "line.dvo"
        path.write_text("dvo 1\n0\n", encoding="utf-8")
        assert main(["classify", str(path)]) == EXIT_INPUT


class TestVerify:
    def test_fixture_file(self, diag_file, capsys):
        assert main(["verify", diag_file]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS gap-triple-agreement" in out
        assert "FAIL" not in out

    def test_random_trials(self, capsys):
        assert main(["verify", "--random", "3", "3", "0.5", "42", "25"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "all identities hold on 25 object(s)" in out

    def test_random_json(self, capsys):
        assert main(["verify", "--random", "2", "4", "0.5", "7", "10", "--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert payload["objects"] == 10
        assert set(payload["identities"]) == {
            "census-partition",
            "facet-count",
            "border-sum",
            "hub-nub-degree",
            "gap-triple-agreement",
            "detector-equivalence",
            "classification-totality",
            "free-face-heredity",
        }

    def test_needs_file_or_random(self, capsys):
        assert main(["verify"]) == EXIT_INPUT

    def test_bad_random_values(self, capsys):
        assert main(["verify", "--random", "3", "3", "x", "1", "5"]) == EXIT_INPUT

    def test_random_extent_cap(self, capsys):
        assert main(["verify", "--random", "3", "1000", "0.5", "1", "1"]) == EXIT_CAP

    @pytest.mark.parametrize("n, extent", [("2", "-2000"), ("4", "-1000"), ("3", "0")])
    def test_random_non_positive_extent_is_an_input_error(self, n, extent, capsys):
        assert main(["verify", "--random", n, extent, "0.5", "1", "1"]) == EXIT_INPUT
        assert capsys.readouterr().err == "error: extents must be positive\n"

    def test_random_dimension_cap_exits_4(self, capsys):
        assert main(["verify", "--random", "9", "-2", "0.5", "1", "1"]) == EXIT_CAP

    def test_dvo_integer_format_is_an_input_error(self, tmp_path, capsys):
        for token in ("1_0", "\u0663"):
            path = tmp_path / "bad.dvo"
            path.write_text(f"dvo 2\n10 0\n{token} 0\n", encoding="utf-8")
            assert main(["count", str(path)]) == EXIT_INPUT
            assert capsys.readouterr().err.startswith("error: line 3: non-integer")

    def test_file_and_random_conflict(self, diag_file, capsys):
        code = main(["verify", diag_file, "--random", "2", "3", "0.5", "1", "2"])
        assert code == EXIT_INPUT

    def test_identity_failure_exits_3(self, diag_file, monkeypatch, capsys):
        from gridgaps import cli as cli_mod
        from gridgaps.identities import IdentityResult

        def rigged(obj, cen):
            return IdentityResult("facet-count", False, 1, "injected failure")

        monkeypatch.setattr(cli_mod, "ALL_IDENTITIES", (rigged,))
        assert main(["verify", diag_file]) == EXIT_DISAGREEMENT
        out = capsys.readouterr().out
        assert "FAIL facet-count" in out and "injected failure" in out

    def test_corrupted_census_is_caught(self):
        # the documented test hook: inject a doctored census
        obj = DigitalObject.from_centers(3, [(0, 0, 0), (1, 1, 0)])
        cen = census(obj)
        broken = CellCensus(
            n=cen.n,
            c=cen.c,
            c_star=tuple(
                v + (1 if i == 2 else 0) for i, v in enumerate(cen.c_star)
            ),
            c_prime=cen.c_prime,
            cells_by_dim=cen.cells_by_dim,
            free_by_dim=cen.free_by_dim,
        )
        results = {r.name: r for r in check_object(obj, broken)}
        assert not results["census-partition"].passed
        assert not results["gap-triple-agreement"].passed
        assert results["census-partition"].witness


class TestGen:
    def test_round_trip_through_count(self, tmp_path, capsys):
        out = tmp_path / "obj.dvo"
        assert (
            main(
                [
                    "gen", "--shape", "checkerboard", "--n", "2",
                    "--extents", "3,3", "--out", str(out),
                ]
            )
            == EXIT_OK
        )
        assert main(["count", str(out), "--json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["gaps"]["oracle"] == 4

    def test_deterministic_bytes(self, tmp_path):
        args = [
            "gen", "--shape", "random", "--n", "4", "--extents", "3,3,3,3",
            "--density", "0.5", "--seed", "7",
        ]
        a, b = tmp_path / "a.dvo", tmp_path / "b.dvo"
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_default(self, capsys):
        assert main(["gen", "--shape", "single", "--n", "2"]) == EXIT_OK
        assert capsys.readouterr().out == "dvo 2\n# shape=single n=2\n0 0\n"

    def test_invalid_spec(self, capsys):
        assert main(["gen", "--shape", "box", "--n", "2"]) == EXIT_INPUT
        assert main(["gen", "--shape", "bogus", "--n", "2"]) == EXIT_INPUT

    def test_site_cap(self, capsys):
        code = main(
            ["gen", "--shape", "box", "--n", "2", "--extents", "2000,2000"]
        )
        assert code == EXIT_CAP

    @pytest.mark.parametrize(
        "extra",
        [["--density", "0.3"], ["--seed", "5"], ["--extents", "2,2"]],
    )
    def test_fields_the_shape_ignores_are_rejected(self, extra, capsys):
        assert main(["gen", "--shape", "single", "--n", "2"] + extra) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


class TestUsageErrors:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == EXIT_INPUT

    def test_module_entry_point(self, tmp_path):
        path = tmp_path / "obj.dvo"
        path.write_text("dvo 2\n0 0\n1 1\n", encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "gridgaps", "count", str(path), "--json"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_OK
        assert json.loads(proc.stdout)["gaps"]["oracle"] == 1


class TestReportBuilder:
    def test_count_disagreement_exits_3(self, diag_file, monkeypatch, capsys):
        # a rigged counter forces the only situation that may exit 3
        from gridgaps import cli as cli_mod

        monkeypatch.setattr(cli_mod, "count_gaps_formula", lambda obj, cen=None: 99)
        assert main(["count", diag_file]) == EXIT_DISAGREEMENT
        assert "agreement=NO" in capsys.readouterr().out

    def test_count_evaluates_each_formula_once(self, diag_file, monkeypatch):
        from gridgaps import cli as cli_mod
        from gridgaps import gaps as gaps_mod

        calls = []
        for name in ("count_gaps_formula", "count_gaps_block_formula"):
            def counted(obj, cen=None, real=getattr(gaps_mod, name), name=name):
                calls.append(name)
                return real(obj, cen)

            for module in (cli_mod, gaps_mod):
                monkeypatch.setattr(module, name, counted)
        assert main(["count", diag_file, "--json", "--hubs"]) == EXIT_OK
        assert sorted(calls) == ["count_gaps_block_formula", "count_gaps_formula"]

    def test_disagreement_is_impossible_on_valid_engine(self):
        # the agreement flag reflects the three counters; on a healthy build
        # it is always true, and the CLI would exit 3 otherwise
        obj = DigitalObject.from_centers(3, [(0, 0, 0), (1, 1, 1), (1, 1, 0)])
        report = build_count_report(obj)
        assert report["agreement"] is True
        assert len(set(report["gaps"].values())) == 1
