"""The command-line surface: reports, exit codes, determinism, caps."""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gridgaps
from gridgaps import DigitalObject, ShapeSpec, census, generate
from gridgaps.cli import (
    EXIT_CAP,
    EXIT_DISAGREEMENT,
    EXIT_INPUT,
    EXIT_OK,
    _count_text,
    _json,
    build_count_report,
    main,
)
from gridgaps.identities import check_object
from gridgaps.objects import CellCensus
from references import counted_reads


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

    def test_hubs_text_lines(self, diag_file, single_file, capsys):
        assert main(["count", diag_file, "--hubs"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[-1] == "hubs: (1,1,0)"
        assert main(["count", single_file, "--hubs"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[-1] == "hubs: none"

    def test_hubs_text_line_of_many_hubs(self):
        # one %d template per row gives what joining each hub's str gave
        obj = generate(ShapeSpec("random", 3, (5, 5, 5), 0.5, 1)).translate((-7, 0, 3))
        report = build_count_report(obj, include_hubs=True)
        shown = " ".join("(" + ",".join(map(str, h)) + ")" for h in report["hubs"])
        assert len(report["hubs"]) > 10 and min(min(report["hubs"])) < 0
        assert _count_text(report).splitlines()[-1] == "hubs: " + shown

    def test_malformed_line_cited(self, tmp_path, capsys):
        path = tmp_path / "bad.dvo"
        path.write_text("dvo 3\n1 2\n", encoding="utf-8")
        assert main(["count", str(path)]) == EXIT_INPUT
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["count", "classify", "verify"])
    def test_non_utf8_byte_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "bad.dvo"
        path.write_bytes(b"dvo 2\n0 0\n1 \xff\n")
        assert main([command, str(path)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 3: byte 0xff is not UTF-8\n"

    def test_leading_byte_order_mark_reports_as_without(self, tmp_path, capsys):
        plain, marked = tmp_path / "plain.dvo", tmp_path / "marked.dvo"
        plain.write_bytes(b"dvo 3\n0 0 0\n1 1 0\n")
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        outs = []
        for path in (plain, marked):
            assert main(["count", str(path), "--json"]) == EXIT_OK
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and '"voxels": 2' in outs[0]

    def test_missing_file(self, tmp_path, capsys):
        assert main(["count", str(tmp_path / "nope.dvo")]) == EXIT_INPUT

    def test_n1_object_reports_census_only(self, tmp_path, capsys):
        path = tmp_path / "line.dvo"
        path.write_text("dvo 1\n0\n1\n5\n", encoding="utf-8")
        assert main(["count", str(path), "--json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["gaps"] is None and report["agreement"] is True

    def test_n1_object_text_and_hubs(self, tmp_path, capsys):
        path = tmp_path / "line.dvo"
        path.write_text("dvo 1\n0\n1\n5\n", encoding="utf-8")
        assert main(["count", str(path)]) == EXIT_OK
        assert "gaps: not defined for n=1\n" in capsys.readouterr().out
        assert main(["count", str(path), "--json", "--hubs"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["hubs"] == []

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

    def test_voxel_cap_is_checked_while_streaming(self, tmp_path, monkeypatch, capsys):
        from gridgaps import cli as cli_mod
        from gridgaps import dvo

        calls = []
        real = dvo.voxel

        def counted(center):
            calls.append(center)
            return real(center)

        monkeypatch.setattr(dvo, "voxel", counted)
        monkeypatch.setattr(cli_mod, "MAX_VOXELS", 3)
        path = tmp_path / "four.dvo"
        path.write_text("dvo 2\n0 0\n# a comment\n1 0\n\n2 0\n", encoding="utf-8")
        assert main(["count", str(path)]) == EXIT_OK  # the cap itself is allowed
        capsys.readouterr()
        calls.clear()
        path.write_text("dvo 2\n0 0\n1 0\n2 0\n3 0\nnot a voxel\n", encoding="utf-8")
        assert main(["count", str(path)]) == EXIT_CAP
        assert len(calls) <= 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: 4 voxels exceed the cap of 3\n"

    def test_voxel_cap_is_checked_on_the_block_route(self, tmp_path, monkeypatch, capsys):
        # a clean file of many blocks is refused at voxel line 4, and read no
        # further than the end of that line's block
        from gridgaps import cli as cli_mod
        from gridgaps import dvo

        monkeypatch.setattr(cli_mod, "MAX_VOXELS", 3)
        block = dvo._BLOCK
        lines = ["dvo 8\n"] + [f"{k} " + "576460752303423488 " * 6 + "-1\n" for k in range(20 * block)]
        path = tmp_path / "many.dvo"
        path.write_text("".join(lines), encoding="utf-8")
        lines_read, bytes_read = counted_reads(monkeypatch)
        assert main(["count", str(path)]) == EXIT_CAP
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: 4 voxels exceed the cap of 3\n"
        assert lines_read[0] <= 4 + block
        head = len("".join(lines[: 4 + block]))
        assert len(bytes_read) == 1 and bytes_read[0] <= head + 64 * 1024
        assert path.stat().st_size > head + 128 * 1024

    def test_count_runs_no_census_and_no_scan(self, tmp_path, monkeypatch, capsys):
        from gridgaps import cli as cli_mod
        from gridgaps import gaps, objects

        path = tmp_path / "obj.dvo"
        path.write_text("dvo 3\n0 0 0\n1 1 0\n1 0 0\n5 5 5\n6 6 5\n", encoding="utf-8")
        runs = ([], ["--json", "--hubs"])
        expected = []
        for flags in runs:
            assert main(["count", str(path), *flags]) == EXIT_OK
            expected.append(capsys.readouterr().out)
        assert json.loads(expected[1])["hubs"] == [[11, 11, 10]]

        def refused(*args):
            raise AssertionError("count ran a census or an is_gap scan")

        for module in (cli_mod, objects):
            monkeypatch.setattr(module, "census", refused)
        monkeypatch.setattr(gaps, "is_gap", refused)
        for flags, out in zip(runs, expected):
            assert main(["count", str(path), *flags]) == EXIT_OK
            assert capsys.readouterr().out == out

    def test_memory_error_exits_4(self, diag_file, monkeypatch, capsys):
        self.assert_out_of_memory("count", "_window_counts", diag_file, monkeypatch, capsys)

    def test_verify_memory_error_exits_4(self, diag_file, monkeypatch, capsys):
        self.assert_out_of_memory("verify", "census", diag_file, monkeypatch, capsys)

    @staticmethod
    def assert_out_of_memory(command, route, path, monkeypatch, capsys):
        from gridgaps import cli as cli_mod

        def exhausted(obj, **options):
            raise MemoryError

        monkeypatch.setattr(cli_mod, route, exhausted)
        assert main([command, path]) == EXIT_CAP
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

    def test_random_needs_a_trial(self, capsys):
        assert main(["verify", "--random", "3", "3", "0.5", "1", "0"]) == EXIT_INPUT
        assert capsys.readouterr().err == "error: --random needs at least one trial\n"

    def test_random_extent_cap(self, capsys):
        assert main(["verify", "--random", "3", "1000", "0.5", "1", "1"]) == EXIT_CAP

    @pytest.mark.parametrize(
        "n, extent, extents",
        [
            pytest.param("2", "-2000", "(-2000, -2000)", id="2--2000"),
            pytest.param("4", "-1000", "(-1000, -1000, -1000, -1000)", id="4--1000"),
            pytest.param("3", "0", "(0, 0, 0)", id="3-0"),
        ],
    )
    def test_random_non_positive_extent_is_an_input_error(self, n, extent, extents, capsys):
        assert main(["verify", "--random", n, extent, "0.5", "1", "1"]) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: extents must be positive, got {extents}\n"

    @pytest.mark.parametrize("args, bad", [("3 3 0.5 1 1e3", "'1e3'"), ("3 x y 1 2", "'x'")])
    def test_random_value_not_a_number_is_named(self, args, bad, capsys):
        # the first value that does not parse is named
        assert main(["verify", "--random", *args.split()]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            "error: --random expects integers n, extent, seed, trials and a float"
            f" density, got {bad}\n"
        )

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

    def test_verify_never_holds_two_censuses(self, monkeypatch):
        from gridgaps import cli as cli_mod

        real = cli_mod.census
        built, overlaps = [], []

        def tracked(obj):
            overlaps.append(sum(ref() is not None for ref in built))
            cen = real(obj)
            built.append(weakref.ref(cen))
            return cen

        monkeypatch.setattr(cli_mod, "census", tracked)
        gc.disable()
        try:
            assert main(["verify", "--random", "3", "3", "0.5", "1", "3"]) == EXIT_OK
        finally:
            gc.enable()
        assert overlaps == [0, 0, 0]

    def test_random_builds_each_trial_just_before_its_census(self, monkeypatch):
        from gridgaps import cli as cli_mod

        events = []
        real_generate, real_census = cli_mod.generate, cli_mod.census

        def generate(spec):
            events.append(f"generate {spec.seed}")
            return real_generate(spec)

        def tracked(obj):
            events.append("census")
            return real_census(obj)

        monkeypatch.setattr(cli_mod, "generate", generate)
        monkeypatch.setattr(cli_mod, "census", tracked)
        assert main(["verify", "--random", "2", "3", "0.5", "5", "3"]) == EXIT_OK
        assert events == ["generate 5", "census", "generate 6", "census", "generate 7", "census"]

    def test_random_last_seed_is_checked_before_any_work(self, monkeypatch, capsys):
        from gridgaps import cli as cli_mod

        built = []
        monkeypatch.setattr(cli_mod, "generate", lambda spec: built.append(spec))
        top = (1 << 64) - 1
        assert main(["verify", "--random", "2", "3", "0.5", str(top), "2"]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: --random's last trial would have seed {top + 1},"
            " past the 64-bit unsigned range\n"
        )
        assert built == []
        monkeypatch.undo()
        assert main(["verify", "--random", "2", "3", "0.5", str(top), "1"]) == EXIT_OK


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

    @pytest.mark.parametrize(
        "flags, message",
        [
            ("--shape box --n 2 --extents 3", "extents length must equal n, got (3,) for n=2"),
            (
                "--shape random --n 2 --extents 2,2 --density 1.5 --seed 1",
                "random shape needs density in [0, 1], got 1.5",
            ),
            (
                "--shape random --n 2 --extents 2,2 --density nan --seed 1",
                "random shape needs density in [0, 1], got nan",
            ),
            (
                "--shape random --n 2 --extents 2,2 --density 0.5 --seed -1",
                "random shape needs a 64-bit unsigned seed, got -1",
            ),
            ("--shape diagonal_pair --n 1", "diagonal_pair needs n >= 2, got n=1"),
        ],
    )
    def test_spec_error_names_the_value(self, flags, message, capsys):
        assert main(["gen", *flags.split()]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_bad_extents(self, capsys):
        assert main(["gen", "--shape", "box", "--n", "2", "--extents", "3,x"]) == EXIT_INPUT
        assert capsys.readouterr().err == "error: bad extents '3,x'\n"

    def test_site_cap(self, capsys):
        code = main(
            ["gen", "--shape", "box", "--n", "2", "--extents", "2000,2000"]
        )
        assert code == EXIT_CAP

    @pytest.mark.parametrize("shape, n", [("single", 9), ("diagonal_pair", 200000)])
    def test_dimension_cap_writes_nothing(self, shape, n, tmp_path, capsys):
        # count, classify and verify refuse n > 8, so gen makes no such file
        out = tmp_path / "big.dvo"
        assert main(["gen", "--shape", shape, "--n", str(n), "--out", str(out)]) == EXIT_CAP
        captured = capsys.readouterr()
        assert captured.err == f"error: n={n} exceeds the full-census cap n <= 8\n"
        assert captured.out == ""
        assert not out.exists()

    def test_out_of_memory_writes_nothing(self, tmp_path, monkeypatch, capsys):
        # the file is opened only once its text is built
        def exhausted(obj, comments=None):
            raise MemoryError

        monkeypatch.setattr(gridgaps.dvo, "dumps", exhausted)
        out = tmp_path / "obj.dvo"
        assert main(["gen", "--shape", "single", "--n", "2", "--out", str(out)]) == EXIT_CAP
        assert capsys.readouterr().err == "error: out of memory; try a smaller object\n"
        assert not out.exists()

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
        proc = _child("-m", "gridgaps", "count", str(path), "--json")
        assert proc.returncode == EXIT_OK
        assert json.loads(proc.stdout)["gaps"]["oracle"] == 1

    @pytest.mark.parametrize("command, imported", [("count", False), ("classify", False), ("verify", True)])
    def test_only_verify_imports_bitmaps(self, command, imported, diag_file):
        # a fresh interpreter, since this one imported every module long ago
        code = "import sys; from gridgaps.cli import main; main(sys.argv[1:]); print('gridgaps.bitmaps' in sys.modules)"
        proc = _child("-c", code, command, diag_file, "--json")
        assert proc.returncode == EXIT_OK
        assert proc.stdout.splitlines()[-1] == str(imported)

    @pytest.mark.parametrize(
        "command, loaded",
        [
            ([], ()),
            (["count", "FILE", "--json"], ("cli", "dvo")),
            (["classify", "FILE", "--json"], ("cli", "dvo")),
            (["gen", "--shape", "single", "--n", "2"], ("cli", "dvo")),
            (["verify", "FILE", "--json"], ("bitmaps", "cli", "dvo")),
        ],
        ids=["import", "count", "classify", "gen", "verify"],
    )
    def test_modules_each_command_loads(self, command, loaded, diag_file):
        # a fresh interpreter: `import gridgaps` alone, or one command through main
        code = (
            "import sys\n"
            "if sys.argv[1:]:\n"
            "    from gridgaps.cli import main\n"
            "    main(sys.argv[1:])\n"
            "else:\n"
            "    import gridgaps\n"
            "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'gridgaps'))"
        )
        args = [diag_file if arg == "FILE" else arg for arg in command]
        proc = _child("-c", code, *args)
        assert proc.returncode == EXIT_OK
        package = ("cells", "counting", "gaps", "identities", "objects", "shapes")
        expected = ["gridgaps"] + sorted(f"gridgaps.{m}" for m in package + loaded)
        assert proc.stdout.splitlines()[-1].split() == expected


#: values of every kind JSON takes: int rows of equal and unequal length,
#: with bools among the ints, ints past 64 bits, and any text as keys
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(2**70), 2**70)
    | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4)
    | st.integers(0, 3).flatmap(
        lambda m: st.lists(
            st.lists(st.integers() | st.booleans(), min_size=m, max_size=m), max_size=4
        )
    ),
    max_leaves=30,
)

FIXED_JSON = {
    "nested": {"a": {}, "b": [], "c": {"d": [[], {}, [[]]], "e": {"f": [1, [2]]}}},
    "unequal-rows": [[1, 2], [3], [4, 5, 6], []],
    "bools": {"rows": [[True, 1], [0, False]], "flat": [True, 1, 0]},
    "big-ints": [[-1, 2**64 + 1], [-(2**70), 0], [2**64, -(2**64)]],
    "none": {"gaps": None, "rows": [[None, 1], [2, 3]]},
    "strings": {
        'q"uote': "back\\slash",
        "ctl\x00\x1f\n\t\u2028": "naïve ∑ \U0001f600",
        "": "",
    },
}


def assert_writes_as_json_dumps(value: object) -> None:
    # beside each case sits a bool in a row of ints, which ``%d`` would
    # print as 1: a writer that took bools for ints fails every case
    flagged = {"case": value, "flagged": [[2, True, -3], [False, 0, 1]]}
    assert _json(flagged) == json.dumps(flagged, indent=2, sort_keys=True)


class TestJsonWriter:
    """``_json`` against ``json.dumps(value, indent=2, sort_keys=True)``."""

    @given(JSON_VALUES)
    @settings(max_examples=300, deadline=None)
    def test_matches_json_dumps(self, value):
        assert _json(value) == json.dumps(value, indent=2, sort_keys=True)

    @pytest.mark.parametrize("case", list(FIXED_JSON))
    def test_fixed_cases(self, case):
        assert_writes_as_json_dumps(FIXED_JSON[case])

    @pytest.mark.parametrize("command", ["count", "classify", "verify"])
    def test_command_payloads(self, command, tmp_path, monkeypatch):
        from gridgaps import cli as cli_mod
        from gridgaps import dvo

        obj = generate(ShapeSpec("random", 3, (4, 4, 4), 0.5, 1))
        path = tmp_path / "r3.dvo"
        dvo.dump(obj, str(path))
        payloads = []
        monkeypatch.setattr(cli_mod, "_emit", lambda payload, as_json, text: payloads.append(payload))
        assert main([command, str(path), "--json", *(["--hubs"] if command == "count" else [])]) == EXIT_OK
        if command == "count":
            assert len(payloads[0]["hubs"]) > 1
        assert_writes_as_json_dumps(payloads[0])

    def test_count_hubs_are_int_rows(self, diag_file, capsys):
        assert main(["count", diag_file, "--json", "--hubs"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
        assert '"hubs": [\n    [\n      1,\n      1,\n      0\n    ]\n  ],' in out


def _child(*args: str) -> subprocess.CompletedProcess:
    """Run Python with ``args`` in a child process that imports the package
    this process imported, from its source root."""
    paths = [str(Path(gridgaps.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))},
    )


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

    @pytest.mark.parametrize("command", ["count", "classify", "verify"])
    def test_text_report_is_built_only_without_json(self, command, diag_file, monkeypatch, capsys):
        from gridgaps import cli as cli_mod

        built = []
        real = cli_mod._emit

        def emit(payload, as_json, text):
            real(payload, as_json, lambda: built.append(command) or text())

        monkeypatch.setattr(cli_mod, "_emit", emit)
        assert main([command, diag_file, "--json"]) == EXIT_OK
        assert built == [] and json.loads(capsys.readouterr().out)
        assert main([command, diag_file]) == EXIT_OK
        assert built == [command] and capsys.readouterr().out

    def test_disagreement_is_impossible_on_valid_engine(self):
        # the agreement flag reflects the three counters; on a healthy build
        # it is always true, and the CLI would exit 3 otherwise
        obj = DigitalObject.from_centers(3, [(0, 0, 0), (1, 1, 1), (1, 1, 0)])
        report = build_count_report(obj)
        assert report["agreement"] is True
        assert len(set(report["gaps"].values())) == 1
