import csv
import importlib
import importlib.util
import json
import os
import pkgutil
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import cord_oracle
import dga_oracle
import pytest

import stringhom
from stringhom import chords, cli, cord, free_dga, specseq

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestDgaHomology:
    def test_builtin_hopf_h0(self, tmp_path, capsys):
        code, out, _ = run(
            [
                "dga-homology",
                "--builtin", "hopf",
                "--d", "2",
                "--a", "4.5",
                "--h0",
                "--wmax", "4",
                "--outdir", str(tmp_path),
                "--json", str(tmp_path / "res.json"),
            ],
            capsys,
        )
        assert code == 0
        assert "[1, 2, 2, 2, 2]" in out
        data = json.loads((tmp_path / "res.json").read_text())
        assert data["h0_by_wordcount"] == [1, 2, 2, 2, 2]
        manifest = json.loads((tmp_path / "manifest_dga_homology.json").read_text())
        assert manifest["command"] == "dga-homology"
        assert "wall_time_s" in manifest

    def test_builtin_unlink_degree(self, tmp_path, capsys):
        code, out, _ = run(
            ["dga-homology", "--builtin", "unlink", "--d", "3", "--z2star", "3",
             "--degree", "2", "--a", "8.5", "--outdir", str(tmp_path)],
            capsys,
        )
        assert code == 0
        assert "H_2 (a=17/2) dim = 4" in out

    def test_spec_file_unit_only(self, tmp_path, capsys):
        spec = tmp_path / "my.json"
        free_dga.save_dga(free_dga.build_unlink(2, 3), spec)
        code, out, _ = run(
            ["dga-homology", "--spec", str(spec), "--degree", "0", "--a", "1.5",
             "--outdir", str(tmp_path)],
            capsys,
        )
        assert code == 0
        assert "H_0 (a=3/2) dim = 1" in out

    def test_window_collision_exit_2(self, tmp_path, capsys):
        code, _, err = run(
            ["dga-homology", "--builtin", "hopf", "--a", "4", "--degree", "0",
             "--outdir", str(tmp_path)],
            capsys,
        )
        assert code == 2
        assert "window" in err

    def test_invalid_dga_exit_3(self, tmp_path, capsys):
        spec = tmp_path / "broken.json"
        data = free_dga.dga_to_json_dict(free_dga.build_hopf(2))
        data["diff"]["d1_00"] = [{"coeff": "1", "word": ["c1_00"]}]
        spec.write_text(json.dumps(data))
        code, _, err = run(
            ["dga-homology", "--spec", str(spec), "--degree", "0",
             "--outdir", str(tmp_path)],
            capsys,
        )
        assert code == 3
        assert "invalid DGA" in err

    def test_outdir_env_var(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("STRINGHOM_OUTDIR", str(tmp_path / "envout"))
        code, _, _ = run(
            ["dga-homology", "--builtin", "hopf", "--a", "3.5", "--degree", "0"],
            capsys,
        )
        assert code == 0
        assert (tmp_path / "envout" / "manifest_dga_homology.json").exists()

    def test_deterministic_output(self, tmp_path, capsys):
        argv = ["dga-homology", "--builtin", "hopf", "--a", "4.5", "--h0",
                "--wmax", "3", "--outdir", str(tmp_path)]
        _, out1, _ = run(argv + ["--json", str(tmp_path / "a.json")], capsys)
        _, out2, _ = run(argv + ["--json", str(tmp_path / "b.json")], capsys)
        assert out1 == out2
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


class TestDistinguish:
    def test_d2(self, tmp_path, capsys):
        code, out, _ = run(["distinguish", "--d", "2", "--outdir", str(tmp_path)], capsys)
        assert code == 0
        assert "DISTINCT" in out
        assert "w = 2" in out

    @pytest.mark.parametrize("d,degree", [(3, 2), (5, 6)])
    def test_higher_d(self, d, degree, tmp_path, capsys):
        code, out, _ = run(
            ["distinguish", "--d", str(d), "--outdir", str(tmp_path)], capsys
        )
        assert code == 0
        assert f"degree {degree}: linked pair dim = 2, spaced pair dim = 4" in out
        assert "DISTINCT" in out


class TestCord:
    def test_unknot_dims(self, tmp_path, capsys):
        code, out, _ = run(
            ["cord", "--builtin", "unknot", "--wmax", "3", "--outdir", str(tmp_path)],
            capsys,
        )
        assert code == 0
        assert "[1, 0, 0, 0]" in out

    def test_hopf_compare_match(self, tmp_path, capsys):
        code, out, _ = run(
            ["cord", "--builtin", "hopf_link", "--wmax", "4", "--compare",
             "--csv", str(tmp_path / "cmp.csv"), "--outdir", str(tmp_path)],
            capsys,
        )
        assert code == 0
        assert "MATCH" in out
        lines = (tmp_path / "cmp.csv").read_text().strip().splitlines()
        assert lines[0] == "w,cord_dim,h0_dim,match"
        assert lines[1] == "0,1,1,1"

    def test_unlink2_compare_match(self, tmp_path, capsys):
        code, out, _ = run(
            ["cord", "--builtin", "unlink2", "--wmax", "3", "--compare",
             "--outdir", str(tmp_path)],
            capsys,
        )
        assert code == 0
        assert "MATCH" in out

    @pytest.mark.parametrize("name", ["hopf_link", "unlink2"])
    def test_compare_computes_each_truncation_once(self, name, tmp_path, capsys, monkeypatch):
        seen = []
        slices = cord.quotient_dims_by_wordcount

        def counted(pres, wmax):
            seen.append(pres)
            return slices(pres, wmax)

        monkeypatch.setattr(cord, "quotient_dims_by_wordcount", counted)
        code, out, _ = run(["cord", "--builtin", name, "--compare", "--outdir", str(tmp_path)],
                           capsys)
        assert code == 0 and "MATCH" in out
        # kmax for the printed slices, truncation check and comparison; kmax + 2 once.
        assert len(seen) == 2

    @pytest.mark.parametrize(
        "name,build,a",
        [("hopf_link", lambda: free_dga.build_hopf(2), Fraction(13, 2)),
         ("unlink2", lambda: free_dga.build_unlink(2, 3), Fraction(41, 2))],
        ids=["hopf_link", "unlink2"],
    )
    def test_compare_rows_match_independent_routes(self, name, build, a, tmp_path, capsys):
        # Both columns of the comparison run free_dga.h0_dims_by_wordcount, so
        # MATCH checks the presentation against the Legendrian DGA, not one
        # engine against another.  Each column is checked here by a route that
        # shares no DGA, window or segment code: the cord slices by the padded
        # echelon, the H_0 slices (the CLI's DGA and window) by enumerated bases.
        path = tmp_path / "cmp.json"
        code, _, _ = run(["cord", "--builtin", name, "--wmax", "4", "--compare",
                          "--json", str(path), "--outdir", str(tmp_path)], capsys)
        assert code == 0
        rows = json.loads(path.read_text())["comparison"]
        want_cord = cord_oracle.padded_quotient_dims(cord.builtin_presentation(name, 2), 4)
        dga, window = build(), free_dga.LengthWindow(a)
        bases = [dga_oracle.words_of_degree(dga, window, p) for p in (0, 1)]
        want_h0 = dga_oracle.h0_dims_by_wordcount(dga, *bases, 4)
        assert [r["cord_dim"] for r in rows] == want_cord
        assert [r["h0_dim"] for r in rows] == want_h0
        assert [r["w"] for r in rows] == list(range(5))


class TestChords:
    def test_hopf_spectrum_and_sums(self, tmp_path, capsys):
        code, out, _ = run(
            ["chords", "--builtin", "hopf", "--d", "2", "--a", "3.5", "--m", "2",
             "--circle-seeds", "10",
             "--json", str(tmp_path / "chords.json"), "--csv", str(tmp_path / "chords.csv"),
             "--outdir", str(tmp_path)],
            capsys,
        )
        assert code == 0
        data = json.loads((tmp_path / "chords.json").read_text())
        lengths = [c["length"] for c in data["chords"]]
        assert len(lengths) == 3
        assert abs(lengths[0] - 1) < 1e-6
        assert abs(lengths[1] - 2) < 1e-6
        assert abs(lengths[2] - 3) < 1e-6
        assert data["sum_spectrum"] == pytest.approx([2.0, 3.0], abs=1e-6)
        lines = (tmp_path / "chords.csv").read_text().strip().splitlines()
        assert lines[0].startswith("length,")
        assert len(lines) == 4
        manifest = json.loads((tmp_path / "manifest_chords.json").read_text())
        assert manifest["versions"]["numpy"]

    def test_unlink_spectrum(self, tmp_path, capsys):
        code, out, _ = run(
            ["chords", "--builtin", "unlink", "--d", "2", "--z2star", "3",
             "--a", "4.2", "--circle-seeds", "10", "--outdir", str(tmp_path)],
            capsys,
        )
        assert code == 0
        lengths = [
            float(line.split()[1]) for line in out.splitlines() if line.startswith("  length")
        ]
        assert lengths == pytest.approx([2.0, 3.0, 13**0.5], abs=1e-6)

    def test_no_bound_keeps_long_chords(self, tmp_path, capsys):
        # Without --a no length is dropped: spacing 100 gives cross chords of
        # length 100 and sqrt(10004), beyond any fixed cap.
        code, out, _ = run(
            ["chords", "--builtin", "unlink", "--d", "2", "--z2star", "100",
             "--circle-seeds", "10", "--outdir", str(tmp_path)],
            capsys,
        )
        assert code == 0
        assert out.splitlines()[0] == "binormal chords:"
        lengths = [
            float(line.split()[1]) for line in out.splitlines() if line.startswith("  length")
        ]
        assert lengths == pytest.approx([2.0, 100.0, 10004**0.5], abs=1e-6)

    def test_failure_threshold_exit_4(self, tmp_path, capsys, monkeypatch):
        def fake_find(manifold, cfg, diagnostics=None):
            diagnostics.update({"seeds": 10, "failed": 5, "failure_rate": 0.5})
            return []

        monkeypatch.setattr(chords, "find_spectrum", fake_find)
        code, _, err = run(
            ["chords", "--builtin", "hopf", "--d", "2", "--a", "3.5",
             "--outdir", str(tmp_path)],
            capsys,
        )
        assert code == 4
        assert "failure rate" in err


class TestSpecseq:
    def test_hopf_pages(self, tmp_path, capsys):
        code, out, _ = run(
            ["specseq", "--builtin", "hopf", "--d", "2", "--a", "3.5", "--rmax", "2",
             "--csv", str(tmp_path / "pages.csv"), "--outdir", str(tmp_path)],
            capsys,
        )
        assert code == 0
        assert "convergence to total homology: OK" in out
        lines = (tmp_path / "pages.csv").read_text().strip().splitlines()
        assert lines[0] == "r,p,q,dim"
        assert any(line.startswith("inf,") for line in lines)

    def test_zero_differential_pages_equal(self, tmp_path, capsys):
        code, out, _ = run(
            ["specseq", "--builtin", "unlink", "--d", "2", "--z2star", "3",
             "--a", "6.5", "--rmax", "2", "--outdir", str(tmp_path)],
            capsys,
        )
        assert code == 0
        pages = [line for line in out.splitlines() if line.startswith("page")]
        tails = {line.split(": ", 1)[1] for line in pages}
        assert len(tails) == 1

    def test_forget_f_variant(self, tmp_path, capsys):
        code, out, _ = run(
            ["specseq", "--builtin", "hopf", "--d", "2", "--a", "3.5", "--rmax", "2",
             "--forget-f", "--outdir", str(tmp_path)],
            capsys,
        )
        assert code == 0
        assert "convergence to total homology: OK" in out

    def test_forget_f_on_spec_matches_builtin(self, tmp_path, capsys):
        # --forget-f reads the pairs off D, so a saved copy of hopf(2), also
        # one permuted and renamed as the benchmark writes its specs, gives
        # the built-in's pages.
        spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        hopf = free_dga.build_hopf(2)
        free_dga.save_dga(hopf, tmp_path / "plain.json")
        free_dga.save_dga(workloads.relabelled(hopf, random.Random(7)), tmp_path / "relabelled.json")
        csvs = {}
        for label, source in [("builtin", ["--builtin", "hopf"]),
                              ("plain", ["--spec", str(tmp_path / "plain.json")]),
                              ("relabelled", ["--spec", str(tmp_path / "relabelled.json")])]:
            code, _, _ = run(["specseq", *source, "--a", "9/2", "--forget-f",
                              "--csv", str(tmp_path / f"{label}.csv"), "--outdir", str(tmp_path)],
                             capsys)
            assert code == 0
            csvs[label] = (tmp_path / f"{label}.csv").read_text()
        assert any(line.startswith("inf,") for line in csvs["builtin"].splitlines())
        assert csvs["plain"] == csvs["builtin"]
        assert csvs["relabelled"] == csvs["builtin"]

    @pytest.mark.parametrize(
        "letters,h0",
        [([("1", "1")], 6), ([("a*b", "1"), ("a", "2/3"), ("b", "2/3")], 52)],
        ids=["unit_name", "star_name"],
    )
    def test_word_ids_may_repeat_a_letter_id(self, letters, h0, tmp_path, capsys):
        # D(x) = y shortens, so the whole window is one block.  Its cell ids
        # join letters with "*" and name the unit word "1", so a word's id
        # repeats the letter id "1" or "a*b", which an input complex may not do.
        # H_0 counts the degree-0 words less y, the one boundary.
        gens = [{"id": "x", "degree": 1, "length": "2"}, {"id": "y", "degree": 0, "length": "1"}]
        gens += [{"id": gid, "degree": 0, "length": length} for gid, length in letters]
        spec = _write_json(tmp_path / "ids.json", {
            "generators": gens, "diff": {"x": [{"coeff": "1", "word": ["y"]}]}})
        window = ["--spec", spec, "--a", "5/2", "--outdir", str(tmp_path)]
        code, out, _ = run(["dga-homology", *window, "--degree", "0"], capsys)
        assert (code, out) == (0, f"H_0 (a=5/2) dim = {h0}\n")
        code, out, _ = run(["specseq", *window, "--rmax", "1"], capsys)
        assert code == 0
        assert "convergence to total homology: OK" in out


def _write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def _complex_data():
    fc = specseq.from_dga(free_dga.build_hopf(2), free_dga.LengthWindow(Fraction(7, 2)))
    return specseq.complex_to_json_dict(fc)


def _presentation_data():
    return cord.presentation_to_json_dict(cord.builtin_presentation("hopf_link", 2))


def _edit(change):
    """Apply ``change`` to a copy of the data and return the copy."""
    def edited(data):
        change(data)
        return data
    return edited


class TestFileInputs:
    """``specseq --complex`` and ``cord --presentation``: one run per loader
    failure mode, each a typed error with exit 6, and one run that works."""

    def check_error(self, argv, tmp_path, capsys, match):
        code, _, err = run(argv + ["--outdir", str(tmp_path)], capsys)
        assert code == 6
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error: bad parameter: ")
        assert match in err

    def test_complex_pages_match_the_dga_run(self, tmp_path, capsys):
        path = _write_json(tmp_path / "fc.json", _complex_data())
        code, out, _ = run(["specseq", "--complex", path, "--rmax", "2",
                            "--csv", str(tmp_path / "file.csv"), "--outdir", str(tmp_path)], capsys)
        assert code == 0
        assert "convergence to total homology: OK" in out
        code, _, _ = run(["specseq", "--builtin", "hopf", "--a", "3.5", "--rmax", "2",
                          "--csv", str(tmp_path / "dga.csv"), "--outdir", str(tmp_path)], capsys)
        assert code == 0
        assert (tmp_path / "file.csv").read_text() == (tmp_path / "dga.csv").read_text()

    @pytest.mark.parametrize(
        "text,match",
        [
            ("{not json", "cannot read"),
            (None, "cannot read"),
            (_edit(lambda d: d.pop("cells")), "lacks the key 'cells'"),
            (_edit(lambda d: d["cells"][0].pop("filtration")), "lacks the key 'filtration'"),
            (_edit(lambda d: d["cells"][0].update(degree="0")), "must be int"),
            (_edit(lambda d: d["cells"].__setitem__(0, ["1", 0, 0])), "is not a JSON object"),
            (_edit(lambda d: d["cells"].append(dict(d["cells"][0]))), "duplicate cell ids"),
            (_edit(lambda d: d["boundary"][0].update(to="nowhere")), "unknown cell"),
            (_edit(lambda d: d["boundary"].append(dict(d["boundary"][0]))), "duplicate"),
            (_edit(lambda d: d["boundary"][0].update(coeff="x")), "is not a rational"),
            (_edit(lambda d: d["boundary"][0].update(coeff=1.5)), "must be str or int"),
            (_edit(lambda d: next(c for c in d["cells"] if c["id"] == d["boundary"][0]["from"])
                   .update(degree=7)), "degree drop is not 1"),
            ("[" * 100_000, "cannot read"),
        ],
        ids=["not_json", "missing_file", "no_cells", "no_filtration", "degree_str",
             "cell_not_object", "duplicate_cell_id", "unknown_cell", "duplicate_record",
             "bad_coeff", "float_coeff", "invalid_boundary", "deeply_nested"],
    )
    def test_complex_loader_errors(self, text, match, tmp_path, capsys):
        path = tmp_path / "fc.json"
        if isinstance(text, str):
            path.write_text(text)
        elif text is not None:
            _write_json(path, text(_complex_data()))
        self.check_error(["specseq", "--complex", str(path)], tmp_path, capsys, match)

    @pytest.mark.parametrize("extra", [["--spec", "x.json"], ["--builtin", "hopf"]],
                             ids=["spec", "builtin"])
    def test_complex_excludes_dga_inputs(self, extra, tmp_path, capsys):
        path = _write_json(tmp_path / "fc.json", _complex_data())
        with pytest.raises(SystemExit) as exc:
            cli.main(["specseq", "--complex", path, *extra, "--outdir", str(tmp_path)])
        assert exc.value.code == 2
        assert "--complex excludes" in capsys.readouterr().err

    def test_complex_with_window_exit_6(self, tmp_path, capsys):
        path = _write_json(tmp_path / "fc.json", _complex_data())
        self.check_error(["specseq", "--complex", path, "--a", "3.5"], tmp_path, capsys,
                         "not to --complex")

    def test_save_complex_round_trip(self, tmp_path, capsys):
        # The documented writer of --complex files: its file gives the pages
        # of the complex it saved.
        fc = specseq.from_dga(free_dga.build_hopf(2), free_dga.LengthWindow(Fraction(9, 2)))
        path = tmp_path / "fc.json"
        specseq.save_complex(fc, path)
        back = specseq.load_complex(path)
        assert back.cells == fc.cells and back.boundary.entries == fc.boundary.entries
        code, _, _ = run(["specseq", "--complex", str(path), "--rmax", "3",
                          "--csv", str(tmp_path / "pages.csv"), "--outdir", str(tmp_path)],
                         capsys)
        assert code == 0
        with open(tmp_path / "pages.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        want = [["r", "p", "q", "dim"]] + [
            [str(t.r if t.r >= 0 else "inf"), str(p), str(q), str(d)]
            for t in specseq.pages(fc.barcode(), 3)
            for p, q, d in t.nonzero()
        ]
        assert rows == want

    def test_save_presentation_round_trip(self, tmp_path, capsys):
        # The documented writer of --presentation files: its file gives the
        # slices of the presentation it saved.
        pres = cord.builtin_presentation("hopf_link", 2)
        path = tmp_path / "p.json"
        cord.save_presentation(pres, path)
        code, _, _ = run(["cord", "--presentation", str(path), "--wmax", "4",
                          "--json", str(tmp_path / "out.json"), "--outdir", str(tmp_path)],
                         capsys)
        assert code == 0
        data = json.loads((tmp_path / "out.json").read_text())
        assert data["dims"] == cord.quotient_dims_by_wordcount(pres, 4)

    def test_presentation_matches_builtin(self, tmp_path, capsys):
        path = _write_json(tmp_path / "p.json", _presentation_data())
        code, out, _ = run(["cord", "--presentation", path, "--wmax", "3", "--compare",
                            "--json", str(tmp_path / "p_out.json"), "--outdir", str(tmp_path)],
                           capsys)
        assert code == 0
        assert "kmax truncation check skipped" in out
        assert "--compare skipped" in out
        assert "MATCH" not in out
        code, builtin_out, _ = run(["cord", "--builtin", "hopf_link", "--wmax", "3",
                                    "--outdir", str(tmp_path)], capsys)
        assert code == 0
        assert out.splitlines()[0] == builtin_out.splitlines()[0]
        result = json.loads((tmp_path / "p_out.json").read_text())
        assert result == {"presentation": path, "dims": [1, 2, 2, 2]}

    @pytest.mark.parametrize(
        "text,match",
        [
            ("[1, 2", "cannot read"),
            (None, "cannot read"),
            (_edit(lambda d: d.pop("generators")), "lacks the key 'generators'"),
            (_edit(lambda d: d["generators"][0].update(source="0")), "must be int"),
            (_edit(lambda d: d["generators"].__setitem__(0, ["s", 0, 0])), "is not a JSON object"),
            (_edit(lambda d: d["skein"][0].update(left="nowhere")), "unknown generator nowhere"),
            (_edit(lambda d: d["generators"].append(dict(d["generators"][0]))), "duplicate"),
            (_edit(lambda d: d.update(bound=2)), "exceeds presentation bound"),
            ("[" * 100_000, "cannot read"),
        ],
        ids=["not_json", "missing_file", "no_generators", "source_str", "record_not_object",
             "unknown_skein_generator", "duplicate_generator", "wmax_beyond_bound",
             "deeply_nested"],
    )
    def test_presentation_loader_errors(self, text, match, tmp_path, capsys):
        path = tmp_path / "p.json"
        if isinstance(text, str):
            path.write_text(text)
        elif text is not None:
            _write_json(path, text(_presentation_data()))
        self.check_error(["cord", "--presentation", str(path), "--wmax", "3"],
                         tmp_path, capsys, match)

    def test_presentation_excludes_builtin(self, tmp_path, capsys):
        path = _write_json(tmp_path / "p.json", _presentation_data())
        with pytest.raises(SystemExit) as exc:
            cli.main(["cord", "--presentation", path, "--builtin", "hopf_link",
                      "--outdir", str(tmp_path)])
        assert exc.value.code == 2
        assert "not allowed with" in capsys.readouterr().err


class TestErrorExits:
    """Every failure maps to a documented exit code with one stderr line."""

    def check(self, argv, code, tmp_path, capsys):
        got, _, err = run(argv + ["--outdir", str(tmp_path)], capsys)
        assert got == code
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error: ")
        assert "Traceback" not in err
        return err

    def test_hopf_d1_exit_6(self, tmp_path, capsys):
        err = self.check(["dga-homology", "--builtin", "hopf", "--d", "1", "--degree", "0"],
                         6, tmp_path, capsys)
        assert "d must be at least 2" in err

    def test_chords_d1_exit_6(self, tmp_path, capsys):
        err = self.check(["chords", "--builtin", "hopf", "--d", "1"], 6, tmp_path, capsys)
        assert "d must be at least 2" in err

    def test_unlink_chords_without_z2star_exit_6(self, tmp_path, capsys):
        err = self.check(["chords", "--builtin", "unlink", "--d", "2"], 6, tmp_path, capsys)
        assert "z2star" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["chords", "--builtin", "unlink", "--d", "2"],
            ["dga-homology", "--builtin", "unlink", "--d", "2", "--degree", "0"],
            ["distinguish", "--d", "2"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_negative_z2star_exit_6(self, argv, tmp_path, capsys):
        # One rule on every side: the spacing itself, not its absolute value,
        # must exceed 2.
        err = self.check(argv + ["--z2star", "-3"], 6, tmp_path, capsys)
        assert err.strip() == "error: bad parameter: z2star must exceed 2"

    def test_cord_wmax_beyond_bound_exit_6(self, tmp_path, capsys):
        err = self.check(["cord", "--builtin", "hopf_link", "--wmax", "50"], 6, tmp_path, capsys)
        assert "exceeds presentation bound" in err

    def test_forget_f_on_complex_exit_6(self, tmp_path, capsys):
        path = _write_json(tmp_path / "fc.json", _complex_data())
        err = self.check(["specseq", "--complex", path, "--forget-f"], 6, tmp_path, capsys)
        assert "not to --complex" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["cord", "--builtin", "hopf_link", "--kmax", "1"],
            ["cord", "--builtin", "hopf_link", "--wmax", "-1"],
            ["dga-homology", "--builtin", "hopf", "--h0", "--wmax", "-1"],
            ["distinguish", "--d", "2", "--wmax", "-1"],
        ],
        ids=["cord_kmax", "cord_wmax", "dga_homology_wmax", "distinguish_wmax"],
    )
    def test_bad_wmax_or_kmax_exit_6(self, argv, tmp_path, capsys):
        err = self.check(argv, 6, tmp_path, capsys)
        assert err.startswith("error: bad parameter: ")

    def test_reversed_degree_range_exit_6(self, tmp_path, capsys):
        err = self.check(["dga-homology", "--builtin", "hopf", "--a", "3.5",
                          "--degree-range", "5", "2"], 6, tmp_path, capsys)
        assert "LO <= HI" in err
        assert os.listdir(tmp_path) == []

    def test_chords_m_below_1_exit_6_before_search(self, tmp_path, capsys, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("the chord search ran")

        monkeypatch.setattr(chords, "find_spectrum", no_search)
        for m in ("0", "-2"):
            err = self.check(["chords", "--builtin", "hopf", "--d", "2", "--a", "3.5",
                              "--m", m], 6, tmp_path, capsys)
            assert "m must be at least 1" in err

    def test_chords_m_without_a_exit_6_before_search(self, tmp_path, capsys, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("the chord search ran")

        monkeypatch.setattr(chords, "find_spectrum", no_search)
        err = self.check(["chords", "--builtin", "hopf", "--d", "2", "--m", "2"],
                         6, tmp_path, capsys)
        assert "needs a length bound --a" in err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--circle-seeds", "0", "seeds_per_circle must be positive"),
            ("--sphere-seeds", "-3", "seeds_per_sphere must be positive"),
            ("--a", "0", "length_bound must be positive"),
            ("--a", "-1", "length_bound must be positive"),
            ("--a", "nan", "length_bound must be finite"),
            ("--a", "inf", "length_bound must be finite"),
            ("--z2star", "nan", "z2star must be finite"),
            ("--z2star", "inf", "z2star must be finite"),
        ],
        ids=["circle_seeds_0", "sphere_seeds_-3", "a_0", "a_-1", "a_nan", "a_inf",
             "z2star_nan", "z2star_inf"],
    )
    def test_chords_empty_search_exit_6_before_search(
        self, flag, value, message, tmp_path, capsys, monkeypatch
    ):
        def no_search(*args, **kwargs):
            raise AssertionError("the chord search ran")

        monkeypatch.setattr(chords, "find_spectrum", no_search)
        # A repeated --a takes its last value; --z2star is read by unlink only.
        builtin = "unlink" if flag == "--z2star" else "hopf"
        argv = ["chords", "--builtin", builtin, "--d", "3", "--a", "3.5", flag, value]
        err = self.check(argv, 6, tmp_path, capsys)
        assert message in err

    def test_specseq_rmax_below_1_exit_6_before_build(self, tmp_path, capsys, monkeypatch):
        def no_build(*args, **kwargs):
            raise AssertionError("the complex was built")

        monkeypatch.setattr(specseq, "dga_barcode", no_build)
        for rmax in ("0", "-2"):
            err = self.check(["specseq", "--builtin", "hopf", "--a", "3.5", "--rmax", rmax],
                             6, tmp_path, capsys)
            assert "rmax must be at least 1" in err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "argv,name,cap,work",
        [(["specseq", "--builtin", "hopf", "--a", "3.5"], "rmax", cli.MAX_RMAX,
          (specseq, "dga_barcode")),
         (["cord", "--builtin", "unlink2"], "kmax", cli.MAX_KMAX,
          (cord, "builtin_presentation"))],
        ids=["specseq_rmax", "cord_kmax"],
    )
    def test_cap_plus_one_exit_6_before_work(self, argv, name, cap, work, tmp_path, capsys,
                                             monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("the command started its work")

        monkeypatch.setattr(*work, no_work)
        err = self.check(argv + [f"--{name}", str(cap + 1)], 6, tmp_path, capsys)
        assert f"{name} {cap + 1} is above the cap of {cap}" in err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("where", ["json", "csv", "manifest", "outdir"])
    def test_unwritable_output_exit_2(self, where, tmp_path, capsys):
        # A path under a regular file cannot be created, and neither can a
        # manifest where a directory of its name stands or an --outdir that
        # names a file.  Each is found before the work: nothing is printed
        # and nothing is created.
        blocker = tmp_path / "file"
        blocker.write_text("")
        outdir = tmp_path / "out"
        (outdir / "manifest_dga_homology.json").mkdir(parents=True)
        argv = ["dga-homology", "--builtin", "hopf", "--a", "3.5", "--degree", "0",
                "--outdir", str(blocker if where == "outdir" else tmp_path)]
        if where == "manifest":
            argv[-1] = str(outdir)
        elif where != "outdir":
            argv += [f"--{where}", str(blocker / f"x.{where}")]
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write output: ")
        assert len(err.strip().splitlines()) == 1
        assert sorted(p.name for p in tmp_path.rglob("*")) == [
            "file", "manifest_dga_homology.json", "out"]

    def test_weight_lowering_spec_specseq_exit_6(self, tmp_path, capsys):
        spec = tmp_path / "lowering.json"
        spec.write_text(json.dumps({
            "generators": [{"id": "a", "degree": 0, "length": "1", "weight": 1},
                           {"id": "b", "degree": 1, "length": "1", "weight": 2}],
            "diff": {"b": [{"coeff": "1", "word": ["a"]}]},
        }))
        # D lowers weight from b to a: fine for homology, but no weight filtration.
        argv = ["--spec", str(spec), "--a", "2.5", "--outdir", str(tmp_path)]
        assert run(["dga-homology", "--degree", "0"] + argv, capsys)[0] == 0
        err = self.check(["specseq", "--spec", str(spec), "--a", "2.5"], 6, tmp_path, capsys)
        assert "raises filtration" in err

    @pytest.mark.parametrize("route", ["segments", "one-block", "complex"])
    def test_specseq_failed_convergence_exit_7_before_output(
        self, route, tmp_path, capsys, monkeypatch
    ):
        inputs = tmp_path / "in"
        inputs.mkdir()
        # Every barcode, of a whole complex or of a block, is checked against this.
        monkeypatch.setattr(specseq.FilteredComplex, "homology_dims", lambda fc: {0: 99})
        if route == "complex":
            argv = ["specseq", "--complex", _write_json(inputs / "fc.json", _complex_data())]
        else:
            if route == "segments":
                # hopf(2) splits into segments.
                argv = ["specseq", "--builtin", "hopf", "--a", "3.5"]
            else:
                # D(g) = x·y - z with z shorter than g: no segments, one block.
                gens = [{"id": x, "degree": 0, "length": "1"} for x in "xyz"]
                gens.append({"id": "g", "degree": 1, "length": "2"})
                diff = {"g": [{"coeff": "1", "word": ["x", "y"]},
                              {"coeff": "-1", "word": ["z"]}]}
                spec = _write_json(inputs / "spec.json", {"generators": gens, "diff": diff})
                argv = ["specseq", "--spec", spec, "--a", "3.5"]
        out = tmp_path / "out"
        code, stdout, err = run(argv + ["--csv", str(out / "pages.csv"), "--outdir", str(out)],
                                capsys)
        assert code == 7
        assert err.startswith("error: convergence check failed: ")
        assert len(err.strip().splitlines()) == 1
        assert stdout == ""
        assert not out.exists()

    def test_specseq_walks_the_window_once(self, tmp_path, capsys, monkeypatch):
        # The pages and their E-oo check come from one pass over the blocks.
        calls = []
        walk = free_dga._over_blocks

        def counted(*args):
            calls.append(args)
            return walk(*args)

        monkeypatch.setattr(free_dga, "_over_blocks", counted)
        code, out, _ = run(["specseq", "--builtin", "hopf", "--a", "4.5", "--rmax", "3",
                            "--outdir", str(tmp_path)], capsys)
        assert code == 0
        assert "convergence to total homology: OK" in out
        assert len(calls) == 1

    def test_mixed_radicands_exit_3(self, tmp_path, capsys):
        spec = tmp_path / "radicands.json"
        spec.write_text(json.dumps({
            "generators": [{"id": "a", "degree": 0, "length": "sqrt(2)"},
                           {"id": "b", "degree": 0, "length": "sqrt(3)"}],
        }))
        for sub in (["dga-homology", "--degree", "0"], ["specseq"]):
            err = self.check(sub + ["--spec", str(spec), "--a", "2.5"], 3, tmp_path, capsys)
            assert "radicands" in err

    def test_deeply_nested_spec_exit_3(self, tmp_path, capsys):
        spec = tmp_path / "nested.json"
        spec.write_text("[" * 100_000)
        for sub in (["dga-homology", "--degree", "0"], ["specseq"]):
            err = self.check(sub + ["--spec", str(spec), "--a", "2.5"], 3, tmp_path, capsys)
            assert err.startswith("error: invalid DGA: cannot read ") and " as JSON: " in err

    def test_unknown_letter_exit_3(self, tmp_path, capsys):
        spec = tmp_path / "letter.json"
        data = free_dga.dga_to_json_dict(free_dga.build_hopf(2))
        data["diff"]["d1_00"] = [{"coeff": "1", "word": ["zz"]}]
        spec.write_text(json.dumps(data))
        self.check(["dga-homology", "--spec", str(spec), "--degree", "0"], 3, tmp_path, capsys)

    def test_diff_of_unknown_generator_exit_3(self, tmp_path, capsys):
        spec = tmp_path / "key.json"
        data = free_dga.dga_to_json_dict(free_dga.build_unlink(2, 3))
        data["diff"]["C1_00"] = [{"coeff": "1", "word": ["c0_01", "c0_10"]}]
        spec.write_text(json.dumps(data))
        err = self.check(["dga-homology", "--spec", str(spec), "--degree", "0", "--a", "6.5"],
                         3, tmp_path, capsys)
        assert "C1_00" in err

    @pytest.mark.parametrize(
        "field,value",
        [("degree", 1.7), ("weight", True), ("coeff", 0.5), ("word", "xx")],
        ids=["float_degree", "bool_weight", "float_coeff", "string_word"],
    )
    def test_loosely_typed_spec_field_exit_3(self, field, value, tmp_path, capsys):
        # Each value once read as a nearby valid one: 1, 1, 1/2 and ["x", "x"].
        gens = [{"id": "x", "degree": 0, "length": "1", "weight": 1},
                {"id": "g", "degree": 1, "length": "2", "weight": 1}]
        term = {"coeff": "1", "word": ["x", "x"]}
        (term if field in term else gens[1])[field] = value
        spec = _write_json(tmp_path / "loose.json", {"generators": gens, "diff": {"g": [term]}})
        err = self.check(["dga-homology", "--spec", spec, "--degree", "0", "--a", "5/2"],
                         3, tmp_path, capsys)
        assert err.startswith("error: invalid DGA: ") and repr(field) in err

    @pytest.mark.parametrize(
        "field,value",
        [("length", "abc"), ("coeff", "1/0"), ("coeff", "x"), ("name", 5)],
        ids=["length_abc", "coeff_zero_denominator", "coeff_x", "name_int"],
    )
    def test_unparsable_spec_field_exit_3(self, field, value, tmp_path, capsys):
        # The loader raises InvalidDGA itself; the CLI has no catch-all to lean on.
        gen = {"id": "g", "degree": 1, "length": "2"}
        term = {"coeff": "1", "word": ["x", "x"]}
        data = {"generators": [{"id": "x", "degree": 0, "length": "1"}, gen],
                "diff": {"g": [term]}}
        {"length": gen, "coeff": term, "name": data}[field][field] = value
        spec = _write_json(tmp_path / "unparsable.json", data)
        err = self.check(["dga-homology", "--spec", spec, "--degree", "0", "--a", "5/2"],
                         3, tmp_path, capsys)
        assert err.startswith("error: invalid DGA: ") and repr(field) in err


# Also a flag the program no longer has: chords --nu set nothing the search used.
@pytest.mark.parametrize(
    "argv",
    [["distinguish", "--d", "2", "--csv", "out.csv"],
     ["specseq", "--builtin", "hopf", "--a", "3.5", "--json", "out.json"],
     ["chords", "--builtin", "hopf", "--nu", "4"]],
    ids=["distinguish_csv", "specseq_json", "chords_nu"],
)
def test_unwritten_output_flag_is_usage_error(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--outdir", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_dga_homology_without_degrees_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["dga-homology", "--builtin", "hopf", "--a", "3.5", "--outdir", str(tmp_path)])
    assert exc.value.code == 2
    assert "needs --degree, --degree-range or --h0" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "argv,flag,reason",
    [(["dga-homology", "--builtin", "hopf", "--a", "1/0", "--degree", "0"], "--a",
      "zero denominator"),
     (["dga-homology", "--builtin", "unlink", "--z2star", "1/0", "--degree", "0"], "--z2star",
      "zero denominator"),
     (["specseq", "--builtin", "hopf", "--a", "3/0"], "--a", "zero denominator"),
     (["distinguish", "--d", "2", "--z2star", "7/0"], "--z2star", "zero denominator"),
     (["dga-homology", "--builtin", "hopf", "--a", "nan", "--degree", "0"], "--a",
      "not an exact rational"),
     (["specseq", "--builtin", "hopf", "--a", "abc"], "--a", "not an exact rational")],
    ids=["dga_homology_a", "dga_homology_z2star", "specseq_a", "distinguish_z2star",
         "dga_homology_a_nan", "specseq_a_abc"],
)
def test_zero_denominator_is_usage_error(argv, flag, reason, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--outdir", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {flag}: " in err and reason in err
    # argparse names the type function only when it raises a bare ValueError.
    assert "_fraction" not in err
    assert "Traceback" not in err
    assert os.listdir(tmp_path) == []


def test_huge_window_exit_6_before_search(tmp_path):
    # The realizable lengths below 10^400 are far too many to search: the
    # search stops at ``free_dga.MAX_SUMS`` instead of running without end.
    src = os.path.dirname(os.path.dirname(os.path.abspath(stringhom.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "stringhom.cli", "dga-homology", "--builtin", "hopf",
         "--a", "1e400", "--degree", "0", "--outdir", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert proc.returncode == 6, proc.stderr
    assert f"more than {free_dga.MAX_SUMS} realizable lengths" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv,code,message",
    [(["dga-homology", "--spec", "big.json", "--degree", "0", "--a", "3"], 3,
      "error: invalid DGA: generator field 'length' does not parse"),
     (["dga-homology", "--builtin", "unlink", "--z2star", "1000000007", "--degree", "0"], 6,
      "error: bad parameter: z2star 1000000007"),
     (["distinguish", "--d", "2", "--z2star", "1000000007"], 6,
      "error: bad parameter: z2star 1000000007")],
    ids=["spec_length", "dga_homology_z2star", "distinguish_z2star"],
)
def test_huge_radicand_exits_before_factoring(argv, code, message, tmp_path):
    # sqrt(10^18 + 3) and sqrt(1000000007^2 + 4) would each take about 10^9
    # trial divisions; the radicand bound refuses them at once.
    _write_json(tmp_path / "big.json", {"generators": [
        {"id": "a", "degree": 0, "length": "sqrt(1000000000000000003)"}]})
    src = os.path.dirname(os.path.dirname(os.path.abspath(stringhom.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "stringhom.cli", *argv, "--outdir", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=30, cwd=tmp_path,
    )
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.startswith(message)
    assert "above 1000000000000" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_chords_huge_m_exits_0_at_once(tmp_path):
    # The m-fold sums and the near-bound check stop each branch of their walk
    # at a; enumerating every multiset of 100,000 lengths would never end.
    src = os.path.dirname(os.path.dirname(os.path.abspath(stringhom.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "stringhom.cli", "chords", "--builtin", "hopf", "--d", "2",
         "--a", "3.5", "--m", "100000", "--outdir", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "100000-fold sums below a: []" in proc.stdout


def _limit_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))


@pytest.mark.parametrize(
    "argv,size",
    [(["--builtin", "hopf", "--circle-seeds", "1000000"],
      "6000000000000 floats per Gauss-Newton array for 1000000000000 seed pairs in R^3"),
     (["--builtin", "hopf", "--d", "3", "--sphere-seeds", "100000"],
      "200000000000 floats per Gauss-Newton array for 10000000000 seed pairs in R^5"),
     (["--builtin", "unlink", "--z2star", "3", "--d", "100"],
      "51064992 floats per Gauss-Newton array for 1296 seed pairs in R^199"),
     (["--builtin", "hopf", "--d", "2000"],
      "15988002 floats per Gauss-Newton array for 1 seed pairs in R^3999"),
     (["--builtin", "single", "--d", "100000"],
      "39999400002 floats per Gauss-Newton array for 1 seed pairs in R^199999")],
    ids=["circle_seeds", "sphere_seeds", "d_100", "d_2000", "d_100000"],
)
def test_huge_chord_grid_exit_6_before_allocation(argv, size, tmp_path):
    # Each of these would ask for gigabytes to terabytes: the seed grid, or
    # at d = 2000 and up even one seed pair, is refused before it is built.
    # The address-space limit turns a missed check into a fast MemoryError.
    src = os.path.dirname(os.path.dirname(os.path.abspath(stringhom.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "stringhom.cli", "chords", *argv, "--outdir", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=60, preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 6, proc.stderr
    assert proc.stderr.startswith("error: bad parameter: " + size)
    assert f"above the cap of {chords.MAX_GRID_FLOATS}" in proc.stderr
    assert "Traceback" not in proc.stderr


HOPF_HOMOLOGY = ["dga-homology", "--builtin", "hopf", "--a", "9/2"]
# Command sequences run in one process.  Whatever an earlier call leaves
# behind in the module (an appended --degree list, a failed parse) would show
# as a difference from the same call run on its own in a fresh interpreter.
PARSER_SEQUENCES = {
    "degree_list_then_range": [HOPF_HOMOLOGY + ["--degree", "1", "--degree", "2"],
                               HOPF_HOMOLOGY + ["--degree-range", "0", "2"]],
    "usage_error_then_valid": [HOPF_HOMOLOGY + ["--degree", "one"],
                               HOPF_HOMOLOGY + ["--degree", "0"]],
    "exit_6_then_valid": [HOPF_HOMOLOGY + ["--degree-range", "5", "2"],
                          HOPF_HOMOLOGY + ["--degree", "1"]],
}

# One ``cli.main`` call in a fresh interpreter; its exit code goes to a file.
_ON_ITS_OWN = """
import json, sys
from stringhom import cli
try:
    code = cli.main(json.loads(sys.argv[1]))
except SystemExit as exc:
    code = ["SystemExit", exc.code]
with open(sys.argv[2], "w") as fh:
    json.dump(code, fh)
"""


def _recorded_run(argv, outdir, capsys, alone=False):
    """Exit code, stdout, stderr, JSON result and manifest parameters of one call.

    With ``alone``, the call runs in a fresh interpreter.
    """
    outdir.mkdir(exist_ok=True)
    result, manifest = outdir / "res.json", outdir / "manifest_dga_homology.json"
    argv = argv + ["--outdir", str(outdir), "--json", str(result)]
    if alone:
        src = os.path.dirname(os.path.dirname(os.path.abspath(stringhom.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code_file = outdir.parent / "code.json"
        proc = subprocess.run([sys.executable, "-c", _ON_ITS_OWN, json.dumps(argv), str(code_file)],
                              capture_output=True, text=True, env=env, timeout=120)
        code = json.loads(code_file.read_text())
        code, out, err = tuple(code) if isinstance(code, list) else code, proc.stdout, proc.stderr
    else:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        out, err = capsys.readouterr()
    record = (code, out, err,
              result.read_text() if result.exists() else None,
              json.loads(manifest.read_text())["parameters"] if manifest.exists() else None)
    for path in outdir.iterdir():
        path.unlink()
    return record


@pytest.mark.parametrize("sequence", list(PARSER_SEQUENCES))
def test_repeated_main_calls_match_fresh_parsers(sequence, tmp_path, capsys):
    argvs = PARSER_SEQUENCES[sequence]
    shared = [_recorded_run(argv, tmp_path / str(k), capsys) for k, argv in enumerate(argvs)]
    alone = [_recorded_run(argv, tmp_path / str(k), capsys, alone=True)
             for k, argv in enumerate(argvs)]
    assert shared == alone
    assert shared[-1][0] == 0
    if sequence == "degree_list_then_range":
        assert shared[1][1].count("dim = ") == 3
        assert shared[1][4]["degree"] is None
    elif sequence == "usage_error_then_valid":
        assert shared[0][0] == ("SystemExit", 2)
    else:
        assert shared[0][0] == 6


# Errors defined under src/stringhom that no CLI run can raise, with the reason.
UNREACHABLE = {
    "free_dga.DGAError": "base class, never raised itself; every subclass is mapped",
    "lengths.IncompatibleRadicals": "CLI window bounds are rational, and DGA.validate "
    "rejects generator lengths over two radicands as InvalidDGA",
}


def test_every_error_maps_to_an_exit_code():
    mapped = tuple(t for types, _, _ in cli.ERRORS for t in types)
    seen = set()
    for info in pkgutil.iter_modules(stringhom.__path__):
        mod = importlib.import_module(f"stringhom.{info.name}")
        for obj in vars(mod).values():
            if (isinstance(obj, type) and issubclass(obj, Exception)
                    and obj.__module__ == mod.__name__):
                name = f"{info.name}.{obj.__name__}"
                seen.add(name)
                assert issubclass(obj, mapped) or name in UNREACHABLE, name
    assert set(UNREACHABLE) <= seen


# Runs the exact subcommands in a fresh interpreter, then fails if numpy was
# imported or recorded in a manifest.
_EXACT_ONLY = """
import contextlib, io, json, os, sys
from stringhom import cli
out = sys.argv[1]
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv + ["--outdir", out]) == 0, argv
assert "numpy" not in sys.modules, "numpy imported"
for name in os.listdir(out):
    with open(os.path.join(out, name)) as fh:
        assert "numpy" not in json.load(fh)["versions"], name
"""


def test_exact_subcommands_do_not_import_numpy(tmp_path):
    commands = [
        ["dga-homology", "--builtin", "hopf", "--d", "2", "--a", "3.5", "--degree", "0"],
        ["specseq", "--builtin", "hopf", "--d", "2", "--a", "3.5", "--rmax", "1"],
        ["distinguish", "--d", "2", "--wmax", "2"],
        ["cord", "--builtin", "hopf_link", "--wmax", "2", "--compare"],
    ]
    src = os.path.dirname(os.path.dirname(os.path.abspath(stringhom.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", _EXACT_ONLY, str(tmp_path), json.dumps(commands)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(os.listdir(tmp_path)) == len(commands)
