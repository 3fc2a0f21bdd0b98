import importlib
import json
import os
import pkgutil
import subprocess
import sys
from fractions import Fraction

import pytest

import stringhom
from stringhom import chords, cli, cord, free_dga, specseq


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
            (_edit(lambda d: d["boundary"][0].update(to="nowhere")), "unknown cell"),
            (_edit(lambda d: d["boundary"].append(dict(d["boundary"][0]))), "duplicate"),
            (_edit(lambda d: d["boundary"][0].update(coeff="x")), "is not a rational"),
            (_edit(lambda d: d["boundary"][0].update(coeff=1.5)), "must be str or int"),
            (_edit(lambda d: next(c for c in d["cells"] if c["id"] == d["boundary"][0]["from"])
                   .update(degree=7)), "degree drop is not 1"),
        ],
        ids=["not_json", "missing_file", "no_cells", "no_filtration", "degree_str",
             "cell_not_object", "unknown_cell", "duplicate_record", "bad_coeff",
             "float_coeff", "invalid_boundary"],
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
        ],
        ids=["not_json", "missing_file", "no_generators", "source_str", "record_not_object",
             "unknown_skein_generator", "duplicate_generator", "wmax_beyond_bound"],
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

    def test_cord_wmax_beyond_bound_exit_6(self, tmp_path, capsys):
        err = self.check(["cord", "--builtin", "hopf_link", "--wmax", "50"], 6, tmp_path, capsys)
        assert "exceeds presentation bound" in err

    def test_forget_f_on_spec_exit_6(self, tmp_path, capsys):
        spec = tmp_path / "plain.json"
        free_dga.save_dga(free_dga.build_hopf(2), spec)
        self.check(["specseq", "--spec", str(spec), "--a", "3.5", "--forget-f"],
                   6, tmp_path, capsys)

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

    def test_mixed_radicands_exit_3(self, tmp_path, capsys):
        spec = tmp_path / "radicands.json"
        spec.write_text(json.dumps({
            "generators": [{"id": "a", "degree": 0, "length": "sqrt(2)"},
                           {"id": "b", "degree": 0, "length": "sqrt(3)"}],
        }))
        for sub in (["dga-homology", "--degree", "0"], ["specseq"]):
            err = self.check(sub + ["--spec", str(spec), "--a", "2.5"], 3, tmp_path, capsys)
            assert "radicands" in err

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
    "argv",
    [["distinguish", "--d", "2", "--csv", "out.csv"],
     ["specseq", "--builtin", "hopf", "--a", "3.5", "--json", "out.json"]],
    ids=["distinguish_csv", "specseq_json"],
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


# Errors defined under src/stringhom that no CLI run can raise, with the reason.
UNREACHABLE = {
    "free_dga.DGAError": "base class, never raised itself; every subclass is mapped",
    "chords.ChordError": "base class, never raised itself; its subclasses are checked here",
    "chords.DegenerateSegment": "every chord of the built-in links has length at least 1, "
    "far above the eps_min = 1e-3 that makes a segment degenerate",
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
