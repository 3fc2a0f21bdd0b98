"""``cli`` reads command lines as the argparse parser of ``tests/cli_oracle.py`` did.

A valid line must give the same namespace, value types included; an invalid
one must exit 2 with a usage line first and the same last stderr line.  The
valid corpus is the README's CLI block, the commands of every benchmark
workload at two seeds and one or more lines per accepted form.
"""

import importlib.util
import shlex
from fractions import Fraction
from pathlib import Path

import cli_oracle
import pytest
from test_readme import readme_commands

from stringhom import cli

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

FORMS = [
    # --flag value, and every option of every subcommand at least once
    "dga-homology --builtin hopf --d 2 --z2star 7/2 --a 9/2 --degree 0 --wmax 3 "
    "--outdir o --json r.json --csv r.csv",
    "dga-homology --spec s.json --degree-range 0 3",
    "distinguish --d 3 --z2star 5 --wmax 2 --outdir o --json r.json",
    "chords --builtin unlink --d 2 --z2star 3.5 --a 4.5 --m 2 --circle-seeds 3 "
    "--sphere-seeds 4 --outdir o --json r.json --csv r.csv",
    "cord --presentation p.json --wmax 3 --kmax 4 --compare --outdir o --json r.json --csv r.csv",
    "specseq --spec s.json --d 3 --z2star 4 --a 5/2 --rmax 2 --forget-f --outdir o --csv r.csv",
    "specseq --complex c.json",
    # --flag=value, a value holding "=" and a value that is a lone dash
    "dga-homology --builtin=unlink --a=9/2 --degree=1 --degree-range 0 1 --wmax=2",
    "specseq --spec=a=b.json --rmax=1 --outdir -",
    # negative numbers are values
    "dga-homology --builtin hopf --degree -1 --a=-3/2",
    "dga-homology --h0 --degree-range -2 -1 --wmax -1",
    "chords --builtin hopf --a -1.5 --z2star -3 --m -2",
    # a repeated --degree appends; otherwise the last value wins
    "dga-homology --builtin hopf --degree 0 --degree 2 --degree 1",
    "chords --builtin hopf --builtin unlink --d 3 --d 2 --m 2 --m 3",
    "dga-homology --h0 --degree-range 0 1 --degree-range 2 3",
    "cord --presentation a.json --presentation b.json",
    "cord --builtin unknot --builtin unlink2 --kmax 2",
    # switches, defaults and order
    "dga-homology --h0 --h0",
    "cord --builtin hopf_link --compare",
    "chords --builtin single",
    "distinguish --d 2",
    "specseq",
    "specseq --csv x.csv --rmax 2 --builtin unlink --z2star 7/2",
]

INVALID = {
    "no_subcommand": "",
    "only_an_unknown_flag": "--quiet",
    "unknown_subcommand": "homology --degree 0",
    "unknown_subcommand_after_flag": "--x chord",
    "unrecognized": "chords --builtin hopf --nu 4",
    "unrecognized_mixed": "dga-homology --builtin hopf --degree 0 extra -x --y=3 7",
    "unrecognized_before_subcommand": "--quiet dga-homology --builtin hopf --h0",
    "unrecognized_output_flag": "distinguish --d 2 --csv out.csv",
    "value_after_switch": "cord --builtin unknot --compare yes",
    "invalid_int": "dga-homology --builtin hopf --degree one",
    "invalid_int_m": "chords --builtin hopf --m 1.5",
    "invalid_int_in_range": "dga-homology --h0 --degree-range 0 x",
    "invalid_float": "chords --builtin hopf --a abc",
    "invalid_float_fraction": "chords --builtin unlink --z2star 3/2",
    "fraction_zero_denominator": "dga-homology --builtin hopf --a 1/0 --degree 0",
    "fraction_not_rational": "specseq --builtin hopf --a abc",
    "fraction_nan": "distinguish --d 2 --z2star nan",
    "invalid_choice": "chords --builtin torus",
    "invalid_choice_cord": "cord --builtin trefoil",
    "invalid_choice_dga": "dga-homology --builtin single --h0",
    "missing_d": "distinguish --wmax 2",
    "missing_builtin": "chords --d 2",
    "missing_cord_source": "cord --wmax 2",
    "presentation_with_builtin": "cord --builtin unknot --presentation p.json",
    "builtin_with_presentation": "cord --presentation p.json --builtin unknot",
    "value_missing_at_end": "dga-homology --builtin hopf --degree",
    "value_missing_before_flag": "cord --builtin unknot --kmax --compare",
    "value_is_a_flag": "specseq --builtin hopf --a -x",
    "value_is_minus_inf": "chords --builtin hopf --a -inf",
    "range_one_value": "dga-homology --h0 --degree-range 1",
    "range_then_flag": "dga-homology --h0 --degree-range 1 --d 2",
    "range_with_equals": "dga-homology --h0 --degree-range=1 2",
    "switch_with_value": "dga-homology --builtin hopf --h0=1",
    "bad_value_before_unknown": "dga-homology --nu 4 --degree x",
    "required_before_unknown": "chords --nu 4",
    "no_degrees": "dga-homology --builtin hopf --a 9/2",
    "complex_with_builtin": "specseq --complex c.json --builtin hopf",
    "complex_with_spec": "specseq --spec s.json --complex c.json",
}


def _typed(namespace) -> dict:
    return {k: repr(v) for k, v in vars(namespace).items()}


def _same_namespace(argv):
    assert _typed(cli._parse(argv)) == _typed(cli_oracle.parse_args(argv)), argv


@pytest.mark.parametrize("line", readme_commands())
def test_readme_lines_match_oracle(line):
    _same_namespace(shlex.split(line)[1:])


@pytest.mark.parametrize("workload", ["homology", "specseq", "chords"])
@pytest.mark.parametrize("seed", [1, 7])
def test_benchmark_commands_match_oracle(workload, seed, tmp_path):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    commands = workloads.commands(workload, seed, str(tmp_path))
    assert commands
    for command in commands:
        _same_namespace(command["argv"])


@pytest.mark.parametrize("line", FORMS)
def test_accepted_forms_match_oracle(line):
    _same_namespace(shlex.split(line))


@pytest.mark.parametrize("line", list(INVALID.values()), ids=list(INVALID))
def test_usage_errors_match_oracle(line, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = shlex.split(line)
    with pytest.raises(SystemExit) as oracle:
        cli_oracle.parse_args(argv)
    expected = capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    err = capsys.readouterr().err
    assert oracle.value.code == exc.value.code == 2
    assert err.startswith("usage: stringhom")
    assert err.splitlines()[-1] == expected.splitlines()[-1]
    assert len(err.splitlines()) == 2
    assert list(tmp_path.iterdir()) == []


def test_negative_fraction_after_space_is_a_value():
    # argparse took "-3/2" for a flag; a value that starts with "-" and a
    # digit is a number here, with the namespace of the "--a=-3/2" form.
    args = cli._parse(["dga-homology", "--h0", "--a", "-3/2"])
    assert args.a == Fraction(-3, 2)
    assert vars(args) == vars(cli_oracle.parse_args(["dga-homology", "--h0", "--a=-3/2"]))


def test_flag_prefixes_are_not_flags(capsys):
    # argparse took a unique prefix for the whole flag; here only full names count.
    with pytest.raises(SystemExit) as exc:
        cli.main(["dga-homology", "--bui", "hopf", "--h0"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "stringhom: error: unrecognized arguments: --bui hopf")


def _oracle_options(command) -> dict:
    """Option name -> help string of one oracle subcommand, or of the subcommands."""
    parser = cli_oracle.build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    if command is None:
        return {a.dest: a.help for a in sub._choices_actions}
    return {s: a.help for a in sub.choices[command]._actions
            for s in a.option_strings if s not in ("-h", "--help")}


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["--x", "--help", "cord"]])
def test_top_level_help_lists_every_subcommand(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: stringhom")
    lines = out.splitlines()
    for name, text in _oracle_options(None).items():
        assert any(line.split()[:1] == [name] and text in line for line in lines), name


@pytest.mark.parametrize("command", list(cli.COMMANDS))
@pytest.mark.parametrize("where", ["alone", "after_options"])
def test_subcommand_help_lists_every_option(command, where, capsys):
    argv = [command, "-h"] if where == "alone" else [command, "--nu", "--wmax", "2", "--help"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(f"usage: stringhom {command}")
    for flag, text in _oracle_options(command).items():
        assert any(line.split()[:1] == [flag] and (text or "") in line for line in lines), flag
