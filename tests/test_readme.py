"""Every command of the README's ``## CLI`` block runs and exits 0.

The commands run through ``cli.main`` in a fresh working directory, with
the files they name written first: ``complex.json`` by
``specseq.save_complex`` and ``presentation.json`` by
``cord.save_presentation``.
"""

import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from stringhom import cli, cord, free_dga, specseq

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[str]:
    """The ``stringhom …`` lines of the first code block under ``## CLI``."""
    section = README.read_text().split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("stringhom ")]


def test_cli_block_has_every_subcommand():
    names = {shlex.split(line)[1] for line in readme_commands()}
    assert names == {"dga-homology", "distinguish", "chords", "cord", "specseq"}


@pytest.mark.parametrize("line", readme_commands())
def test_readme_command_exits_0(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("STRINGHOM_OUTDIR", raising=False)
    fc = specseq.from_dga(free_dga.build_hopf(2), free_dga.LengthWindow(Fraction(7, 2)))
    specseq.save_complex(fc, "complex.json")
    cord.save_presentation(cord.builtin_presentation("hopf_link", 2), "presentation.json")
    assert cli.main(shlex.split(line)[1:]) == 0, capsys.readouterr().err
