import csv
import re
import shlex
from pathlib import Path

import pytest

from inflap.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def section_block(heading: str, language: str) -> str:
    """The first ``language`` code block under README's ``heading``."""
    section = README.read_text().split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.DOTALL).group(1)


def command_line_examples() -> list[list[str]]:
    """The arguments of each ``inflap`` line under README's "Command line" heading."""
    lines = section_block("Command line", "sh").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("inflap ")]


def test_readme_library_example_writes_its_vtu(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(section_block("Library use", "python"), str(README), "exec"), namespace)
    assert (tmp_path / "solution.vtu").stat().st_size > 0
    # the example's adaptive run reaches the tolerance it sets
    config, history = namespace["config"], namespace["history"]
    assert history.records[-1].estimator <= config.estimator_tol


def test_readme_has_both_command_line_examples():
    assert sorted(argv[0] for argv in command_line_examples()) == ["adapt", "solve"]


@pytest.mark.parametrize("argv", command_line_examples(), ids=lambda argv: argv[0])
def test_readme_command_line_example_runs(tmp_path, argv):
    def option(name):
        return argv[argv.index(name) + 1]

    argv = list(argv)
    argv[argv.index("--out") + 1] = str(tmp_path)
    assert main(argv) == 0
    if argv[0] == "solve":
        with open(tmp_path / f"{option('--problem')}_eoc.csv", newline="") as stream:
            assert len(list(csv.DictReader(stream))) == int(option("--levels"))
    else:
        with open(tmp_path / f"{option('--problem')}_adapt_history.csv", newline="") as stream:
            last = list(csv.DictReader(stream))[-1]
        assert float(last["estimator"]) <= float(option("--tol"))
