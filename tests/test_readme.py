"""README's examples, executed: the library quick tour as a doctest, and
each `bisectrix` command of its shell blocks through cli.main."""

import doctest
import re
import shlex
from pathlib import Path

from bisectrix.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)


def test_quick_tour_runs_as_a_doctest():
    """The python block of the quick tour, with every output it shows."""
    (tour,) = [block for block in _blocks("python") if ">>>" in block]
    test = doctest.DocTestParser().get_doctest(tour, {}, "README quick tour", "README.md", 0)
    runner = doctest.DocTestRunner(optionflags=doctest.NORMALIZE_WHITESPACE)
    runner.run(test)
    assert runner.failures == 0 and runner.tries >= 10


def test_cli_examples_exit_zero(tmp_path, capsys):
    """Every `bisectrix` line of README's shell blocks exits 0, with "..."
    standing for the first example's quadrilateral and --out written under
    a temporary directory."""
    commands = [shlex.split(line) for block in _blocks("sh") for line in block.splitlines()
                if line.startswith("bisectrix ")]
    quad = commands[0][commands[0].index("--quad") + 1]
    for argv in commands:
        argv = [quad if arg == "..." else arg for arg in argv[1:]]
        if "--out" in argv:
            i = argv.index("--out") + 1
            argv[i] = str(tmp_path / argv[i])
        assert main(argv) == 0, argv
        capsys.readouterr()
    assert len(commands) >= 6 and any("--out" in argv for argv in commands)
    assert (tmp_path / "locus.svg").is_file()
