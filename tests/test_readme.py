"""README's examples run as written.

The Quick start block is executed and each ``print`` is compared with the
``# ...`` comment on the line after it.  Each Command line example is run
through ``cli.main``: a ``# exit N`` comment names its exit code (0
otherwise), and a comment that is a bare number is what it prints.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from schurbott import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def block(heading: str, lang: str) -> list[str]:
    """The lines of the first ``lang`` code block under ``## heading``."""
    match = re.search(rf"^## {heading}\n.*?^```{lang}\n(.*?)^```", README, re.M | re.S)
    assert match, f"README has no {lang} block under '## {heading}'"
    return match.group(1).splitlines()


# (arguments, comment) of each ``schurbott ...`` line of the Command line block
COMMANDS = [
    (text.strip().removeprefix("schurbott "), comment.strip())
    for text, _, comment in (line.partition("#") for line in block("Command line", "sh"))
]


def test_quick_start_prints_what_its_comments_say():
    lines = block("Quick start", "python")
    expected = [line[2:] for prev, line in zip(lines, lines[1:]) if prev.startswith("print(") and line.startswith("# ")]
    assert len(expected) == sum(line.startswith("print(") for line in lines) >= 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec("\n".join(lines), {})
    assert out.getvalue().splitlines() == expected


def test_the_examples_include_a_printed_count_and_a_failing_check():
    examples = dict(COMMANDS)
    assert examples["kummer --d 5"] == "59049"
    assert "exit 1" in examples["check-ff --d 5 --alpha 1,0"]


@pytest.mark.parametrize("args, comment", COMMANDS, ids=[args for args, _ in COMMANDS])
def test_command_line_example_runs_as_written(args, comment, capsys):
    exit_code = re.search(r"exit (\d)", comment)
    assert cli.main(shlex.split(args)) == (int(exit_code.group(1)) if exit_code else 0)
    out, err = capsys.readouterr()
    assert out and all(line.startswith("note: ") for line in err.splitlines())
    if comment.isdigit():
        assert out.strip() == comment
