"""The README's examples still run: each command line parses and names a real
suite, and the library example prints what its comments say."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from pushcops import verify
from pushcops.cli import build_parser

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def block(heading: str, lang: str) -> str:
    """The first ```lang fenced block after `## heading`."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_command_line_examples_parse():
    lines = [line for line in block("Command line", "sh").splitlines()
             if line.startswith("pushcops ")]
    assert lines
    parser = build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        if args.command == "verify":
            assert args.suite in verify.SUITES, line


def test_library_example_prints_its_comments():
    code = block("Library example", "python")
    expected = [line.split("#", 1)[1].strip() for line in code.splitlines()
                if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert expected and out.getvalue().splitlines() == expected
