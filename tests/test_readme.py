"""The README's library tour runs as written; its CLI lines parse."""

import re
import shlex
from pathlib import Path

from aperiodic import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_tour_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_cli_lines_parse():
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    lines = [shlex.split(line, comments=True) for block in blocks
             for line in block.splitlines()]
    commands = [argv[1:] for argv in lines if argv and argv[0] == "aperiodic"]
    assert commands
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv)
