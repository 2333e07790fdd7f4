"""The README's examples give what the README says they give."""

import contextlib
import io
import json
import os
import re
import shlex

from partmon.cli import main

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _section(title: str) -> str:
    """The README text from the heading ``title`` to the next heading."""
    with open(README, encoding="utf-8") as handle:
        text = handle.read()
    return re.search(rf"^#+ {re.escape(title)}\n(.*?)(?=^#{{2,}} )", text, re.M | re.S).group(1)


def _blocks(section: str, language: str) -> list[str]:
    return re.findall(rf"```{language}\n(.*?)```", section, re.S)


def _partmon(capsys, line: str) -> tuple[int, str]:
    """Run a README command line (``partmon ...``, comment dropped) through main."""
    argv = shlex.split(line, comments=True)
    assert argv[0] == "partmon"
    code = main(argv[1:])
    return code, capsys.readouterr().out


def test_library_use_prints_what_it_says():
    (code,) = _blocks(_section("Library use"), "python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    # The first line is the one the block's comment announces.
    announced = re.search(r"print\(verdict\) +# (.+)", code).group(1)
    assert out.getvalue().splitlines() == [announced, "EXISTS_PZ_ONLY"]


def test_classify_example_reports_the_readme_json(capsys):
    section = _section("Classify a property")
    (command,) = _blocks(section, "sh")
    (expected,) = _blocks(section, "json")
    code, out = _partmon(capsys, command)
    assert code == 0
    assert json.loads(out) == json.loads(expected)


def test_oracle_examples_print_their_comments(capsys):
    (block,) = _blocks(_section("Query the semantics oracle"), "sh")
    lines = block.strip().splitlines()
    assert [line.rsplit("# prints ", 1)[1] for line in lines] == ["SAT", "UNSAT"]
    for line in lines:
        code, out = _partmon(capsys, line)
        assert code == 0 and out == line.rsplit("# prints ", 1)[1] + "\n"
