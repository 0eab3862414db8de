"""README.md's quickstarts run as written, and its CLI section names every flag and config key.

Every snippet is read from README.md itself, so an edit that breaks one fails here.
"""

import re
import shlex
from pathlib import Path

import pytest

from stapy import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def section(title):
    """The text under README's ``## title`` heading, up to the next ``## `` heading."""
    (text,) = [part for part in re.split(r"^## ", README, flags=re.M) if part.startswith(title + "\n")]
    return text


def first_block(text, lang):
    """The body of the first ```lang fenced block in ``text``."""
    return re.search(rf"^```{lang}\n(.*?)^```$", text, flags=re.M | re.S).group(1)


CLI_LINES = [line for line in first_block(section("CLI"), "sh").splitlines() if line.startswith("stapy ")]


def test_library_quickstart_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(first_block(section("Library quickstart"), "python"), "README.md", "exec"), {})
    out, err = capsys.readouterr()
    assert err == ""
    assert float(out.splitlines()[0]) >= 0.0, "the first line printed is result.fbest"
    assert list(tmp_path.iterdir()) == []


def test_cli_quickstart_shows_stapy_commands():
    assert CLI_LINES, "the first sh block under ## CLI holds stapy commands"


@pytest.mark.parametrize("line", CLI_LINES)
def test_cli_quickstart_line_runs(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = shlex.split(line, comments=True)
    assert cli.main(argv[1:]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.startswith("seed ")
    assert list(tmp_path.iterdir()) == []


def test_cli_section_names_every_flag():
    text = section("CLI")
    flags = [o for action in cli.build_parser()._actions for o in action.option_strings]
    missing = [
        flag
        for flag in flags
        if flag not in ("-h", "--help") and not re.search(rf"(?<![\w-]){re.escape(flag)}(?![\w-])", text)
    ]
    assert missing == []


def test_cli_flag_table_names_only_the_parser_flags():
    """The converse: a flag the parser no longer has cannot stay in the table."""
    rows = [line.split("|")[1] for line in section("CLI").splitlines() if line.startswith("| `")]
    in_table = {flag for cell in rows for flag in re.findall(r"--[\w-]+", cell)}
    flags = {o for action in cli.build_parser()._actions for o in action.option_strings}
    assert in_table == flags - {"-h", "--help"}


def test_config_paragraph_names_every_key():
    (paragraph,) = [p for p in section("CLI").split("\n\n") if p.startswith("A `--config` file")]
    assert [key for key in cli._CONFIG_KEYS if f"`{key}`" not in paragraph] == []


def test_config_paragraph_lists_only_the_config_keys():
    """The converse: a key the CLI no longer reads cannot stay in the paragraph's key list."""
    (paragraph,) = [p for p in section("CLI").split("\n\n") if p.startswith("A `--config` file")]
    first_sentence = re.split(r"\.\s", paragraph, maxsplit=1)[0]
    assert sorted(re.findall(r"`(\w+)`", first_sentence)) == sorted(cli._CONFIG_KEYS)
