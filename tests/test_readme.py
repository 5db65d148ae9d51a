"""The README's examples run as written: the library example executes, and
the program it writes runs through the simulation commands it lists."""

import importlib
import os
import re
import shlex

from click.testing import CliRunner

from parityflow.cli import main

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def fenced_blocks(language):
    with open(README) as handle:
        return re.findall(rf"^```{language}\n(.*?)^```", handle.read(), re.MULTILINE | re.DOTALL)


def test_library_example_runs():
    [example] = fenced_blocks("python")
    exec(compile(example, "README.md", "exec"), {})


def test_program_example_runs_through_the_simulation_commands(tmp_path, monkeypatch):
    [script] = [block for block in fenced_blocks("sh") if "program.json" in block]
    [program] = re.findall(r"^cat > program\.json <<'EOF'\n(.*?)^EOF$", script, re.MULTILINE | re.DOTALL)
    commands = [shlex.split(line)[1:] for line in script.splitlines() if re.match(r"parityflow (sim|compare) ", line)]
    assert [command[:2] for command in commands] == [["sim", "parity"], ["sim", "mbqc"], ["compare", "--program"]]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "program.json").write_text(program)
    runner = CliRunner()
    for command in commands:
        result = runner.invoke(main, command, catch_exceptions=False)
        assert result.exit_code == 0, (command, result.stderr)


# the width the Layout block's rows are wrapped to
LAYOUT_WIDTH = 76


def layout_lines():
    """The lines of the Layout block, its `src/parityflow/` heading first."""
    [block] = [block for block in fenced_blocks("") if block.startswith("src/parityflow/")]
    return block.splitlines()


def layout_rows():
    """The Layout block's module rows: each module's name with the text of
    its row, continuation lines included."""
    rows = {}
    for line in layout_lines()[1:]:
        head = re.match(r"^  (\w+)\.py\s+(.*)$", line)
        if head:
            module, text = head.groups()
            rows[module] = text
        elif line.startswith(" " * 18) and rows:
            rows[module] += " " + line.strip()
        else:
            break
    return rows


def test_layout_names_resolve():
    """Each backticked identifier in a module's row of the Layout block is
    an attribute of that module, or, written `module.name`, of the module
    it names: a change that removes a name has to mend the README too."""
    names = 0
    for module, text in layout_rows().items():
        for name in re.findall(r"`([A-Za-z_]\w*(?:\.\w+)?)`", text):
            owner, _, attribute = name.rpartition(".")
            assert hasattr(importlib.import_module(f"parityflow.{owner or module}"), attribute), (module, name)
            names += 1
    assert names, "no backticked name found in the Layout block"


def test_layout_block_fits_its_wrap_width():
    long = [line for line in layout_lines() if len(line) > LAYOUT_WIDTH]
    assert not long, long
