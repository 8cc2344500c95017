"""The counting rules of tools/src_lines.py, which measures the package's size."""

import importlib.util
import textwrap
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"
_spec = importlib.util.spec_from_file_location("src_lines", TOOL)
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)


def count(source: str) -> int:
    return src_lines.code_lines(textwrap.dedent(source))


def test_docstrings_are_not_counted():
    source = '''
        """Module docstring,
        over two lines."""


        class C:
            """Class docstring."""

            def method(self):
                """Method
                docstring."""
                return 1


        async def f():
            """Coroutine docstring."""
            return 2
    '''
    # class C, def method, return 1, async def f, return 2
    assert count(source) == 5


def test_comments_and_blank_lines_are_not_counted():
    source = """
        # a comment

        x = 1  # a trailing comment does not make a second line

            # an indented comment
        y = 2
    """
    assert count(source) == 2


def test_a_string_that_is_not_a_docstring_is_counted():
    source = '''
        def f():
            x = 1
            """Not a docstring: it is not first in the body."""
            return """one
        two
        three"""
    '''
    # def, x = 1, the lone string, and the three lines of the returned string
    assert count(source) == 6


def test_each_module_then_the_total(capsys):
    assert src_lines.main() == 0
    lines = capsys.readouterr().out.splitlines()
    modules = sorted(src_lines.SRC.glob("*.py"))
    assert [line.split()[1] for line in lines[:-1]] == [p.name for p in modules]
    assert int(lines[-1]) == sum(int(line.split()[0]) for line in lines[:-1]) > 0
