"""The README's library example runs, and prints what its comments say."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_example_values():
    # each expression line of the ``python`` block is evaluated and compared
    # with the value in its comment; the other lines are executed
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    namespace: dict = {}
    checked = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if not code.strip():
            continue
        if isinstance(ast.parse(code).body[0], ast.Expr):
            value = str(eval(code, namespace))
            assert value == comment.strip(), code
            checked.append(value)
        else:
            exec(code, namespace)
    assert checked == ["3*h*xi - 2*h^2 + q1", "1", "0", "True", "True", "True"]
