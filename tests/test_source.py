import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "ellnmds"


def test_no_assert_statements_in_the_library():
    # python -O strips assert statements; invariants raise InvariantViolated
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
