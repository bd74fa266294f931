"""The package stays standard-library only: an import of anything else
would pass every other test on a host that happens to have it installed."""

import ast
import pathlib
import sys

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "pushcops"


def test_package_imports_only_the_standard_library():
    allowed = set(sys.stdlib_module_names) | {"__future__", "pushcops"}
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    outside = []
    for source in sources:
        for node in ast.walk(ast.parse(source.read_text(), str(source))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside the package
            outside += [f"{source.name}: {name}" for name in names
                        if name.partition(".")[0] not in allowed]
    assert outside == []
