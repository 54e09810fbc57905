"""Production modules carry no test-only API.

Every public module-level function or class in src/soarsim and scripts/,
and every public method or property of such a class, must be named
somewhere in src/ or scripts/ outside its own definition. The package
__init__.py only re-exports names, so a mention there does not count.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
FILES = sorted((REPO / "src" / "soarsim").glob("*.py")) + sorted((REPO / "scripts").glob("*.py"))

# qualified name -> why it may stay although no production code names it
ALLOWED = {
    "dynamics.turn_radius": "reference formula v^2/(g tan phi) that acceptance test c05 checks the kinematics against",
}


def definitions(path: Path, tree: ast.Module):
    """(qualified name, bare name, first line, last line) of each public
    module-level function or class and each public method or property."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs) or node.name.startswith("_"):
            continue
        yield f"{path.stem}.{node.name}", node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, defs) and not member.name.startswith("_"):
                    yield (f"{path.stem}.{node.name}.{member.name}", member.name,
                           member.lineno, member.end_lineno)


def mentions(tree: ast.Module):
    """(name, line) of every identifier and attribute the code reads or writes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def unused_names() -> set[str]:
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in FILES}
    used = {path: list(mentions(tree)) for path, tree in trees.items() if path.name != "__init__.py"}
    unused = set()
    for path, tree in trees.items():
        for qualified, name, first, last in definitions(path, tree):
            if not any(
                mention == name and (other != path or not first <= line <= last)
                for other, names in used.items()
                for mention, line in names
            ):
                unused.add(qualified)
    return unused


def test_every_public_name_is_used_by_production_code():
    assert sorted(unused_names() - set(ALLOWED)) == []


def test_allow_list_holds_only_unused_names_with_a_reason():
    assert set(ALLOWED) <= unused_names()
    assert all(reason.strip() for reason in ALLOWED.values())
