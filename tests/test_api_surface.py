"""Production modules carry no test-only API.

Every public module-level function or class in src/soarsim and scripts/,
and every public method or property of such a class, must be named
somewhere in src/ or scripts/ outside its own definition. The package
__init__.py only re-exports names, so a mention there does not count.
Every field of a dataclass in src/soarsim must be read, as an attribute,
somewhere in src/ or scripts/: a field that is only ever written is dead.
No field that a param builder always sets may have a default of its own:
params.PARAM_SPEC is the one copy of those defaults.
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


def dataclass_fields():
    """(qualified name, field name) of each field of each dataclass in src/soarsim."""
    for path in FILES:
        if path.parent.name != "soarsim":
            continue
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if not isinstance(node, ast.ClassDef) or not any(
                getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
                for d in node.decorator_list
            ):
                continue
            for member in node.body:
                if isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                    yield f"{path.stem}.{node.name}.{member.target.id}", member.target.id


def test_every_dataclass_field_is_read_by_production_code():
    read = {
        node.attr
        for path in FILES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    fields = list(dataclass_fields())
    assert len(fields) > 50
    assert sorted(qualified for qualified, name in fields if name not in read) == []


def test_allow_list_holds_only_unused_names_with_a_reason():
    assert set(ALLOWED) <= unused_names()
    assert all(reason.strip() for reason in ALLOWED.values())


def builder_keywords() -> dict[str, set[str]]:
    """Class name -> the keywords every call of that class by name in a
    param builder (a *_from_params function or mission_from_dict) passes."""
    passed: dict[str, set[str]] = {}
    for path in FILES:
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if not isinstance(node, ast.FunctionDef) or not (
                node.name.endswith("_from_params") or node.name == "mission_from_dict"
            ):
                continue
            for call in ast.walk(node):
                if isinstance(call, ast.Call) and isinstance(call.func, ast.Name):
                    keywords = {kw.arg for kw in call.keywords if kw.arg is not None}
                    name = call.func.id
                    passed[name] = passed[name] & keywords if name in passed else keywords
    return passed


def test_no_field_a_param_builder_sets_has_a_default():
    # the param table (params.PARAM_SPEC) is the one source of these defaults
    passed = builder_keywords()
    assert {"AirframeParams", "PidGains", "NoiseConfig", "PlannerConfig", "BaselineConfig", "MissionConfig"} <= set(passed)
    copies = []
    for path in FILES:
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.ClassDef):
                copies += [
                    f"{path.stem}.{node.name}.{member.target.id}"
                    for member in node.body
                    if isinstance(member, ast.AnnAssign) and member.value is not None
                    and member.target.id in passed.get(node.name, ())
                ]
    assert sorted(copies) == []
