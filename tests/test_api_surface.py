"""Production modules carry no test-only API.

Every public module-level function or class in src/soarsim and scripts/,
and every public method or property of such a class, must be named
somewhere in src/ or scripts/ outside its own definition.
Every field of a dataclass in src/soarsim must be read, as an attribute
or through asdict of a whole record, somewhere in src/ or scripts/: a
field that is only ever written is dead. The check matches names, not
owners: a field passes when any attribute of its name is read anywhere,
so a dead field that shares its name with a live one (a trajectory's
t beside world.t) slips through.
No field that a param builder always sets may have a default of its own:
params.PARAM_SPEC is the one copy of those defaults. Each input schema
has one entry for each key its builder reads, and no other, and names
only kinds that params.KINDS declares. README's parameter table names
every key of params.PARAM_SPEC.
"""

import ast
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

from soarsim import environment
from soarsim.environment import RANDOM_THERMALS, RANDOM_WIND, RING, SITE, THERMAL, Scenario, ThermalSpec
from soarsim.experiment import SUMMARY, FlightSummary
from soarsim.mission import MISSION, mission_from_dict
from soarsim.params import KINDS, PARAM_SPEC, Section

REPO = Path(__file__).resolve().parents[1]
FILES = sorted((REPO / "src" / "soarsim").glob("*.py")) + sorted((REPO / "scripts").glob("*.py"))

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
    used = {path: list(mentions(tree)) for path, tree in trees.items()}
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
    assert sorted(unused_names()) == []


def test_importing_the_package_imports_none_of_its_modules():
    # the package's API is its modules: soarsim.mission, soarsim.cli, ...
    code = "import sys, soarsim; print(sorted(name for name in sys.modules if name.startswith('soarsim.')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(REPO / "src")})
    assert out.stdout == "[]\n"


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


def read_whole() -> set[str]:
    """Classes that production code reads every field of at once: asdict(rec)
    in a function where rec = f(...) and f is annotated to return the class."""
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in FILES]
    returns = {node.name: ast.unparse(node.returns) for tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.returns is not None}
    whole = set()
    for fn in (node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)):
        made = {target.id: returns.get(node.value.func.id)
                for node in ast.walk(fn)
                if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Name)
                for target in node.targets if isinstance(target, ast.Name)}
        whole |= {made.get(call.args[0].id) for call in ast.walk(fn)
                  if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "asdict"
                  and isinstance(call.args[0], ast.Name)}
    return whole


def test_every_dataclass_field_is_read_by_production_code():
    read = {
        node.attr
        for path in FILES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    whole = read_whole()
    assert "FlightRecord" in whole  # cli.cmd_run prints asdict(rec)
    fields = list(dataclass_fields())
    assert len(fields) > 50
    unread = [q for q, name in fields if name not in read and q.split(".")[1] not in whole]
    assert sorted(unread) == []


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
    assert {"AirframeParams", "NoiseConfig", "PlannerConfig", "BaselineConfig", "MissionConfig"} <= set(passed)
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


def string_constants(function) -> set[str]:
    """The string constants in a function's body, its docstring and the
    text of its f-strings (messages) left out: the keys it reads from the
    JSON objects it is given."""
    node = ast.parse(Path(function.__code__.co_filename).read_text()).body
    node = next(n for n in node if isinstance(n, ast.FunctionDef) and n.name == function.__name__)
    skip = {id(getattr(node.body[0], "value", None))}
    skip |= {id(part) for f in ast.walk(node) if isinstance(f, ast.JoinedStr) for part in f.values}
    return {c.value for c in ast.walk(node) if isinstance(c, ast.Constant) and isinstance(c.value, str)
            and id(c) not in skip}


def test_each_input_schema_has_one_entry_per_key_read():
    # a Scenario field the schema misses could not be set; a key the schema
    # misses would be rejected, and one the builder ignores would load unread
    assert set(SITE.keys) == {f.name for f in fields(Scenario) if f.init} | {"mission", "schema_version", "site"}
    assert set(RANDOM_THERMALS.keys) | set(RANDOM_WIND.keys) | set(RING.keys) == string_constants(environment.materialize)
    # _thermal_spec passes a thermal entry to ThermalSpec key for key
    assert set(THERMAL.keys) == {f.name for f in fields(ThermalSpec)}
    assert set(MISSION.keys) <= string_constants(mission_from_dict)
    assert set(SUMMARY.keys) == {f.name for f in fields(FlightSummary)}


def kind_names(kind) -> set:
    """The KINDS names a kind uses: its own, or those of a Section's
    values or of a list kind's item."""
    if isinstance(kind, Section):
        return set().union(*map(kind_names, kind.keys.values()))
    if isinstance(kind, list):
        return kind_names(kind[0])
    return {kind}


def test_every_schema_names_only_declared_kinds():
    # check() looks a kind up in KINDS: a misspelt one would be a KeyError,
    # which exits 3 on a valid file
    named = set().union(*map(kind_names, [SITE, MISSION, SUMMARY] + [kind for kind, _ in PARAM_SPEC.values()]))
    assert named - set(KINDS) == set()
    assert {"radius", "radius range", "positive range", "vario rate", "lifetime", "object"} <= named


def test_readme_parameter_table_names_every_key():
    section = (REPO / "README.md").read_text().split("## Parameter file", 1)[1].split("\n## ", 1)[0]
    table = "\n".join(line for line in section.splitlines() if line.startswith("|"))
    assert [key for key in PARAM_SPEC if f"`{key}`" not in table] == []
