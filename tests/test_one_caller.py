"""Every public module-level name in ``src/heartid`` has a caller in ``src/``.

A name counts as used when a module other than its own reaches it by
``module.name`` or ``from .module import name``, or when its own module names
it outside its definition.  Docstrings and tests do not count.  Every dataclass
field and property is read somewhere in ``src/`` as well.  An exception
type must also be raised, caught or warned somewhere in ``src/``, and every
raise of a ``PipelineError`` passes the message that names its cause.
"""

import ast
from pathlib import Path

import heartid

SRC = Path(heartid.__file__).resolve().parent

# name -> why it stays without a caller in src/
ALLOWED: dict[str, str] = {}


def _definitions(tree: ast.Module):
    """(name, defining statement) for each public module-level function, class or constant."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [stmt.name]
        elif isinstance(stmt, ast.Assign):
            targets = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            targets = [stmt.target.id]
        else:
            continue
        for name in targets:
            if not name.startswith("_"):
                yield name, stmt


def _uses(module: str, stmt: ast.stmt) -> set[tuple[str, str]]:
    """(module, name) pairs that ``stmt`` of ``module`` references."""
    uses = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            uses.add((module, node.id))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            uses.add((node.value.id, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module:
            source = node.module.removeprefix("heartid.")
            uses.update((source, alias.name) for alias in node.names)
    return uses


def _names_without_caller() -> list[str]:
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    uses_by_stmt = {
        (module, id(stmt)): _uses(module, stmt)
        for module, tree in modules.items()
        for stmt in tree.body
    }
    return [
        f"{module}.{name}"
        for module, tree in modules.items()
        for name, stmt in _definitions(tree)
        if not any((module, name) in uses for key, uses in uses_by_stmt.items()
                   if key != (module, id(stmt)))
    ]


def test_every_public_name_has_a_caller_in_src():
    assert [name for name in _names_without_caller() if name not in ALLOWED] == []


def test_allowlist_is_not_stale():
    # an entry that gained a caller, or whose definition is gone, should leave the list
    assert set(ALLOWED) <= set(_names_without_caller())


# module.Class.field -> why it stays without a reader in src/
_ECHO = "read only by perfbench/tracer.py until an extract provenance file carries it"
FIELDS_ALLOWED: dict[str, str] = {
    "radar.EchoSelection.angle_deg": _ECHO,
    "radar.EchoSelection.range_m": _ECHO,
    "radar.EchoSelection.low_snr": _ECHO,
}


def _is_dataclass(cls: ast.ClassDef) -> bool:
    decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
    return any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators)


def _fields_without_reader() -> list[str]:
    """Dataclass fields and properties in src/ whose name src/ never reads.

    A read is an attribute load of the name, or a ``getattr`` with it as a
    string constant.  The scan matches by name alone, so a read of another
    class's field of the same name also counts: ``EchoSelection.power`` has
    no reader, but the reads of ``BeamformResult.power`` hide it.
    """
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    read, fields = set(), []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "getattr" and len(node.args) > 1
                  and isinstance(node.args[1], ast.Constant)):
                read.add(node.args[1].value)
            elif isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if (_is_dataclass(node) and isinstance(stmt, ast.AnnAssign)
                            and isinstance(stmt.target, ast.Name)):
                        fields.append((module, node.name, stmt.target.id))
                    elif isinstance(stmt, ast.FunctionDef) and any(
                            isinstance(d, ast.Name) and d.id == "property"
                            for d in stmt.decorator_list):
                        fields.append((module, node.name, stmt.name))
    return [f"{module}.{cls}.{name}" for module, cls, name in fields if name not in read]


def test_every_field_and_property_has_a_reader_in_src():
    assert [name for name in _fields_without_reader() if name not in FIELDS_ALLOWED] == []


def test_field_allowlist_is_not_stale():
    # an entry that gained a reader, or whose field is gone, should leave the list
    assert set(FIELDS_ALLOWED) <= set(_fields_without_reader())


def _names(node: ast.expr | None) -> set[str]:
    """Class names that a raise, except or warn argument refers to."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Tuple):
        return set().union(*map(_names, node.elts))
    return {node.id} if isinstance(node, ast.Name) else set()


def _is_message(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, str) and node.value.strip() != ""
    return isinstance(node, ast.JoinedStr) and node.values != []


def _error_use() -> tuple[set[str], list[str]]:
    """Error classes that src/ never raises, catches or warns, and the raises of
    a PipelineError whose first argument is not a non-empty string or f-string."""
    classes = [s for s in ast.parse((SRC / "errors.py").read_text()).body
               if isinstance(s, ast.ClassDef)]
    pipeline = {"PipelineError"}
    for cls in classes:  # errors.py defines each base before its subclasses
        if any(isinstance(b, ast.Name) and b.id in pipeline for b in cls.bases):
            pipeline.add(cls.name)
    used, silent = set(), []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise):
                used |= _names(node.exc)
                exc = node.exc
                if _names(exc) & pipeline and not (
                    isinstance(exc, ast.Call) and exc.args and _is_message(exc.args[0])
                ):
                    silent.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ExceptHandler):
                used |= _names(node.type)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "warn"):
                used |= set().union(*map(_names, node.args))
    return {cls.name for cls in classes} - used, silent


def test_every_error_type_is_raised_caught_or_warned():
    assert _error_use()[0] == set()


def test_every_pipeline_error_names_its_cause():
    assert _error_use()[1] == []
