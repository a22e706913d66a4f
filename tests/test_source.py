"""Rules on the package source that no unit test of behaviour would catch."""

import ast
from pathlib import Path

import depthlab

BROAD = {"Exception", "BaseException"}


def test_no_broad_exception_handlers():
    # an error is never turned into None or False: a handler names the
    # exceptions it can act on
    root = Path(depthlab.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = node.type
            names = caught.elts if isinstance(caught, ast.Tuple) else [caught]
            if caught is None or any(isinstance(n, ast.Name) and n.id in BROAD
                                     for n in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_tables_are_written_by_write_table_only():
    # every CSV table goes through cli.write_table, so no second
    # table-writing path with its own dialect comes back
    root = Path(depthlab.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute) and node.attr == "writer"
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "csv"):
                found.append(f"{path.name}:{node.lineno}")
            elif (isinstance(node, ast.ImportFrom) and node.module == "csv"
                  and any(a.name == "writer" for a in node.names)):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _is_dataclass(decorator) -> bool:
    """``@dataclass``, ``@dataclasses.dataclass``, or either called."""
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"


def test_every_dataclass_has_a_docstring():
    # without one, dataclasses builds __doc__ from inspect.signature at
    # import, and the reader is left to guess what the fields mean
    root = Path(depthlab.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.ClassDef)
                    and any(map(_is_dataclass, node.decorator_list))
                    and ast.get_docstring(node) is None):
                found.append(f"{path.name}:{node.name}")
    assert found == []


def test_streams_are_keyed_in_models_only():
    # every random word comes from a Philox keyed in ``models`` by (seed,
    # column) or (master, domain * 2**32); no second key derivation, such
    # as a SeedSequence hash, comes back
    root = Path(depthlab.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        text = path.read_text()
        if "SeedSequence" in text:
            found.append(f"{path.name}: SeedSequence")
        for node in ast.walk(ast.parse(text, str(path))):
            if (isinstance(node, ast.Call) and path.name != "models.py"
                    and getattr(node.func, "attr",
                                getattr(node.func, "id", None)) == "Philox"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _annotations(tree):
    """Every annotation in a module: of arguments, of returns and of
    annotated assignments."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotation = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        else:
            continue
        if annotation is not None:
            yield annotation


def test_generators_stay_in_models():
    # a numpy Generator crosses no module boundary outside ``models``: no
    # signature elsewhere takes or returns one, so no sampler callback
    # comes back
    root = Path(depthlab.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "models.py":
            continue
        for annotation in _annotations(ast.parse(path.read_text(), str(path))):
            if "Generator" in ast.unparse(annotation):
                found.append(f"{path.name}:{annotation.lineno}")
    assert found == []
