"""Code in src/ltlnav that nothing in src uses: every module-level function,
class and constant, and every method, must be referenced somewhere in src
outside its own definition, so that test-only code lives under tests/."""

import ast
from pathlib import Path

import ltlnav

SRC = Path(ltlnav.__file__).resolve().parent

# referenced only by the tests and the benchmark harness
ALLOWED = {
    "__init__.__version__",
    "buchi.BuchiAutomaton.accepts_lasso",
    "executor.classify_trace_oracle",
    "ltl.eval_lasso",
    "subgoals.find_lassos",
}


def definitions(module: str, tree: ast.Module):
    """(qualified name, bare name, node) per module-level function, class
    and constant and per method; dunder methods run implicitly, and
    __all__ is the export list itself."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id != "__all__":
                    yield f"{module}.{target.id}", target.id, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__"))):
                    yield f"{module}.{node.name}.{item.name}", item.name, item


def references(node: ast.AST):
    """Every name that node reads, writes, imports or takes as an
    attribute; a definition's own name is no reference to it."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)


def test_every_src_definition_is_used_in_src():
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    counts = {}
    for tree in trees.values():
        for name in references(tree):
            counts[name] = counts.get(name, 0) + 1
    unused = set()
    for module, tree in trees.items():
        for qualified, name, node in definitions(module, tree):
            own = sum(1 for ref in references(node) if ref == name)
            if counts.get(name, 0) - own == 0:
                unused.add(qualified)
    assert unused == ALLOWED, sorted(unused ^ ALLOWED)
