"""Code in src/ltlnav that nothing in src uses, so that test-only code lives
under tests/.  Names resolve by kind, the way Python resolves them:

- a module-level function, class or constant is used when src reads it as
  a global name of its own module (the compiler's symbol table decides, so
  a local variable that shares the name is no use), imports it from its
  module, or reads it as an attribute of that module;
- a method is used when src takes it as an attribute (`x.name`).

Either use must lie outside the definition itself, and outside every
definition found unused, repeated to a fixpoint: code that only unused code
uses is unused too."""

import ast
import symtable
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
    # reached only through the entries above; they leave src with the
    # exact subgoal search and the test oracles (ROADMAP items 2 and 10)
    "executor.SATISFIED",
    "executor.UNDETERMINED",
    "executor.VIOLATED",
    "subgoals.LassoPath",
    "subgoals._lassos",
}


def definitions(module: str, tree: ast.Module):
    """(qualified name, bare name, node, is a method) per module-level
    function, class and constant and per method; dunder methods run
    implicitly, and __all__ is the export list itself."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, node, False
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id != "__all__":
                    yield f"{module}.{target.id}", target.id, node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__"))):
                    yield (f"{module}.{node.name}.{item.name}", item.name,
                           item, True)


def global_reads(table: symtable.SymbolTable):
    """(name, line) per module global that a scope under table reads, the
    line being the scope's own (0 for the module scope)."""
    line = 0 if table.get_type() == "module" else table.get_lineno()
    for sym in table.get_symbols():
        if sym.is_referenced() and sym.is_global():
            yield sym.get_name(), line
    for child in table.get_children():
        yield from global_reads(child)


def source_module(node: ast.ImportFrom) -> str | None:
    """The ltlnav module a from-import takes names from; "" for the
    package itself, whose names are modules."""
    name = node.module or ""
    if node.level == 1:
        return name
    if node.level == 0 and (name == "ltlnav" or name.startswith("ltlnav.")):
        return name[len("ltlnav."):]
    return None


def uses(module: str, tree: ast.Module, text: str):
    """(owner, name, line) per use that a module makes, at that line of it:
    a read of a global of the module owner, through its own global names,
    an import or a module attribute, or, with owner None, an attribute
    taken of anything."""
    for name, line in global_reads(symtable.symtable(text, module, "exec")):
        yield module, name, line
    aliases = {}   # local name bound to an ltlnav module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and source_module(node) is not None:
            source = source_module(node)
            for alias in node.names:
                if source:
                    yield source, alias.name, node.lineno
                else:
                    aliases[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield None, node.attr, node.lineno
            if isinstance(node.value, ast.Name) and node.value.id in aliases:
                yield aliases[node.value.id], node.attr, node.lineno


def unused_definitions(texts: dict[str, str]) -> set[str]:
    """The qualified names of the definitions that nothing in texts uses,
    texts mapping each module name to its source.  A use inside an unused
    definition does not count, so the scan repeats until no more are
    found."""
    trees = {module: ast.parse(text) for module, text in texts.items()}
    found: dict[tuple, list[tuple[str, int]]] = {}
    for reader, tree in trees.items():
        for owner, name, line in uses(reader, tree, texts[reader]):
            found.setdefault((owner, name), []).append((reader, line))
    defs = [(module, *d) for module, tree in trees.items()
            for d in definitions(module, tree)]
    unused: set[str] = set()
    while True:
        dead = [(module, node) for module, qualified, _, node, _ in defs
                if qualified in unused]
        now = {qualified for module, qualified, name, node, method in defs
               if all(inside([(module, node), *dead], reader, line)
                      for reader, line in found.get(
                          (None if method else module, name), ()))}
        if now == unused:
            return unused
        unused = now


def inside(spans, reader: str, line: int) -> bool:
    """Does line `line` of module `reader` lie in one of the (module,
    node) spans?"""
    return any(reader == module and node.lineno <= line <= node.end_lineno
               for module, node in spans)


def test_uses_inside_unused_code_do_not_count():
    texts = {
        "a": "def helper():\n    return 1\n\n\n"
             "def oracle():\n    return helper()\n\n\n"
             "def run():\n    return step()\n\n\n"
             "def step():\n    return 2\n",
        "b": "from .a import run\n\nrun()\n",
    }
    assert unused_definitions(texts) == {"a.helper", "a.oracle"}


def test_every_src_definition_is_used_in_src():
    texts = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    unused = unused_definitions(texts)
    assert unused == ALLOWED, sorted(unused ^ ALLOWED)
