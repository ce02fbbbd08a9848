"""The library keeps no surface that nothing uses.

(a) Every function, class and method defined in src/chdiv is named
somewhere in src/chdiv or perfbench/*.py outside its own definition, as
an AST Name, an Attribute or a string constant (perfbench/layers.py
names the functions it wraps as strings).  Dunder methods are called by
the language and are not checked.

(b) No src/chdiv module imports a name it never uses.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "chdiv").glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))

# qualified name -> why it stays without a caller in src/chdiv or
# perfbench; every entry must still be defined and still lack a caller
KEPT = {
    "round_instance": "the paper's rounding lemma, checked by an "
                      "acceptance test",
    "snake_embed": "the [7]^N -> [8]^N step of the Tucker reduction",
    "snake_preimage": "maps a solution back through snake_embed",
    "bits_to_coord": "inverse of point_bits; tests check the pair",
    "simulate_phases": "error-free simulator semantics that tests "
                       "compare the compiled gates against",
    "find_solution": "lattice search for a Tucker solution; tests use it",
    "audit_two_block_uniform": "checks the paper's two-block-uniform "
                               "shape; tests run it on compiled instances",
    "enumerate_gate_cuts": "grid enumeration of one gate's satisfying "
                           "cuts; the gate sweeps in tests use it",
    "Solution.merged": "merges equal adjacent labels; tests compare "
                       "against it",
    "Circuit.format": "inverse of Circuit.parse, checked by round trips",
    "to_truncated": "the linear-FIXP to truncated circuit step; a CLI "
                    "caller needs a new circuit keyword",
    "LinFixpCircuit": "input class of to_truncated",
    "eval_linfixp": "evaluator of LinFixpCircuit",
}

# module -> names imported but not used there, and why
UNUSED_IMPORTS = {
    # verify stays importable as chdiv.dp.verify and chdiv.lp.verify,
    # sites that perfbench/layers.py wraps
    "dp": {"verify"},
    "lp": {"verify"},
}


def _trees(paths):
    return {p: ast.parse(p.read_text(), str(p)) for p in paths}


def _definitions(tree):
    """(qualified name, short name, node) of each module-level function
    and class and each method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__"))):
                    yield "%s.%s" % (node.name, item.name), item.name, item


def _references(tree):
    """(name, line) of every Name, Attribute and string constant."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def test_every_library_name_has_a_caller():
    trees = _trees(SRC + BENCH)
    refs = {p: list(_references(t)) for p, t in trees.items()}
    unused = {}
    for path in SRC:
        for qual, name, node in _definitions(trees[path]):
            own = range(node.lineno, node.end_lineno + 1)
            if not any(n == name and not (p == path and line in own)
                       for p, rs in refs.items() for n, line in rs):
                unused[qual] = path.stem
    assert sorted("%s:%s" % (m, q) for q, m in unused.items()
                  if q not in KEPT) == []
    assert sorted(set(KEPT) - set(unused)) == []


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path, tree in _trees(SRC).items():
        if path.stem == "__init__":     # re-exports are the package surface
            continue
        imported = [a.asname or a.name.split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    for a in node.names]
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += ["%s:%s" % (path.stem, name) for name in imported
                   if name not in names
                   and name not in UNUSED_IMPORTS.get(path.stem, ())]
    assert unused == []
