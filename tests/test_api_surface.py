"""Every public top-level function and class of spinref has a caller.

A caller is a ``Name`` or ``Attribute`` node that names the definition in
another top-level statement of a ``src/spinref`` module, or anywhere in
``tests/test_acceptance.py``.  An import alone does not count, nor does
the definition's own body.  A definition that only unit tests call is API
nobody uses; delete it with its tests, or list it in KEEP with a reason.

Needs only the standard library: ``python tests/test_api_surface.py``
runs the same check without pytest and exits 1 naming what has no caller.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "spinref").glob("*.py"))
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"

# Public definitions kept without a caller, one reason each.
KEEP = (
    ("gamma_relation_holds", "the eigenvalue relation itself, which tests hold the gamma scan to"),
    ("factors_through_spin", "independent transfer check on the parahoric generators (aim 3)"),
    ("factorisation_membership", "independent check of m_tau's long-word factorisation"),
    ("pairing", "the dual-basis pairing that the lattice types are defined against"),
    ("jmath_char", "the transfer map onto the pure sublattice, a definition of the paper"),
)
KEPT = {name for name, _ in KEEP}


def referenced_names(tree: ast.AST) -> set[str]:
    """Names read through Name or Attribute nodes; import aliases are neither."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def uncalled() -> list[str]:
    """module.name of every public top-level definition without a caller."""
    definitions = []   # (module, name, index of its statement in its module)
    statements = []    # (module, index, names the statement references)
    for path in SOURCES:
        body = ast.parse(path.read_text(encoding="utf-8")).body
        for i, stmt in enumerate(body):
            statements.append((path.stem, i, referenced_names(stmt)))
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) \
                    and not stmt.name.startswith("_"):
                definitions.append((path.stem, stmt.name, i))
    acceptance = referenced_names(ast.parse(ACCEPTANCE.read_text(encoding="utf-8")))
    return [f"{module}.{name}" for module, name, i in definitions
            if name not in acceptance
            and not any(name in refs for m, j, refs in statements if (m, j) != (module, i))]


def not_kept() -> list[str]:
    return [name for name in uncalled() if name.split(".")[1] not in KEPT]


def test_every_public_definition_has_a_caller():
    missing = not_kept()
    assert not missing, f"public definitions that only unit tests call: {', '.join(missing)}"


def test_keep_names_only_definitions_without_a_caller():
    # an entry whose definition gained a caller, or was deleted, is stale
    stale = KEPT - {name.split(".")[1] for name in uncalled()}
    assert not stale, f"KEEP names definitions that have a caller or are gone: {sorted(stale)}"


if __name__ == "__main__":
    missing = not_kept()
    print("\n".join(missing) or "every public definition has a caller")
    sys.exit(1 if missing else 0)
