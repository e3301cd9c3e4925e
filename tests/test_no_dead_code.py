"""Every public function, class and method of the package is used by it.

A public top-level function or class, or a public method, whose name appears
nowhere in `src/capbias` outside its own definition is code that only tests
reach. Names are matched as plain identifiers (a call, an attribute, an
import, or a string in `__all__`), so a name shared with code that is used
counts as used.
"""

import ast
from collections import Counter
from pathlib import Path

import capbias

PACKAGE = Path(capbias.__file__).parent

# Test oracles: the package keeps them so that tests can check it against an
# independent computation, and nothing in the package calls them.
ORACLES = {
    "gradient_check",  # classifier: analytic against central-difference gradients
    "marker_task_words",  # synth: the task words of a closed-form BA
    # vocab: the benchmark's check that no attribute word reaches a vocabulary
    # reads every vocabulary the protocol builds through it (perfbench/child.py)
    "to_json",
}


def _uses(node):
    """Identifier occurrences within `node` that are not definitions."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            names[sub.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(sub, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in sub.targets
        ):
            for item in ast.walk(sub.value):
                if isinstance(item, ast.Constant) and isinstance(item.value, str):
                    names[item.value] += 1
    return names


def _public_definitions(tree):
    """(qualified name, node) for each public top-level function or class and
    each public method."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield f"{node.name}.{member.name}", member


def test_every_public_definition_is_used_by_the_package():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    uses = Counter()
    for tree in trees.values():
        uses.update(_uses(tree))
    unused = [
        f"{module}:{qualname}"
        for module, tree in trees.items()
        for qualname, node in _public_definitions(tree)
        if node.name not in ORACLES and uses[node.name] == _uses(node)[node.name]
    ]
    assert unused == []
