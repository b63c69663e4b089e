"""Source hygiene of the package, read from its syntax trees.

Code nothing calls is deleted: every private module-level function,
class or constant is referenced somewhere in ``src/`` outside its own
definition; every public function, method or property is read somewhere
in ``src/`` outside its own definition (``__init__`` aside) or is kept
for a recorded reason, where a name ``src/`` defines twice counts as
read only in the function recorded for it; and every name a module
imports (``__init__`` excepted, whose imports are the public surface) is
used in that module or kept for a recorded reason.
The code lines of the package stay under a recorded ceiling, every
integer lower bound an ``InvalidParameterError`` states is spelled by
``sequences._at_least`` alone, and no call in ``src/`` falls back on the
default digit budget.
"""

import ast
import io
import tokenize
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "seriescert"
MODULES = sorted(PACKAGE.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(), str(path)) for path in MODULES}


def _defined(node: ast.stmt) -> list[str]:
    """The names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _used(nodes) -> set[str]:
    """Every name read (as a name, an attribute or an import) under nodes."""
    names = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
            elif isinstance(sub, ast.ImportFrom):
                names.update(alias.name for alias in sub.names)
    return names


PRIVATE = [
    pytest.param(module, name, node, id=f"{module}:{name}")
    for module, tree in TREES.items()
    for node in tree.body
    for name in _defined(node)
    if name.startswith("_") and not name.startswith("__")
]


@pytest.mark.parametrize("module, name, node", PRIVATE)
def test_every_private_name_is_referenced(module, name, node):
    elsewhere = [n for t in TREES.values() for n in t.body if n is not node]
    assert name in _used(elsewhere), f"{module}: {name} is defined but never referenced"


#: Names a module imports and does not use, each with the reason it stays.
KEPT_IMPORTS = {
    ("measure.py", "partial_sum"):
        "perfbench/test_perfbench.py checks that the tracer's wrapper reaches measure.partial_sum",
}


@pytest.mark.parametrize("module", [m for m in TREES if m != "__init__.py"])
def test_every_import_is_used(module):
    tree = TREES[module]
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    kept = {name for m, name in KEPT_IMPORTS if m == module}
    unused = imported - read
    assert unused <= kept, f"{module} imports {sorted(unused - kept)} and never uses them"
    assert kept <= unused, f"{module} uses or no longer imports {sorted(kept - unused)}"


#: Public functions, methods and properties that nothing else in src/
#: reads, each with the reason it stays.
KEPT_UNCALLED = {
    "brute_force_min": "perfbench/tracing.py wraps it by name",
    "convergent_range": "perfbench/tracing.py wraps it by name",
    "enumerate_brackets": "perfbench/tracing.py wraps it by name",
    "PolynomialInt.evaluate_interval": "perfbench/tracing.py wraps it by name",
    "compare_power": "the documented public exact comparison x versus y**e",
    "PolynomialInt.evaluate": "the Fraction oracle the bracket tests compare against",
    "GrowthReport.all_hold": "the window's one verdict, the reading the growth tests make",
}

#: Public definitions whose bare name src/ also defines elsewhere (a
#: field, a method of another class), so a read of the name does not say
#: whose it is: each names the src/ function, as module.name or
#: module.Class.name, that reads it.
READ_BY = {
    "tail_bound": "witness.witness",
    "bound": "measure.verify_measure",
    "rational_prefix": "witness.certify",
    "Convergent.value": "witness.rational_prefix",
    "Form.value": "sequences.term",
    "PolynomialInt.degree": "measure.abs_bracket",
    "PolynomialInt.height": "measure.verify_measure",
    "Affine.apply": "sequences._walk",
    "ExplicitIndices.apply": "sequences._walk",
    "GrowthCheck.all_hold": "sequences.GrowthReport.failures",
}


def _reads(node: ast.AST) -> Counter:
    """How often each name is read, as a name or an attribute, under node."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load))


def _members(cls: ast.ClassDef):
    """(name, node) of each method and each ``x = property(...)`` of a class."""
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
              and getattr(node.value.func, "id", None) in ("property", "cached_property")):
            yield from ((target.id, node) for target in node.targets)


def _public_definitions():
    """(qualified name, bare name, node) of every public module-level
    function and every public method or property of a public class."""
    for module, tree in TREES.items():
        for node in tree.body if module != "__init__.py" else ():
            if getattr(node, "name", "_").startswith("_"):
                continue
            if isinstance(node, ast.FunctionDef):
                yield node.name, node.name, node
            elif isinstance(node, ast.ClassDef):
                for name, member in _members(node):
                    if not name.startswith("_"):
                        yield f"{node.name}.{name}", name, member


def _shared_names() -> set[str]:
    """Bare names src/ defines more than once: as module-level functions
    or in class bodies, members and fields alike."""
    counts = Counter()
    for module, tree in TREES.items():
        for node in tree.body if module != "__init__.py" else ():
            if isinstance(node, ast.ClassDef):
                counts.update(name for stmt in node.body for name in _defined(stmt))
            elif isinstance(node, ast.FunctionDef):
                counts[node.name] += 1
    return {name for name, n in counts.items() if n > 1}


def _definition(path: str) -> ast.AST:
    """The node module.name or module.Class.name names in src/."""
    module, *names = path.split(".")
    node = TREES[f"{module}.py"]
    for name in names:
        node = next(n for n in node.body if getattr(n, "name", None) == name)
    return node


def test_every_public_function_has_a_caller_or_a_reason():
    reads = sum((_reads(t) for m, t in TREES.items() if m != "__init__.py"), Counter())
    shared = _shared_names()
    uncalled = {qualified for qualified, name, node in _public_definitions()
                if (qualified not in READ_BY if name in shared
                    else reads[name] == _reads(node)[name])}
    unkept, stale = sorted(uncalled - KEPT_UNCALLED.keys()), sorted(KEPT_UNCALLED.keys() - uncalled)
    assert unkept == [], f"read nowhere else in src/ and kept for no reason: {unkept}"
    assert stale == [], f"kept as uncalled, but now read elsewhere or gone: {stale}"


@pytest.mark.parametrize("qualified, reader", READ_BY.items())
def test_a_shared_name_is_read_where_recorded(qualified, reader):
    definitions = {q: (name, node) for q, name, node in _public_definitions()}
    assert qualified in definitions, f"{qualified} is gone"
    name, node = definitions[qualified]
    assert name in _shared_names(), f"{name} is no longer shared; count its reads instead"
    found = _definition(reader)
    assert isinstance(found, ast.FunctionDef) and found is not node
    assert _reads(found)[name] > 0, f"{reader} does not read {name}"


#: Code lines of src/seriescert/*.py as _code_lines counts them. A change
#: that adds no capability must not raise this; one that adds a capability
#: raises it and records the new count and the reason in CHANGES.md.
CODE_LINE_CEILING = 1505

_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}
_LAYOUT = _STATEMENT_START | {tokenize.ENCODING, tokenize.ENDMARKER}


def _code_lines(source: str) -> int:
    """Lines holding code: lines of any token but comments, blanks and
    layout, where a string that is a statement on its own (a docstring)
    does not count."""
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(source).readline)
              if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for prev, tok, nxt in zip([None, *tokens], tokens, [*tokens[1:], None]):
        docstring = (tok.type == tokenize.STRING and nxt.type == tokenize.NEWLINE
                     and (prev is None or prev.type in _STATEMENT_START))
        if tok.type not in _LAYOUT and not docstring:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def test_code_lines_stay_under_the_ceiling():
    count = sum(_code_lines(path.read_text()) for path in MODULES)
    assert count <= CODE_LINE_CEILING, f"{count} code lines, ceiling {CODE_LINE_CEILING}"


@pytest.mark.parametrize("source, count", [
    ('"""Docstring."""\n\nX = 1  # comment\n', 1),
    ('def f():\n    """Two\n    lines."""\n    return """not\n    a docstring"""\n', 3),
    ('class C:\n    "doc"\n    x = (\n        1,\n    )\n', 4),
])
def test_code_lines_skip_docstrings_comments_and_blanks(source, count):
    assert _code_lines(source) == count


def _literal_text(call: ast.Call) -> str:
    """The literal text of a call's arguments, f-string pieces included."""
    return "".join(node.value for arg in call.args for node in ast.walk(arg)
                   if isinstance(node, ast.Constant) and isinstance(node.value, str))


_LOWER_BOUND_PHRASES = ("must be at least", "must be >=", "must be a positive integer")


def _lower_bound_raises(nodes) -> list[ast.Call]:
    """Every InvalidParameterError(...) under nodes whose message spells
    an integer lower bound."""
    return [call for node in nodes for call in ast.walk(node)
            if isinstance(call, ast.Call)
            and getattr(call.func, "id", None) == "InvalidParameterError"
            and any(s in _literal_text(call) for s in _LOWER_BOUND_PHRASES)]


def test_integer_lower_bounds_are_spelled_once():
    owner = next(node for node in TREES["sequences.py"].body
                 if getattr(node, "name", None) == "_at_least")
    assert _lower_bound_raises([owner]), "the check no longer sees _at_least's own message"
    spelled = [f"{module}:{call.lineno}" for module, tree in TREES.items()
               for call in _lower_bound_raises(n for n in tree.body if n is not owner)]
    assert spelled == [], f"lower bounds spelled outside sequences._at_least: {spelled}"


def _budget_positions(trees) -> dict[str, set[int]]:
    """name -> positions of the digit_budget parameter (self not counted)
    of every function or method under trees whose digit_budget defaults
    to DEFAULT_DIGIT_BUDGET."""
    positions = {}
    for node in (n for tree in trees.values() for n in ast.walk(tree)):
        if not isinstance(node, ast.FunctionDef):
            continue
        params, defaults = node.args.args, node.args.defaults
        for at, default in enumerate(defaults, start=len(params) - len(defaults)):
            if (params[at].arg == "digit_budget"
                    and getattr(default, "id", "") == "DEFAULT_DIGIT_BUDGET"):
                positions.setdefault(node.name, set()).add(at - (params[0].arg == "self"))
    return positions


def _budgetless_calls(trees) -> list[str]:
    """module:line name of every call under trees, of a function
    _budget_positions lists, that passes no budget by position or keyword."""
    positions, found = _budget_positions(trees), []
    for module, tree in trees.items():
        for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            if any(k.arg == "digit_budget" for k in call.keywords):
                continue
            if any(len(call.args) <= at for at in positions.get(name, ())):
                found.append(f"{module}:{call.lineno} {name}")
    return found


def test_every_call_passes_its_budget():
    assert _budget_positions(TREES), "the check no longer finds a budgeted function"
    assert _budgetless_calls(TREES) == []


BUDGET_CALLS = """
DEFAULT_DIGIT_BUDGET = 10
def parse(text, name="x", digit_budget=DEFAULT_DIGIT_BUDGET): pass
def form(base, digit_budget=None): pass
class Bound:
    def versus(self, value, digit_budget=DEFAULT_DIGIT_BUDGET): pass
def use(b, budget):
    parse("1", "a")
    parse("1", "a", budget)
    parse("1", digit_budget=budget)
    b.versus(1)
    b.versus(1, budget)
    form(2)
"""


def test_a_call_without_its_budget_is_found():
    trees = {"m.py": ast.parse(BUDGET_CALLS)}
    assert _budgetless_calls(trees) == ["m.py:8 parse", "m.py:11 versus"]
