"""The call graph of ``src/trc``.

No new recursive walker: the call cycles among the functions of each module
are the known ones.  No dead code: every function is run by a command, by a
module's top-level code, or by a name on a short allowlist.  And the trusted
kernel does not grow unnoticed: what ``kernel.check_script`` can run is
pinned, with its size.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Optional

import trc

SRC = Path(trc.__file__).parent


def _enclosing(node: ast.AST, parents: dict) -> list[ast.AST]:
    """``node`` and its ancestors, innermost first."""
    chain = [node]
    while chain[-1] in parents:
        chain.append(parents[chain[-1]])
    return chain


def _qualified(node: ast.AST, parents: dict) -> str:
    names = [n.name for n in _enclosing(node, parents) if isinstance(n, (ast.FunctionDef, ast.ClassDef))]
    return ".".join(reversed(names))


def call_graph(tree: ast.Module) -> dict[str, set[str]]:
    """Caller -> callees among one module's functions and methods, named
    ``outer.inner`` when nested and ``Class.method`` for methods.

    A bare-name call resolves as Python resolves the name: to a function
    defined in the innermost enclosing function that has one, else to a
    module-level function; class bodies are skipped.  ``self.name(...)``
    inside a method resolves to the method of that name in its class."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    functions = [fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)]
    defined = {_qualified(fn, parents) for fn in functions}
    graph: dict[str, set[str]] = {}
    for fn in functions:
        caller = _qualified(fn, parents)
        scopes = [node for node in _enclosing(fn, parents) if isinstance(node, ast.FunctionDef)]
        owner = parents[fn]
        callees = graph.setdefault(caller, set())
        for call in ast.walk(fn):
            if not isinstance(call, ast.Call):
                continue
            if isinstance(call.func, ast.Name):
                options = [f"{_qualified(scope, parents)}.{call.func.id}" for scope in scopes]
                callees.update([name for name in options + [call.func.id] if name in defined][:1])
            elif (isinstance(call.func, ast.Attribute) and isinstance(call.func.value, ast.Name)
                  and call.func.value.id == "self" and isinstance(owner, ast.ClassDef)):
                method = f"{_qualified(owner, parents)}.{call.func.attr}"
                if method in defined:
                    callees.add(method)
    return graph


def _reachable(graph: dict[str, set[str]], start: str) -> set[str]:
    """The functions ``start`` calls, directly or through others."""
    seen: set[str] = set()
    todo = list(graph.get(start, ()))
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(graph.get(name, ()))
    return seen


def cycles(graph: dict[str, set[str]]) -> set[frozenset[str]]:
    """The groups of functions that call one another, each as the set of
    its members; a function that calls itself is a group of one."""
    reach = {name: _reachable(graph, name) for name in graph}
    return {
        frozenset(other for other in reach[name] if name in reach[other])
        for name in graph if name in reach[name]
    }


def module_graphs() -> dict[str, dict[str, set[str]]]:
    return {module: call_graph(tree) for module, tree in package_modules().items()}


def self_calling_functions() -> set[str]:
    """``module.function`` (``module.outer.inner`` when nested,
    ``module.Class.method`` for a method) for every function that calls
    itself."""
    return {
        f"{module}.{fn}"
        for module, graph in module_graphs().items()
        for fn, callees in graph.items() if fn in callees
    }


def call_cycles() -> set[frozenset[str]]:
    """Every cycle of calls within one module, as the set of its members."""
    return {
        frozenset(f"{module}.{fn}" for fn in component)
        for module, graph in module_graphs().items()
        for component in cycles(graph)
    }


# ---------------------------------------------------------------------------
# one graph over the whole package
# ---------------------------------------------------------------------------

def _runs_at_import(node: ast.AST):
    """``node`` and the nodes under it that run when it runs: all but the
    bodies of the functions it defines (their decorators and defaults run)."""
    todo = [node]
    while todo:
        sub = todo.pop()
        yield sub
        if isinstance(sub, ast.FunctionDef):
            todo += [*sub.decorator_list, *sub.args.defaults, *filter(None, sub.args.kw_defaults)]
        else:
            todo += ast.iter_child_nodes(sub)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def package_graph(modules: dict[str, ast.Module]) -> tuple[dict[str, set[str]], dict[str, ast.FunctionDef]]:
    """What each part of a package may run, over-approximated, and its functions.

    The nodes are each module's top-level code, named by the module
    (``kernel``), and its functions and classes, named ``module.qualname``
    (``kernel._Checker.run_block``).  Every name a node reads that resolves,
    as Python resolves it, to a function or class of the package is an edge:
    a function defined in an enclosing function, a module-level one, or a name
    imported with ``from .module import``, in the function or at module level.
    A name is read, not only called, so a function passed as an argument
    counts.  An attribute read ``obj.name`` reaches every method ``name`` in the
    reading module and in the modules it imports.  A class reaches its base
    classes, its metaclass and its dunder methods, and a method the methods
    that override it.  A module's top level reaches its module-level dunder
    functions (``__getattr__``).  A function's edges include those of the
    functions nested in it."""
    defs: dict[str, ast.AST] = {}
    parents: dict[str, dict] = {}
    imports: dict[tuple[str, Optional[ast.AST]], dict[str, tuple[str, str]]] = {}
    for module, tree in modules.items():
        parents[module] = up = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[f"{module}.{_qualified(node, up)}"] = node
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                scope = next((n for n in _enclosing(node, up) if isinstance(n, ast.FunctionDef)), None)
                names = imports.setdefault((module, scope), {})
                names.update({alias.asname or alias.name: (node.module, alias.name) for alias in node.names})

    def imported(module: str, name: str) -> Optional[str]:
        """The function or class ``name`` names in ``module``, through its imports."""
        while f"{module}.{name}" not in defs:
            if name not in imports.get((module, None), {}):
                return None
            module, name = imports[(module, None)][name]
        return f"{module}.{name}"

    def resolve(module: str, node: ast.Name) -> Optional[str]:
        for scope in _enclosing(node, parents[module]):
            if isinstance(scope, ast.FunctionDef):
                local = f"{module}.{_qualified(scope, parents[module])}.{node.id}"
                if local in defs:
                    return local
                if node.id in imports.get((module, scope), {}):
                    return imported(*imports[(module, scope)][node.id])
        return imported(module, node.id)

    methods: dict[tuple[str, str], set[str]] = {}
    for name, node in defs.items():
        module = name.split(".", 1)[0]
        if isinstance(node, ast.FunctionDef) and isinstance(parents[module].get(node), ast.ClassDef):
            methods.setdefault((module, node.name), set()).add(name)
    imported_modules = {module: {module} | {source for (m, _), names in imports.items() if m == module
                                            for source, _ in names.values()} for module in modules}

    def reads(module: str, nodes) -> set[str]:
        found: set[str] = set()
        for node in nodes:
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found.add(resolve(module, node))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                for source in imported_modules[module]:
                    found |= methods.get((source, node.attr), set())
        return found - {None}

    graph: dict[str, set[str]] = {}
    for module, tree in modules.items():
        graph[module] = reads(module, _runs_at_import(tree)) | {
            f"{module}.{fn.name}" for fn in tree.body if isinstance(fn, ast.FunctionDef) and _is_dunder(fn.name)}
    for name, node in defs.items():
        module = name.split(".", 1)[0]
        if isinstance(node, ast.FunctionDef):
            graph[name] = reads(module, ast.walk(node))
        else:
            heads = [*node.bases, *(k.value for k in node.keywords), *node.decorator_list]
            graph[name] = reads(module, [n for head in heads for n in ast.walk(head)]) | {
                f"{name}.{fn.name}" for fn in node.body if isinstance(fn, ast.FunctionDef) and _is_dunder(fn.name)}
    # a method reaches its overrides, which a call on a base-class instance may run
    bases = {name: {resolve(name.split(".", 1)[0], base) for base in node.bases if isinstance(base, ast.Name)} - {None}
             for name, node in defs.items() if isinstance(node, ast.ClassDef)}
    for (_, method), names in methods.items():
        for name in names:
            owner = name.rsplit(".", 1)[0]
            for ancestor in _reachable(bases, owner):
                if f"{ancestor}.{method}" in graph:
                    graph[f"{ancestor}.{method}"].add(name)
    functions = {name: node for name, node in defs.items() if isinstance(node, ast.FunctionDef)}
    return graph, functions


def package_modules() -> dict[str, ast.Module]:
    """Each module of ``src/trc`` parsed, named as in ``package_graph``; the
    package's ``__init__`` is ``trc``."""
    return {"trc" if path.stem == "__init__" else path.stem: ast.parse(path.read_text())
            for path in sorted(SRC.glob("*.py"))}


def reached(graph: dict[str, set[str]], roots) -> set[str]:
    """``roots`` and everything they may run."""
    return set(roots).union(*(_reachable(graph, root) for root in roots))


def test_only_the_known_functions_call_themselves():
    assert self_calling_functions() == {
        "terms.expand_defined",  # through definition bodies only
        "mutate._step_mutants",
        "stratify.optimize.go",
    }


def test_only_the_known_call_cycles():
    # mutual recursion, which the self-call check above cannot see
    assert call_cycles() == {
        frozenset({"terms.expand_defined"}),
        frozenset({"mutate._step_mutants"}),
        frozenset({"stratify.optimize.go"}),
        # the proof checker: a contradiction or cases step runs a block.  Kept
        # recursive: an explicit stack here would add code to the trusted kernel.
        frozenset({
            "kernel._Checker.run_block", "kernel._Checker.run_step", "kernel._Checker._dispatch",
            "kernel._Checker._contradiction", "kernel._Checker._cases",
        }),
        # the script parser: a contradiction or cases method holds a block.
        # Kept recursive: the checker above limits block nesting anyway, so a
        # flat parser alone would let no deeper script be checked.
        frozenset({
            "scriptfile._ScriptParser.parse_block_items", "scriptfile._ScriptParser.parse_method",
            "scriptfile._ScriptParser.parse_inner_block",
        }),
    }


def test_a_cycle_through_two_functions_is_found():
    tree = ast.parse(
        "def even(n):\n    return n == 0 or odd(n - 1)\n"
        "def odd(n):\n    return n != 0 and even(n - 1)\n"
        "def alone(n):\n    return even(n)\n"
    )
    assert cycles(call_graph(tree)) == {frozenset({"even", "odd"})}


def test_the_package_graph_follows_imports_reads_attributes_dunders_and_overrides():
    modules = {name: ast.parse(text) for name, text in {
        "a": "from .b import helper\n"
             "class Box:\n    def __init__(self): pass\n    def get(self): return 1\n    def unused(self): pass\n"
             "def main():\n    def cb(x): return x\n    return helper(cb, Box().get())\n"
             "def dead(): pass\n",
        "b": "def helper(f, v):\n    from .a import Box\n    return f(v)\n",
        # a reads ``.get`` without importing c, and c's override may still run
        "c": "from .a import Box\nclass Sub(Box):\n    def get(self): return 2\n",
    }.items()}
    graph, functions = package_graph(modules)
    assert set(functions) == {"a.Box.__init__", "a.Box.get", "a.Box.unused", "a.main", "a.main.cb", "a.dead",
                              "b.helper", "c.Sub.get"}
    assert reached(graph, ["a.main"]) & set(functions) == {
        "a.main", "a.main.cb", "b.helper", "a.Box.__init__", "a.Box.get", "c.Sub.get"}


# Functions no command and no module's top-level code runs, each kept for a
# reason; what they run is kept with them.
BENCH = "bench/ names it; it moves out of the package with the next change to bench/"
NOT_RUN_BY_A_COMMAND = {
    "mutate.enumerate_mutations": BENCH,
    "terms.match_pattern": BENCH,
    "stratify.term_constraints": BENCH,
    "stratify.abstraction_levels": BENCH,
    "kernel.Registry.ids": "a library accessor: the registered theorem ids, in the order they were registered",
}


def test_every_function_is_run_by_a_command_or_kept_for_a_reason():
    modules = package_modules()
    graph, functions = package_graph(modules)
    run = reached(graph, [*modules, "cli.main"])  # ``trc`` is ``cli.main``
    assert run.isdisjoint(NOT_RUN_BY_A_COMMAND)  # an entry a command runs leaves the list
    assert set(functions) - run - reached(graph, NOT_RUN_BY_A_COMMAND) == set()


# What ``kernel.check_script`` may run, and the body lines of those functions
# (each line once, a nested function's inside its own).  The graph
# over-approximates (``super().__init__`` reaches every ``__init__`` it may
# name), so this is an upper bound on the trusted kernel.  A change that moves
# either figure updates the pin and says why in CHANGES.md.
CHECK_SCRIPT_MAY_RUN = (
    "corpus.CorpusEntry.__init__",
    "engine.EngineConfig.__init__", "engine.Rule.__init__", "engine.RuleSet.__init__", "engine.RuleSet._entry",
    "engine.RuleSet.candidates", "engine.RuleSet.extended", "engine.RuleSet.extended_once",
    "engine.TraceStep.__getattr__", "engine._compile", "engine._rebuild", "engine._spelling",
    "engine.normalize", "engine.root_shape", "engine.rule_match",
    "kernel.Falsum.render", "kernel.HypEquation.__init__", "kernel.Hypothesis.rules",
    "kernel.Registry.__contains__", "kernel.Registry.__init__", "kernel.Registry.get",
    "kernel.Registry.instantiate", "kernel._Checker.__init__", "kernel._Checker._application",
    "kernel._Checker._cases", "kernel._Checker._chain", "kernel._Checker._contradiction",
    "kernel._Checker._discharged", "kernel._Checker._dispatch", "kernel._Checker._ext",
    "kernel._Checker._falsum", "kernel._Checker._k_inject", "kernel._Checker._normalize",
    "kernel._Checker._one_step", "kernel._Checker._same_normal_form", "kernel._Checker._theorem",
    "kernel._Checker.canonical", "kernel._Checker.canonical.leaf", "kernel._Checker.canonical.rename",
    "kernel._Checker.check_declared", "kernel._Checker.expand", "kernel._Checker.fact",
    "kernel._Checker.fixing", "kernel._Checker.justify_link", "kernel._Checker.run_block",
    "kernel._Checker.run_step", "kernel._Scope.__init__", "kernel._Scope.add", "kernel._Scope.child",
    "kernel._Scope.equalities", "kernel._Sides.render", "kernel._StepFailure.__init__", "kernel._link_sites",
    "kernel.check_script", "kernel.judgment_vars",
    "scriptfile._ScriptParser.__init__", "scriptfile._SpecLine.__init__", "scriptfile._SpecLine.token",
    "stratify.CompileError.__init__", "stratify.NotAbstractable.__init__",
    "terms.App.__eq__", "terms.App.__hash__", "terms.App.__init__", "terms.CombinatorSpec.__init__",
    "terms.KWrap.__eq__", "terms.KWrap.__hash__", "terms.KWrap.__init__", "terms.Pair.__eq__",
    "terms.Pair.__hash__", "terms.Pair.__init__", "terms.ParseError.__init__", "terms.PositionError.__init__",
    "terms.Record.__eq__", "terms.Record.__hash__", "terms.Record.__init__", "terms.Record.__reduce__",
    "terms.Record.__repr__", "terms.Record.__setattr__", "terms.TokenStream.__init__",
    "terms.TokenStream.token", "terms._Atom.__eq__", "terms._Atom.__hash__", "terms._Atom.__init__",
    "terms._RecordType.__new__", "terms._descend", "terms._kind", "terms.app", "terms.children",
    "terms.defined_names", "terms.expand_defined", "terms.expand_defined.leaf", "terms.format_position",
    "terms.free_vars", "terms.fresh_vars", "terms.nodes", "terms.pattern_vars", "terms.rebuild", "terms.render",
    "terms.replace_at", "terms.replace_defined", "terms.substitute", "terms.substitute.leaf", "terms.tokenize",
    "terms.with_child",
)
CHECK_SCRIPT_BODY_LINES = 834


def test_what_check_script_may_run_is_pinned():
    graph, functions = package_graph(package_modules())
    names = sorted(reached(graph, ["kernel.check_script"]) & set(functions))
    lines = {(name.split(".", 1)[0], n) for name in names
             for n in range(functions[name].body[0].lineno, functions[name].end_lineno + 1)}
    assert (names, len(lines)) == (list(CHECK_SCRIPT_MAY_RUN), CHECK_SCRIPT_BODY_LINES)
