"""No new recursive walker: the call cycles among the functions in ``src/trc``."""

from __future__ import annotations

import ast
from pathlib import Path

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
    return {path.stem: call_graph(ast.parse(path.read_text())) for path in sorted(SRC.glob("*.py"))}


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


def test_only_the_known_functions_call_themselves():
    assert self_calling_functions() == {
        "terms.expand_defined",  # through definition bodies only
        "kernel.map_terms",
        "mutate._step_mutants",
        "stratify.optimize.go",
    }


def test_only_the_known_call_cycles():
    # mutual recursion, which the self-call check above cannot see
    assert call_cycles() == {
        frozenset({"terms.expand_defined"}),
        frozenset({"kernel.map_terms"}),
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
