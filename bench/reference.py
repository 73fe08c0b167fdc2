"""Independent reference computations used to check the program's outputs.

Nothing here calls into ``trc`` except to read and build its term nodes.
Terms are nested tuples:

    ('v', name)   variable          ('c', name)   constant Abst/Eq/P1/P2
    ('d', name)   declared name     ('a', f, x)   application f x
    ('k', body)   k(body)           ('p', l, r)   pair <l,r>

The reducer is written from the rule table of the calculus (corrected
axioms, surjective pairing and Eq reflexivity on), not from ``trc.engine``:
it rewrites the leftmost-outermost redex in preorder, trying the rules in the
order K, P1-proj, P2-proj, surjective-pairing, pair-application, Abst,
Eq-refl.  Every walker is iterative, so deep terms cannot exhaust the stack.
"""

from __future__ import annotations

from trc.terms import App, Const, Defined, KWrap, Pair, Var

P1T = ('c', 'P1')
P2T = ('c', 'P2')
ABSTT = ('c', 'Abst')
EQT = ('c', 'Eq')
IDENTITY = ('p', P1T, P2T)  # the corpus definition I := <P1,P2>


# ---------------------------------------------------------------------------
# Conversion between trc nodes, tuples and canonical text
# ---------------------------------------------------------------------------

def from_trc(t) -> tuple:
    """Tuple form of a trc term (post-order, explicit stack)."""
    out: list[tuple] = []
    stack = [(t, False)]
    while stack:
        node, ready = stack.pop()
        if isinstance(node, Var):
            out.append(('v', node.name))
        elif isinstance(node, Const):
            out.append(('c', node.name))
        elif isinstance(node, Defined):
            out.append(('d', node.name))
        elif not ready:
            stack.append((node, True))
            if isinstance(node, App):
                stack.append((node.arg, False))
                stack.append((node.fn, False))
            elif isinstance(node, KWrap):
                stack.append((node.body, False))
            elif isinstance(node, Pair):
                stack.append((node.right, False))
                stack.append((node.left, False))
            else:
                raise TypeError(f"not a term node: {node!r}")
        elif isinstance(node, KWrap):
            out.append(('k', out.pop()))
        else:
            right = out.pop()
            left = out.pop()
            out.append(('a' if isinstance(node, App) else 'p', left, right))
    return out[0]


_LEAF = {'v': Var, 'c': Const, 'd': Defined}


def to_trc(t: tuple):
    """trc node tree for a tuple term (post-order, explicit stack)."""
    out: list = []
    stack = [(t, False)]
    while stack:
        node, ready = stack.pop()
        tag = node[0]
        if tag in _LEAF:
            out.append(_LEAF[tag](node[1]))
        elif not ready:
            stack.append((node, True))
            stack.extend((child, False) for child in reversed(node[1:]))
        elif tag == 'k':
            out.append(KWrap(out.pop()))
        else:
            right = out.pop()
            left = out.pop()
            out.append(App(left, right) if tag == 'a' else Pair(left, right))
    return out[0]


def text(t: tuple) -> str:
    """Canonical text: minimal parentheses, application to the left."""
    parts: list[str] = []
    stack: list = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            parts.append(node)
            continue
        tag = node[0]
        if tag in _LEAF:
            parts.append(node[1])
        elif tag == 'k':
            stack.extend([")", node[1], "k("])
        elif tag == 'p':
            stack.extend([">", node[2], ",", node[1], "<"])
        elif node[2][0] == 'a':
            stack.extend([")", node[2], " (", node[1]])
        else:
            stack.extend([node[2], " ", node[1]])
    return "".join(parts)


def same(s: tuple, t: tuple) -> bool:
    """Structural equality without recursion (safe on any depth)."""
    stack = [(s, t)]
    while stack:
        a, b = stack.pop()
        if a[0] != b[0] or len(a) != len(b):
            return False
        if a[0] in _LEAF:
            if a[1] != b[1]:
                return False
        else:
            stack.extend(zip(a[1:], b[1:]))
    return True


def size(t: tuple) -> int:
    n = 0
    stack = [t]
    while stack:
        node = stack.pop()
        n += 1
        if node[0] in ('a', 'k', 'p'):
            stack.extend(node[1:])
    return n


def free_vars(t: tuple) -> set[str]:
    out: set[str] = set()
    stack = [t]
    while stack:
        node = stack.pop()
        if node[0] == 'v':
            out.add(node[1])
        elif node[0] in ('a', 'k', 'p'):
            stack.extend(node[1:])
    return out


def substitute(t: tuple, name: str, value: tuple) -> tuple:
    """``t`` with every occurrence of variable ``name`` replaced by ``value``."""
    return _replace_leaves(t, {('v', name): value})


def expand_identity(t: tuple) -> tuple:
    """Unfold the declared name I to <P1,P2>; other names stay."""
    return _replace_leaves(t, {('d', 'I'): IDENTITY})


def _replace_leaves(t: tuple, mapping: dict) -> tuple:
    out: list[tuple] = []
    stack = [(t, False)]
    while stack:
        node, ready = stack.pop()
        tag = node[0]
        if tag in _LEAF:
            out.append(mapping.get(node, node))
        elif not ready:
            stack.append((node, True))
            stack.extend((child, False) for child in reversed(node[1:]))
        elif tag == 'k':
            out.append(('k', out.pop()))
        else:
            right = out.pop()
            left = out.pop()
            out.append((tag, left, right))
    return out[0]


# ---------------------------------------------------------------------------
# Reference reducer
# ---------------------------------------------------------------------------

def contract(t: tuple):
    """The contractum of the first core rule matching at the root, or None."""
    tag = t[0]
    if tag == 'a':
        f, z = t[1], t[2]
        if f[0] == 'k':                                        # K: k(x) y = x
            return f[1]
        if f == P1T and z[0] == 'p':                           # P1 <a,b> = a
            return z[1]
        if f == P2T and z[0] == 'p':                           # P2 <a,b> = b
            return z[2]
        if f[0] == 'p':                                        # <x,y> z = <x z, y z>
            return ('p', ('a', f[1], z), ('a', f[2], z))
        if f[0] == 'a' and f[1][0] == 'a' and f[1][1] == ABSTT:
            x, y = f[1][2], f[2]                               # Abst x y z = x k(z) (y z)
            return ('a', ('a', x, ('k', z)), ('a', y, z))
        if f == EQT and z[0] == 'p' and z[1] == z[2]:          # Eq <x,x> = P1
            return P1T
        return None
    if tag == 'p':
        left, right = t[1], t[2]
        if (left[0] == 'a' and right[0] == 'a' and left[1] == P1T
                and right[1] == P2T and left[2] == right[2]):  # <P1 x, P2 x> = x
            return left[2]
    return None


def find_redex(t: tuple):
    """(path, contractum) of the leftmost-outermost redex, or None."""
    stack = [(t, ())]
    while stack:
        node, path = stack.pop()
        new = contract(node)
        if new is not None:
            return path, new
        if node[0] in ('a', 'p'):
            stack.append((node[2], path + (2,)))
            stack.append((node[1], path + (1,)))
        elif node[0] == 'k':
            stack.append((node[1], path + (1,)))
    return None


def _rebuild(t: tuple, path: tuple, new: tuple) -> tuple:
    nodes = [t]
    for i in path[:-1]:
        nodes.append(nodes[-1][i])
    out = new
    for node, i in zip(reversed(nodes), reversed(path)):
        out = node[:i] + (out,) + node[i + 1:]
    return out


def normalize(t: tuple, fuel: int) -> tuple[tuple, int, bool]:
    """(result, steps, exhausted) with the engine's fuel semantics: at most
    ``fuel`` steps; exhausted when a redex remains after the last one."""
    steps = 0
    while steps < fuel:
        found = find_redex(t)
        if found is None:
            return t, steps, False
        t = _rebuild(t, *found)
        steps += 1
    return t, steps, find_redex(t) is not None


# ---------------------------------------------------------------------------
# Stratification and abstraction properties
# ---------------------------------------------------------------------------

def _postorder(t: tuple):
    """Yield the nodes of ``t`` in post-order."""
    stack = [(t, False)]
    while stack:
        node, ready = stack.pop()
        if node[0] in _LEAF or ready:
            yield node
        else:
            stack.append((node, True))
            stack.extend((child, False) for child in reversed(node[1:]))


def satisfies_typing(t: tuple, assignment: dict[str, int]) -> bool:
    """Re-evaluate the typing rule under ``assignment``.

    An application's function sits one type above its argument and the node
    takes the argument's type; k(b) sits one above b; a pair and both its
    components share one type.  Constants and declared names take any type
    per occurrence, so a subterm without variables is unconstrained (None).
    """
    if set(assignment) != free_vars(t):
        return False
    types: list = []
    for node in _postorder(t):
        tag = node[0]
        if tag == 'v':
            types.append(assignment[node[1]])
        elif tag in ('c', 'd'):
            types.append(None)
        elif tag == 'k':
            body = types.pop()
            types.append(None if body is None else body + 1)
        else:
            second = types.pop()
            first = types.pop()
            if tag == 'a':
                if first is not None and second is not None and first != second + 1:
                    return False
                types.append(second if second is not None else
                             (None if first is None else first - 1))
            else:
                if first is not None and second is not None and first != second:
                    return False
                types.append(first if first is not None else second)
    return True


def stratifiable(t: tuple) -> bool:
    """Whether any assignment satisfies the typing rule, decided by union-find
    over the variables with type offsets (independently of ``trc.stratify``).

    Each subterm's type is (variable, offset) or None when it has no
    variables; every equation the rule imposes is merged into the union-find
    and a contradiction makes the term unstratifiable.
    """
    parent: dict[str, tuple[str, int]] = {}  # v -> (p, type(v) - type(p))

    def find(v: str) -> tuple[str, int]:
        path, offset = [], 0
        while parent.setdefault(v, (v, 0))[0] != v:
            path.append(v)
            v, step = parent[v][0], parent[v][1]
            offset += step
        root, rest = v, offset
        for node in path:  # compress: point every node on the path at the root
            step = parent[node][1]
            parent[node] = (root, rest)
            rest -= step
        return root, offset

    def unify(s, t) -> bool:
        rs, ds = find(s[0])
        rt, dt = find(t[0])
        ds, dt = ds + s[1], dt + t[1]
        if rs == rt:
            return ds == dt
        parent[rs] = (rt, dt - ds)
        return True

    types: list = []
    for node in _postorder(t):
        tag = node[0]
        if tag == 'v':
            types.append((node[1], 0))
        elif tag in ('c', 'd'):
            types.append(None)
        elif tag == 'k':
            body = types.pop()
            types.append(None if body is None else (body[0], body[1] + 1))
        else:
            second = types.pop()
            first = types.pop()
            if tag == 'a':
                if first is not None and second is not None and \
                        not unify(first, (second[0], second[1] + 1)):
                    return False
                types.append(second if second is not None else
                             (None if first is None else (first[0], first[1] - 1)))
            else:
                if first is not None and second is not None and not unify(first, second):
                    return False
                types.append(first if first is not None else second)
    return True


def spine_levels(n: int) -> dict[str, int]:
    """Closed form for the spine x1 x2 ... xn: xi has type n - i."""
    return {f"x{i}": n - i for i in range(1, n + 1)}


def replay_cycle(cycle) -> int:
    """Net offset around a conflict cycle of (a, b, offset) constraints.

    Each constraint says type(a) = type(b) + offset.  The walk starts at the
    closing constraint's left node and follows the others to its right node;
    a genuine conflict returns a nonzero amount.  A walk that does not
    connect returns 0, which the caller treats as no witness.
    """
    *walk, closing = cycle
    cur, level = closing.a, 0
    for c in walk:
        if c.a == cur:
            level, cur = level - c.offset, c.b
        elif c.b == cur:
            level, cur = level + c.offset, c.a
        else:
            return 0
    return level + closing.offset if cur == closing.b else 0


def admissible(x: str, t: tuple) -> bool:
    """The abstraction level discipline, evaluated from the root at level 0:
    function position +1, k-body -1, argument and pair positions unchanged.
    Every occurrence of ``x`` sits at level 0 and no subterm containing ``x``
    is at a negative level."""
    contains: dict[int, bool] = {}
    for node in _postorder(t):
        if node[0] == 'v':
            contains[id(node)] = node[1] == x
        elif node[0] in _LEAF:
            contains[id(node)] = False
        else:
            contains[id(node)] = any(contains[id(c)] for c in node[1:])
    stack = [(t, 0)]
    while stack:
        node, level = stack.pop()
        if not contains[id(node)]:
            continue
        if level < 0 or (node[0] == 'v' and level != 0):
            return False
        if node[0] == 'a':
            stack.append((node[1], level + 1))
            stack.append((node[2], level))
        elif node[0] == 'k':
            stack.append((node[1], level - 1))
        elif node[0] == 'p':
            stack.append((node[1], level))
            stack.append((node[2], level))
    return True


def abstraction_agrees(x: str, t: tuple, result: tuple, fresh: str, fuel: int) -> bool:
    """``result`` applied to a fresh variable reaches the normal form of
    t[fresh/x] under the reference reducer, both within ``fuel`` steps."""
    applied = normalize(expand_identity(('a', result, ('v', fresh))), fuel)
    direct = normalize(expand_identity(substitute(t, x, ('v', fresh))), fuel)
    return not applied[2] and not direct[2] and same(applied[0], direct[0])
