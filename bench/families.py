"""Seeded input families.

Every generator returns tuple terms (see ``reference``); ``reference.text``
gives the canonical text the program's ``render`` must reproduce, and
``reference.to_trc`` the tree the program receives.  The same seed always
gives the same inputs.
"""

from __future__ import annotations

import random

CONSTANTS = (('c', 'Abst'), ('c', 'Eq'), ('c', 'P1'), ('c', 'P2'))
OPEN_VARS = ('x', 'y', 'z', 'w')
CONTRACT_VARS = ('x', 'y', 'z')


def random_term(rng: random.Random, size: int, names: tuple[str, ...] = ()) -> tuple:
    """A term of exactly ``size`` nodes with a random shape.

    Leaves are variables from ``names`` (probability 0.6 when ``names`` is
    non-empty) or constants.  Inner nodes are k(-) with probability 0.15,
    otherwise an application or a pair whose two sides split the remaining
    nodes between one quarter and three quarters, so depth stays logarithmic.
    """
    def leaf() -> tuple:
        if names and rng.random() < 0.6:
            return ('v', rng.choice(names))
        return rng.choice(CONSTANTS)

    # explicit stack of pending sizes; 'build' entries assemble children
    out: list[tuple] = []
    stack: list = [size]
    while stack:
        item = stack.pop()
        if isinstance(item, tuple):
            tag, arity = item
            if arity == 1:
                out.append((tag, out.pop()))
            else:
                right = out.pop()
                left = out.pop()
                out.append((tag, left, right))
            continue
        n = item
        if n == 1:
            out.append(leaf())
        elif n == 2 or rng.random() < 0.15:
            stack.append(('k', 1))
            stack.append(n - 1)
        else:
            rest = n - 1
            low = max(1, rest // 4)
            left = rng.randint(low, rest - low)
            stack.append(('a' if rng.random() < 0.5 else 'p', 2))
            stack.append(rest - left)
            stack.append(left)
    return out[0]


def spine(n: int) -> tuple:
    """x1 x2 ... xn: distinct variables, application to the left."""
    t = ('v', 'x1')
    for i in range(2, n + 1):
        t = ('a', t, ('v', f'x{i}'))
    return t


def knest(depth: int) -> tuple:
    """k(k(...k(x)...)) with ``depth`` k-wrappers."""
    t = ('v', 'x')
    for _ in range(depth):
        t = ('k', t)
    return t


def pair_tree(rng: random.Random, leaves: int) -> tuple:
    """A pair tree over distinct variables x1..x<leaves>, left to right,
    with a random shape (each split between one quarter and three quarters)."""
    counter = iter(range(1, leaves + 1))
    out: list[tuple] = []
    stack: list = [leaves]
    while stack:
        item = stack.pop()
        if item is None:
            right = out.pop()
            left = out.pop()
            out.append(('p', left, right))
        elif item == 1:
            out.append(('v', f'x{next(counter)}'))
        else:
            low = max(1, item // 4)
            left = rng.randint(low, item - low)
            stack.append(None)
            stack.append(item - left)
            stack.append(left)
    return out[0]


def pair_spine(n: int) -> tuple:
    """<P1,P2> x1 ... xn: the identity applied to n variables."""
    t = ('p', ('c', 'P1'), ('c', 'P2'))
    for i in range(1, n + 1):
        t = ('a', t, ('v', f'x{i}'))
    return t


def abst_tower(n: int) -> tuple:
    """Abst Abst ... Abst x1 x2 x3 with ``n`` copies of Abst."""
    t = ('c', 'Abst')
    for _ in range(n - 1):
        t = ('a', t, ('c', 'Abst'))
    for i in range(1, 4):
        t = ('a', t, ('v', f'x{i}'))
    return t
