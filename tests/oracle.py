"""Independent oracles for the tests: matrix arithmetic on plain 4-tuples.

``breadth_first_closure`` is the tuple closure the library used before it
walked integer codes, and ``breadth_first_partition`` the orbit partition it
used before it walked lines. They multiply entry by entry and share no code
with ``gl2orbits``, so the code and line kernels are checked against them.
"""

from collections import deque

from gl2orbits.gl2 import ClosureBudgetError

IDENTITY = (1, 0, 0, 1)


def mul(x, y, ell):
    """The product of two row-major 4-tuples [[a, b], [c, d]] mod ell."""
    a, b, c, d = x
    e, f, g, h = y
    return (
        (a * e + b * g) % ell,
        (a * f + b * h) % ell,
        (c * e + d * g) % ell,
        (c * f + d * h) % ell,
    )


def encode(t, ell):
    """The code a*l^3 + b*l^2 + c*l + d of a reduced 4-tuple."""
    a, b, c, d = t
    return ((a * ell + b) * ell + c) * ell + d


def breadth_first_closure(gen_tuples, ell, budget=None):
    """Element tuples of the group the generators generate.

    Closes under right multiplication by the generators, breadth-first from
    the identity. With a budget, raises ClosureBudgetError as soon as more
    than budget elements have been seen.
    """
    gens = list(dict.fromkeys(gen_tuples))
    seen = {IDENTITY}
    queue = deque(seen)
    while queue:
        x = queue.popleft()
        for g in gens:
            y = mul(x, g, ell)
            if y not in seen:
                seen.add(y)
                if budget is not None and len(seen) > budget:
                    raise ClosureBudgetError(
                        f"closure exceeded element budget {budget}"
                    )
                queue.append(y)
    return seen


def breadth_first_codes(gen_tuples, ell, budget=None):
    """Codes of ``breadth_first_closure``, as a frozenset."""
    closed = breadth_first_closure(gen_tuples, ell, budget)
    return frozenset(encode(t, ell) for t in closed)


def power_codes(g, n, ell):
    """Codes of g^0, ..., g^(n-1), one tuple product at a time."""
    powers = [IDENTITY]
    for _ in range(n - 1):
        powers.append(mul(powers[-1], g, ell))
    return [encode(t, ell) for t in powers]


def breadth_first_partition(gen_tuples, ell):
    """(orbits, label) of the group the generators generate, on vector codes.

    A vector (x, y) has code y*l + x. Each orbit is walked breadth-first
    from its smallest code by applying every generator to every member, so
    orbits come ascending and ordered by smallest member; label[code] is
    the orbit's index, and -1 for the zero code.
    """
    gens = list(dict.fromkeys(gen_tuples))
    n = ell * ell
    label = [-1] * n
    orbits = []
    for start in range(1, n):
        if label[start] >= 0:
            continue
        index = len(orbits)
        label[start] = index
        members = [start]
        queue = deque(members)
        while queue:
            code = queue.popleft()
            x, y = code % ell, code // ell
            for a, b, c, d in gens:
                image = (c * x + d * y) % ell * ell + (a * x + b * y) % ell
                if label[image] < 0:
                    label[image] = index
                    members.append(image)
                    queue.append(image)
        orbits.append(tuple(sorted(members)))
    return tuple(orbits), tuple(label)
