"""Independent oracles for the tests: matrix arithmetic on plain 4-tuples.

``breadth_first_closure`` is the tuple closure the library used before it
walked integer codes, and ``breadth_first_partition`` the orbit partition it
used before it walked lines. They multiply entry by entry and share no code
with ``gl2orbits``, so the code and line kernels are checked against them.
``large_group_order`` reads the order of a group too large to close off its
structure, and the lemma 3.1 derivations below read a group's element codes
where the library reads its generators. ``refinement_violation`` is the
lemma 3.3 refinement check on codes, which the library now reads off the
line walks. ``stabilizer_order`` counts the elements fixing a vector, and
``power`` raises a tuple to a power with ``mul`` alone.
"""

from collections import deque

from gl2orbits.gl2 import ClosureBudgetError
from gl2orbits.orbits import ESCAPES_G_ORBIT, MISSES_G_ORBIT

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


def power(t, k, ell):
    """t^k for a 4-tuple t, by square-and-multiply with ``mul``."""
    result = IDENTITY
    while k:
        if k & 1:
            result = mul(result, t, ell)
        t = mul(t, t, ell)
        k >>= 1
    return result


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


def _fixes_a_line(gens, ell):
    """Whether every generator maps some one line of the plane to itself."""
    for t in [*range(ell), None]:
        # The line through (t, 1), or the axis through (1, 0) for None.
        x, y = (1, 0) if t is None else (t, 1)
        if all((a * x + b * y) * y % ell == (c * x + d * y) * x % ell
               for a, b, c, d in gens):
            return True
    return False


def large_group_order(gen_tuples, ell, search=100_000):
    """The order of a group of order divisible by l, from its structure.

    For groups too large to close. A breadth-first walk of products finds
    a non-scalar element with a repeated eigenvalue, so l divides |G|; the
    walk fails if it ends first. Then:
    - an upper-triangular G holds the unit shears U, since that element's
      (l-1)-th power is a nontrivial shear and |U| = l is prime. So |G| is
      l times the order of its group of diagonal parts, closed here;
    - any other G must fix no line. A subgroup of GL2(l), l >= 5, whose
      order l divides either fixes a line or contains SL2(l) (Dickson), so
      |G| = l(l^2 - 1) * |det G|, the image closed here.
    """
    gens = list(dict.fromkeys(gen_tuples))
    seen = {IDENTITY}
    queue = deque(seen)
    while True:
        if not queue or len(seen) > search:
            raise AssertionError("no non-scalar element with a repeated eigenvalue")
        a, b, c, d = x = queue.popleft()
        if (b or c or a != d) and ((a - d) ** 2 + 4 * b * c) % ell == 0:
            break
        for g in gens:
            y = mul(x, g, ell)
            if y not in seen:
                seen.add(y)
                queue.append(y)
    if all(c == 0 for _, _, c, _ in gens):
        parts = [(a, 0, 0, d) for a, _, _, d in gens]
        return ell * len(breadth_first_closure(parts, ell))
    assert ell >= 5 and not _fixes_a_line(gens, ell)
    dets = {1}
    for a, b, c, d in gens:
        det = a * d - b * c
        dets = {v * pow(det, k, ell) % ell for v in dets for k in range(ell - 1)}
    return ell * (ell * ell - 1) * len(dets)


def decode(code, ell):
    """The reduced 4-tuple of a code a*l^3 + b*l^2 + c*l + d."""
    code, d = divmod(code, ell)
    code, c = divmod(code, ell)
    a, b = divmod(code, ell)
    return a, b, c, d


def stabilizer_order(codes, v, ell):
    """How many of the codes' matrices fix the column vector v = (x, y)."""
    x, y = v
    fixed = 0
    for code in codes:
        a, b, c, d = decode(code, ell)
        if ((a * x + b * y) % ell, (c * x + d * y) % ell) == (x, y):
            fixed += 1
    return fixed


# The elementwise lemma 3.1 derivations the library used before it read
# generators and the stabilizer chain. Each takes a group's code set.


def least_repeated_eigenvalue_code(codes, ell):
    """The least code of a non-diagonal [[a, b], [0, a]], or None."""
    repeated = []
    for code in codes:
        a, b, c, d = decode(code, ell)
        if b and not c and a == d:
            repeated.append(code)
    return min(repeated, default=None)


def least_sheared_x(codes, ell):
    """b / (d - a) of the least code with b != 0, or None when there is none."""
    sheared = [code for code in codes if decode(code, ell)[1]]
    if not sheared:
        return None
    a, b, _, d = decode(min(sheared), ell)
    return b * pow(d - a, -1, ell) % ell


def holds_unit_shears(codes, ell):
    """Whether every unit shear [[1, b], [0, 1]] is a code."""
    return all(encode((1, b, 0, 1), ell) in codes for b in range(ell))


def contains_unsheared(codes, ell):
    """Whether the diagonal part diag(a, d) of every [[a, b], [0, d]] is a code."""
    l2 = ell * ell
    return all(code - decode(code, ell)[1] * l2 in codes for code in codes)


def diagonalizes(p, codes, ell):
    """Whether P^-1 x P is diagonal for every code x, P a reduced 4-tuple."""
    a, b, c, d = p
    r = pow(a * d - b * c, -1, ell)
    p_inv = (d * r % ell, -b * r % ell, -c * r % ell, a * r % ell)
    for code in codes:
        _, b, c, _ = mul(mul(p_inv, decode(code, ell), ell), p, ell)
        if b or c:
            return False
    return True


def power_codes(g, n, ell):
    """Codes of g^0, ..., g^(n-1), one tuple product at a time."""
    powers = [IDENTITY]
    for _ in range(n - 1):
        powers.append(mul(powers[-1], g, ell))
    return [encode(t, ell) for t in powers]


def nonsplit_codes(ell, eps):
    """Ascending codes of the nonzero [[a, b*eps], [b, a]] mod ell."""
    return sorted(
        encode((a, b * eps % ell, b, a), ell)
        for a in range(ell)
        for b in range(ell)
        if (a, b) != (0, 0)
    )


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


def refinement_violation(g_label, h_orbits):
    """Whether H's orbits refine every orbit of G, in one pass over the codes.

    g_label is the label of G's partition as ``breadth_first_partition``
    gives it, and h_orbits H's orbits, each a tuple of codes. A code is
    flagged when its G-label differs from that of the first member of its
    H-orbit: an H-orbit with a flagged member meets two G-orbits. Returns
    ESCAPES_G_ORBIT when a code is flagged, else MISSES_G_ORBIT when the
    H-orbits hold other than the l^2 - 1 nonzero codes, else None.
    """
    for codes in h_orbits:
        if any(g_label[code] != g_label[codes[0]] for code in codes):
            return ESCAPES_G_ORBIT
    if sum(map(len, h_orbits)) != len(g_label) - 1:
        return MISSES_G_ORBIT
    return None
