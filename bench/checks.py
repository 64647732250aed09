"""Correctness checks on the benchmark's outputs, computed with its own code.

Each check returns a list of problems; an empty list means the check
passed. None of these functions is timed: the runner calls them after the
measured rounds.
"""

from __future__ import annotations

from itertools import product

FINAL_CONSTANT = 864


def prime_power_factors(n: int) -> list[int]:
    """The prime-power parts of n, e.g. 24 -> [8, 3]."""
    parts = []
    p = 2
    while n > 1:
        if p * p > n:
            parts.append(n)
            break
        q = 1
        while n % p == 0:
            n //= p
            q *= p
        if q > 1:
            parts.append(q)
        p += 1
    return parts


def _subgroups_of_square(q: int) -> int:
    """Number of subgroups of Z/q x Z/q, by brute force over cyclic joins.

    Every subgroup of Z/q x Z/q has rank at most two, so it is the sum of
    two cyclic subgroups.
    """
    cyclics = set()
    for x, y in product(range(q), repeat=2):
        cyclics.add(frozenset(((i * x) % q, (i * y) % q) for i in range(q)))
    subgroups = set()
    for c1 in cyclics:
        for c2 in cyclics:
            subgroups.add(
                frozenset(((a + c) % q, (b + d) % q) for a, b in c1 for c, d in c2)
            )
    return len(subgroups)


def diagonal_subgroup_count(ell: int) -> int:
    """Subgroups of the diagonal group (Z/(l-1))^2.

    A subgroup of a finite abelian group is the product of its Sylow parts,
    so the count is multiplicative over the prime powers of l - 1.
    """
    count = 1
    for q in prime_power_factors(ell - 1):
        count *= _subgroups_of_square(q)
    return count


def borel_subgroup_count(ell: int) -> int:
    """Subgroups of the Borel B = U x| T, from the diagonal count S.

    |U| = l is prime, so a subgroup either contains U, and is D.U for one
    D <= T, or meets U trivially and is a U-conjugate of some D <= T: one
    conjugate when D is scalar (tau(l - 1) of them), l otherwise.
    """
    s = diagonal_subgroup_count(ell)
    tau = sum(1 for k in range(1, ell) if (ell - 1) % k == 0)
    return s + tau + ell * (s - tau)


def allocation(total: int, primes: tuple[int, ...]) -> dict[int, int]:
    """The sweep's documented spread of a sample count: earlier primes first."""
    base, extra = divmod(total, len(primes))
    return {p: base + (1 if i < extra else 0) for i, p in enumerate(primes)}


def expected_totals(cfg: dict) -> dict[tuple[str, int], int]:
    """Rows each (suite, prime) of a configuration must report."""
    primes = tuple(sorted(cfg["primes"]))
    sampled = allocation(cfg["sample_count"], primes)
    out = {}
    for suite in cfg["suites"]:
        for ell in primes:
            if suite == "lemma31" and cfg["mode"] == "exhaustive":
                out[suite, ell] = borel_subgroup_count(ell)
            elif suite == "lemma32" and cfg["mode"] == "exhaustive":
                out[suite, ell] = diagonal_subgroup_count(ell)
            elif suite == "nonsplit":
                out[suite, ell] = 1
            elif suite in ("lemma31", "lemma32", "lemma33", "case1", "case2"):
                out[suite, ell] = sampled[ell]
            else:
                raise ValueError(f"no expected total for suite {suite!r}")
    return out


def report_problems(cfg: dict, suites: list[dict]) -> list[str]:
    """Every (suite, prime) reports the expected total and every row passes."""
    problems = []
    expected = expected_totals(cfg)
    seen = {(e["name"], e["prime"]): e for e in suites}
    for key in sorted(set(seen) - set(expected)):
        problems.append(f"unexpected report entry {key}")
    for key, total in sorted(expected.items()):
        entry = seen.get(key)
        if entry is None:
            problems.append(f"{key}: missing from the report")
            continue
        if entry["total"] != total:
            problems.append(f"{key}: total {entry['total']}, expected {total}")
        if entry["pass"] != total or entry["fail"] or entry["invalid"]:
            problems.append(
                f"{key}: pass={entry['pass']} fail={entry['fail']} "
                f"invalid={entry['invalid']} of {total}"
            )
    return problems


def passed_rows(cfg: dict, suites: list[dict]) -> int:
    """Passing rows counted against the expected totals, never above them."""
    expected = expected_totals(cfg)
    return sum(
        min(e["pass"], expected.get((e["name"], e["prime"]), 0)) for e in suites
    )


def _apply(t: tuple[int, int, int, int], x: int, y: int, ell: int) -> tuple[int, int]:
    a, b, c, d = t
    return (a * x + b * y) % ell, (c * x + d * y) % ell


def orbits_from_generators(
    gens: list[tuple[int, int, int, int]], ell: int
) -> list[frozenset[tuple[int, int]]]:
    """Orbits of the group the generators generate on the nonzero vectors."""
    seen: set[tuple[int, int]] = set()
    orbits = []
    for v in product(range(ell), repeat=2):
        if v == (0, 0) or v in seen:
            continue
        orbit = {v}
        stack = [v]
        while stack:
            x, y = stack.pop()
            for g in gens:
                w = _apply(g, x, y, ell)
                if w not in orbit:
                    orbit.add(w)
                    stack.append(w)
        seen |= orbit
        orbits.append(frozenset(orbit))
    return orbits


def certificate_orbit_problems(
    ell: int,
    group_order: int,
    degree: int,
    orbits: list[frozenset[tuple[int, int]]],
    e1_orbit: frozenset[tuple[int, int]],
) -> list[str]:
    """The three facts a certificate scenario must show.

    The orbits partition the l^2 - 1 nonzero vectors, each orbit size
    divides |G|, and l - 1 divides 864 * d * |orbit|. e1_orbit is the orbit
    of (1, 0) read off the full element set; it must be one of the orbits,
    which ties the generators to the elements.
    """
    problems = []
    covered = [v for orbit in orbits for v in orbit]
    nonzero = {v for v in product(range(ell), repeat=2) if v != (0, 0)}
    if len(covered) != len(nonzero) or set(covered) != nonzero:
        problems.append(
            f"l={ell}: orbits cover {len(covered)} vectors, {len(set(covered))} "
            f"distinct, not the {len(nonzero)} nonzero vectors once each"
        )
    for orbit in orbits:
        size = len(orbit)
        if group_order % size:
            problems.append(f"l={ell}: orbit size {size} does not divide |G|={group_order}")
        if (FINAL_CONSTANT * degree * size) % (ell - 1):
            problems.append(
                f"l={ell}: {ell - 1} does not divide {FINAL_CONSTANT}*{degree}*{size}"
            )
    if e1_orbit not in orbits:
        problems.append(f"l={ell}: orbit of (1, 0) from the elements is not an orbit")
    return problems


def least_primitive_root(ell: int) -> int:
    n = ell - 1
    factors = [q for q in range(2, n + 1) if n % q == 0 and all(q % r for r in range(2, q))]
    for g in range(2, ell):
        if all(pow(g, n // q, ell) != 1 for q in factors):
            return g
    raise ValueError(f"no primitive root mod {ell}")


def nonsplit_cartan_tuples(ell: int) -> set[tuple[int, int, int, int]]:
    """{[[a, b*eps], [b, a]]} with eps the least primitive root, a nonsquare."""
    eps = least_primitive_root(ell)
    return {
        (a, (b * eps) % ell, b, a)
        for a, b in product(range(ell), repeat=2)
        if (a, b) != (0, 0)
    }


def nonsplit_problems(
    ell: int, elements: set[tuple[int, int, int, int]]
) -> list[str]:
    """The nonsplit Cartan has l^2 - 1 invertible elements and one orbit."""
    problems = []
    n = ell * ell - 1
    if len(elements) != n:
        problems.append(f"l={ell}: {len(elements)} elements, expected {n}")
    if any((a * d - b * c) % ell == 0 for a, b, c, d in elements):
        problems.append(f"l={ell}: a singular matrix")
    # The orbit of (1, 0) is the set of first columns.
    if len({(a, c) for a, b, c, d in elements}) != n:
        problems.append(f"l={ell}: the orbit of (1, 0) is not all {n} nonzero vectors")
    return problems
