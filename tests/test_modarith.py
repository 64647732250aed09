import pytest

from gl2orbits.modarith import (
    FpUnit,
    PrimeModulus,
    divisors,
    is_prime,
    least_primitive_root,
    multiplicative_order,
    power_image_order,
    prime_factors,
)

PRIMES_TO_200 = [p for p in range(2, 201) if is_prime(p)]


def brute_order(value: int, ell: int) -> int:
    """Multiplicative order by exhaustive powering."""
    acc, k = value % ell, 1
    while acc != 1:
        acc = (acc * value) % ell
        k += 1
    return k


def brute_least_primitive_root(ell: int) -> int:
    for g in range(2, ell):
        if brute_order(g, ell) == ell - 1:
            return g
    raise AssertionError(f"no primitive root mod {ell}")


def test_prime_modulus_accepts_primes():
    for p in (2, 3, 5, 97, 199):
        assert PrimeModulus(p).ell == p


@pytest.mark.parametrize("bad", [0, 1, 4, 9, 15, 91, 100])
def test_prime_modulus_rejects_composites(bad):
    with pytest.raises(ValueError):
        PrimeModulus(bad)


def test_fp_unit_normalizes_and_rejects_zero():
    m = PrimeModulus(7)
    assert FpUnit(9, m).value == 2
    assert FpUnit(-1, m).value == 6
    with pytest.raises(ValueError):
        FpUnit(0, m)
    with pytest.raises(ValueError):
        FpUnit(14, m)


def test_least_primitive_root_examples():
    assert least_primitive_root(PrimeModulus(5)).value == 2
    assert least_primitive_root(PrimeModulus(7)).value == 3
    assert least_primitive_root(PrimeModulus(13)).value == 2


def test_least_primitive_root_rejects_two():
    with pytest.raises(ValueError):
        least_primitive_root(PrimeModulus(2))


def test_least_primitive_root_exhaustive_to_200():
    # Order checked exhaustively against the brute-force oracle.
    for p in PRIMES_TO_200:
        if p == 2:
            continue
        m = PrimeModulus(p)
        got = least_primitive_root(m)
        assert got.value == brute_least_primitive_root(p)
        assert brute_order(got.value, p) == p - 1
        assert multiplicative_order(got) == p - 1


def test_power_image_order_examples():
    assert power_image_order(12, 12) == 1
    assert power_image_order(10, 6) == 5
    assert power_image_order(24, 12) == 2


def test_power_image_order_by_enumeration():
    # Cyclic group of order n written additively: k-th powers are multiples of k.
    for n in range(1, 101):
        for k in range(2, 25):
            image = {(x * k) % n for x in range(n)}
            assert power_image_order(n, k) == len(image)


def test_divisors_and_prime_factors():
    assert divisors(12) == (1, 2, 3, 4, 6, 12)
    assert divisors(1) == (1,)
    assert prime_factors(360) == (2, 3, 5)
    assert prime_factors(1) == ()
    with pytest.raises(ValueError):
        divisors(0)
