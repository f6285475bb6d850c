"""Integer and modular arithmetic primitives shared by every other module.

Everything here is exact integer arithmetic except `log_integral`, the one
real-valued routine in the package, which sums a positive series in 50-digit
decimal arithmetic and returns the float nearest the true value.

`squarefree_part` takes an int or an integer column.  An int goes through
trial division (`factorize`); a column is reduced in one int64 pass over the
primes up to the cube root of its maximum, each tested by a multiply-and-
compare instead of a remainder, followed by an exact square-root test
(`isqrt_column`).  Column values must lie below `COLUMN_LIMIT = 2^62`, so
no intermediate overflows int64: a column value outside [1, 2^62) raises
`ValueError`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from decimal import Decimal, localcontext
from itertools import islice

import numpy as np

# Segmented sieve block: 2^18 flags keeps the working set cache-sized while
# still amortizing the per-block setup.
_BLOCK = 1 << 18

# Euler's constant and li(2), both to 50 significant digits.
_EULER_GAMMA = Decimal("0.57721566490153286060651209008240243104215933593992")
_LI_2 = Decimal("1.0451637801174927848445888891946131365226155781512")

# Column values stay below 2^62: then r = isqrt(n) <= 2^31, so (r + 1)^2 < 2^63
# and the root's integer correction cannot overflow int64.
COLUMN_LIMIT = 1 << 62

# Growing cache of small primes used by trial division.
_small_primes: list[int] = [2, 3, 5, 7, 11, 13]


@dataclass(frozen=True)
class SquarefreeDecomposition:
    """n = D * m**2 with D squarefree."""

    n: int
    D: int
    m: int


def _flagged(flags: bytearray, offset: int) -> list[int]:
    """offset + i for every nonzero flags[i], ascending."""
    return (np.flatnonzero(np.frombuffer(flags, dtype=np.uint8)) + offset).tolist()


def _sieve_upto(n: int) -> list[int]:
    # Plain Eratosthenes, for the base primes of `primes_in` and for `small_primes`.
    if n < 2:
        return []
    flags = bytearray([1]) * (n + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            start = p * p
            flags[start::p] = bytearray(len(range(start, n + 1, p)))
    return _flagged(flags, 0)


def small_primes(limit: int) -> list[int]:
    """Shared, growing prime cache; covers at least [2, limit], maybe more."""
    global _small_primes
    if _small_primes[-1] < limit:
        _small_primes = _sieve_upto(max(limit, 2 * _small_primes[-1]))
    return _small_primes


def primes_in(lo: int, hi: int) -> list[int]:
    """Primes q with lo < q <= hi, ascending.

    Segmented sieve, so hi up to ~1e9 stays memory-bounded.
    """
    if not 0 <= lo <= hi:
        raise ValueError(f"need 0 <= lo <= hi, got ({lo}, {hi})")
    base = _sieve_upto(math.isqrt(hi))
    out: list[int] = []
    start = max(lo + 1, 2)
    while start <= hi:
        stop = min(start + _BLOCK, hi + 1)
        flags = bytearray([1]) * (stop - start)
        for p in base:
            if p * p >= stop:
                break
            first = max(p * p, ((start + p - 1) // p) * p)
            flags[first - start :: p] = bytearray(len(range(first, stop, p)))
        out.extend(_flagged(flags, start))
        start = stop
    return out


def jacobi_symbol(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd positive n; 0 iff gcd(a, n) > 1."""
    if n <= 0 or n % 2 == 0:
        raise ValueError(f"Jacobi symbol needs odd n >= 1, got n={n}")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def factorize(n: int) -> dict[int, int]:
    """{prime: exponent} of n >= 1, by trial division up to sqrt(n).

    Adequate for the desk scale here (n up to ~1e8); isolated so a faster
    factoring backend could be swapped in.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    out: dict[int, int] = {}
    for p in small_primes(math.isqrt(n) + 1):
        if p * p > n:
            break
        if n % p:
            continue
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out[p] = e
    if n > 1:
        out[n] = 1  # leftover is a prime above every divisor tried
    return out


def squarefree_decompose(n: int) -> SquarefreeDecomposition:
    """Split n = D * m**2 with D squarefree."""
    d = squarefree_part(n)
    return SquarefreeDecomposition(n, d, math.isqrt(n // d))


def squarefree_part(n: int | np.ndarray) -> int | np.ndarray:
    """The squarefree D with n = D * m**2: the primes to an odd power in n.

    An int goes through `factorize`; an integer column goes through one int64
    pass (values in [1, COLUMN_LIMIT)) and gives an int64 column.
    """
    if isinstance(n, np.ndarray):
        return _squarefree_column(n)
    d = 1
    for p, e in factorize(n).items():
        if e % 2:
            d *= p
    return d


def _check_column(n: np.ndarray, low: int) -> None:
    if n.ndim != 1 or n.dtype.kind not in "iu":
        raise ValueError(f"need a 1-D integer column, got {n.ndim}-D {n.dtype}")
    if n.size and not (n.min() >= low and n.max() < COLUMN_LIMIT):
        raise ValueError(
            f"column values must lie in [{low}, 2^62), got [{n.min()}, {n.max()}]"
        )


def isqrt_column(n: np.ndarray) -> np.ndarray:
    """floor(sqrt(n)) of each value of an integer column in [0, COLUMN_LIMIT).

    The float64 square root is within 1 of the integer root below 2^62, so
    one integer correction either way makes it exact.  (With a correctly
    rounded sqrt it is never below the integer root, so the upward step
    only guards a platform whose sqrt is not.)
    """
    _check_column(n, 0)
    r = np.sqrt(n, dtype=np.float64).astype(np.int64)
    r -= r * r > n
    r += (r + 1) * (r + 1) <= n
    return r


def residue_column(v: np.ndarray, q: int) -> np.ndarray:
    """v mod q in [0, q) for each value of an integer column and an int q >= 1,
    with the sign rule of Python's `%`.

    Computed as v - q * (v // q): numpy divides a column by one scalar far
    faster than it takes a remainder.  On int64 and uint64 the product may
    wrap, but the result is the true one mod 2^64 and lies in [0, q), so it
    is exact; an object column of Python ints stays exact throughout.
    """
    r = v // q
    r *= q
    return np.subtract(v, r, out=r)


_ODD_BITS = 0x2AAA_AAAA_AAAA_AAAA  # the bits 2^1, 2^3, ..., 2^61
_U64 = 1 << 64


def _squarefree_column(n: np.ndarray) -> np.ndarray:
    # Every prime q <= cbrt(max) is divided out fully and kept once in D when
    # its exponent is odd.  The cofactor then has at most two prime factors,
    # each above the cube root: it is 1, Q, Q1*Q2 or Q^2, and squarefree
    # unless it is a square.
    _check_column(n, 1)
    rest = n.astype(np.int64)  # a copy, divided in place
    # q = 2 in one pass: n & -n is 2^k, and k is odd when its bit is at an
    # odd place (k <= 61 below COLUMN_LIMIT)
    two_k = rest & -rest
    rest //= two_k
    d = 1 + ((two_k & _ODD_BITS) != 0).astype(np.int64)
    del two_k
    top = int(rest.max(initial=1))
    lim = round(top ** (1 / 3))
    lim -= lim**3 > top
    lim += (lim + 1) ** 3 <= top
    # Odd q by Granlund and Montgomery (PLDI 1994, section 9): with
    # qinv = q^-1 mod 2^64, u * qinv mod 2^64 is u / q when q divides u and
    # exceeds (2^64 - 1) // q otherwise.  Every value lies in [1, 2^62), so
    # the uint64 view keeps it.
    u = rest.view(np.uint64)
    t = np.empty_like(u)  # one buffer for every first product
    for q in islice(small_primes(lim), 1, None):  # the odd primes
        if q > lim:
            break
        qinv, top_quot = pow(q, -1, _U64), (_U64 - 1) // q
        np.multiply(u, qinv, out=t)
        idx = np.flatnonzero(t <= top_quot)
        quot = t[idx]  # u[idx] / q, exact
        odd = True
        while idx.size:  # idx: the entries with at least one more factor q
            u[idx] = quot
            if odd:
                d[idx] *= q
            else:
                d[idx] //= q
            odd = not odd
            quot *= qinv  # the next quotient where q divides again
            more = quot <= top_quot
            idx, quot = idx[more], quot[more]
    root = isqrt_column(rest)
    rest[root * root == rest] = 1
    d *= rest
    return d


def is_perfect_square(n: int) -> bool:
    """Exact integer test: floor(sqrt(n))**2 == n."""
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test (fine for desk-scale n)."""
    if n < 2:
        return False
    for p in small_primes(math.isqrt(n) + 1):
        if p * p > n:
            break
        if n % p == 0:
            return n == p
    return True


def check_odd_prime(q: int) -> int:
    """q for an odd prime q; ValueError otherwise."""
    if q % 2 == 0 or not is_prime(q):
        raise ValueError(f"need an odd prime, got {q}")
    return q


def check_unit(d: int, n: int) -> None:
    """ValueError unless d is a unit mod n."""
    if math.gcd(d, n) != 1:
        raise ValueError(f"{d} is not a unit mod {n}")


def check_odd_prime_pair(q1: int, q2: int) -> int:
    """q1 * q2 for two distinct odd primes; ValueError otherwise."""
    if q1 == q2:
        raise ValueError(f"need two distinct odd primes, got ({q1}, {q2})")
    return check_odd_prime(q1) * check_odd_prime(q2)


def log_integral(x: float) -> float:
    """li(x) - li(2), the integral of dt/log(t) from 2 to x, for 2 < x < inf.

    Sums li(x) = gamma + ln ln x + sum_{n>=1} (ln x)^n / (n * n!) in 50-digit
    decimal arithmetic.  Every term is positive, so the only cancellation is
    the final subtraction of li(2), and the float conversion rounds the
    50-digit result to nearest.
    """
    if not 2 < x < math.inf:
        raise ValueError(f"log_integral needs 2 < x < inf, got {x}")
    with localcontext() as ctx:
        ctx.prec = 50
        # exact for any int and any float, numpy scalars included
        L = Decimal(int(x) if isinstance(x, numbers.Integral) else float(x)).ln()
        term, series, n = L, L, 1  # term = L^n / (n * n!)
        while term >= series * Decimal("1e-55"):
            n += 1
            term = term * L * (n - 1) / (n * n)
            series += term
        return float(_EULER_GAMMA + L.ln() + series - _LI_2)
