"""Exact arithmetic over the Gaussian integers Z[i].

Conventions used everywhere in this package:

  * N(a+bi) = a^2 + b^2 is the norm; it is multiplicative.
  * The units are {1, i, -1, -i}; each nonzero ideal (n) has exactly four
    generators (the associates of n), and exactly one of them lies in the
    "first quadrant" re > 0, im >= 0.  That associate is the canonical
    representative of the ideal and every arithmetic function here is a
    function of the ideal, i.e. constant on associates.
  * Rounded-quotient Euclidean division: q = round(a/b) componentwise with
    half-integer ties rounded to the even integer (first in re, then in im).
    The remainder then satisfies N(r) <= N(b)/2, so gcd terminates.

Hot loops in other modules work on plain (re, im) integer pairs through the
mul/norm/... helpers below; the GaussianInt dataclass is the API-level type.
ResidueRing.reduce also takes numpy int64 arrays of components, which is how
whole transversals are multiplied at once.  The prime ideals come from one
rational sieve per process (prime_ideals_upto keeps its largest list), and
the prime above a split p from an integer Euclid (split_prime_above).  The
quadratic residue symbol is Euler's criterion, one rational pow per prime
(euler_symbol) or one int64 array pass over a list of primes
(euler_symbols).
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import OverflowGuardError, ZeroInputError

COMPONENT_BOUND = 2**31  # inputs with |re| or |im| >= this are rejected

UNIT_PAIRS = ((1, 0), (0, 1), (-1, 0), (0, -1))


# ---------------------------------------------------------------------------
# tuple-level kernel (fast paths operate on (re, im) pairs)
# ---------------------------------------------------------------------------

def mul(a, b):
    """Product of two (re, im) pairs."""
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def conj(a):
    return (a[0], -a[1])


def norm(a):
    return a[0] * a[0] + a[1] * a[1]


def sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def round_half_even(p: int, q: int) -> int:
    """round(p/q) for integers, q > 0, ties to the even integer."""
    d, r = divmod(p, q)
    twice = 2 * r
    if twice > q:
        return d + 1
    if twice < q:
        return d
    return d if d % 2 == 0 else d + 1


def divmod_rounded(a, b):
    """(q, r) with a = q*b + r, q the rounded quotient, N(r) <= N(b)/2."""
    nb = norm(b)
    t = mul(a, conj(b))
    q = (round_half_even(t[0], nb), round_half_even(t[1], nb))
    return q, sub(a, mul(q, b))


def reduce_mod(a, b):
    """Rounded-division remainder of a mod b (not a canonical transversal)."""
    return divmod_rounded(a, b)[1]


def divides(d, a) -> bool:
    """Exact divisibility d | a in Z[i]."""
    nd = norm(d)
    t = mul(a, conj(d))
    return t[0] % nd == 0 and t[1] % nd == 0


def exact_div(a, d):
    """a / d, assuming d | a."""
    nd = norm(d)
    t = mul(a, conj(d))
    if t[0] % nd or t[1] % nd:
        raise ValueError(f"{d} does not divide {a}")
    return (t[0] // nd, t[1] // nd)


def canonical_pair(a):
    """First-quadrant associate of a nonzero pair."""
    if a == (0, 0):
        raise ZeroInputError("zero has no canonical associate")
    for _ in range(4):
        if a[0] > 0 and a[1] >= 0:
            return a
        a = (-a[1], a[0])  # multiply by i
    raise AssertionError("unreachable")


def gcd_pair(a, b):
    """Canonical gcd of two pairs, not both zero (Euclid, rounded division)."""
    if a == (0, 0) and b == (0, 0):
        raise ZeroInputError("gcd(0, 0) is undefined")
    while b != (0, 0):
        a, b = b, reduce_mod(a, b)
    return canonical_pair(a)


def ext_gcd_pair(a, b):
    """(g, x, y) with x*a + y*b = g and g the gcd (up to a unit; g as computed)."""
    r0, r1 = a, b
    x0, x1 = (1, 0), (0, 0)
    y0, y1 = (0, 0), (1, 0)
    while r1 != (0, 0):
        q, r = divmod_rounded(r0, r1)
        r0, r1 = r1, r
        x0, x1 = x1, sub(x0, mul(q, x1))
        y0, y1 = y1, sub(y0, mul(q, y1))
    return r0, x0, y0


def invert_mod(a, m):
    """Inverse of a modulo (m); raises ZeroDivisionError if gcd(a, m) != 1."""
    g, x, _ = ext_gcd_pair(a, m)
    if norm(g) != 1:
        raise ZeroDivisionError(f"{a} is not invertible mod {m}")
    # g is a unit u; a*x = u  =>  a * (x * u^-1) = 1.  u^-1 = conj(u) for units.
    return reduce_mod(mul(x, conj(g)), m)


def i_mod_split(pi, p: int) -> int:
    """t in [0, p) with i = t (mod pi), for pi = a+bi a split prime over p.

    pi = 0 (mod pi) gives i = -a/b, so t = -a * b^-1 mod p, and the ring map
    Z[i]/(pi) -> Z/p sends x0 + x1*i to x0 + x1*t.  Any unit associate of pi
    gives the same t.
    """
    a, b = pi
    t = (-a * pow(b, -1, p)) % p
    if (t * t + 1) % p:
        raise ArithmeticError(f"bad split data for {pi}")
    return t


def primary_associate(a, b):
    """The primary associate x + yi of a + bi, for a + b odd (odd norm): the
    one with x + yi = 1 (mod 2+2i), i.e. x odd, y even and x + y = 1 (mod 4).

    Quadratic reciprocity in Z[i], [pi/w] = [w/pi], holds between distinct
    primary primes.  Branch-free, so a and b may be ints or numpy integer
    arrays (elementwise; int64 while |a| + |b| < 2^62).
    """
    swap = b & 1  # a even: take -i(a + bi) = b - ai
    x, y = a + swap * (b - a), b - swap * (a + b)
    sign = 1 - 2 * (((x + y) >> 1) & 1)  # x + y = 3 (mod 4): negate
    return sign * x, sign * y


def euler_symbol(x, pi) -> int:
    """Quadratic residue symbol (x / pi) of a pair x at an odd prime pair pi.

    Euler criterion x^((N(pi)-1)/2) mod pi in {0, +1, -1}, as one rational
    pow in the residue field.  A split pi over p maps x to x0 + x1*t mod p
    (i_mod_split); an inert pi, an associate of (q), maps x to N(x) mod q,
    since the Frobenius gives x^(q+1) = N(x) and so
    x^((q^2-1)/2) = N(x)^((q-1)/2).  pi may be any unit associate; it is not
    checked for primality, callers pass primes.
    """
    a, b = pi
    if a and b:
        p = a * a + b * b
        r = (x[0] + x[1] * i_mod_split(pi, p)) % p
    else:
        p = abs(a + b)
        r = (x[0] * x[0] + x[1] * x[1]) % p
    if r == 0:
        return 0
    s = pow(r, (p - 1) // 2, p)
    if s == 1:
        return 1
    if s == p - 1:
        return -1
    raise ArithmeticError(f"Euler criterion returned a non-square-root at {pi}")


EULER_NORM_BOUND = 2**31  # euler_symbols squares residues mod p < 2^31 in int64


def _mod_each(x: int, m: np.ndarray) -> np.ndarray:
    """x mod m[j] for every j, exact for an int x of any size (0 < m < 2^31):
    Horner over the 31-bit limbs of |x|, every partial value below 2^62."""
    r = np.zeros_like(m)
    mag = abs(int(x))
    for shift in range(31 * ((mag.bit_length() - 1) // 31), -1, -31):
        r = (r * 2**31 + ((mag >> shift) & (2**31 - 1))) % m
    return -r % m if x < 0 else r


def euler_symbols(x, primes) -> np.ndarray:
    """[euler_symbol(x, pi) for (N(pi), pi) in primes] as one int8 array.

    The same Euler criterion in one int64 pass over the list.  A split
    pi = a+bi over p takes r = (x0 b - x1 a) b mod p, which is
    b^2 (x0 + x1 t) for t = -a/b (i_mod_split) and so has the same symbol,
    with no inverse; an inert pi, an associate of (q), takes r = N(x) mod q.
    Then r^((p-1)/2) mod p by square-and-multiply over the arrays, exact
    while p^2 < 2^63: a prime of norm >= EULER_NORM_BOUND raises
    OverflowGuardError.  The components of x may be ints of any size.  As
    with euler_symbol, the pi are odd primes and not checked.
    """
    top = max((npi for npi, _ in primes), default=0)
    if top >= EULER_NORM_BOUND:
        raise OverflowGuardError(f"euler_symbols needs prime norms below 2^31, got {top}")
    a = np.array([pi[0] for _, pi in primes], dtype=np.int64)
    b = np.array([pi[1] for _, pi in primes], dtype=np.int64)
    split = (a != 0) & (b != 0)
    p = np.where(split, a * a + b * b, np.abs(a + b))
    x0, x1 = _mod_each(x[0], p), _mod_each(x[1], p)
    r = np.where(split, (x0 * b - x1 * a) % p * b % p, (x0 * x0 + x1 * x1) % p)
    s, base, e = np.ones_like(p), r, (p - 1) // 2
    while e.any():
        s = np.where(e & 1, s * base % p, s)
        base = base * base % p
        e >>= 1
    if np.any((r != 0) & (s != 1) & (s != p - 1)):
        raise ArithmeticError("Euler criterion returned a non-square-root")
    return np.where(r == 0, 0, np.where(s == 1, 1, -1)).astype(np.int8)


def ext_gcd_int(a: int, b: int):
    """(g, x, y) with a*x + b*y = g = gcd(a, b) >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


# ---------------------------------------------------------------------------
# API types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class GaussianInt:
    """An element of Z[i] with the 2^31 component guard.

    Norms are computed in Python integers, so the "128-bit intermediate"
    requirement is satisfied automatically; the guard only limits inputs.
    """

    re: int
    im: int

    def __post_init__(self):
        if not (isinstance(self.re, int) and isinstance(self.im, int)):
            raise TypeError("components must be integers")
        if abs(self.re) >= COMPONENT_BOUND or abs(self.im) >= COMPONENT_BOUND:
            raise OverflowGuardError(f"component out of range: {self.re}+{self.im}i")

    @property
    def pair(self):
        return (self.re, self.im)

    def norm(self) -> int:
        return self.re * self.re + self.im * self.im

    def conjugate(self) -> "GaussianInt":
        return GaussianInt(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __add__(self, other):
        return GaussianInt(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return GaussianInt(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        return GaussianInt(self.re * other.re - self.im * other.im,
                           self.re * other.im + self.im * other.re)

    def __neg__(self):
        return GaussianInt(-self.re, -self.im)

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        unit = "i" if abs(self.im) == 1 else f"{abs(self.im)}i"
        if self.re == 0:
            return ("-" if self.im < 0 else "") + unit
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{unit}"

    @staticmethod
    def from_pair(p) -> "GaussianInt":
        return GaussianInt(int(p[0]), int(p[1]))


@dataclass(frozen=True, slots=True)
class CanonicalIdealRep:
    """The unique first-quadrant generator of a nonzero ideal of Z[i]."""

    value: GaussianInt

    def __post_init__(self):
        v = self.value
        if v.is_zero():
            raise ZeroInputError("the zero ideal has no representative")
        if not (v.re > 0 and v.im >= 0):
            raise ValueError(f"{v} is not a first-quadrant representative")

    @property
    def pair(self):
        return self.value.pair

    def norm(self) -> int:
        return self.value.norm()

    def __str__(self):
        return f"({self.value})"


@dataclass(frozen=True)
class Factorization:
    """unit * prod(prime^exp) with canonical, pairwise non-associate primes.

    Primes are sorted by (norm, re); the unit makes the product reproduce the
    input exactly.
    """

    unit: GaussianInt
    factors: tuple  # tuple[(CanonicalIdealRep, int), ...]

    def value(self) -> GaussianInt:
        acc = self.unit.pair
        for p, e in self.factors:
            for _ in range(e):
                acc = mul(acc, p.pair)
        return GaussianInt.from_pair(acc)


def canonical_rep(n: GaussianInt) -> CanonicalIdealRep:
    """First-quadrant associate of n != 0."""
    if n.is_zero():
        raise ZeroInputError("zero input")
    return CanonicalIdealRep(GaussianInt.from_pair(canonical_pair(n.pair)))


def gcd(a: GaussianInt, b: GaussianInt) -> CanonicalIdealRep:
    """Canonical generator of the ideal (a, b); Euclid with rounded division."""
    return CanonicalIdealRep(GaussianInt.from_pair(gcd_pair(a.pair, b.pair)))


# ---------------------------------------------------------------------------
# rational integer factorization support
# ---------------------------------------------------------------------------

_TRIAL_LIMIT = 10**6

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime_int(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24 (witness set of 12 primes)."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int) -> int:
    """Brent-cycle Pollard rho; returns a nontrivial factor of composite odd n."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        x, y, d = 2, 2, 1
        q = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            q = q * abs(x - y) % n
            if q == 0:
                break
            d = math.gcd(q, n)
        if 1 < d < n:
            return d
    raise ArithmeticError(f"pollard rho failed on {n}")


def factor_int(n: int) -> dict:
    """Prime factorization of n >= 1: trial division to 1e6, then MR + rho."""
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    wi = 0
    while f * f <= n and f < _TRIAL_LIMIT:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += wheel[wi]
        wi = (wi + 1) % 8
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime_int(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_brent(m)
        stack.append(d)
        stack.append(m // d)
    return out


@lru_cache(maxsize=4096)
def sqrt_minus_one_mod(p: int) -> int:
    """A square root of -1 mod p, for p = 1 (mod 4)."""
    if p % 4 != 1:
        raise ValueError(f"{p} is not 1 mod 4")
    for a in range(2, p):
        t = pow(a, (p - 1) // 4, p)
        if t * t % p == p - 1:
            return t
    raise ArithmeticError("unreachable for prime p")


@lru_cache(maxsize=65536)
def split_prime_above(p: int):
    """Canonical Gaussian prime pair above a split rational prime p = 1 (mod 4):
    the one that divides t + i, t = sqrt_minus_one_mod(p), as gcd(p, t + i).

    Hermite-Serret: the integer Euclid on (p, t) reaches p = a^2 + b^2 at its
    first remainder a below sqrt(p).  Of the two canonical primes over p,
    a+bi and b+ai, the one dividing t + i is a+bi exactly when
    (t + i)(a - bi) = (ta + b) + (a - tb)i is divisible by p.
    """
    t = sqrt_minus_one_mod(p)
    r0, r1 = p, t
    while r1 * r1 > p:
        r0, r1 = r1, r0 % r1
    a = r1
    b = math.isqrt(p - a * a)
    if a * a + b * b != p:
        raise ArithmeticError(f"{p} is not a sum of two squares")
    return (a, b) if (t * a + b) % p == 0 else (b, a)


# ---------------------------------------------------------------------------
# factorization over Z[i]
# ---------------------------------------------------------------------------

_factor_memo: dict = {}
_factor_lock = threading.Lock()


def _factor_pair(a):
    """(unit_pair, ((prime_pair, exp), ...)) for nonzero pair a."""
    n = norm(a)
    rem = a
    out = {}
    for p in sorted(factor_int(n)):
        # the prime ideals above p: (1+i), an inert (p), or pi and conj(pi)
        if p == 2:
            above = ((1, 1),)
        elif p % 4 == 3:
            above = ((p, 0),)
        else:
            pi = split_prime_above(p)
            above = (pi, conj(pi))
        for q in above:
            k = 0
            while divides(q, rem):
                rem = exact_div(rem, q)
                k += 1
            if k:
                out[canonical_pair(q)] = k
    if norm(rem) != 1:
        raise ArithmeticError(f"factorization of {a} left non-unit {rem}")
    facs = tuple(sorted(out.items(), key=lambda kv: (norm(kv[0]), kv[0][0])))
    prod = (1, 0)
    for pi, e in facs:
        for _ in range(e):
            prod = mul(prod, pi)
    unit = exact_div(a, prod)
    return unit, facs


def _factor_cached(can):
    """Memoized _factor_pair of a canonical pair; the memo is guarded by a
    lock so concurrent callers only ever observe complete entries."""
    with _factor_lock:
        cached = _factor_memo.get(can)
    if cached is None:
        cached = _factor_pair(can)
        with _factor_lock:
            if len(_factor_memo) > 200_000:
                _factor_memo.clear()
            _factor_memo[can] = cached
    return cached


def factor(n: GaussianInt) -> Factorization:
    """Factor a nonzero Gaussian integer into unit * canonical prime powers.

    Memoized on the canonical associate.
    """
    if n.is_zero():
        raise ZeroInputError("cannot factor zero")
    can = canonical_pair(n.pair)
    unit_can, facs = _factor_cached(can)
    # adjust unit for the actual associate passed in
    u = exact_div(n.pair, can)  # a unit
    unit = mul(u, unit_can)
    return Factorization(
        unit=GaussianInt.from_pair(unit),
        factors=tuple((CanonicalIdealRep(GaussianInt.from_pair(p)), e) for p, e in facs),
    )


def factor_pair_cached(a):
    """Tuple-level factorization of the *ideal* (a): ((prime_pair, exp), ...)."""
    return _factor_cached(canonical_pair(a))[1]


def is_prime_ideal(q: CanonicalIdealRep) -> bool:
    """True iff (q) is a prime ideal of Z[i]."""
    n = q.norm()
    if n == 2:
        return True
    if is_prime_int(n):
        return True
    r = math.isqrt(n)
    return r * r == n and r % 4 == 3 and is_prime_int(r) and q.pair == (r, 0)


# ---------------------------------------------------------------------------
# multiplicative functions (functions of the ideal)
# ---------------------------------------------------------------------------

def multiplicative(pair, local):
    """Product of local(pi, e) over the prime powers pi^e of the ideal (pair).

    Factors are taken in factorization order, ascending (norm, re), and the
    product stops at the first zero factor; the unit ideal gives 1.  Every
    multiplicative function of an ideal in the package is one such call.
    """
    out = 1
    for pi, e in factor_pair_cached(pair):
        out *= local(pi, e)
        if out == 0:
            break
    return out


def mobius(n: CanonicalIdealRep) -> int:
    """Mobius function of the ideal (n): 0 unless squarefree, else (-1)^omega."""
    return multiplicative(n.pair, lambda pi, e: -1 if e == 1 else 0)


def euler_phi(n: CanonicalIdealRep) -> int:
    """Order of (Z[i]/(n))^x; multiplicative, phi(pi^e) = N^e - N^(e-1)."""
    return multiplicative(n.pair, lambda pi, e: norm(pi) ** e - norm(pi) ** (e - 1))


def sigma_xi(n: CanonicalIdealRep, xi):
    """sigma_xi(n) = sum over ideal divisors d | n of N(d)^xi.

    Exact (int) when xi is a nonnegative integer, float/complex otherwise.
    """
    return multiplicative(n.pair, lambda pi, e: sum(norm(pi) ** (k * xi)
                                                    for k in range(e + 1)))


def divisor_count(n: CanonicalIdealRep) -> int:
    """Number of ideal divisors of (n); exact integer."""
    return multiplicative(n.pair, lambda pi, e: e + 1)


def divisor_pairs(a):
    """All ideal divisors of the pair a, as canonical pairs (unsorted)."""
    divs = [(1, 0)]
    for pi, e in factor_pair_cached(a):
        new = []
        for d in divs:
            cur = d
            for k in range(e + 1):
                new.append(cur)
                if k < e:
                    cur = canonical_pair(mul(cur, pi))
        divs = new
    return divs


def divisors(n: CanonicalIdealRep) -> list[CanonicalIdealRep]:
    """Ideal divisors of (n), sorted by (norm, re)."""
    ds = divisor_pairs(n.pair)
    ds.sort(key=lambda d: (norm(d), d[0]))
    return [CanonicalIdealRep(GaussianInt.from_pair(d)) for d in ds]


# ---------------------------------------------------------------------------
# residue rings and prime enumeration
# ---------------------------------------------------------------------------

class ResidueRing:
    """Z[i]/(m) with an explicit transversal from the HNF of the lattice mZ[i].

    The lattice spanned by m and i*m has a row-HNF basis (d1, 0), (eoff, d2),
    so {x + y*i : 0 <= x < d1, 0 <= y < d2} is a complete residue system and
    every element has the canonical index x*d2 + y.
    """

    def __init__(self, m):
        if m == (0, 0):
            raise ZeroInputError("modulus must be nonzero")
        self.m = m
        self.n_elements = norm(m)
        m0, m1 = m
        g, x, y = ext_gcd_int(m1, m0)
        self.d2 = g
        self.d1 = self.n_elements // g
        self.eoff = (x * m0 - y * m1) % self.d1

    def reduce(self, a):
        """Canonical representative (x, y) of a mod (m); the components of a
        may be ints or numpy integer arrays (elementwise)."""
        k = a[1] // self.d2
        y = a[1] - k * self.d2
        x = (a[0] - k * self.eoff) % self.d1
        return (x, y)

    def index(self, a) -> int:
        x, y = self.reduce(a)
        return x * self.d2 + y

    def index_arrays(self, a, b):
        """Vectorized index for numpy integer arrays of components (a, b)."""
        x, y = self.reduce((a, b))
        return x * self.d2 + y

    def representatives(self):
        """All representatives in index order."""
        return [(x, y) for x in range(self.d1) for y in range(self.d2)]


def _sieve_prime_ideals(limit: int):
    """prime_ideals_upto(limit), sieved afresh."""
    out = []
    if limit >= 2:
        out.append((2, (1, 1)))
    if limit >= 4:
        sieve = bytearray([1]) * (limit + 1)
        sieve[0:2] = b"\x00\x00"
        for p in range(2, math.isqrt(limit) + 1):
            if sieve[p]:
                sieve[p * p:: p] = b"\x00" * ((limit - p * p) // p + 1)
        for p in range(3, limit + 1, 2):
            if not sieve[p]:
                continue
            if p % 4 == 1:
                pi = split_prime_above(p)
                out.append((p, pi))
                out.append((p, canonical_pair(conj(pi))))
            elif p * p <= limit:
                out.append((p * p, (p, 0)))
    out.sort(key=lambda t: (t[0], t[1][0]))
    return out


# (limit, primes): the largest list sieved so far, replaced by one assignment
_sieved = (-1, [])


def prime_ideals_upto(limit: int):
    """Canonical Gaussian primes of norm <= limit as (norm, (re, im)) tuples.

    Sorted by (norm, re).  p = 2 contributes (1+i); split p = 1 (mod 4)
    contribute both conjugate primes; inert p = 3 (mod 4) contribute (p) with
    norm p^2.  The process keeps the largest list it has sieved and answers
    smaller limits with a new list of its prefix; threads that race on a new
    largest limit each sieve it once.
    """
    global _sieved
    top, primes = _sieved
    if limit > top:
        top, primes = _sieved = (limit, _sieve_prime_ideals(limit))
    return primes[:bisect_right(primes, limit, key=lambda t: t[0])]


def walk_ideals(primes, limits, extend, term, leaves, root=1) -> None:
    """Reach every ideal of norm <= L, for each L in `limits`, in factored form.

    `primes` is prime_ideals_upto(max(limits)).  One depth-first walk to the
    largest limit serves every limit.  The value of an ideal is built one
    prime power at a time: extend(value_q, N(pi), pi_pair, e) returns the
    value of q * pi^e, or None to prune that ideal together with every ideal
    the walk reaches through it.

    The walk goes from q * pi_j on to the primes after pi_j.  When even
    q * pi_j * pi_(j+1) lies beyond L, q * pi_j is a prime leaf of q for L:
    the walk does not build it, since its value is value_q times the value
    at pi_j (the walk assumes a multiplicative value), and the prime leaves
    of q are the primes j of one contiguous range.  For each L (index k in
    `limits`) every ideal of norm <= L is reached exactly once, either
      * as a visited ideal, term(k, N(q), value_q), called before q's
        subtree; the unit ideal, whose value is `root`, comes first; or
      * as one prime of a leaf range, leaves(k, N(q), value_q, lo, hi) for
        the ideals q * pi_j, lo <= j < hi, called after q's subtree.
    extend runs once per visited ideal other than the unit, and once per
    pruned one.  Deterministic order: primes ascending by (norm, re),
    exponents ascending, so sums accumulated by the callbacks round the same
    way on every run, and for each L exactly as in a walk to L alone.
    """
    top = max(limits)
    norms = [npj for npj, _ in primes]
    # N(pi_j) N(pi_(j+1)): q * pi_j is a prime leaf for L when N(q) times it exceeds L
    pairs = [a * b for a, b in zip(norms, norms[1:])] + [math.inf]

    def rec(i, nrm, val, reach):
        # reach: the least norm of a multiple the walk goes on to (N(q) for
        # a power e >= 2); q is a prime leaf of every limit below it
        for k, limit in enumerate(limits):
            if reach <= limit:
                term(k, nrm, val)
        for j in range(i, len(primes)):
            npj, pj = primes[j]
            if nrm * npj * npj > top:
                break
            # when q * pi_j is a prime leaf, only its powers e >= 2 are visited
            e, nn = (1, nrm * npj) if nrm * pairs[j] <= top else (2, nrm * npj * npj)
            while nn <= top:
                child = extend(val, npj, pj, e)
                if child is not None:
                    rec(j + 1, nn, child, nrm * pairs[j] if e == 1 else nn)
                e += 1
                nn *= npj
        for k, limit in enumerate(limits):
            m = limit // nrm
            lo = max(i, bisect_right(pairs, m))
            hi = bisect_right(norms, m)
            if lo < hi:
                leaves(k, nrm, val, lo, hi)

    try:
        rec(0, 1, root, 1)
    finally:
        del rec  # rec refers to itself: drop the cycle, and what extend holds, now


def disk_rows(lo: float, hi: float):
    """Lattice points of the annulus lo < a^2 + b^2 <= hi, row by row.

    Yields (b, a) for b ascending, a the ascending int64 array of every a in
    the row (empty rows are skipped).  Real bounds act through their floors,
    so a negative lo includes the origin.  Every disk or annulus whose points
    the package lists (traces, partial sums, ideal lists) is walked here.
    """
    top = math.floor(hi)
    if top < 0:
        return
    bottom = math.floor(lo)
    bmax = math.isqrt(top)
    for b in range(-bmax, bmax + 1):
        amax = math.isqrt(top - b * b)
        a = np.arange(-amax, amax + 1, dtype=np.int64)
        if bottom >= b * b:
            a = a[a * a > bottom - b * b]
        if len(a):
            yield b, a


def ideal_reps_upto(limit: int):
    """Canonical pairs of all ideals with norm <= limit, sorted by (norm, re)."""
    out = [(a, b) for b, row in disk_rows(0, limit) if b >= 0
           for a in row[row > 0].tolist()]
    out.sort(key=lambda d: (norm(d), d[0]))
    return out
