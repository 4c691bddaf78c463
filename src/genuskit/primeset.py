"""Finite and cofinite prime sets, partition families, and X-numbers.

Prime sets index everything else in this package: groups and modules get
localized at a prime set, a partition family splits a set T of primes into
blocks that pairwise intersect in a common core S, and an X-number is a
positive integer whose prime factors avoid X, which is exactly what acts
invertibly on X-local groups.

Sets are kept in one of two canonical shapes, finite or cofinite, and the
boolean algebra generated by those shapes is closed, so every operation
below returns another canonical ``PrimeSet``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import DomainError, FamilyError

PRIMALITY_LIMIT = 2**64

# These witnesses make Miller-Rabin deterministic for all n < 3.3e24,
# comfortably covering the supported range below 2**64.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _build_sieve(limit: int) -> tuple[int, ...]:
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return tuple(i for i in range(limit + 1) if flags[i])


_SMALL_PRIMES = _build_sieve(10_000)
_SMALL_PRIME_SET = frozenset(_SMALL_PRIMES)


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < 2**64.

    Larger inputs are rejected outright rather than answered
    probabilistically.
    """
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError(f"expected an integer, got {n!r}")
    if n >= PRIMALITY_LIMIT:
        raise ValueError(f"primality testing is limited to inputs below 2**64, got {n}")
    if n < 2:
        return False
    if n <= 10_000:
        return n in _SMALL_PRIME_SET
    for p in _MR_WITNESSES:
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    # Brent's variant with deterministic parameter sweep; n is odd, composite,
    # and has no factor below the trial division bound.
    for c in range(1, 64):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = 0
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise DomainError(f"Pollard's rho failed to split {n}")


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of a positive integer as ``{prime: exponent}``.

    A cofactor of ``PRIMALITY_LIMIT`` or more, or one that Pollard's rho
    fails to split, raises ``DomainError`` naming it.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"can only factor a positive integer, got {n!r}")
    factors: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    if n == 1:
        return factors
    stack = [n]
    while stack:
        m = stack.pop()
        if m >= PRIMALITY_LIMIT:
            raise DomainError(f"factoring is limited to cofactors below 2**64, got {m}")
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return factors


def valuation(x, p: int) -> int:
    """p-adic valuation of a nonzero int or Fraction."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    num = getattr(x, "numerator", x)
    den = getattr(x, "denominator", 1)
    if num == 0:
        raise ValueError("the zero element has no finite valuation")

    def int_val(n: int) -> int:
        v = 0
        n = abs(n)
        while n % p == 0:
            n //= p
            v += 1
        return v

    return int_val(num) - int_val(den)


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n."""
    candidate = max(n + 1, 2)
    if candidate > 2 and candidate % 2 == 0:
        candidate += 1
    while not is_prime(candidate):
        candidate += 1 if candidate == 2 else 2
    return candidate


@dataclass(frozen=True)
class PrimeSet:
    """A finite or cofinite set of rational primes in canonical form.

    ``members`` holds the elements for the finite shape and the excluded
    primes for the cofinite shape.  A cofinite set is genuinely infinite, so
    no set is representable in both shapes and equality is structural.

    >>> str(PrimeSet.finite([5, 2]))
    '{2,5}'
    >>> str(PrimeSet.all_except([2]))
    'all\\\\{2}'
    """

    members: tuple[int, ...]
    cofinite: bool = False

    def __post_init__(self) -> None:
        last = 1
        for p in self.members:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            if p <= last:
                raise ValueError("members must be strictly increasing")
            last = p

    @classmethod
    def finite(cls, primes) -> "PrimeSet":
        return cls(tuple(sorted(set(primes))))

    @classmethod
    def all_except(cls, primes) -> "PrimeSet":
        return cls(tuple(sorted(set(primes))), cofinite=True)

    @property
    def is_finite(self) -> bool:
        return not self.cofinite

    @property
    def is_empty(self) -> bool:
        return not self.cofinite and not self.members

    def contains(self, p: int) -> bool:
        """Membership test; rejects non-primes instead of answering False."""
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        return self._contains_known_prime(p)

    def _contains_known_prime(self, p: int) -> bool:
        return (p in self.members) != self.cofinite

    def __contains__(self, p: int) -> bool:
        return self.contains(p)

    def union(self, other: "PrimeSet") -> "PrimeSet":
        a, b = self, other
        if a.is_finite and b.is_finite:
            return PrimeSet.finite(set(a.members) | set(b.members))
        if a.is_finite:
            return PrimeSet.all_except(set(b.members) - set(a.members))
        if b.is_finite:
            return PrimeSet.all_except(set(a.members) - set(b.members))
        return PrimeSet.all_except(set(a.members) & set(b.members))

    def intersect(self, other: "PrimeSet") -> "PrimeSet":
        a, b = self, other
        if a.is_finite and b.is_finite:
            return PrimeSet.finite(set(a.members) & set(b.members))
        if a.is_finite:
            return PrimeSet.finite(set(a.members) - set(b.members))
        if b.is_finite:
            return PrimeSet.finite(set(b.members) - set(a.members))
        return PrimeSet.all_except(set(a.members) | set(b.members))

    def difference(self, other: "PrimeSet") -> "PrimeSet":
        a, b = self, other
        if a.is_finite and b.is_finite:
            return PrimeSet.finite(set(a.members) - set(b.members))
        if a.is_finite:
            return PrimeSet.finite(set(a.members) & set(b.members))
        if b.is_finite:
            return PrimeSet.all_except(set(a.members) | set(b.members))
        return PrimeSet.finite(set(b.members) - set(a.members))

    def complement(self) -> "PrimeSet":
        return PrimeSet(self.members, cofinite=not self.cofinite)

    __or__ = union
    __and__ = intersect
    __sub__ = difference

    def issubset(self, other: "PrimeSet") -> bool:
        if self.is_finite and other.is_finite:
            return set(self.members) <= set(other.members)
        if self.is_finite:
            return not (set(self.members) & set(other.members))
        if other.is_finite:
            return False
        return set(self.members) >= set(other.members)

    def __le__(self, other: "PrimeSet") -> bool:
        return self.issubset(other)

    def size(self) -> int | None:
        """Number of elements, or None for the cofinite shape."""
        return None if self.cofinite else len(self.members)

    def iter_ascending(self):
        """Yield members in increasing order; unbounded for cofinite sets."""
        if self.is_finite:
            yield from self.members
            return
        excluded = set(self.members)
        p = 2
        while True:
            if p not in excluded:
                yield p
            p = next_prime(p)

    def first(self, k: int) -> tuple[int, ...]:
        out = []
        for p in self.iter_ascending():
            if len(out) == k:
                break
            out.append(p)
        return tuple(out)

    def __str__(self) -> str:
        body = "{" + ",".join(str(p) for p in self.members) + "}"
        if self.cofinite:
            return "all" if not self.members else "all\\" + body
        return body


EMPTY_SET = PrimeSet.finite([])
ALL_PRIMES = PrimeSet.all_except([])

_SET_OPS = {
    "union": PrimeSet.union,
    "intersect": PrimeSet.intersect,
    "difference": PrimeSet.difference,
}


def set_algebra(op: str, a: PrimeSet, b: PrimeSet) -> PrimeSet:
    """Apply a named boolean operation; the result is always canonical."""
    if op not in _SET_OPS:
        raise ValueError(f"unknown set operation {op!r}; expected one of {sorted(_SET_OPS)}")
    return _SET_OPS[op](a, b)


def _split_off(n: int, primes) -> tuple[int, int]:
    """(part, rest) with n == part * rest, where part is supported on
    ``primes`` and rest is prime to each of them; n is positive."""
    part = 1
    for p in primes:
        while n % p == 0:
            n //= p
            part *= p
    return part, n


def is_x_number(n: int, avoided: PrimeSet) -> bool:
    """True when n >= 1 and no prime factor of n lies in ``avoided``.

    Such integers act invertibly on groups local to ``avoided``.  Zero is
    rejected rather than classified.  Only division by the finite member
    list is needed, so n may be of any size.

    >>> is_x_number(35, PrimeSet.all_except([5, 7]))
    True
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"X-numbers are positive integers, got {n!r}")
    if avoided.cofinite:
        return _split_off(n, avoided.members)[1] == 1
    return all(n % p for p in avoided.members)


def xpart(n: int, X: PrimeSet) -> int:
    """The largest divisor of n supported entirely on the primes of X."""
    if n == 0:
        raise ValueError("0 has no X-part")
    part, rest = _split_off(abs(n), X.members)
    return rest if X.cofinite else part


@dataclass(frozen=True)
class XNumber:
    """A positive integer certified to have no prime factor in ``avoided``."""

    value: int
    avoided: PrimeSet

    def __post_init__(self) -> None:
        if not is_x_number(self.value, self.avoided):
            raise ValueError(f"{self.value} has a prime factor inside {self.avoided}")

    def __int__(self) -> int:
        return self.value

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class PartitionFamily:
    """A set T of primes split into blocks overlapping in a common core S.

    Two shapes exist.  The singleton shape has one block S + {p} for every
    residual prime p in T - S, indexed by p itself; it is the only shape
    that may be infinite.  The explicit shape lists its blocks, indexed by
    position, and each block must contain S properly, sit inside T, meet
    every other block exactly in S, and jointly cover T.
    """

    T: PrimeSet
    S: PrimeSet
    blocks: tuple[PrimeSet, ...] | None = None

    @property
    def is_singleton_shape(self) -> bool:
        return self.blocks is None

    def residual(self) -> PrimeSet:
        return self.T - self.S

    def residual_is_finite(self) -> bool:
        return self.residual().is_finite

    def block_count(self) -> int | None:
        if self.blocks is not None:
            return len(self.blocks)
        return self.residual().size()

    def valid_index(self, i: int) -> bool:
        if self.is_singleton_shape:
            return is_prime(i) and self.residual().contains(i)
        return isinstance(i, int) and 0 <= i < len(self.blocks)

    def block(self, i: int) -> PrimeSet:
        if not self.valid_index(i):
            raise FamilyError(f"{i} is not a valid block index for {self}")
        if self.is_singleton_shape:
            return self.S | PrimeSet.finite([i])
        return self.blocks[i]

    def block_residual(self, i: int) -> PrimeSet:
        return self.block(i) - self.S

    def block_of_prime(self, p: int) -> int:
        """Index of the unique block whose residual part contains p."""
        if not self.residual().contains(p):
            raise FamilyError(f"{p} is not a residual prime of {self}")
        if self.is_singleton_shape:
            return p
        for i, b in enumerate(self.blocks):
            if (b - self.S).contains(p):
                return i
        raise FamilyError(f"{p} escaped every block of {self}")  # pragma: no cover

    def sample_indices(self, k: int) -> tuple[int, ...]:
        """First k block indices: residual primes or positions."""
        if self.is_singleton_shape:
            return self.residual().first(k)
        return tuple(range(min(k, len(self.blocks))))

    def __str__(self) -> str:
        if self.is_singleton_shape:
            return f"singletons({self.T},{self.S})"
        body = ",".join(str(b) for b in self.blocks)
        return f"blocks({self.T},{self.S}; {body})"


def make_family(T: PrimeSet, S: PrimeSet, blocks="singletons") -> PartitionFamily:
    """Validate and build a partition family.

    ``blocks`` is either the string ``"singletons"`` or an iterable of
    ``PrimeSet`` blocks.  Every violated condition is reported with the
    offending block pair or prime.
    """
    if not S.issubset(T):
        raise FamilyError(f"core {S} is not contained in {T}")
    if T == S:
        raise FamilyError(f"need at least one residual prime, but T = S = {T}")
    if isinstance(blocks, str):
        if blocks != "singletons":
            raise FamilyError(f"unknown block shape {blocks!r}")
        return PartitionFamily(T, S, None)

    blocks = tuple(blocks)
    if not blocks:
        raise FamilyError("an explicit family needs at least one block")
    for i, b in enumerate(blocks):
        if not S.issubset(b) or b == S:
            raise FamilyError(f"block {i} = {b} does not contain the core {S} properly")
        if not b.issubset(T):
            extra = b - T
            raise FamilyError(f"block {i} = {b} leaves T = {T} (e.g. at {extra.first(1)[0]})")
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            meet = blocks[i] & blocks[j]
            if meet != S:
                raise FamilyError(
                    f"blocks {i} and {j} intersect in {meet}, expected the core {S}"
                )
    union = S
    for b in blocks:
        union = union | b
    if union != T:
        missing = T - union
        raise FamilyError(f"blocks miss {missing.first(1)[0]} of T = {T}")
    return PartitionFamily(T, S, blocks)
