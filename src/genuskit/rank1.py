"""Rank-1 analysis: automorphism families on a local line and their pullbacks.

The objects here are families of automorphisms of a rank-1 group localized
at the blocks of a partition family.  Every such automorphism is
multiplication by a nonzero rational that is a unit at the core primes, so
an entire family is captured by one rational per block: a finite list of
exceptional values over a tail rule that covers the remaining blocks.

What the rest of the package wants to know about such a family boils down
to the integer sequence c_p = v_p(value at the block containing p), taken
over residual primes p only.  Boundedness of the family, triviality and
height sequence of its pullback, the finite-generation question, and the
coarse classification that ignores finitely many changes are all read off
that sequence, and each decision ships a concrete witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import Check, DomainError, FamilyError
from .primeset import PartitionFamily, PrimeSet, XNumber, factorize, valuation


@dataclass(frozen=True)
class Identity:
    """Tail rule: every non-exceptional block gets the value 1."""

    def value_at(self, index: int) -> Fraction:
        return Fraction(1)

    def inverse(self) -> "Identity":
        return self

    def __str__(self) -> str:
        return "id"


@dataclass(frozen=True)
class ConstantRational:
    """Tail rule: every non-exceptional block gets the same rational."""

    value: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", Fraction(self.value))
        if self.value == 0:
            raise ValueError("an automorphism value cannot be zero")

    def value_at(self, index: int) -> Fraction:
        return self.value

    def inverse(self) -> "ConstantRational":
        return ConstantRational(1 / self.value)

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class IndexPrimePower:
    """Tail rule for singleton-shaped families: block p gets p**exponent."""

    exponent: int

    def value_at(self, index: int) -> Fraction:
        return Fraction(index) ** self.exponent

    def inverse(self) -> "IndexPrimePower":
        return IndexPrimePower(-self.exponent)

    def __str__(self) -> str:
        return f"p^{self.exponent}"


Tail = Identity | ConstantRational | IndexPrimePower


@dataclass(frozen=True)
class AutFamily1:
    """One automorphism per block of ``family``, exceptions over a tail.

    ``exceptions`` maps finitely many block indices to values; every other
    block takes the tail rule.  Values must be nonzero, and the core primes
    never contribute: only valuations at residual primes are ever read.
    """

    family: PartitionFamily
    tail: Tail
    exceptions: tuple[tuple[int, Fraction], ...] = ()

    def __post_init__(self) -> None:
        if isinstance(self.tail, IndexPrimePower) and not self.family.is_singleton_shape:
            raise ValueError("index-power tails require the singleton block shape")
        cleaned = []
        seen = set()
        for index, value in self.exceptions:
            if not self.family.valid_index(index):
                raise FamilyError(f"{index} is not a block index of {self.family}")
            if index in seen:
                raise ValueError(f"duplicate exception for block {index}")
            seen.add(index)
            value = Fraction(value)
            if value == 0:
                raise ValueError("an automorphism value cannot be zero")
            cleaned.append((index, value))
        cleaned.sort()
        object.__setattr__(self, "exceptions", tuple(cleaned))

    def value_at(self, index: int) -> Fraction:
        if not self.family.valid_index(index):
            raise FamilyError(f"{index} is not a block index of {self.family}")
        for i, v in self.exceptions:
            if i == index:
                return v
        return Fraction(self.tail.value_at(index))

    def inverse(self) -> "AutFamily1":
        return AutFamily1(
            self.family,
            self.tail.inverse(),
            tuple((i, 1 / v) for i, v in self.exceptions),
        )

    def __str__(self) -> str:
        parts = [str(self.family), f"tail={self.tail}"]
        if self.exceptions:
            parts.append(", ".join(f"{i} -> {v}" for i, v in self.exceptions))
        return "aut(" + "; ".join(parts) + ")"


def make_aut(family: PartitionFamily, tail: Tail = Identity(), exceptions=None) -> AutFamily1:
    """Convenience constructor; accepts a dict of exceptions."""
    if exceptions is None:
        exceptions = ()
    elif isinstance(exceptions, dict):
        exceptions = tuple(sorted((i, Fraction(v)) for i, v in exceptions.items()))
    return AutFamily1(family, tail, tuple(exceptions))


def valuation_profile(alpha: AutFamily1) -> tuple[dict[int, int], int]:
    """The sequence p -> v_p(value at p's block) as (overrides, default).

    The default applies to every residual prime absent from the overrides.
    Families with finite residual are fully materialized (default 0); only
    a singleton-shaped family over an infinite residual has a genuinely
    generic tail, whose default is 0 except for an index-power tail, where
    it is the exponent itself.
    """
    family = alpha.family
    residual = family.residual()
    overrides: dict[int, int] = {}

    if residual.is_finite:
        for p in residual.members:
            c = valuation(alpha.value_at(family.block_of_prime(p)), p)
            if c != 0:
                overrides[p] = c
        return overrides, 0

    if not family.is_singleton_shape:
        # finitely many explicit blocks, at least one of them cofinite;
        # each value contributes only at the primes of its own support
        for i in range(len(family.blocks)):
            value = alpha.value_at(i)
            block_res = family.block_residual(i)
            support = set(factorize(abs(value.numerator)))
            support |= set(factorize(value.denominator))
            for p in sorted(support):
                if block_res.contains(p):
                    overrides[p] = valuation(value, p)
        return dict(sorted(overrides.items())), 0

    default = alpha.tail.exponent if isinstance(alpha.tail, IndexPrimePower) else 0
    exceptional = set()
    for p, value in alpha.exceptions:
        exceptional.add(p)
        c = valuation(value, p)
        if c != default:
            overrides[p] = c
    if isinstance(alpha.tail, ConstantRational):
        beta = alpha.tail.value
        support = set(factorize(abs(beta.numerator)))
        support |= set(factorize(beta.denominator))
        for p in sorted(support):
            if p in exceptional or not residual.contains(p):
                continue
            c = valuation(beta, p)
            if c != default:
                overrides[p] = c
    return dict(sorted(overrides.items())), default


@dataclass(frozen=True)
class BoundednessDecision:
    """Outcome of a boundedness test with a constructive side.

    A positive answer carries the minimal core-avoiding integer witness; a
    negative one carries the infinite set of primes where the defining
    condition fails.
    """

    bounded: bool
    witness: XNumber | None
    violation: PrimeSet | None

    def __bool__(self) -> bool:
        return self.bounded


def is_bounded(alpha: AutFamily1) -> BoundednessDecision:
    """Do only finitely many residual primes see a non-unit value?

    Positive witness: the least s with s * x and s / x integral against
    every block value x, namely prod p^|c_p| over the nonzero c_p.
    """
    overrides, default = valuation_profile(alpha)
    if default != 0:
        quiet = [p for p, c in overrides.items() if c == 0]
        return BoundednessDecision(False, None, alpha.family.residual() - PrimeSet.finite(quiet))
    s = 1
    for p, c in overrides.items():
        s *= p ** abs(c)
    return BoundednessDecision(True, XNumber(s, alpha.family.S), None)


def is_bounded_above(alpha: AutFamily1) -> BoundednessDecision:
    """Do only finitely many residual primes see a value of positive height?

    Positive witness: prod p^max(0, c_p), the least s that clears every
    positive height at once.
    """
    overrides, default = valuation_profile(alpha)
    if default > 0:
        quiet = [p for p, c in overrides.items() if c <= 0]
        return BoundednessDecision(False, None, alpha.family.residual() - PrimeSet.finite(quiet))
    s = 1
    for p, c in overrides.items():
        if c > 0:
            s *= p**c
    return BoundednessDecision(True, XNumber(s, alpha.family.S), None)


@dataclass(frozen=True)
class HeightSequence:
    """Heights of a rank-1 pullback at the residual primes.

    ``trivial`` marks the zero group, which has no heights.  Otherwise the
    height at p is the override value when present and ``default`` (always
    <= 0, else the group would collapse) at the cofinitely many others.
    Core primes sit at height 0 and primes outside the family's support are
    invertible; neither is stored.
    """

    family: PartitionFamily
    trivial: bool
    overrides: tuple[tuple[int, int], ...] = ()
    default: int = 0

    def __post_init__(self) -> None:
        if self.trivial:
            if self.overrides or self.default:
                raise ValueError("the trivial sequence carries no height data")
            return
        if self.default > 0:
            raise ValueError("a positive generic height would force the zero group")
        last = None
        for p, c in self.overrides:
            if not self.family.residual().contains(p):
                raise FamilyError(f"{p} is not a residual prime of {self.family}")
            if c == self.default:
                raise ValueError(f"override at {p} equals the default {self.default}")
            if last is not None and p <= last:
                raise ValueError("overrides must be sorted by prime")
            last = p

    def height_at(self, p: int) -> int:
        if self.trivial:
            raise DomainError("the trivial group has no height sequence")
        if not self.family.residual().contains(p):
            raise FamilyError(f"{p} is not a residual prime of {self.family}")
        for q, c in self.overrides:
            if q == p:
                return c
        return self.default

    def support(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.overrides)

    def __str__(self) -> str:
        if self.trivial:
            return "heights(trivial)"
        body = ", ".join(f"{p} -> {c}" for p, c in self.overrides)
        tail = f"default {self.default}"
        return f"heights({body}; {tail})" if body else f"heights({tail})"


def pullback_rank1(alpha: AutFamily1) -> HeightSequence:
    """Height sequence of the limit of one local line over each block.

    The group being described: rationals integral at the core whose
    valuation at each residual prime p clears c_p = v_p(block value).  It
    collapses to zero precisely when infinitely many c_p are positive.
    """
    overrides, default = valuation_profile(alpha)
    if not is_bounded_above(alpha):
        return HeightSequence(alpha.family, trivial=True)
    return HeightSequence(
        alpha.family,
        trivial=False,
        overrides=tuple(sorted(overrides.items())),
        default=default,
    )


def is_finitely_generated(heights: HeightSequence) -> bool:
    """Whether the described group is finitely generated over its core ring.

    Finitely many nonzero heights scale the full local line, which is
    cyclic; infinitely many negative ones pile up unbounded denominators.
    """
    if heights.trivial:
        raise ValueError("finite generation is only asked of nonzero groups here")
    return heights.default == 0


@dataclass(frozen=True)
class Rank1IsoDecision:
    isomorphic: bool
    multiplier: Fraction | None
    detail: str

    def __bool__(self) -> bool:
        return self.isomorphic


def rank1_iso(h1: HeightSequence, h2: HeightSequence) -> Rank1IsoDecision:
    """Decide isomorphism of two rank-1 pullbacks over the same family.

    Nonzero groups with height sequences agreeing almost everywhere are
    isomorphic via multiplication by lambda = prod p^(c1_p - c2_p); the
    product is finite exactly when the generic heights agree.
    """
    if h1.family != h2.family:
        raise ValueError("height sequences live over different families")
    if h1.trivial or h2.trivial:
        if h1.trivial and h2.trivial:
            return Rank1IsoDecision(True, Fraction(1), "both trivial")
        return Rank1IsoDecision(False, None, "exactly one side is trivial")
    if h1.default != h2.default:
        return Rank1IsoDecision(
            False, None, f"generic heights differ: {h1.default} vs {h2.default}"
        )
    lam = Fraction(1)
    touched = {p for p, _ in h1.overrides} | {p for p, _ in h2.overrides}
    for p in sorted(touched):
        lam *= Fraction(p) ** (h1.height_at(p) - h2.height_at(p))
    return Rank1IsoDecision(True, lam, "multiplication by the listed rational")


@dataclass(frozen=True)
class ExtGenusClass:
    """Classification of a pullback up to finitely many height changes.

    Finite exceptional data can always be traded away by a rational
    multiplier, so the class of a nonzero pullback retains exactly one
    datum: the generic height of the tail.
    """

    family: PartitionFamily
    tail_exponent: int

    def __post_init__(self) -> None:
        if self.tail_exponent > 0:
            raise ValueError("a positive generic height does not classify a nonzero group")
        if self.family.residual_is_finite() and self.tail_exponent != 0:
            raise ValueError("finite families normalize to tail exponent 0")

    def canonical_heights(self) -> HeightSequence:
        return HeightSequence(self.family, False, (), self.tail_exponent)

    def __str__(self) -> str:
        return f"class(tail p^{self.tail_exponent} over {self.family})"


def double_coset_class(alpha: AutFamily1) -> ExtGenusClass:
    """Coarse class of the pullback of a family with nonzero pullback.

    Rejects families whose pullback is trivial; those fall outside the
    classification, which compares nonzero groups up to finitely many
    height changes.
    """
    decision = is_bounded_above(alpha)
    if not decision:
        raise DomainError(
            f"pullback is trivial: positive heights at {decision.violation}"
        )
    heights = pullback_rank1(alpha)
    return ExtGenusClass(alpha.family, heights.default)


@dataclass(frozen=True)
class LocalizationReport:
    block_index: int
    checks: tuple[Check, ...]

    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __str__(self) -> str:
        lines = [f"block {self.block_index}:"]
        for c in self.checks:
            lines.append(f"  {c}")
        return "\n".join(lines)


def verify_localization_properties(alpha: AutFamily1, block_index) -> LocalizationReport:
    """Check whether the pullback restricts to the given block as a localization.

    Three checks, each with a concrete witness: the projection to the block
    has trivial kernel; every block element has a multiple by an integer
    invertible on the block lying in the image; and the map down to the
    core is injective with core-invertible-multiple surjectivity.  The last
    two fail together exactly when the pullback is trivial.
    """
    family = alpha.family
    if not family.valid_index(block_index):
        raise FamilyError(f"{block_index} is not a block index of {family}")
    overrides, default = valuation_profile(alpha)
    heights = pullback_rank1(alpha)
    block_res = family.block_residual(block_index)
    block_value = alpha.value_at(block_index)

    checks = [
        Check(
            "kernel-trivial",
            True,
            "kernel = 0 (rank-1 and torsion-free keeps projections injective)",
        )
    ]

    if heights.trivial:
        detail = f"pullback is trivial (positive heights at {is_bounded_above(alpha).violation})"
        checks.append(Check("epi-up-to-block-number", False, detail))
        checks.append(Check("core-map-mono-epi", False, "injective, but nothing maps onto the core line: " + detail))
        return LocalizationReport(block_index, tuple(checks))

    # minimal t, invertible on the block, with t * generator in the image:
    # clear c_p - v_p(block value) at every residual prime outside the block
    relevant = set(overrides)
    relevant |= set(factorize(abs(block_value.numerator)))
    relevant |= set(factorize(block_value.denominator))
    t = 1
    for p in sorted(relevant):
        if not family.residual().contains(p) or block_res.contains(p):
            continue
        need = heights.height_at(p) - valuation(block_value, p)
        if need > 0:
            t *= p**need
    checks.append(
        Check("epi-up-to-block-number", True, f"t = {t} multiplies the block generator into the image")
    )

    r = 1
    for p, c in heights.overrides:
        if c > 0:
            r *= p**c
    checks.append(
        Check(
            "core-map-mono-epi",
            True,
            f"injective; r = {r} multiplies the core generator into the image",
        )
    )
    return LocalizationReport(block_index, tuple(checks))
