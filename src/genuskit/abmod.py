"""Finitely presented modules over localized integers, with exact kernels.

A module here is a presentation: generators, integer relation rows, and a
prime set X naming the ring (integers with every prime outside X
inverted).  Maps between modules over different prime sets are allowed as
long as the target ring is the larger one, which is the only direction a
homomorphism can canonically exist in; all the squares this package
studies (restriction to a block, collapse to the common core, comparison
of two groups over their core) point that way.

The workhorse is ``mixed_kernel``: an exact finite presentation of the
kernel of a map between products of modules living over different
localizations.  Elements of the kernel may need denominators that no
single ring contains, so the computation runs at an explicit denominator
level, solves a purely integer system there, and deepens the level until
the answer stabilizes as a lattice.  Saturated relation lattices keep the
level-bounded picture faithful: each normalized relation row generates
exactly the integer points of the rational relation span, so no torsion is
ever over- or under-counted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod

from .errors import Check, DomainError, VerificationError
from .intlinalg import (
    hnf_rows,
    hnf_with_transform,
    identity_matrix,
    invert_rational,
    invert_unimodular,
    lattice_equal,
    left_kernel_basis,
    mat_det,
    mat_mul,
    row_span_solve,
    row_vec_mul,
    smith_normal_form,
)
from .primeset import (
    PartitionFamily,
    PrimeSet,
    XNumber,
    factorize,
    is_x_number,
    valuation,
    xpart,
)


def _as_fraction_rows(rows, width=None):
    out = tuple(tuple(Fraction(x) for x in row) for row in rows)
    if width is not None:
        for row in out:
            if len(row) != width:
                raise ValueError(f"expected rows of width {width}, got {len(row)}")
    return out


def _scaled_matrix(rows) -> tuple:
    """(num, den) for rows of Fractions: the least den making ``rows * den``
    integral, and those integer rows."""
    den = lcm(*(x.denominator for row in rows for x in row))
    return tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in rows), den


class FGModule:
    """A finitely presented module over the integers localized at ``primes``.

    ``relations`` rows are integer combinations of the generators declared
    to vanish.  Instances are treated as immutable; the Smith form and the
    normalized relation lattice are computed once and cached.
    """

    def __init__(self, primes: PrimeSet, relations, ngens: int):
        if ngens < 0:
            raise ValueError("a module cannot have negatively many generators")
        rel = []
        for row in relations:
            row = tuple(int(x) for x in row)
            if len(row) != ngens:
                raise ValueError(f"relation {row} does not match {ngens} generators")
            if any(row):
                rel.append(row)
        self.primes = primes
        self.relations = tuple(rel)
        self.ngens = ngens
        self._snf = None
        self._normalized = None

    @classmethod
    def free(cls, primes: PrimeSet, rank: int) -> "FGModule":
        return cls(primes, (), rank)

    @classmethod
    def from_parts(cls, primes: PrimeSet, free_rank: int, torsion=()) -> "FGModule":
        """Direct sum of a free part and cyclic pieces of the given orders."""
        torsion = tuple(int(t) for t in torsion)
        n = free_rank + len(torsion)
        rel = []
        for k, t in enumerate(torsion):
            if t <= 1:
                raise ValueError(f"cyclic order must exceed 1, got {t}")
            row = [0] * n
            row[free_rank + k] = t
            rel.append(row)
        return cls(primes, rel, n)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FGModule)
            and self.primes == other.primes
            and self.relations == other.relations
            and self.ngens == other.ngens
        )

    def __hash__(self):
        return hash((self.primes, self.relations, self.ngens))

    def _snf_data(self):
        if self._snf is None:
            rel = [list(r) for r in self.relations]
            if rel:
                d, left, right = smith_normal_form(rel)
                diag = [d[i][i] for i in range(min(len(d), self.ngens))]
            else:
                left, right, diag = [], identity_matrix(self.ngens), []
            self._strip(diag, left, right)
        return self._snf

    def _strip(self, diag, left, right):
        """Cache Smith data L A R = D, splitting each d_j over this ring.

        ``stripped`` holds Xpart(d_j) and ``units`` the invertible rest; the
        transforms depend only on the relations, so they can be shared
        between presentations of the same relations over other prime sets.
        """
        rank = sum(1 for x in diag if x != 0)
        stripped = [xpart(x, self.primes) for x in diag[:rank]]
        self._snf = {
            "diag": diag,
            "left": left,
            "right": right,
            "rank": rank,
            "stripped": stripped,
            "units": [diag[i] // stripped[i] for i in range(rank)],
        }

    @property
    def invariants(self) -> tuple[int, ...]:
        data = self._snf_data()
        return tuple(s for s in data["stripped"] if s != 1)

    @property
    def free_rank(self) -> int:
        return self.ngens - self._snf_data()["rank"]

    def iso_class(self):
        """(free rank, sorted multiset of prime-power cyclic orders)."""
        pieces = [pe for s in self.invariants for pe in _valuations(s, self.primes).items()]
        return (self.free_rank, tuple(sorted(pieces)))

    def is_zero(self) -> bool:
        return self.free_rank == 0 and not self.invariants

    def normalized_relation_rows(self):
        """Basis of the saturated integer lattice of vanishing rows.

        Row j is Xpart(d_j) times the j-th row of the inverse right
        transform: together they span the integer points of the rational
        relation span with every unit (non-X) content stripped, so they
        stay a basis after localizing anywhere inside X.  With L A R = D
        the j-th row of L A is d_j times that row of the inverse, so it is
        read off as (L A)_j divided exactly by the unit part of d_j.
        """
        if self._normalized is None:
            data = self._snf_data()
            units = data["units"]
            scaled = mat_mul(data["left"][: len(units)], self.relations)
            self._normalized = tuple(
                tuple(x // u for x in row) for row, u in zip(scaled, units)
            )
        return self._normalized

    def element_is_zero(self, row) -> bool:
        """Is this coefficient row the zero element of the module?"""
        (v,), den = _scaled_matrix(_as_fraction_rows([row]))
        return self._scaled_is_zero(v, den)

    def _scaled_is_zero(self, v, den: int) -> bool:
        """Is the integer row v divided by the positive den zero here?

        Decided in Smith coordinates.  With L A R = D cached, write
        y = v R: v lies in the rational relation span exactly when y_j = 0
        past the rank, and then y_j / (den Xpart(d_j)) is the coefficient of
        v / den on normalized row j.  The element is zero when every such
        coefficient has a denominator invertible over this ring.
        """
        if not any(v):
            return True
        data = self._snf_data()
        y = row_vec_mul(v, data["right"])
        if any(y[data["rank"] :]):
            return False
        for y_j, s_j in zip(y, data["stripped"]):
            d = s_j * den // gcd(y_j, s_j * den)
            if d != 1 and not is_x_number(d, self.primes):
                return False
        return True

    def localize(self, sub: PrimeSet):
        """Same presentation over a smaller prime set, with the unit map.

        The relations do not change, so the target reuses this module's
        Smith transforms and only re-splits the diagonal over ``sub``.
        """
        if not sub.issubset(self.primes):
            raise ValueError(f"{sub} is not contained in {self.primes}")
        target = FGModule(sub, self.relations, self.ngens)
        data = self._snf_data()
        target._strip(data["diag"], data["left"], data["right"])
        return target, ModuleMap._from_scaled(self, target, identity_matrix(self.ngens), 1)

    def __str__(self) -> str:
        rel = "[" + ",".join("[" + ",".join(str(x) for x in row) + "]" for row in self.relations) + "]"
        return f"module(T={self.primes}; gens={self.ngens}; rel={rel})"

    __repr__ = __str__


class ModuleMap:
    """A homomorphism given by generator images, one row per source generator.

    The target must live over a subset of the source's primes: inverting
    more primes downstream is the only direction in which the map is
    automatically defined on a localized module.  Entries may have
    denominators invertible in the target ring, and every source relation
    must land in the target's relation span over that ring; both are
    checked at construction.

    The map is kept as integer numerators ``num`` over one positive
    denominator ``den``, reduced so that ``den`` and the entries have no
    common factor, and checks and compositions run in integers.  ``rows`` is the same
    matrix over ``Fraction``, built on first use.  ``-f`` is the negated
    map, with the same ``den``.
    """

    def __init__(self, source: FGModule, target: FGModule, rows):
        if not target.primes.issubset(source.primes):
            raise ValueError(
                f"target over {target.primes} is not reachable from source over {source.primes}"
            )
        rows = _as_fraction_rows(rows, target.ngens)
        if len(rows) != source.ngens:
            raise ValueError(f"expected {source.ngens} rows, got {len(rows)}")
        self._rows = rows
        self._certify(source, target, *_scaled_matrix(rows))

    @classmethod
    def _from_scaled(cls, source: FGModule, target: FGModule, num, den: int) -> "ModuleMap":
        """The map ``num / den``, for callers that already hold a
        well-shaped integer matrix between reachable modules."""
        g = gcd(den, *(x for row in num for x in row))
        num = tuple(tuple(x // g for x in row) for row in num)
        self = cls.__new__(cls)
        self._rows = None
        self._certify(source, target, num, den // g)
        return self

    def _certify(self, source: FGModule, target: FGModule, num, den: int) -> None:
        self.source = source
        self.target = target
        self.num = num
        self.den = den
        if den != 1 and not is_x_number(den, target.primes):
            for row in self.rows:
                for x in row:
                    if not is_x_number(x.denominator, target.primes):
                        raise ValueError(f"denominator of {x} is not invertible in the target ring")
        for rel, image in zip(source.relations, mat_mul(source.relations, num)):
            if not target._scaled_is_zero(image, den):
                raise ValueError(f"relation {rel} does not map to zero in the target")

    @property
    def rows(self):
        if self._rows is None:
            self._rows = tuple(tuple(Fraction(x, self.den) for x in row) for row in self.num)
        return self._rows

    def compose(self, then: "ModuleMap") -> "ModuleMap":
        """The map ``x -> then(self(x))``."""
        if then.source != self.target:
            raise ValueError("maps do not chain: target and source presentations differ")
        num = mat_mul(self.num, then.num)
        return ModuleMap._from_scaled(self.source, then.target, num, self.den * then.den)

    def __neg__(self) -> "ModuleMap":
        num = tuple(tuple(-x for x in row) for row in self.num)
        return ModuleMap._from_scaled(self.source, self.target, num, self.den)

    def equal_map(self, other: "ModuleMap") -> bool:
        """Equality as homomorphisms, i.e. entrywise modulo target relations."""
        if self.source != other.source or self.target != other.target:
            return False
        den = lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        return all(
            self.target._scaled_is_zero([sa * a - sb * b for a, b in zip(ra, rb)], den)
            for ra, rb in zip(self.num, other.num)
        )

    def __str__(self) -> str:
        return f"map({self.source} -> {self.target})"

    __repr__ = __str__


def identity_map(module: FGModule) -> ModuleMap:
    return ModuleMap._from_scaled(module, module, identity_matrix(module.ngens), 1)


@dataclass
class MixedKernel:
    module: FGModule
    inclusions: list
    level: int


def _offsets(widths):
    """Start of each block in a concatenation of blocks of these widths, and the total width."""
    offsets, total = [], 0
    for n in widths:
        offsets.append(total)
        total += n
    return offsets, total


def _valuations(n: int, primes: PrimeSet) -> dict:
    """``{p: e}`` with e = v_p(n) > 0, over the primes of ``primes``.

    A finite set needs only division by its members; a cofinite one needs
    the factorization of n with the excluded primes divided out.
    """
    if primes.cofinite:
        return factorize(xpart(n, primes))
    return {p: valuation(n, p) for p in primes.members if n % p == 0}


def mixed_kernel(sources, targets, blocks, extra_active: int = 1) -> MixedKernel:
    """Present the kernel of a block map between products of modules.

    ``blocks[(j, t)]`` is the component ``ModuleMap`` from ``sources[j]`` to
    ``targets[t]``; missing blocks are zero.  Each block is a certified
    homomorphism, so its shape, direction and relations are already
    checked.  The kernel is returned over the union of the source prime
    sets together with inclusion maps back into each source.

    The computation picks a denominator level w supported on the union
    primes, solves one integer linear system whose unknowns are the source
    coordinates at level w plus bookkeeping coordinates expressing
    membership in each target's relation span, and reads off a generator
    lattice.  The level is deepened until the lattice stabilizes;
    ``extra_active`` feeds known-relevant denominators into the initial
    level so the loop usually finishes first try.  A lattice still moving
    after eight deepenings raises ``DomainError`` listing the levels tried;
    a source relation outside the lattice raises ``VerificationError``.
    The kernel's relations come back in Hermite form: the relation lattice
    is fixed by the kernel's generators, so its printed basis is too.
    """
    union = PrimeSet.finite([])
    for m in sources:
        union = union | m.primes
    scaled = {}
    for (j, t), f in blocks.items():
        if f.source != sources[j] or f.target != targets[t]:
            raise ValueError(f"block ({j},{t}) is {f}, not a map from source {j} to target {t}")
        scaled[(j, t)] = (f.num, f.den)
    d_clear = lcm(*(den for _, den in scaled.values()))

    # The level is one deeper, at each union prime, than the product of the
    # clearing lcm, every nonzero Smith diagonal entry and extra_active;
    # each of them is factored on its own.
    pieces = [d_clear]
    for m in list(sources) + list(targets):
        pieces.extend(abs(x) for x in m._snf_data()["diag"] if x != 0)
    base = {}
    for n in pieces + [abs(extra_active)]:
        for p, e in _valuations(n, union).items():
            base[p] = base.get(p, 0) + e
    w = prod(p ** (e + 1) for p, e in base.items())
    deepen = prod(base)
    # the part of those pieces outside each target's primes, fixed across levels
    cleared = prod(pieces)
    outside = [cleared // xpart(cleared, t.primes) for t in targets]

    offsets, total = _offsets(m.ngens for m in sources)

    # Deepen the level until it stops producing new elements.  Lattice rows
    # for one element differ between levels by invertible rescalings, so the
    # comparison has to happen modulo the deeper level's zero lattice.
    def at_level(level):
        return _kernel_at_level(sources, targets, scaled, d_clear, outside, level, offsets, total)

    result = at_level(w)
    tried = [w]
    for _ in range(8):
        if deepen == 1:
            break
        deeper = at_level(w * deepen)
        tried.append(w * deepen)
        rescaled = [[x * deepen for x in row] for row in result]
        lam_deep = _zero_lattice_rows(sources, w * deepen, offsets, total)
        if lattice_equal(rescaled + lam_deep, deeper):
            break
        w *= deepen
        result = deeper
    else:
        history = ", ".join(f"{x} ({x.bit_length()} bits)" for x in tried)
        raise DomainError(f"kernel lattice failed to stabilize; levels tried: {history}")

    b_sum = result
    lam_rows = _zero_lattice_rows(sources, w, offsets, total)
    owners = [(j, r) for j, m in enumerate(sources) for r in range(len(m.normalized_relation_rows()))]
    relations = []
    for (j, r), lam in zip(owners, lam_rows):
        coords = row_span_solve(b_sum, lam)
        if coords is None:
            raise VerificationError(
                f"normalized relation {r} of source {j} escaped the kernel's "
                f"generator span at level {w}"
            )
        relations.append(coords)
    kernel = FGModule(union, hnf_rows(relations), len(b_sum))

    inclusions = [
        ModuleMap._from_scaled(
            kernel, m, [row[offsets[j] : offsets[j] + m.ngens] for row in b_sum], w
        )
        for j, m in enumerate(sources)
    ]
    return MixedKernel(kernel, inclusions, w)


def _zero_lattice_rows(sources, w, offsets, total):
    """Each source's normalized relations at level w, scaled by the part of
    w on the source's own primes and placed at the source's offset."""
    rows = []
    for j, m in enumerate(sources):
        scale = xpart(w, m.primes)
        for nb in m.normalized_relation_rows():
            row = [0] * total
            for c, x in enumerate(nb):
                row[offsets[j] + c] = scale * x
            rows.append(row)
    return rows


def _kernel_at_level(sources, targets, blocks, d_clear, outside, w, offsets, total_v):
    aux_bases = [t.normalized_relation_rows() for t in targets]
    aux_offsets, total_aux = _offsets(len(rows) for rows in aux_bases)
    col_offsets, total_cols = _offsets(t.ngens for t in targets)
    eq = [[0] * total_cols for _ in range(total_v + total_aux)]
    # w / w_j: the part of the level on source j's own primes
    inside = [xpart(w, m.primes) for m in sources]

    for t_idx, t in enumerate(targets):
        w_yt = (w // xpart(w, t.primes)) * outside[t_idx]
        base = col_offsets[t_idx]
        for j, m in enumerate(sources):
            block = blocks.get((j, t_idx))
            if block is None:
                continue
            num, den = block
            scale, rem = divmod(inside[j] * w_yt * d_clear, den)
            if rem:
                raise VerificationError(
                    f"block ({j},{t_idx}) keeps denominator {den} at level {w}"
                )
            for r, row in enumerate(num):
                eq_row = eq[offsets[j] + r]
                for c, x in enumerate(row):
                    eq_row[base + c] += x * scale
        for r, nb in enumerate(aux_bases[t_idx]):
            for c, x in enumerate(nb):
                eq[total_v + aux_offsets[t_idx] + r][base + c] = -w * d_clear * x

    gen_rows = []
    for krow in left_kernel_basis(eq):
        row = [0] * total_v
        for j, m in enumerate(sources):
            for c in range(offsets[j], offsets[j] + m.ngens):
                row[c] = krow[c] * inside[j]
        gen_rows.append(row)
    return hnf_rows(gen_rows)


@dataclass
class LocalizationDecision:
    passed: bool
    checks: tuple

    def __bool__(self) -> bool:
        return self.passed


def is_localization(f: ModuleMap, at: PrimeSet) -> LocalizationDecision:
    """Does f behave like inverting everything outside ``at``?

    Two conditions, each witnessed: the kernel must die after inverting
    the primes outside ``at`` (it is torsion of order coprime to ``at``),
    and every target generator must have a multiple by such an invertible
    integer inside the image.

    A re-tag map (den 1, identity numerators, equal relations and
    generator count, target primes inside the source's; what
    ``FGModule.localize`` returns) is decided in closed form from the
    cached Smith data.  With s_j and t_j the stripped diagonal entries over
    the source and target primes, it is Z/s_j -> Z/t_j on each torsion
    coordinate and the inclusion on the free ones: onto, with kernel the
    sum of the Z/(s_j / t_j), killed by their lcm and supported off the
    target primes.  Every other map is decided from its ``mixed_kernel``
    and cokernel.
    """
    if not at.issubset(f.target.primes):
        raise ValueError(f"{at} is not contained in the target's prime set")
    src, tgt = f.source, f.target
    identity = tuple(map(tuple, identity_matrix(src.ngens)))
    if (f.den == 1 and f.num == identity and src.relations == tgt.relations
            and src.ngens == tgt.ngens and tgt.primes.issubset(src.primes)):
        pairs = zip(src._snf_data()["stripped"], tgt._snf_data()["stripped"])
        killer = lcm(*(s // t for s, t in pairs))
        return LocalizationDecision(True, (
            Check("kernel-invertible-torsion", True, f"kernel killed by {XNumber(killer, at)}"),
            Check("cokernel-killed", True, f"cokernel killed by {XNumber(1, at)}"),
        ))
    checks = []

    kernel = mixed_kernel([f.source], [f.target], {(0, 0): f})
    km = kernel.module
    bad = [d for d in km.invariants if xpart(d, at) != 1]
    if km.free_rank > 0 or bad:
        reason = (
            f"kernel has free rank {km.free_rank}" if km.free_rank else f"kernel carries orders {bad}"
        )
        checks.append(Check("kernel-invertible-torsion", False, reason))
    else:
        killer = 1
        for d in km.invariants:
            killer = lcm(killer, d)
        checks.append(
            Check(
                "kernel-invertible-torsion",
                True,
                f"kernel killed by {XNumber(killer, at)}",
            )
        )

    coker_ok, coker_witness = _cokernel_killed(f, at)
    checks.append(Check("cokernel-killed", coker_ok, coker_witness))

    return LocalizationDecision(all(c.passed for c in checks), tuple(checks))


def _cokernel_killed(f: ModuleMap, at: PrimeSet):
    target = f.target
    coker = FGModule(target.primes, list(target.relations) + list(f.num), target.ngens)
    data = coker._snf_data()
    diag, rank, right = data["diag"], data["rank"], data["right"]

    witness = 1
    for j in range(coker.ngens):
        for i, c in enumerate(right[j]):
            if c == 0:
                continue
            if i >= rank or (i < len(diag) and diag[i] == 0):
                return False, f"generator {j} survives with infinite order at coordinate {i}"
            d = diag[i]
            for p, e in _valuations(d, target.primes).items():
                have = valuation(c, p)
                if at._contains_known_prime(p):
                    if have < e:
                        return False, (
                            f"generator {j} keeps a nontrivial {p}-part "
                            f"(needs {p}^{e}, coordinate has {p}^{have})"
                        )
                elif have < e:
                    witness *= p ** (e - have)
    return True, f"cokernel killed by {XNumber(witness, at)}"


@dataclass
class FractureSquare:
    """One group over T split along the blocks of a partition family.

    Holds the localizations at each block (``to_local``) and at the core
    (``to_core``), and the collapse of each block to the core
    (``local_to_core``), all certified at construction.
    """

    group: FGModule
    family: PartitionFamily
    block_indices: tuple
    local_modules: dict
    to_local: dict
    core: FGModule
    to_core: ModuleMap
    local_to_core: dict


def build_fracture(group: FGModule, family: PartitionFamily) -> FractureSquare:
    """Assemble and certify the localization square of a group over T.

    Requires finitely many blocks.  Every structural identity is checked
    on the spot: restriction then collapse equals direct collapse, and each
    of the 2k+1 arrows is certified as a localization at its prime set.
    All of them are re-tag maps from ``FGModule.localize``, so
    ``is_localization`` decides each one from cached Smith data.
    """
    if group.primes != family.T:
        raise ValueError(f"group lives over {group.primes}, family over {family.T}")
    if family.block_count() is None:
        raise DomainError("infinitely many blocks; materialize a finite family first")
    indices = family.sample_indices(family.block_count())

    locals_, psi, phi = {}, {}, {}
    core, sigma = group.localize(family.S)
    for i in indices:
        loc, to_loc = group.localize(family.block(i))
        locals_[i] = loc
        psi[i] = to_loc
        _, down = loc.localize(family.S)
        phi[i] = down
        if not psi[i].compose(phi[i]).equal_map(sigma):
            raise VerificationError(f"block {i}: restrict-then-collapse differs from collapse")

    for i in indices:
        for mapping, at, what in (
            (psi[i], family.block(i), f"restriction to block {i}"),
            (phi[i], family.S, f"collapse of block {i}"),
        ):
            decision = is_localization(mapping, at)
            if not decision:
                raise VerificationError(f"{what} failed: {decision.checks}")
    if not is_localization(sigma, family.S):
        raise VerificationError("collapse to the core failed its certification")

    return FractureSquare(
        group=group,
        family=family,
        block_indices=tuple(indices),
        local_modules=locals_,
        to_local=psi,
        core=core,
        to_core=sigma,
        local_to_core=phi,
    )


@dataclass
class BlockTorsionReport:
    per_block: dict
    injective_blocks: dict
    product_kernel_trivial: bool

    def all_injective(self) -> bool:
        return all(self.injective_blocks.values())


def torsion_check(square: FractureSquare) -> BlockTorsionReport:
    """Residual torsion per block, and the kernel of G -> (+)_i G_{T_i}.

    A block's collapse map kills exactly the torsion supported on its own
    residual primes, so that torsion is read off the local invariants.  The
    kernel of the group into the product of its block localizations is
    computed by ``mixed_kernel``; it is zero because the blocks cover T,
    and ``product_kernel_trivial`` is false when a localization map loses
    an element.
    """
    indices = square.block_indices
    per_block, injective = {}, {}
    for i in indices:
        res = square.family.block_residual(i)
        parts = tuple(
            xpart(d, res) for d in square.local_modules[i].invariants if xpart(d, res) != 1
        )
        per_block[i] = parts
        injective[i] = not parts
    kernel = mixed_kernel(
        [square.group],
        [square.local_modules[i] for i in indices],
        {(0, t): square.to_local[i] for t, i in enumerate(indices)},
    )
    return BlockTorsionReport(per_block, injective, kernel.module.is_zero())


@dataclass
class PullbackData:
    square: FractureSquare
    twists: tuple
    module: FGModule
    to_core: ModuleMap
    projections: dict
    level: int


def _validate_twist(core: FGModule, matrix, S: PrimeSet):
    matrix = _as_fraction_rows(matrix, core.ngens)
    if len(matrix) != core.ngens:
        raise ValueError("a twist must be a square matrix over the core generators")
    det = mat_det([list(r) for r in matrix])
    if det == 0:
        raise ValueError("a twist must be invertible")
    if not (is_x_number(abs(det.numerator), S) and is_x_number(det.denominator, S)):
        raise ValueError(f"twist determinant {det} is not a unit at the core primes")
    forward = ModuleMap(core, core, matrix)
    inverse = ModuleMap(core, core, invert_rational([list(r) for r in matrix]))
    return forward, inverse, det


def pullback(square: FractureSquare, twists) -> PullbackData:
    """Limit of the block localizations glued over twisted collapse maps.

    ``twists`` lists one core automorphism matrix per block, in block
    order.  The returned module lives over the whole prime set T and
    comes with its map to the core and one projection per block; the
    defining commutation is re-checked on the computed maps.
    """
    indices = square.block_indices
    if len(twists) != len(indices):
        raise ValueError(f"expected {len(indices)} twists, got {len(twists)}")
    core = square.core
    S = square.family.S

    autos = {}
    extra = 1
    for i, matrix in zip(indices, twists):
        forward, inverse, det = _validate_twist(core, matrix, S)
        autos[i] = (forward, inverse)
        extra = lcm(extra, inverse.den, forward.den) * abs(det.numerator) * det.denominator

    sources = [core] + [square.local_modules[i] for i in indices]
    targets = [core for _ in indices]
    blocks = {}
    core_identity = identity_map(core)
    for t, i in enumerate(indices):
        blocks[(0, t)] = core_identity
        blocks[(t + 1, t)] = -square.local_to_core[i].compose(autos[i][0])

    kernel = mixed_kernel(sources, targets, blocks, extra_active=extra)
    mu = kernel.inclusions[0]
    projections = {i: kernel.inclusions[t + 1] for t, i in enumerate(indices)}

    for t, i in enumerate(indices):
        via_block = projections[i].compose(square.local_to_core[i]).compose(autos[i][0])
        if not via_block.equal_map(mu):
            raise VerificationError(f"pullback square fails to commute at block {i}")

    return PullbackData(square, tuple(_as_fraction_rows(m, core.ngens) for m in twists),
                        kernel.module, mu, projections, kernel.level)


def mediate(data: PullbackData, cone_core: ModuleMap, cone_blocks: dict) -> ModuleMap:
    """The unique map into the pullback matching a compatible cone.

    ``cone_core`` maps a test module to the core; ``cone_blocks[i]`` maps
    it to block i's localization.  Each generator's image tuple is solved
    for at the pullback's own denominator level; an incompatible or too
    deep cone raises instead of returning a near miss.
    """
    z = cone_core.source
    indices = data.square.block_indices
    for i in indices:
        if cone_blocks[i].source != z:
            raise ValueError("cone legs start from different test modules")
    w = data.level
    legs = [cone_core] + [cone_blocks[i] for i in indices]

    stacked = [list(r) for r in _stack_generator_rows(data)]
    h, u = hnf_with_transform(stacked)

    rows = []
    for g in range(z.ngens):
        # the entries n * w / d of the legs' row g, each with its reduced denominator
        tup = [(n * w, leg.den) for leg in legs for n in leg.num[g]]
        clear = lcm(*(d // gcd(n, d) for n, d in tup))
        if not is_x_number(clear, data.module.primes):
            raise DomainError("cone needs denominators deeper than the pullback level")
        target = [n * clear // d for n, d in tup]
        coords = row_span_solve(h, target)
        if coords is None:
            raise DomainError(f"cone is incompatible: generator {g} has no preimage")
        full = [0] * len(stacked)
        for r, c in enumerate(coords):
            for k in range(len(stacked)):
                full[k] += c * u[r][k]
        rows.append([Fraction(full[k], clear) for k in range(data.module.ngens)])

    mediating = ModuleMap(z, data.module, rows)
    if not mediating.compose(data.to_core).equal_map(cone_core):
        raise VerificationError("mediating map fails against the core leg")
    for i in indices:
        if not mediating.compose(data.projections[i]).equal_map(cone_blocks[i]):
            raise VerificationError(f"mediating map fails against block {i}")
    return mediating


def _stack_generator_rows(data: PullbackData):
    w = data.level
    indices = data.square.block_indices
    sources = [data.square.core] + [data.square.local_modules[i] for i in indices]
    legs = [data.to_core] + [data.projections[i] for i in indices]
    names = ["the core leg"] + [f"the leg to block {i}" for i in indices]
    scales = []
    for leg, name in zip(legs, names):
        scale, rem = divmod(w, leg.den)
        if rem:
            raise VerificationError(f"{name} has denominator {leg.den}, not dividing the level {w}")
        scales.append(scale)
    gen_rows = [
        [x * scale for leg, scale in zip(legs, scales) for x in leg.num[g]]
        for g in range(data.module.ngens)
    ]
    offsets, total = _offsets(m.ngens for m in sources)
    return gen_rows + _zero_lattice_rows(sources, w, offsets, total)


def is_bounded_above_matrix(square: FractureSquare, twists) -> XNumber:
    """Least core-invertible s dividing the core into every twisted image.

    Works on the inverse twists: a generator of the core lands in block
    i's image once s clears the denominators the inverse row carries at
    block i's residual primes, read in coordinates where the relation
    lattice is diagonal and coordinates invisible at the core are skipped.
    """
    return _matrix_bound(square, twists, inverse_only=True)


def is_bounded_matrix(square: FractureSquare, twists) -> XNumber:
    """Least core-invertible s taming every twist in both directions."""
    return _matrix_bound(square, twists, inverse_only=False)


def _matrix_bound(square: FractureSquare, twists, inverse_only: bool) -> XNumber:
    group = square.group
    S = square.family.S
    data = group._snf_data()
    right, rank, diag = data["right"], data["rank"], data["diag"]

    s = 1
    for i, matrix in zip(square.block_indices, twists):
        forward, inverse, _ = _validate_twist(square.core, matrix, S)
        probes = [inverse] if inverse_only else [inverse, forward]
        res = square.family.block_residual(i)
        worst: dict[int, int] = {}
        for f in probes:
            for row in mat_mul(f.num, right):
                for pos, x in enumerate(row):
                    d = f.den // gcd(x, f.den)  # reduced denominator of x / den
                    if d == 1:
                        continue
                    if pos < rank and xpart(diag[pos], S) == 1:
                        continue  # this coordinate is invisible at the core
                    for p, e in _valuations(d, res).items():
                        worst[p] = max(worst.get(p, 0), e)
        for p, e in worst.items():
            s *= p**e
    return XNumber(s, S)


@dataclass
class GenusWitness:
    module: FGModule
    to_first: ModuleMap
    to_second: ModuleMap
    core_iso: ModuleMap
    first_certificate: LocalizationDecision
    second_certificate: LocalizationDecision


def _canonical_iso(a: FGModule, b: FGModule) -> ModuleMap:
    """An isomorphism a -> b of modules with equal invariant data.

    Both sides are rotated into diagonal coordinates; matching nonunit
    positions pair off because invariant chains sorted by divisibility are
    unique.  Unit positions on either side are zero summands and map to
    nothing / from nothing.
    """
    da, db = a._snf_data(), b._snf_data()

    def live_positions(m, data):
        strip = data["stripped"]
        torsion = [j for j in range(data["rank"]) if strip[j] != 1]
        free = list(range(data["rank"], m.ngens))
        return torsion + free

    live_a, live_b = live_positions(a, da), live_positions(b, db)
    if len(live_a) != len(live_b):
        raise VerificationError(
            f"cannot pair generators: {a} has {len(live_a)} nontrivial diagonal "
            f"coordinates, {b} has {len(live_b)}"
        )

    # the right transform of a with column j divided by its unit part, over one denominator
    den = lcm(*da["units"])
    col_scale = [den // u for u in da["units"]] + [den] * (a.ngens - da["rank"])
    can_a = [[x * c for x, c in zip(row, col_scale)] for row in da["right"]]

    pair = [[0] * b.ngens for _ in range(a.ngens)]
    for pa, pb in zip(live_a, live_b):
        pair[pa][pb] = 1

    undo_b = [list(row) for row in invert_unimodular(db["right"])]
    for j in range(db["rank"]):
        unit = db["units"][j]
        undo_b[j] = [unit * x for x in undo_b[j]]

    num = mat_mul(mat_mul(can_a, pair), undo_b)
    return ModuleMap._from_scaled(a, b, num, den)


def genus_witness(first: FGModule, second: FGModule, core: PrimeSet) -> GenusWitness:
    """Common refinement of two groups agreeing after collapse to the core.

    Demands isomorphic core localizations, builds the canonical core
    isomorphism, and intersects the two groups across it.  Both
    projections are certified to become isomorphisms at the core.
    """
    if first.primes != second.primes:
        raise ValueError("both groups must live over the same prime set")
    core_first, down_first = first.localize(core)
    core_second, down_second = second.localize(core)
    if core_first.iso_class() != core_second.iso_class():
        raise DomainError(
            "not in the same genus: core invariants "
            f"{core_first.iso_class()} vs {core_second.iso_class()}"
        )

    theta = _canonical_iso(core_first, core_second)
    theta_back = _canonical_iso(core_second, core_first)
    if not theta.compose(theta_back).equal_map(identity_map(core_first)):
        raise VerificationError("canonical core isomorphism failed its round trip")

    kernel = mixed_kernel(
        [first, second],
        [core_first],
        {(0, 0): down_first, (1, 0): -down_second.compose(theta_back)},
    )
    to_first, to_second = kernel.inclusions
    return GenusWitness(
        module=kernel.module,
        to_first=to_first,
        to_second=to_second,
        core_iso=theta,
        first_certificate=is_localization(to_first, core),
        second_certificate=is_localization(to_second, core),
    )
