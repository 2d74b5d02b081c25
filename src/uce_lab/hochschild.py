"""Hochschild complex of a unital superdialgebra, its degree-one homology,
and the splitting maps that identify the degree-2 homology of the matrix
Leibniz superalgebras with that homology plus the low-rank kernel classes.

The boundary d_n : D^(x)(n+1) -> D^(x)n merges neighbours with the left
product and wraps around with the right product:

    d_n(a_0 (x) ... (x) a_n) =
        sum_{i=0}^{n-1} (-1)^i  a_0 (x) .. (x) (a_i <| a_{i+1}) (x) .. (x) a_n
      + (-1)^{n + |a_n|(|a_0|+...+|a_{n-1}|)} (a_n |> a_0) (x) a_1 (x) .. (x) a_{n-1}.

The alternating interior signs are required for d o d = 0 (already for the
one-dimensional case in degree 2) and are gated by the property suite.

The splitting diagram is checked through two sparse matrices over one
middle space M, D (x) D followed by one copy of D per orbit of kernel-class
patterns: the second supertrace Str2 : sl (x) sl -> M and its section
mu : M -> sl (x) sl (``splitting_check``).

The paper assumes that D has a basis containing its bar-unit.  That holds
for every nonzero unital D (see _require_bar_unit_basis), and nothing here
reads the order of the basis, so everything is computed on D's own basis.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product

from .exactlin import (
    Echelon,
    GradedFreeModule,
    GradedModuleInvariants,
    SparseMat,
    combine,
    kernel_basis,
    module_iso_check,
    subquotient_invariants,
)
from .chain import DEFAULT_SIZE_GUARD, guard_check, tensor_index, tensor_power_module
from .leibniz import SpecialLinear, sl
from .superdialg import SuperDialgebra, quotient_Dm
from .tensorsq import (
    TensorSquare,
    admissible_patterns,
    low_rank_case,
    pattern_coefficient_sign,
    pattern_modulus,
    pattern_parity_offset,
    pattern_rep_and_sign,
    tensor_square,
)

__all__ = [
    "NoBarUnitBasisError",
    "HochschildMap",
    "d",
    "hhs1",
    "DegreeOneHomology",
    "degree_one_homology",
    "SplittingReport",
    "splitting_check",
]


class NoBarUnitBasisError(RuntimeError):
    """The dialgebra has no basis (over its ring) containing the bar-unit."""


@dataclass(frozen=True)
class HochschildMap:
    n: int
    source: GradedFreeModule
    target: GradedFreeModule
    matrix: SparseMat


def _require_bar_unit_basis(dlg: SuperDialgebra) -> None:
    """Check the hypothesis of the whole section: D has a basis containing
    its bar-unit e.  It holds exactly when D is unital and nonzero, so D is
    used on its own basis.

    The bar-unit law x <| e = x makes e nonzero once D is.  Over Q and F_p,
    any e != 0 extends to a basis.  Over Z, a bar-unit is primitive: if
    e = k f with k >= 2, then every x in D is x = x <| e = k (x <| f), so
    D = kD, which forces the free module D of finite rank to be 0.  A
    primitive even vector spans a direct summand Z e of the even part, so e
    extends to a homogeneous basis of D."""
    if not dlg.is_unital:
        raise NoBarUnitBasisError(f"{dlg.name} has no bar-unit")
    if dlg.dim == 0:
        raise NoBarUnitBasisError(
            f"{dlg.name} is zero-dimensional: no basis contains its bar-unit")


def d(dlg: SuperDialgebra, n: int, guard: int = DEFAULT_SIZE_GUARD) -> HochschildMap:
    """Boundary matrix D^(x)(n+1) -> D^(x)n (see the module docstring)."""
    if n < 1:
        raise ValueError("the boundary is built for n >= 1")
    _require_bar_unit_basis(dlg)
    ring = dlg.ring
    dim = dlg.dim
    guard_check([dim ** (n + 1), dim ** n], guard)
    pars = dlg.module.parity
    entries = {}
    for col, tup in enumerate(product(range(dim), repeat=n + 1)):
        for i in range(n):
            sign = -ring.one if i % 2 else ring.one
            terms = dlg.left.get((tup[i], tup[i + 1]))
            if not terms:
                continue
            rest = tup[:i] + tup[i + 2:]
            for k, c in terms:
                key = (tensor_index(rest[:i] + (k,) + rest[i:], dim), col)
                entries[key] = entries.get(key, ring.zero) + sign * c
        wrap_exp = n + pars[tup[n]] * sum(pars[t] for t in tup[:n])
        wsign = -ring.one if wrap_exp % 2 else ring.one
        terms = dlg.right.get((tup[n], tup[0]))
        if terms:
            for k, c in terms:
                key = (tensor_index((k,) + tup[1:n], dim), col)
                entries[key] = entries.get(key, ring.zero) + wsign * c
    mat = SparseMat(ring, dim ** n, dim ** (n + 1), entries)
    return HochschildMap(n, tensor_power_module(dlg, n + 1),
                         tensor_power_module(dlg, n), mat)


def _ideal_generators(dlg: SuperDialgebra):
    """Generators a (x) (b <| c - b |> c) of the degree-one ideal, as the
    (index, value) pairs of ambient vectors in D (x) D.  They vanish
    whenever the two products coincide."""
    ring = dlg.ring
    dim = dlg.dim
    gens = []
    for b in range(dim):
        for c in range(dim):
            diff = combine(ring, [(1, dlg.left.get((b, c), ())), (-1, dlg.right.get((b, c), ()))])
            if diff:
                gens.extend([(a * dim + k, x) for k, x in diff] for a in range(dim))
    return gens


@dataclass(eq=False)
class DegreeOneHomology:
    """Ker d_1 / (Im d_2 + I) with enough structure to evaluate and compare
    classes: the relation echelon provides canonical representatives."""

    dlg: SuperDialgebra     # D itself, on its own basis
    d1: HochschildMap
    d2: HochschildMap
    kernel: SparseMat
    relations: Echelon
    invariants: GradedModuleInvariants
    ideal_gens: list

    def is_zero_class(self, vec) -> bool:
        """vec, as (index, value) pairs, is zero in Ker d_1 / (Im d_2 + I)."""
        return self.relations.contains(vec)


def degree_one_homology(dlg: SuperDialgebra, guard: int = DEFAULT_SIZE_GUARD) -> DegreeOneHomology:
    d1 = d(dlg, 1, guard)
    d2 = d(dlg, 2, guard)
    if not (d1.matrix @ d2.matrix).is_zero():
        raise RuntimeError("d_1 o d_2 != 0; boundary signs drifted")
    ker = kernel_basis(d1.matrix)
    gens = _ideal_generators(dlg)
    rel = Echelon(dlg.ring, dlg.dim ** 2).extend(d2.matrix.columns()).extend(gens)
    inv = subquotient_invariants(ker, rel.basis_matrix(), d1.source.parity)
    return DegreeOneHomology(dlg, d1, d2, ker, rel, inv, gens)


def hhs1(dlg: SuperDialgebra, guard: int = DEFAULT_SIZE_GUARD) -> GradedModuleInvariants:
    """Degree-one Hochschild homology Ker d_1 / (Im d_2 + I)."""
    return degree_one_homology(dlg, guard).invariants


# ---------------------------------------------------------------------------
# splitting of HL_2(sl(m, n, D)) into HHS_1(D) and the kernel classes
# ---------------------------------------------------------------------------


def _str2(slalg: SpecialLinear, reps: list) -> SparseMat:
    """The second supertrace Str2: sl (x) sl -> the middle space (see
    ``splitting_check``), one column per ambient basis vector of sl (x) sl.

    On a pair of matrix units it is (-1)^{|i|(1+|a|+|b|)} a (x) b when the
    units pair up as E_ij(a) (x) E_ji(b) (the sign mirrors the one the first
    supertrace puts on diagonal entries, and makes the trace square of the
    splitting diagram commute), the coefficient-transfer-signed left product
    a <| b in the block of the orbit representative of an admissible
    kernel-class pattern, and zero otherwise."""
    g = slalg.gl
    m, n, dlg = g.m, g.n, g.dlg
    dim_d, dim_sl = dlg.dim, slalg.algebra.dim
    patterns = set(admissible_patterns(m, n))
    block = {rep: dim_d * (dim_d + p) for p, rep in enumerate(reps)}
    # gl index -> (i, j, b) of its unit E_ij(e_b), i and j 1-based
    decode = list(product(range(1, g.size + 1), range(1, g.size + 1), range(dim_d)))
    entries = {}
    for t, (col1, col2) in enumerate(product(slalg.inclusion.columns(), repeat=2)):
        for x1, c1 in col1:
            i1, j1, b1 = decode[x1]
            for x2, c2 in col2:
                i2, j2, b2 = decode[x2]
                pat = (i1, j1, i2, j2)
                if (i2, j2) == (j1, i1):
                    exp = g.row_parity(i1) * (1 + dlg.parity(b1) + dlg.parity(b2))
                    terms = [(b1 * dim_d + b2, -1 if exp % 2 else 1)]
                elif pat in patterns:
                    rep, osign = pattern_rep_and_sign(m, n, pat)
                    s = osign * pattern_coefficient_sign(m, n, pat, dlg.parity(b1), dlg.parity(b2))
                    # e_b1 <| e_b2 from the structure constants
                    terms = [(block[rep] + k, s * pv) for k, pv in dlg.left.get((b1, b2), ())]
                else:
                    continue
                for r, v in terms:
                    entries[(r, t)] = entries.get((r, t), 0) + c1 * c2 * v
    return SparseMat(dlg.ring, dim_d * (dim_d + len(reps)), dim_sl ** 2, entries)


def _mu(slalg: SpecialLinear, ts: TensorSquare, reps: list) -> SparseMat:
    """The section mu of Str2: the middle space (see ``splitting_check``) ->
    sl (x) sl.  On D (x) D,

        mu(a (x) b) = E_12(a) (x) E_21(b) - (-1)^{|a||b|} E_12(b |> a) (x) E_21(1),

    and the unit a of the block of an orbit representative (i, j, k, l)
    goes to E_ij(a) (x) E_kl(1), with the coefficient-transfer sign
    compensated so that Str2 sends it back to exactly the same coefficient."""
    g = slalg.gl
    dlg, ring = g.dlg, g.dlg.ring
    unit, e = dlg.basis_vector, dlg.bar_unit

    def pair(i, j, x, k, l, y):   # E_ij(x) (x) E_kl(y) for D elements x, y
        return ts.pair_vector(slalg.coords_of_unit(i, j, x), slalg.coords_of_unit(k, l, y))

    cols = []
    for a, b in product(range(dlg.dim), repeat=2):
        sgn = -1 if (dlg.parity(a) * dlg.parity(b)) % 2 else 1
        cols.append(combine(ring, [(1, pair(1, 2, unit(a), 2, 1, unit(b))),
                                   (-sgn, pair(1, 2, dlg.rmul(unit(b), unit(a)), 2, 1, e))]))
    for rep in reps:
        i, j, k, l = rep
        for b in range(dlg.dim):
            s = pattern_coefficient_sign(g.m, g.n, rep, dlg.parity(b), 0)
            cols.append(combine(ring, [(s, pair(i, j, unit(b), k, l, e))]))
    return SparseMat._trusted(ring, ts.ambient_dim, cols)


@dataclass(frozen=True)
class SplittingReport:
    case: tuple
    str2_well_defined: bool
    mu_well_defined: bool
    trace_square_commutes: bool
    embed_square_commutes: bool
    section_identity: bool
    retraction_identity: bool
    surjective: bool
    invariants_match: bool
    parity_preserving: bool
    computed_hl2: GradedModuleInvariants
    expected_hl2: GradedModuleInvariants

    @property
    def isomorphism(self) -> bool:
        # a surjection between finitely generated modules with equal
        # invariant factors over these rings is an isomorphism
        return self.surjective and self.invariants_match

    @property
    def ok(self) -> bool:
        return (
            self.str2_well_defined
            and self.mu_well_defined
            and self.trace_square_commutes
            and self.embed_square_commutes
            and self.section_identity
            and self.retraction_identity
            and self.isomorphism
            and self.parity_preserving
        )

    def to_json(self) -> dict:
        return {
            "case": list(self.case),
            "str2_well_defined": self.str2_well_defined,
            "mu_well_defined": self.mu_well_defined,
            "trace_square_commutes": self.trace_square_commutes,
            "embed_square_commutes": self.embed_square_commutes,
            "section_identity": self.section_identity,
            "retraction_identity": self.retraction_identity,
            "surjective": self.surjective,
            "invariants_match": self.invariants_match,
            "parity_preserving": self.parity_preserving,
            "isomorphism": self.isomorphism,
            "computed_hl2": self.computed_hl2.to_json(),
            "expected_hl2": self.expected_hl2.to_json(),
        }


def splitting_check(m: int, n: int, dlg: SuperDialgebra,
                    guard: int = DEFAULT_SIZE_GUARD) -> SplittingReport:
    """Verify the splitting diagram case (m, n, dlg): well-definedness of the
    two trace/embedding maps, commutativity of both squares, the two identity
    compositions, and that the induced map from the degree-one Hochschild
    homology plus the kernel-class modules onto the degree-2 homology is a
    parity-preserving isomorphism (surjection + equal invariants).

    Str2 and its section mu are two ``SparseMat``s, built once, through
    one middle space: D (x) D (row b1 * dim D + b2 for e_b1 (x) e_b2), then
    one block of dim D rows for each orbit representative of the
    kernel-class patterns, in sorted order, holding its D coefficient.  A
    middle vector is zero when its D (x) D part lies in Im d_2 + I and each
    block in the ideal of its quotient D_k.  The checks are identities of
    these matrices, each tested on a generating set:

    (a) Str2 is zero on the rows of the Im delta_3 block echelons;
    (b) Str o embed o delta_2 = d_1 o Str2 (its D (x) D part) on the
        carrier generators, and embed o delta_2 o mu = E_11(d_1) on D (x) D;
    (c) mu is zero modulo Im delta_3 on Im d_2 + I and the ideals of the D_k;
    (d) str2 @ mu - 1 is zero on Ker d_1 and on every block unit;
    (e) mu o Str2 - 1 is zero modulo Im delta_3 on the generators of the
        degree-2 homology (``kernel_class_generators``);
    (f) the images under mu of (d)'s sources, added to Im delta_3, contain
        Ker delta_2 in each block of the tensor square
        (``TensorSquare.blocks``) that is not certified; a certified block
        has Ker delta_2 = Im delta_3, and (f) builds no kernel basis for
        it.  An image that meets two blocks raises RuntimeError.  The
        invariants of the degree-2 homology equal those of HHS_1 plus the
        D_k;
    (g) each of those images has one parity, that of its source.

    Every vector is a list of (index, value) pairs."""
    from .theorems import expected_w  # lazy; theorems drives this module

    if low_rank_case(m, n) is None:
        raise ValueError(f"({m},{n}) is not a classified case")
    _require_bar_unit_basis(dlg)
    # a copy, so that the quotients D_k memoised on it (``quotient_Dm``) are
    # this check's own: each is computed once here, whatever ran before on dlg
    dlg = replace(dlg)
    slalg = sl(m, n, dlg)
    ts = tensor_square(slalg.algebra, guard)
    hoch = degree_one_homology(dlg, guard)
    reps = sorted({pattern_rep_and_sign(m, n, p)[0] for p in admissible_patterns(m, n)})
    str2 = _str2(slalg, reps)
    mu = _mu(slalg, ts, reps)
    ring = dlg.ring
    dim_d = dlg.dim
    dd_dim = dim_d ** 2
    d1, d2 = hoch.d1.matrix, ts.d2.matrix

    # the middle space: D (x) D, then per rep a block of dim D rows, whose
    # coefficients live in the quotient D_k of that rep
    offsets = [0] + [dd_dim + p * dim_d for p in range(len(reps))]
    quotients = [quotient_Dm(dlg, pattern_modulus(m, n, r)) for r in reps]
    zero_tests = [hoch.relations] + [q.echelon for q in quotients]

    def middle_is_zero(vec) -> bool:
        """vec is zero in HHS_1(D) plus the D_k."""
        parts = {}
        for i, x in vec:
            part = 0 if i < dd_dim else 1 + (i - dd_dim) // dim_d
            parts.setdefault(part, []).append((i - offsets[part], x))
        return all(zero_tests[part].contains(v) for part, v in parts.items())

    # (a) Str2 is linear, so it kills Im delta_3 iff it kills the rows of the
    # block echelons: over a field they span Im delta_3 and over the
    # integers they generate its lattice (each block stops early only where
    # its span provably equals Ker delta_2 of the block)
    str2_ok = all(middle_is_zero(str2.apply(row)) for row in ts.image_rows())

    # (c) mu kills the Hochschild relations and the ideals of the D_k
    relations = hoch.relations.basis_matrix().columns() + [
        [(offsets[p + 1] + i, x) for i, x in col]
        for p, q in enumerate(quotients) for col in q.ideal.columns()]
    mu_ok = all(ts.is_zero_class(mu.apply(v)) for v in relations)

    # (b) both squares of the diagram commute
    trace_sq = all(
        slalg.gl.supertrace(slalg.embed(d2.apply(g)))
        == d1.apply([(i, x) for i, x in str2.apply(g) if i < dd_dim])
        for _, g in ts.carrier_generators())
    embed_sq = all(
        slalg.embed(d2.apply(mu.apply([(t, ring.one)])))
        == [(slalg.gl.unit_index(1, 1, b), x) for b, x in col]
        for t, col in enumerate(d1.columns()))

    # (d) Str2 o mu = id on Ker d_1 and on the block units, which generate
    # the middle space modulo the relations
    sources = hoch.kernel.columns() + [
        [(offsets[p + 1] + b, ring.one)] for p in range(len(reps)) for b in range(dim_d)]
    section_map = str2 @ mu
    section = all(middle_is_zero(combine(ring, [(1, section_map.apply(v)), (-1, v)]))
                  for v in sources)

    # (e) mu o Str2 = id on the kernel classes of the carrier
    retraction = all(ts.is_zero_class(combine(ring, [(1, mu.apply(str2.apply(g))), (-1, g)]))
                     for g in ts.kernel_class_generators())

    # (f) the images of the sources extend only the blocks they hit; each
    # Ker delta_2 generator is tested in its own block's coordinates.  A
    # certified block has Ker delta_2 = Im delta_3, which every extension
    # contains.
    image_cols = [mu.apply(v) for v in sources]
    plus = ts.extend_blocks(image_cols)
    surjective = True
    for b in ts.blocks.values():
        if not b.certified:
            ech = plus.get(b.key, b.image)
            surjective = surjective and all(ech.contains(col) for col in b.kernel.columns())

    computed = ts.kernel_invariants()
    expected = hoch.invariants.direct_sum(expected_w(m, n, dlg))
    inv_match = module_iso_check(computed, expected)

    # (g) the map is parity homogeneous with the right parities: a block unit
    # has the parity of its D coefficient shifted by its pattern's offset
    middle_parity = list(hoch.d1.source.parity) + [
        (dlg.parity(b) + pattern_parity_offset(m, n, r)) % 2 for r in reps for b in range(dim_d)]
    parity_ok = True
    for v, col in zip(sources, image_cols):
        want = {middle_parity[i] for i, _ in v}
        want = want.pop() if len(want) == 1 else None
        pars = {ts.d2.source.parity[i] for i, _ in col}
        if len(pars) > 1 or (pars and want is not None and pars.pop() != want):
            parity_ok = False
            break

    return SplittingReport(
        (m, n, dlg.name), str2_ok, mu_ok, trace_sq, embed_sq, section,
        retraction, surjective, inv_match, parity_ok, computed, expected,
    )
