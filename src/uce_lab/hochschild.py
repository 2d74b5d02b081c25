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


class _Str2:
    """Second supertrace: carrier of sl (x) sl -> D (x) D plus the per-pattern
    coefficient modules.

    On a pair of matrix units it returns (-1)^{|i|(1+|a|+|b|)} a (x) b when the
    units pair up as E_ij(a) (x) E_ji(b) (the sign mirrors the one the first
    supertrace puts on diagonal entries, and makes the trace square of the
    splitting diagram commute), the coefficient-transfer-signed left product
    on an admissible kernel-class pattern, and zero otherwise.
    """

    def __init__(self, slalg: SpecialLinear):
        self.slalg = slalg
        self.m, self.n = slalg.gl.m, slalg.gl.n
        self.dlg = slalg.gl.dlg
        dim_d = self.dlg.dim
        size = self.m + self.n
        # sl basis -> sparse gl expansion, gl index -> (i, j, b)
        incl = slalg.inclusion.columns()
        self.expansion = [list(col) for col in incl]
        self.decode = []
        for g in range(slalg.gl.algebra.dim):
            pos, b = divmod(g, dim_d)
            i, j = divmod(pos, size)
            self.decode.append((i + 1, j + 1, b))
        self.patterns = set(admissible_patterns(self.m, self.n))
        self.reps = sorted({pattern_rep_and_sign(self.m, self.n, p)[0]
                            for p in self.patterns})
        self._columns: dict = {}

    def column(self, t: int) -> list:
        """Str2 of the ambient basis vector t of sl (x) sl, as the pairs
        (((), b1 * dim D + b2), value) of its D (x) D part and
        ((rep, k), value) of its coefficient for rep (a key may repeat);
        computed once."""
        if t in self._columns:
            return self._columns[t]
        dlg = self.dlg
        dim_d = dlg.dim
        s1, s2 = divmod(t, self.slalg.algebra.dim)
        items = []
        for g1, c1 in self.expansion[s1]:
            i1, j1, b1 = self.decode[g1]
            for g2, c2 in self.expansion[s2]:
                i2, j2, b2 = self.decode[g2]
                coeff = c1 * c2
                if (i2, j2) == (j1, i1):
                    row_par = self.slalg.gl.row_parity(i1)
                    exp = row_par * (1 + dlg.parity(b1) + dlg.parity(b2))
                    items.append((((), b1 * dim_d + b2), -coeff if exp % 2 else coeff))
                    continue
                pat = (i1, j1, i2, j2)
                if pat in self.patterns:
                    rep, osign = pattern_rep_and_sign(self.m, self.n, pat)
                    s = osign * pattern_coefficient_sign(
                        self.m, self.n, pat, dlg.parity(b1), dlg.parity(b2),
                    )
                    # e_b1 <| e_b2 from the structure constants
                    items.extend(((rep, k), s * coeff * pv)
                                 for k, pv in dlg.left.get((b1, b2), ()))
        self._columns[t] = items
        return items

    def eval(self, items):
        """items: the (index, value) pairs of an ambient sl (x) sl vector.
        Returns (dd, w) with dd the D (x) D part and w a dict rep-pattern ->
        D coefficient, every vector as its nonzero (index, value) pairs."""
        dd, w = [], {rep: [] for rep in self.reps}
        for (rep, k), v in combine(self.dlg.ring, ((c, self.column(t)) for t, c in items)):
            (w[rep] if rep else dd).append((k, v))
        return dd, w


class _Mu:
    """Section of the second supertrace: embeds D (x) D classes and the
    per-pattern coefficients into the tensor-square carrier of sl.  Inputs
    and outputs are (index, value) pairs."""

    def __init__(self, slalg: SpecialLinear, ts: TensorSquare):
        self.slalg = slalg
        self.ts = ts
        self.dlg = slalg.gl.dlg
        self.ring = self.dlg.ring

    def _pair(self, i, j, x, k, l, y) -> list:
        """E_ij(x) (x) E_kl(y) for D elements x, y."""
        coords = self.slalg.coords_of_unit
        return self.ts.pair_vector(coords(i, j, x), coords(k, l, y))

    def _dd_unit(self, t: int) -> list:
        dlg = self.dlg
        a, b = divmod(t, dlg.dim)
        ba = dlg.rmul(dlg.basis_vector(b), dlg.basis_vector(a))
        sgn = -1 if (dlg.parity(a) * dlg.parity(b)) % 2 else 1
        second = self._pair(1, 2, ba, 2, 1, dlg.bar_unit)
        return (self._pair(1, 2, dlg.basis_vector(a), 2, 1, dlg.basis_vector(b))
                + [(k, -sgn * v) for k, v in second])

    def _pattern_unit(self, rep, b: int) -> list:
        i, j, k, l = rep
        s = pattern_coefficient_sign(self.slalg.gl.m, self.slalg.gl.n, rep, self.dlg.parity(b), 0)
        pair = self._pair(i, j, self.dlg.basis_vector(b), k, l, self.dlg.bar_unit)
        return [(t, s * v) for t, v in pair]

    def of_dd(self, items) -> list:
        """mu(a (x) b) = E_12(a) (x) E_21(b)
        - (-1)^{|a||b|} E_12(b |> a) (x) E_21(1), extended linearly."""
        return combine(self.ring, ((c, self._dd_unit(t)) for t, c in items))

    def of_pattern(self, rep, items) -> list:
        """The class E_ij(a) (x) E_kl(1) of an orbit representative, with the
        coefficient-transfer sign compensated so the second supertrace sends
        it back to exactly the same coefficient."""
        return combine(self.ring, ((c, self._pattern_unit(rep, b)) for b, c in items))


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

    The linear checks run on generating sets and on the (weight, parity)
    blocks of L (x) L: (a) on the rows of the Im delta_3 block echelons, (f)
    on the generators of Ker delta_2 of each block of the tensor square
    (``TensorSquare.blocks``) that is not certified, each tested in its own
    block against Im delta_3 plus the images of the map; a certified block
    has Ker delta_2 = Im delta_3 there, which that extension contains, and
    (f) builds no kernel basis for it.  An image that meets two blocks
    raises RuntimeError.  Every map and every check takes and gives vectors
    as (index, value) pairs: the squares (b) compare the sorted pairs of
    ``SparseMat.apply``, and the identities (d), (e) test a difference
    formed with ``combine`` for the zero class."""
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
    str2 = _Str2(slalg)
    mu = _Mu(slalg, ts)
    ring = dlg.ring
    dim_d = dlg.dim

    # the quotient D_k each kernel-class coefficient lives in
    by_mod = {k: quotient_Dm(dlg, k) for k in {pattern_modulus(m, n, r) for r in str2.reps}}
    quotient = {r: by_mod[pattern_modulus(m, n, r)] for r in str2.reps}

    def w_is_zero(rep, vec):
        ech = quotient[rep].echelon
        return not vec or ech.contains(vec)

    def str2_is_zero(items):
        dd, w = str2.eval(items)
        return hoch.is_zero_class(dd) and all(w_is_zero(rep, col) for rep, col in w.items())

    # (a) the second supertrace kills the tensor-square relations.  Str2 is
    # linear, so it kills Im delta_3 iff it kills a generating set, such as the
    # rows of the block echelons: each block stops early only where its
    # span provably equals Ker delta_2 of the block (at the rank over a
    # field, at equal pivot values too over the integers), so over a field
    # they span Im delta_3 and over the integers they generate its lattice.
    str2_ok = all(str2_is_zero(row) for row in ts.image_rows())

    # (c) the embedding kills the Hochschild relations and quotient ideals
    mu_ok = all(ts.is_zero_class(mu.of_dd(col))
                for col in hoch.relations.basis_matrix().columns()) and all(
        ts.is_zero_class(mu.of_pattern(rep, col))
        for rep in str2.reps for col in quotient[rep].ideal.columns())

    # (b) both squares of the diagram commute
    trace_sq = True
    for _, g in ts.carrier_generators():
        lhs = slalg.gl.supertrace(slalg.embed(ts.d2.matrix.apply(g)))
        dd, _ = str2.eval(g)
        if lhs != hoch.d1.matrix.apply(dd):
            trace_sq = False
            break
    embed_sq = True
    for t, col in enumerate(hoch.d1.matrix.columns()):
        omega = slalg.embed(ts.d2.matrix.apply(mu.of_dd([(t, ring.one)])))
        if omega != [(slalg.gl.unit_index(1, 1, b), x) for b, x in col]:
            embed_sq = False
            break

    # (d) Str2 o mu = id on both summands
    section = True
    for col in hoch.kernel.columns():
        dd, w = str2.eval(mu.of_dd(col))
        if not hoch.is_zero_class(combine(ring, [(1, dd), (-1, col)])):
            section = False
        if any(not w_is_zero(rep, wcol) for rep, wcol in w.items()):
            section = False
    for rep in str2.reps:
        for b in range(dim_d):
            unit = [(b, ring.one)]
            dd, w = str2.eval(mu.of_pattern(rep, unit))
            if not hoch.is_zero_class(dd):
                section = False
            for rep2, col in w.items():
                if not w_is_zero(rep2, combine(ring, [(1, col), (-1, unit if rep2 == rep else [])])):
                    section = False

    # (e) mu o Str2 = id on the kernel classes of the carrier
    retraction = True
    for g in ts.kernel_class_generators():
        dd, w = str2.eval(g)
        back = mu.of_dd(dd)
        for rep, col in w.items():
            back += mu.of_pattern(rep, col)
        if not ts.is_zero_class(combine(ring, [(1, back), (-1, g)])):
            retraction = False
            break

    # (f) induced map is onto the degree-2 homology, with equal invariants
    image_cols = []
    source_parities = []
    for col in hoch.kernel.columns():
        image_cols.append(mu.of_dd(col))
        pars = {hoch.d1.source.parity[i] for i, _ in col}
        source_parities.append(pars.pop() if len(pars) == 1 else None)
    for rep in str2.reps:
        off = pattern_parity_offset(m, n, rep)
        for b in range(dim_d):
            image_cols.append(mu.of_pattern(rep, [(b, ring.one)]))
            source_parities.append((dlg.parity(b) + off) % 2)
    # the images extend only the blocks they hit; each Ker delta_2 generator
    # is tested in its own block's coordinates.  A certified block has
    # Ker delta_2 = Im delta_3, which every extension contains.
    plus = ts.extend_blocks(image_cols)
    surjective = True
    for b in ts.blocks.values():
        if not b.certified:
            ech = plus.get(b.key, b.image)
            surjective = surjective and all(ech.contains(col) for col in b.kernel.columns())

    computed = ts.kernel_invariants()
    expected = hoch.invariants.direct_sum(expected_w(m, n, dlg))
    inv_match = module_iso_check(computed, expected)

    # (g) the map is parity homogeneous with the right parities
    parity_ok = True
    for col, want in zip(image_cols, source_parities):
        pars = {ts.d2.source.parity[i] for i, _ in col}
        if len(pars) > 1 or (pars and want is not None and pars.pop() != want):
            parity_ok = False
            break

    return SplittingReport(
        (m, n, dlg.name), str2_ok, mu_ok, trace_sq, embed_sq, section,
        retraction, surjective, inv_match, parity_ok, computed, expected,
    )
