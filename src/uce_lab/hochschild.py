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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .exactlin import (
    Echelon,
    GradedFreeModule,
    GradedModuleInvariants,
    SparseMat,
    kernel_basis,
    module_iso_check,
    snf,
    subquotient_invariants,
)
from .chain import DEFAULT_SIZE_GUARD, guard_check, tensor_index, tensor_power_module
from .leibniz import SpecialLinear, sl
from .superdialg import SuperDialgebra, QuotientModule, quotient_Dm
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
    "with_bar_unit_first",
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


def with_bar_unit_first(dlg: SuperDialgebra) -> SuperDialgebra:
    """Rewrite the dialgebra on a basis whose first vector is the bar-unit.

    The completion is greedy over the standard basis; over the integers the
    change of basis must be unimodular, otherwise NoBarUnitBasisError.
    """
    if not dlg.is_unital:
        raise NoBarUnitBasisError(f"{dlg.name} has no bar-unit")
    ring = dlg.ring
    dim = dlg.dim
    unit = [ring.normalize(c) for c in dlg.bar_unit]
    if unit == dlg.basis_vector(0):
        return dlg
    ech = Echelon(ring, dim)
    ech.insert(ech.vector(unit))
    chosen = [unit]
    par = [0]
    for t in range(dim):
        if len(chosen) == dim:
            break
        cand = dlg.basis_vector(t)
        if ech.insert(ech.vector(cand)):
            chosen.append(cand)
            par.append(dlg.parity(t))
    if len(chosen) < dim:
        raise NoBarUnitBasisError(f"could not complete a basis from {dlg.name}")
    basis = SparseMat.from_columns(ring, dim, chosen)
    if ring.kind == "integers" and any(x != 1 for x in snf(basis)):
        raise NoBarUnitBasisError(
            f"{dlg.name}: no unimodular basis contains the bar-unit"
        )
    from .exactlin import SpanSolver

    solver = SpanSolver(basis)
    left = {}
    right = {}
    for i in range(dim):
        for j in range(dim):
            for table, out in ((dlg.left, left), (dlg.right, right)):
                prod = dlg._mul(table, chosen[i], chosen[j])
                if any(x != 0 for x in prod):
                    coords = solver.solve(prod)
                    if coords is None:
                        raise NoBarUnitBasisError(
                            f"{dlg.name}: products leave the recoordinatised lattice"
                        )
                    terms = [(k, c) for k, c in enumerate(coords) if c != 0]
                    if terms:
                        out[(i, j)] = terms
    bar = [ring.one] + [ring.zero] * (dim - 1)
    mod = GradedFreeModule(dim, tuple(par))
    return SuperDialgebra(ring, mod, left, right, tuple(bar),
                          f"{dlg.name}~unit0")


def d(dlg: SuperDialgebra, n: int, guard: int = DEFAULT_SIZE_GUARD) -> HochschildMap:
    """Boundary matrix D^(x)(n+1) -> D^(x)n (see the module docstring)."""
    if n < 1:
        raise ValueError("the boundary is built for n >= 1")
    # hypothesis of the whole section: a basis containing the bar-unit exists
    with_bar_unit_first(dlg)
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
    """Generators a (x) (b <| c - b |> c) of the degree-one ideal, as ambient
    vectors in D (x) D.  They vanish whenever the two products coincide."""
    ring = dlg.ring
    dim = dlg.dim
    gens = []
    for b in range(dim):
        for c in range(dim):
            diff = [
                ring.normalize(x - y)
                for x, y in zip(
                    dlg.lmul(dlg.basis_vector(b), dlg.basis_vector(c)),
                    dlg.rmul(dlg.basis_vector(b), dlg.basis_vector(c)),
                )
            ]
            if all(x == 0 for x in diff):
                continue
            for a in range(dim):
                vec = [ring.zero] * (dim * dim)
                for k, x in enumerate(diff):
                    vec[a * dim + k] = x
                gens.append(vec)
    return gens


@dataclass(eq=False)
class DegreeOneHomology:
    """Ker d_1 / (Im d_2 + I) with enough structure to evaluate and compare
    classes: the relation echelon provides canonical representatives."""

    dlg: SuperDialgebra     # basis already has the bar-unit first
    d1: HochschildMap
    d2: HochschildMap
    kernel: SparseMat
    relations: Echelon
    invariants: GradedModuleInvariants
    ideal_gens: list

    def is_zero_class(self, vec) -> bool:
        return not self.relations.residue_of(vec).any()

    def classes_equal(self, u, v) -> bool:
        return self.is_zero_class([a - b for a, b in zip(u, v)])


def degree_one_homology(dlg: SuperDialgebra, guard: int = DEFAULT_SIZE_GUARD) -> DegreeOneHomology:
    base = with_bar_unit_first(dlg)
    d1 = d(base, 1, guard)
    d2 = d(base, 2, guard)
    if not (d1.matrix @ d2.matrix).is_zero():
        raise RuntimeError("d_1 o d_2 != 0; boundary signs drifted")
    ker = kernel_basis(d1.matrix)
    gens = _ideal_generators(base)
    rel = Echelon(base.ring, base.dim ** 2)
    cols = d2.matrix.columns()
    for j in range(d2.matrix.cols):
        if cols[j]:
            rel.insert(rel.vector(cols[j]))
    for g in gens:
        rel.insert(rel.vector(g))
    inv = subquotient_invariants(ker, rel.basis_matrix(), d1.source.parity)
    return DegreeOneHomology(base, d1, d2, ker, rel, inv, gens)


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

    def eval(self, vec):
        """vec: ambient sl (x) sl coordinates.  Returns (dd, w) with dd a
        dense D (x) D vector and w a dict rep-pattern -> dense D vector."""
        ring = self.dlg.ring
        dim_d = self.dlg.dim
        sl_dim = self.slalg.algebra.dim
        dd = [ring.zero] * (dim_d * dim_d)
        w = {rep: [ring.zero] * dim_d for rep in self.reps}
        for t, c in enumerate(vec):
            if c == 0:
                continue
            s1, s2 = divmod(t, sl_dim)
            for g1, c1 in self.expansion[s1]:
                i1, j1, b1 = self.decode[g1]
                for g2, c2 in self.expansion[s2]:
                    i2, j2, b2 = self.decode[g2]
                    coeff = c * c1 * c2
                    if (i2, j2) == (j1, i1):
                        row_par = self.slalg.gl.row_parity(i1)
                        exp = row_par * (1 + self.dlg.parity(b1) + self.dlg.parity(b2))
                        if exp % 2:
                            coeff = -coeff
                        key = b1 * dim_d + b2
                        dd[key] = dd[key] + coeff
                        continue
                    pat = (i1, j1, i2, j2)
                    if pat in self.patterns:
                        rep, osign = pattern_rep_and_sign(self.m, self.n, pat)
                        s = osign * pattern_coefficient_sign(
                            self.m, self.n, pat,
                            self.dlg.parity(b1), self.dlg.parity(b2),
                        )
                        prod = self.dlg.lmul(
                            self.dlg.basis_vector(b1), self.dlg.basis_vector(b2)
                        )
                        for k, pv in enumerate(prod):
                            if pv != 0:
                                w[rep][k] = w[rep][k] + s * coeff * pv
        dd = [ring.normalize(x) for x in dd]
        w = {rep: [ring.normalize(x) for x in col] for rep, col in w.items()}
        return dd, w


class _Mu:
    """Section of the second supertrace: embeds D (x) D classes and the
    per-pattern coefficients into the tensor-square carrier of sl."""

    def __init__(self, slalg: SpecialLinear, ts: TensorSquare):
        self.slalg = slalg
        self.ts = ts
        self.dlg = slalg.gl.dlg
        ring = self.dlg.ring
        dim_d = self.dlg.dim
        # precompute the sl coordinates of E_12(e_b), E_21(e_b), E_21(1)
        self.e12 = [slalg.coords_of_unit(1, 2, self.dlg.basis_vector(b))
                    for b in range(dim_d)]
        self.e21 = [slalg.coords_of_unit(2, 1, self.dlg.basis_vector(b))
                    for b in range(dim_d)]
        self.e21_unit = slalg.coords_of_unit(2, 1, list(self.dlg.bar_unit))

    def of_dd(self, vec):
        """mu(a (x) b) = E_12(a) (x) E_21(b)
        - (-1)^{|a||b|} E_12(b |> a) (x) E_21(1), extended bilinearly."""
        ring = self.dlg.ring
        dim_d = self.dlg.dim
        out = [ring.zero] * self.ts.ambient_dim
        for t, c in enumerate(vec):
            if c == 0:
                continue
            a, b = divmod(t, dim_d)
            first = self.ts.pair_vector(self.e12[a], self.e21[b])
            ba = self.dlg.rmul(self.dlg.basis_vector(b), self.dlg.basis_vector(a))
            e12_ba = self.slalg.coords_of_unit(1, 2, ba)
            second = self.ts.pair_vector(e12_ba, self.e21_unit)
            sgn = -1 if (self.dlg.parity(a) * self.dlg.parity(b)) % 2 else 1
            for k in range(len(out)):
                out[k] = out[k] + c * (first[k] - sgn * second[k])
        return [ring.normalize(x) for x in out]

    def of_pattern(self, rep, dvec):
        """The class E_ij(a) (x) E_kl(1) of an orbit representative, with the
        coefficient-transfer sign compensated so the second supertrace sends
        it back to exactly the same coefficient."""
        ring = self.dlg.ring
        m, n = self.slalg.gl.m, self.slalg.gl.n
        i, j, k, l = rep
        out = None
        for b, c in enumerate(dvec):
            if c == 0:
                continue
            s = pattern_coefficient_sign(m, n, rep, self.dlg.parity(b), 0)
            a = self.slalg.coords_of_unit(i, j, self.dlg.basis_vector(b))
            u = self.slalg.coords_of_unit(k, l, list(self.dlg.bar_unit))
            vec = self.ts.pair_vector(a, u)
            if out is None:
                out = [ring.zero] * len(vec)
            for t, v in enumerate(vec):
                out[t] = out[t] + s * c * v
        if out is None:
            out = [ring.zero] * self.ts.ambient_dim
        return [ring.normalize(x) for x in out]


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
                    guard: int = DEFAULT_SIZE_GUARD,
                    slalg: SpecialLinear | None = None,
                    ts: TensorSquare | None = None) -> SplittingReport:
    """Verify the splitting diagram case (m, n, dlg): well-definedness of the
    two trace/embedding maps, commutativity of both squares, the two identity
    compositions, and that the induced map from the degree-one Hochschild
    homology plus the kernel-class modules onto the degree-2 homology is a
    parity-preserving isomorphism (surjection + equal invariants)."""
    from .theorems import expected_w  # lazy; theorems drives this module

    if low_rank_case(m, n) is None:
        raise ValueError(f"({m},{n}) is not a classified case")
    base = with_bar_unit_first(dlg)
    if slalg is None:
        slalg = sl(m, n, base)
    ts = ts or tensor_square(slalg.algebra, guard)
    hoch = degree_one_homology(base, guard)
    str2 = _Str2(slalg)
    mu = _Mu(slalg, ts)
    ring = base.ring
    dim_d = base.dim

    quotients: dict = {}

    def quotient_for(mod: int) -> QuotientModule:
        if mod not in quotients:
            quotients[mod] = quotient_Dm(base, mod)
        return quotients[mod]

    def w_is_zero(rep, vec):
        q = quotient_for(pattern_modulus(m, n, rep))
        return not q.echelon.residue_of(vec).any()

    def w_equal(rep, u, v):
        return w_is_zero(rep, [a - b for a, b in zip(u, v)])

    # (a) the second supertrace kills the tensor-square relations
    str2_ok = True
    d3cols = ts.d3.matrix.columns()
    for j in range(ts.d3.matrix.cols):
        if not d3cols[j]:
            continue
        vec = [ring.zero] * ts.ambient_dim
        for i, v in d3cols[j]:
            vec[i] = v
        dd, w = str2.eval(vec)
        if not hoch.is_zero_class(dd):
            str2_ok = False
            break
        if any(not w_is_zero(rep, col) for rep, col in w.items()):
            str2_ok = False
            break

    # (c) the embedding kills the Hochschild relations and quotient ideals
    mu_ok = True
    relmat = hoch.relations.basis_matrix()
    for j in range(relmat.cols):
        if not ts.is_zero_class(mu.of_dd(relmat.column_dense(j))):
            mu_ok = False
            break
    if mu_ok:
        for rep in str2.reps:
            q = quotient_for(pattern_modulus(m, n, rep))
            for j in range(q.ideal.cols):
                if not ts.is_zero_class(mu.of_pattern(rep, q.ideal.column_dense(j))):
                    mu_ok = False
                    break
            if not mu_ok:
                break

    # (b) both squares of the diagram commute
    trace_sq = True
    for _, g in ts.carrier_generators():
        boundary = ts.d2.matrix.apply(g)
        lhs = slalg.gl.supertrace(slalg.embed(boundary))
        dd, _ = str2.eval(g)
        rhs = hoch.d1.matrix.apply(dd)
        if [ring.normalize(x) for x in lhs] != rhs:
            trace_sq = False
            break
    embed_sq = True
    for a in range(dim_d):
        for b in range(dim_d):
            vec = [ring.zero] * (dim_d * dim_d)
            vec[a * dim_d + b] = ring.one
            omega = slalg.embed(ts.d2.matrix.apply(mu.of_dd(vec)))
            target = slalg.gl.unit_vector(1, 1, hoch.d1.matrix.apply(vec))
            if [ring.normalize(x) for x in omega] != [ring.normalize(x) for x in target]:
                embed_sq = False
                break
        if not embed_sq:
            break

    # (d) Str2 o mu = id on both summands
    section = True
    for j in range(hoch.kernel.cols):
        k = hoch.kernel.column_dense(j)
        dd, w = str2.eval(mu.of_dd(k))
        if not hoch.classes_equal(dd, k):
            section = False
        if any(not w_is_zero(rep, col) for rep, col in w.items()):
            section = False
    for rep in str2.reps:
        for b in range(dim_d):
            dd, w = str2.eval(mu.of_pattern(rep, base.basis_vector(b)))
            if not hoch.is_zero_class(dd):
                section = False
            for rep2, col in w.items():
                want = base.basis_vector(b) if rep2 == rep else [ring.zero] * dim_d
                if not w_equal(rep2, col, want):
                    section = False

    # (e) mu o Str2 = id on the kernel classes of the carrier
    retraction = True
    for g in ts.kernel_class_generators():
        dd, w = str2.eval(g)
        back = mu.of_dd(dd)
        for rep, col in w.items():
            if any(x != 0 for x in col):
                add = mu.of_pattern(rep, col)
                back = [p + q for p, q in zip(back, add)]
        if not ts.classes_equal(back, g):
            retraction = False
            break

    # (f) induced map is onto the degree-2 homology, with equal invariants
    surj_ech = Echelon(ring, ts.ambient_dim)
    imat = ts.image.basis_matrix()
    icols = imat.columns()
    for j in range(imat.cols):
        surj_ech.insert(surj_ech.vector(icols[j]))
    image_cols = []
    source_parities = []
    for j in range(hoch.kernel.cols):
        col = mu.of_dd(hoch.kernel.column_dense(j))
        image_cols.append(col)
        pars = {hoch.d1.source.parity[i]
                for i, v in enumerate(hoch.kernel.column_dense(j)) if v != 0}
        source_parities.append(pars.pop() if len(pars) == 1 else None)
    for rep in str2.reps:
        off = pattern_parity_offset(m, n, rep)
        for b in range(dim_d):
            image_cols.append(mu.of_pattern(rep, base.basis_vector(b)))
            source_parities.append((base.parity(b) + off) % 2)
    for col in image_cols:
        if any(x != 0 for x in col):
            surj_ech.insert(surj_ech.vector(col))
    surjective = True
    ker_amb = kernel_basis(ts.d2.matrix)
    kcols = ker_amb.columns()
    for j in range(ker_amb.cols):
        if not surj_ech.contains(surj_ech.vector(kcols[j])):
            surjective = False
            break

    computed = ts.kernel_invariants()
    expected = hoch.invariants.direct_sum(expected_w(m, n, base))
    inv_match = module_iso_check(computed, expected)

    # (g) the map is parity homogeneous with the right parities
    parity_ok = True
    for col, want in zip(image_cols, source_parities):
        pars = {ts.d2.source.parity[i] for i, v in enumerate(col) if v != 0}
        if len(pars) > 1 or (pars and want is not None and pars.pop() != want):
            parity_ok = False
            break

    return SplittingReport(
        (m, n, dlg.name), str2_ok, mu_ok, trace_sq, embed_sq, section,
        retraction, surjective, inv_match, parity_ok, computed, expected,
    )
