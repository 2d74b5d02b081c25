"""Finite-dimensional associative superdialgebras given by structure constants.

A superdialgebra carries two associative products, written ``<|`` (left) and
``|>`` (right) in the code, subject to three compatibility axioms and a
Z/2-grading respected by both.  A bar-unit e satisfies a <| e = a = e |> a;
it need not be unique and is always even.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .exactlin import (
    Echelon,
    GradedFreeModule,
    GradedModuleInvariants,
    RingSpec,
    SparseMat,
    combine,
    multiply,
    solve_linear,
    subquotient_invariants,
)

__all__ = [
    "SuperDialgebra",
    "validate",
    "from_algebra",
    "from_dga",
    "from_bimodule_map",
    "tensor_product",
    "matrix_dialgebra",
    "bracket_table",
    "bracket_span",
    "bracket_ideal",
    "quotient_Dm",
    "QuotientModule",
    "builtin_dialgebra",
    "catalog_names",
    "catalog_entries",
    "load_dialgebra",
    "load_dialgebra_file",
    "dump_dialgebra",
    "DialgebraFormatError",
    "InvalidInputError",
    "NotADifferentialError",
    "NotABimoduleMapError",
]


class InvalidInputError(ValueError):
    pass


class NotADifferentialError(InvalidInputError):
    pass


class NotABimoduleMapError(InvalidInputError):
    pass


class DialgebraFormatError(ValueError):
    """Malformed dialgebra file; message carries the offending location."""


def _table_normalize(ring, table):
    """Structure constants with each expansion a vector (see exactlin), the
    zero ones dropped."""
    return {key: clean for key, terms in table.items() if (clean := combine(ring, [(1, terms)]))}


def _dense_pairs(ring, dense) -> tuple:
    """The nonzero (index, value) pairs of a dense coordinate list given from
    outside, normalized."""
    return tuple((i, x) for i, c in enumerate(dense) if (x := ring.normalize(c)) != 0)


@dataclass(frozen=True)
class SuperDialgebra:
    """Structure constants of the two products on a chosen graded basis.

    ``left[(i, j)]`` expands e_i <| e_j in the basis as [(k, coeff), ...];
    ``right`` does the same for |>.  Missing pairs are zero.  Elements are
    vectors: (index, value) pairs, as in ``exactlin``.  ``bar_unit`` is the
    tuple of the pairs of the bar-unit, or None for a non-unital structure
    (such dialgebras are kept for axiom and identity testing only).
    """

    ring: RingSpec
    module: GradedFreeModule
    left: dict
    right: dict
    bar_unit: tuple | None = None
    name: str = "dialgebra"
    # quotient_Dm per modulus; not an init field, so replace() empties it
    _quotients: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.module.rank

    @property
    def is_unital(self) -> bool:
        return self.bar_unit is not None

    def parity(self, i: int) -> int:
        return self.module.parity[i]

    def basis_vector(self, i: int) -> list:
        return [(i, self.ring.one)]

    def lmul(self, a, b) -> list:
        """a <| b."""
        return multiply(self.ring, self.left, a, b)

    def rmul(self, a, b) -> list:
        """a |> b."""
        return multiply(self.ring, self.right, a, b)

    def bracket(self, a, pa, b, pb) -> list:
        """[a, b] = a <| b - (-1)^{|a||b|} b |> a for homogeneous a, b."""
        sign = -1 if (pa * pb) % 2 else 1
        return combine(self.ring, [(1, self.lmul(a, b)), (-sign, self.rmul(b, a))])

    def element_parity(self, a):
        pars = {self.parity(i) for i, c in a if c != 0}
        if len(pars) > 1:
            raise ValueError("element is not parity homogeneous")
        return pars.pop() if pars else 0

    def regrade(self, parity, name=None) -> "SuperDialgebra":
        mod = GradedFreeModule(self.dim, tuple(parity), self.module.labels)
        return SuperDialgebra(
            self.ring, mod, self.left, self.right, self.bar_unit,
            name or self.name,
        )

    def with_bar_unit(self, e) -> "SuperDialgebra":
        """The same products with the bar-unit e, a dense coordinate list."""
        e = _dense_pairs(self.ring, e)
        d = SuperDialgebra(self.ring, self.module, self.left, self.right, e, self.name)
        bad = [v for v in validate(d) if "bar-unit" in v]
        if bad:
            raise InvalidInputError("; ".join(bad))
        return d

    def __repr__(self):
        u = "unital" if self.is_unital else "non-unital"
        return f"SuperDialgebra({self.name!r}, dim={self.dim}, {self.ring.describe()}, {u})"


def _build(ring, parity, left, right, bar_unit, name, labels=None):
    """bar_unit is a vector, or None."""
    mod = GradedFreeModule(len(parity), tuple(parity), tuple(labels) if labels else None)
    bu = tuple(combine(ring, [(1, bar_unit)])) if bar_unit is not None else None
    return SuperDialgebra(
        ring, mod, _table_normalize(ring, left), _table_normalize(ring, right), bu, name,
    )


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def validate(d: SuperDialgebra) -> list:
    """Check every axiom on every basis pair/triple; violations are returned
    as strings (empty list = valid), never raised.

    The triples are multiplied through the sparse tables, in lexicographic
    (i, j, k) order; a triple whose products e_i o e_j and e_j o e_k all
    vanish satisfies every axiom and is skipped."""
    dim = d.dim
    left, right = d.left, d.right
    issues = []
    seen = set()

    def note(kind, where):
        if kind not in seen:
            seen.add(kind)
            issues.append(f"{kind} fails first at {where}")

    for i in range(dim):
        for j in range(dim):
            target = (d.parity(i) + d.parity(j)) % 2
            for table, op in ((left, "left-product"), (right, "right-product")):
                for k, c in table.get((i, j), ()):
                    if d.parity(k) != target:
                        note(f"parity-additivity of {op}", f"(e{i}, e{j})")

    basis = [d.basis_vector(i) for i in range(dim)]
    # the k with a nonzero e_j <| e_k or e_j |> e_k, ascending, per j
    hit = [[k for k in range(dim) if left.get((j, k)) or right.get((j, k))]
           for j in range(dim)]
    for i in range(dim):
        a = basis[i]
        for j in range(dim):
            ab_l, ab_r = left.get((i, j), ()), right.get((i, j), ())
            for k in range(dim) if ab_l or ab_r else hit[j]:
                c = basis[k]
                bc_l, bc_r = left.get((j, k), ()), right.get((j, k), ())
                if d.lmul(ab_l, c) != d.lmul(a, bc_l):
                    note("left-associativity", f"(e{i}, e{j}, e{k})")
                if d.rmul(ab_r, c) != d.rmul(a, bc_r):
                    note("right-associativity", f"(e{i}, e{j}, e{k})")
                if d.lmul(a, bc_l) != d.lmul(a, bc_r):
                    note("mixed-axiom a<|(b<|c) = a<|(b|>c)", f"(e{i}, e{j}, e{k})")
                if d.lmul(ab_r, c) != d.rmul(a, bc_l):
                    note("mixed-axiom (a|>b)<|c = a|>(b<|c)", f"(e{i}, e{j}, e{k})")
                if d.rmul(ab_l, c) != d.rmul(ab_r, c):
                    note("mixed-axiom (a<|b)|>c = (a|>b)|>c", f"(e{i}, e{j}, e{k})")

    if d.is_unital:
        e = d.bar_unit
        try:
            if d.element_parity(e) != 0:
                issues.append("bar-unit parity: the bar-unit must be even")
        except ValueError:
            issues.append("bar-unit parity: the bar-unit must be even")
        for i, a in enumerate(basis):
            if d.lmul(a, e) != a:
                note("bar-unit law a<|e = a", f"e{i}")
            if d.rmul(e, a) != a:
                note("bar-unit law e|>a = a", f"e{i}")
    return issues


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def from_algebra(ring, parity, product, unit, name="algebra") -> SuperDialgebra:
    """Unital associative superalgebra as a dialgebra: both products equal the
    multiplication, bar-unit = unit, a dense coordinate list."""
    d = _build(ring, parity, product, product, _dense_pairs(ring, unit), name)
    bad = validate(d)
    if bad:
        raise InvalidInputError(f"not a unital associative superalgebra: {bad}")
    return d


def from_dga(alg: SuperDialgebra, dmat, name=None) -> SuperDialgebra:
    """Differential graded algebra (A, d) as a dialgebra:
    x <| y = x d(y) and x |> y = d(x) y.

    ``alg`` must come from ``from_algebra`` (both products equal); ``dmat`` is
    the matrix of an even derivation with d^2 = 0 (columns = images of basis
    vectors).  The result usually has no bar-unit and is flagged non-unital.
    """
    ring = alg.ring
    dim = alg.dim
    apply_d = SparseMat.from_dense(ring, dmat).apply
    basis = [alg.basis_vector(i) for i in range(dim)]
    images = [apply_d(e) for e in basis]

    for j, col in enumerate(images):
        if any(alg.parity(i) != alg.parity(j) for i, _ in col):
            raise NotADifferentialError("d is not parity preserving")
        if apply_d(col):
            raise NotADifferentialError("d^2 != 0")
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            rhs = combine(ring, [(1, alg.lmul(images[i], b)), (1, alg.lmul(a, images[j]))])
            if apply_d(alg.lmul(a, b)) != rhs:
                raise NotADifferentialError(f"Leibniz rule fails at (e{i}, e{j})")

    left, right = {}, {}
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            left[(i, j)] = alg.lmul(a, images[j])
            right[(i, j)] = alg.lmul(images[i], b)
    return _build(ring, alg.module.parity, left, right, None,
                  name or f"dga({alg.name})")


def from_bimodule_map(alg: SuperDialgebra, left_action, right_action, fmat,
                      mod_parity, name=None) -> SuperDialgebra:
    """Bimodule map f: M -> A as a dialgebra on M:
    m <| m' = m f(m') and m |> m' = f(m) m'.

    ``left_action[(i, j)]`` expands a_i . m_j, ``right_action[(i, j)]``
    expands m_i . a_j (both in the M basis); ``fmat`` has columns f(m_j) in
    the A basis.  Equivariance of f is checked on all basis pairs.  The
    bar-unit is the first basis vector with f(e) = unit, if any (else a
    non-basis solution, else the result is flagged non-unital).  Without a
    unit of A (``alg`` non-unital) there is none to search for, and the
    result is flagged non-unital.
    """
    ring = alg.ring
    la = _table_normalize(ring, left_action)
    ra = _table_normalize(ring, right_action)
    fm = SparseMat.from_dense(ring, fmat)
    f = fm.apply
    basis_m = [[(j, ring.one)] for j in range(len(mod_parity))]

    for i in range(alg.dim):
        a = alg.basis_vector(i)
        for j, m in enumerate(basis_m):
            if f(multiply(ring, la, a, m)) != alg.lmul(a, f(m)):
                raise NotABimoduleMapError(f"f(a.m) != a.f(m) at (a{i}, m{j})")
            if f(multiply(ring, ra, m, a)) != alg.lmul(f(m), a):
                raise NotABimoduleMapError(f"f(m.a) != f(m).a at (m{j}, a{i})")

    left, right = {}, {}
    for i, mi in enumerate(basis_m):
        for j, mj in enumerate(basis_m):
            left[(i, j)] = multiply(ring, ra, mi, f(mj))
            right[(i, j)] = multiply(ring, la, f(mi), mj)

    built = _build(ring, mod_parity, left, right, None,
                   name or f"bimodule({alg.name})")

    def is_bar_unit(e):
        return all(built.lmul(m, e) == m and built.rmul(e, m) == m for m in basis_m)

    if not alg.is_unital:
        return built
    bar = None
    unit = list(alg.bar_unit)
    for j, mj in enumerate(basis_m):
        if mod_parity[j] == 0 and f(mj) == unit and is_bar_unit(mj):
            bar = mj
            break
    if bar is None:
        sol = solve_linear(fm, unit)
        if sol is not None and all(mod_parity[i] == 0 for i, _ in sol) and is_bar_unit(sol):
            bar = sol
    if bar is None:
        return built
    return _build(ring, mod_parity, left, right, bar,
                  name or f"bimodule({alg.name})")


def tensor_product(d1: SuperDialgebra, d2: SuperDialgebra) -> SuperDialgebra:
    """(a (x) a') o (b (x) b') = (-1)^{|a'||b|} (a o b) (x) (a' o b')."""
    if d1.ring != d2.ring:
        raise ValueError("tensor factors over different rings")
    ring = d1.ring
    n1, n2 = d1.dim, d2.dim

    def idx(i1, i2):
        return i1 * n2 + i2

    parity = [
        (d1.parity(i1) + d2.parity(i2)) % 2
        for i1 in range(n1) for i2 in range(n2)
    ]
    labels = [
        f"{d1.module.label(i1)}(x){d2.module.label(i2)}"
        for i1 in range(n1) for i2 in range(n2)
    ]

    def build(table1, table2):
        out = {}
        for (i1, j1), terms1 in table1.items():
            for (i2, j2), terms2 in table2.items():
                sign = -ring.one if (d1.parity(j1) * d2.parity(i2)) % 2 else ring.one
                pair = (idx(i1, i2), idx(j1, j2))
                acc = out.setdefault(pair, [])
                for k1, c1 in terms1:
                    for k2, c2 in terms2:
                        acc.append((idx(k1, k2), sign * c1 * c2))
        return out

    bar = None
    if d1.is_unital and d2.is_unital:
        bar = [(idx(i1, i2), c1 * c2) for i1, c1 in d1.bar_unit for i2, c2 in d2.bar_unit]
    return _build(
        ring, parity, build(d1.left, d2.left), build(d1.right, d2.right),
        bar, f"{d1.name}(x){d2.name}", labels,
    )


def matrix_dialgebra(k: int, d: SuperDialgebra) -> SuperDialgebra:
    """k x k matrices over d: (a o b)_pq = sum_r a_pr o b_rq.

    Basis E_pq(e_b); the parity of E_pq(e_b) is |e_b| here (rows and columns
    carry no grading at this stage; the matrix Leibniz algebras regrade).
    """
    ring = d.ring
    nd = d.dim

    def idx(p, q, b):
        return (p * k + q) * nd + b

    parity = []
    labels = []
    for p in range(k):
        for q in range(k):
            for b in range(nd):
                parity.append(d.parity(b))
                labels.append(f"E[{p + 1},{q + 1}]({d.module.label(b)})")

    def build(table):
        out = {}
        for (b1, b2), terms in table.items():
            for p in range(k):
                for q in range(k):
                    for s in range(k):
                        pair = (idx(p, q, b1), idx(q, s, b2))
                        acc = out.setdefault(pair, [])
                        for b3, c in terms:
                            acc.append((idx(p, s, b3), c))
        return out

    bar = None
    if d.is_unital:
        bar = [(idx(p, p, b), c) for p in range(k) for b, c in d.bar_unit]
    return _build(ring, parity, build(d.left), build(d.right), bar,
                  f"mat{k}({d.name})", labels)


# ---------------------------------------------------------------------------
# bracket span, bracket ideal and the quotients D_m
# ---------------------------------------------------------------------------


def bracket_table(d: SuperDialgebra) -> dict:
    """Structure constants of the bracket on D's basis: {(i, j): [e_i, e_j]}
    for the nonzero brackets, in (i, j) order, with
    [e_i, e_j] = e_i <| e_j - (-1)^{|i||j|} e_j |> e_i read off left[(i, j)]
    and right[(j, i)]."""
    table = {}
    for i in range(d.dim):
        for j in range(d.dim):
            left, right = d.left.get((i, j), ()), d.right.get((j, i), ())
            sign = -1 if d.parity(i) * d.parity(j) else 1
            if (left or right) and (terms := combine(d.ring, [(1, left), (-sign, right)])):
                table[(i, j)] = terms
    return table


def bracket_span(d: SuperDialgebra) -> SparseMat:
    """R-span of all brackets a <| b - (-1)^{|a||b|} b |> a on basis pairs."""
    return Echelon(d.ring, d.dim).extend(bracket_table(d).values()).basis_matrix()


def _ideal_closure(d: SuperDialgebra, generators) -> Echelon:
    """Smallest submodule containing the generators and closed under left and
    right multiplication by basis vectors, via both products.  Chains of
    submodules of a finite-rank module stabilise within rank steps."""
    ech = Echelon(d.ring, d.dim)
    fresh = [g for g in generators if (v := ech.vector(g)) and ech.insert(v)]
    basis = [d.basis_vector(i) for i in range(d.dim)]
    rounds = 0
    while fresh and rounds <= d.dim:
        rounds += 1
        new_fresh = []
        for x in fresh:
            for e in basis:
                for prod in (d.lmul(x, e), d.lmul(e, x), d.rmul(x, e), d.rmul(e, x)):
                    if prod and ech.insert(ech.vector(prod)):
                        new_fresh.append(prod)
        fresh = new_fresh
    if fresh:
        raise RuntimeError("ideal closure failed to stabilise within rank steps")
    return ech


def bracket_ideal(d: SuperDialgebra) -> SparseMat:
    """Basis of the two-sided ideal generated by all brackets.

    For a unital dialgebra this ideal equals the span of [D, D] <| D, which
    is asserted as a consistency check.
    """
    if not d.is_unital:
        raise InvalidInputError("bracket_ideal needs a unital dialgebra")
    gens = list(bracket_table(d).values())
    ech = _ideal_closure(d, gens)
    alt = Echelon(d.ring, d.dim).extend(
        d.lmul(g, d.basis_vector(k)) for g in gens for k in range(d.dim)
    )
    if not ech.same_span(alt):
        raise RuntimeError(
            "bracket ideal differs from the span of [D,D] <| D; "
            "the dialgebra violates the expected unital identity"
        )
    return ech.basis_matrix()


@dataclass(frozen=True)
class QuotientModule:
    """D / I as a graded module: invariants plus the ideal that was divided
    out, with its echelon for canonical residues (read-only: the residues of
    D / I are taken against it, so nothing may be inserted into it)."""

    source: SuperDialgebra
    ideal: SparseMat
    invariants: GradedModuleInvariants
    echelon: Echelon = field(compare=False, repr=False)

    def annihilated_by(self, m: int) -> bool:
        """True when multiplying any quotient generator by m lands in the ideal."""
        ech = self.echelon
        return all(ech.contains(ech.vector([(i, m)])) for i in range(self.source.dim))


def quotient_Dm(d: SuperDialgebra, m: int) -> QuotientModule:
    """D_m = D / (ideal generated by m*a and all brackets); computed once
    per dialgebra and modulus, and memoised on d."""
    if not d.is_unital:
        raise InvalidInputError("quotient_Dm needs a unital dialgebra")
    if m not in d._quotients:
        ring = d.ring
        table = bracket_table(d)
        gens = []
        for i in range(d.dim):
            gens.append([(i, ring.normalize(m))])
            gens.extend(table.get((i, j), []) for j in range(d.dim))
        ech = _ideal_closure(d, gens)
        ideal = ech.basis_matrix()
        inv = subquotient_invariants(SparseMat.identity(ring, d.dim), ideal, d.module.parity)
        d._quotients[m] = QuotientModule(d, ideal, inv, ech)
    return d._quotients[m]


# ---------------------------------------------------------------------------
# built-in catalog
# ---------------------------------------------------------------------------


def _one_dim(ring, name):
    return from_algebra(ring, (0,), {(0, 0): [(0, ring.one)]}, (ring.one,), name)


def _dual_numbers(ring):
    # basis 1, eps with eps^2 = 0, all even
    prod = {
        (0, 0): [(0, 1)],
        (0, 1): [(1, 1)],
        (1, 0): [(1, 1)],
    }
    d = from_algebra(ring, (0, 0), prod, (1, 0), "dual_numbers")
    return SuperDialgebra(d.ring, GradedFreeModule(2, (0, 0), ("1", "eps")),
                          d.left, d.right, d.bar_unit, d.name)


def _grassmann(ring):
    # basis 1 (even), x (odd) with x^2 = 0
    prod = {
        (0, 0): [(0, 1)],
        (0, 1): [(1, 1)],
        (1, 0): [(1, 1)],
    }
    d = from_algebra(ring, (0, 1), prod, (1, 0), "grassmann")
    return SuperDialgebra(d.ring, GradedFreeModule(2, (0, 1), ("1", "x")),
                          d.left, d.right, d.bar_unit, d.name)


def _mat2(ring):
    # basis E11, E12, E21, E22, all even
    def e(i, j):
        return 2 * i + j

    prod = {}
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    if j == k:
                        prod[(e(i, j), e(k, l))] = [(e(i, l), 1)]
    d = from_algebra(ring, (0, 0, 0, 0), prod, (1, 0, 0, 1), "mat2")
    labels = ("E11", "E12", "E21", "E22")
    return SuperDialgebra(d.ring, GradedFreeModule(4, (0, 0, 0, 0), labels),
                          d.left, d.right, d.bar_unit, d.name)


def _bar_duplex(ring):
    # M = R^2 over A = R with f(a, b) = a + b; two distinct bar-units exist
    alg = _one_dim(ring, "base")
    la = {(0, 0): [(0, 1)], (0, 1): [(1, 1)]}
    ra = {(0, 0): [(0, 1)], (1, 0): [(1, 1)]}
    fmat = [[1, 1]]
    d = from_bimodule_map(alg, la, ra, fmat, (0, 0), "bar_duplex")
    return SuperDialgebra(d.ring, GradedFreeModule(2, (0, 0), ("u0", "u1")),
                          d.left, d.right, d.bar_unit, d.name)


def _t3_dga(ring):
    # Q[t]/(t^3) with the derivation d(t) = t^2
    prod = {
        (0, 0): [(0, 1)], (0, 1): [(1, 1)], (0, 2): [(2, 1)],
        (1, 0): [(1, 1)], (1, 1): [(2, 1)],
        (2, 0): [(2, 1)],
    }
    alg = from_algebra(ring, (0, 0, 0), prod, (1, 0, 0), "t3")
    dmat = [[0, 0, 0], [0, 0, 0], [0, 1, 0]]
    return from_dga(alg, dmat, "t3_dga")


def _zero_dga(ring):
    return from_dga(_dual_numbers(ring), [[0, 0], [0, 0]], "dual_dga_zero")


_CATALOG = {
    "rationals": lambda: _one_dim(RingSpec("rationals"), "rationals"),
    "integers": lambda: _one_dim(RingSpec("integers"), "integers"),
    "f2": lambda: _one_dim(RingSpec("int_mod", 2), "f2"),
    "f3": lambda: _one_dim(RingSpec("int_mod", 3), "f3"),
    "dual_numbers_q": lambda: _dual_numbers(RingSpec("rationals")),
    "grassmann_q": lambda: _grassmann(RingSpec("rationals")),
    "mat2_q": lambda: _mat2(RingSpec("rationals")),
    "bar_duplex_q": lambda: _bar_duplex(RingSpec("rationals")),
    "bar_duplex_f2": lambda: _bar_duplex(RingSpec("int_mod", 2)),
    # non-unital, kept for axiom and identity property tests only
    "t3_dga_q": lambda: _t3_dga(RingSpec("rationals")),
    "dual_dga_zero_q": lambda: _zero_dga(RingSpec("rationals")),
}


def catalog_names(unital_only=False) -> list:
    names = []
    for name in _CATALOG:
        if unital_only and builtin_dialgebra(name).bar_unit is None:
            continue
        names.append(name)
    return names


def catalog_entries() -> list:
    out = []
    for name in _CATALOG:
        d = builtin_dialgebra(name)
        out.append({
            "name": name,
            "ring": d.ring.describe(),
            "dim": d.dim,
            "odd_dim": sum(d.module.parity),
            "unital": d.is_unital,
        })
    return out


def builtin_dialgebra(name: str) -> SuperDialgebra:
    try:
        return _CATALOG[name]()
    except KeyError:
        raise KeyError(
            f"unknown builtin {name!r}; available: {', '.join(_CATALOG)}"
        ) from None


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------
#
# {"ring": {"kind": "integers" | "rationals" | "int_mod", "modulus": k?},
#  "dim": n, "parity": [0|1, ...],
#  "left":  [[i, j, k, "coeff"], ...],
#  "right": [[i, j, k, "coeff"], ...],
#  "bar_unit": ["coeff", ...],        # optional; omit for non-unital
#  "name": "..."}                      # optional
#
# Indices are 0-based, coefficients decimal or "p/q" strings, omitted triples
# are zero.


def _fail(loc, msg):
    raise DialgebraFormatError(f"{loc}: {msg}")


def _is_int(v) -> bool:
    """A JSON integer: true and 1.0 compare equal to 1 but are not one."""
    return isinstance(v, int) and not isinstance(v, bool)


def load_dialgebra(data: dict, source="<dict>") -> SuperDialgebra:
    if not isinstance(data, dict):
        _fail(source, "top level must be a JSON object")
    ring_obj = data.get("ring")
    if not isinstance(ring_obj, dict) or "kind" not in ring_obj:
        _fail(f"{source}:ring", "expected an object with a 'kind' field")
    kind = ring_obj["kind"]
    try:
        ring = RingSpec(kind, ring_obj.get("modulus"))
    except ValueError as e:
        _fail(f"{source}:ring", str(e))
    dim = data.get("dim")
    if not _is_int(dim) or dim < 0:
        _fail(f"{source}:dim", "expected a non-negative integer")
    parity = data.get("parity")
    if (
        not isinstance(parity, list)
        or len(parity) != dim
        or any(not _is_int(p) or p not in (0, 1) for p in parity)
    ):
        _fail(f"{source}:parity", f"expected a list of {dim} values in {{0, 1}}")

    def read_table(key):
        raw = data.get(key, [])
        if not isinstance(raw, list):
            _fail(f"{source}:{key}", "expected a list of [i, j, k, coeff] rows")
        table = {}
        for row_no, row in enumerate(raw):
            loc = f"{source}:{key}[{row_no}]"
            if not (isinstance(row, list) and len(row) == 4):
                _fail(loc, "expected [i, j, k, coeff]")
            i, j, k, coeff = row
            for v in (i, j, k):
                if not _is_int(v) or not 0 <= v < dim:
                    _fail(loc, f"index {v!r} is not an integer in 0..{dim - 1}")
            try:
                c = ring.parse(str(coeff))
            except (ValueError, ZeroDivisionError) as e:
                _fail(loc, f"bad coefficient {coeff!r}: {e}")
            table.setdefault((i, j), []).append((k, c))
        return table

    left = read_table("left")
    right = read_table("right")
    bar = data.get("bar_unit")
    bar_vec = None
    if bar is not None:
        if not isinstance(bar, list) or len(bar) != dim:
            _fail(f"{source}:bar_unit", f"expected a list of {dim} coefficients")
        try:
            bar_vec = _dense_pairs(ring, [ring.parse(str(c)) for c in bar])
        except (ValueError, ZeroDivisionError) as e:
            _fail(f"{source}:bar_unit", str(e))
    name = data.get("name", "loaded")
    if not isinstance(name, str):
        _fail(f"{source}:name", "expected a string")
    return _build(ring, parity, left, right, bar_vec, name)


def load_dialgebra_file(path) -> SuperDialgebra:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as e:
        raise DialgebraFormatError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from None
    except OSError as e:
        raise DialgebraFormatError(f"{path}: {e.strerror}") from None
    except (ValueError, RecursionError) as e:
        # bytes that are not UTF-8, an integer literal over Python's digit
        # limit, or arrays nested deeper than the recursion limit
        raise DialgebraFormatError(f"{path}: {e}") from None
    return load_dialgebra(data, source=str(path))


def dump_dialgebra(d: SuperDialgebra) -> dict:
    ring_obj = {"kind": d.ring.kind}
    if d.ring.modulus is not None:
        ring_obj["modulus"] = d.ring.modulus
    out = {
        "ring": ring_obj,
        "dim": d.dim,
        "parity": list(d.module.parity),
        "left": [
            [i, j, k, d.ring.fmt(c)]
            for (i, j), terms in sorted(d.left.items())
            for k, c in terms
        ],
        "right": [
            [i, j, k, d.ring.fmt(c)]
            for (i, j), terms in sorted(d.right.items())
            for k, c in terms
        ],
        "name": d.name,
    }
    if d.bar_unit is not None:
        bar = ["0"] * d.dim
        for i, c in d.bar_unit:
            bar[i] = d.ring.fmt(c)
        out["bar_unit"] = bar
    return out
