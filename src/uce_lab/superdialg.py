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


def _table_normalize(ring, dim, table):
    out = {}
    for (i, j), terms in table.items():
        clean = []
        acc = {}
        for k, c in terms:
            acc[k] = acc.get(k, ring.zero) + ring.normalize(c)
        for k in sorted(acc):
            c = ring.normalize(acc[k])
            if c != 0:
                clean.append((k, c))
        if clean:
            out[(i, j)] = clean
    return out


@dataclass(frozen=True)
class SuperDialgebra:
    """Structure constants of the two products on a chosen graded basis.

    ``left[(i, j)]`` expands e_i <| e_j in the basis as [(k, coeff), ...];
    ``right`` does the same for |>.  Missing pairs are zero.  ``bar_unit`` is
    a coordinate vector, or None for a non-unital structure (such dialgebras
    are kept for axiom and identity testing only).
    """

    ring: RingSpec
    module: GradedFreeModule
    left: dict
    right: dict
    bar_unit: tuple | None = None
    name: str = "dialgebra"

    @property
    def dim(self) -> int:
        return self.module.rank

    @property
    def is_unital(self) -> bool:
        return self.bar_unit is not None

    def parity(self, i: int) -> int:
        return self.module.parity[i]

    def basis_vector(self, i: int):
        v = [self.ring.zero] * self.dim
        v[i] = self.ring.one
        return v

    def _mul(self, table, a, b):
        ring = self.ring
        out = [ring.zero] * self.dim
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                if cb == 0:
                    continue
                for k, c in table.get((i, j), ()):
                    out[k] = out[k] + ca * cb * c
        return [ring.normalize(x) for x in out]

    def lmul(self, a, b):
        """a <| b on dense coordinate vectors."""
        return self._mul(self.left, a, b)

    def rmul(self, a, b):
        """a |> b on dense coordinate vectors."""
        return self._mul(self.right, a, b)

    def bracket(self, a, pa, b, pb):
        """[a, b] = a <| b - (-1)^{|a||b|} b |> a for homogeneous a, b."""
        ring = self.ring
        sign = -ring.one if (pa * pb) % 2 else ring.one
        lm = self.lmul(a, b)
        rm = self.rmul(b, a)
        return [ring.normalize(x - sign * y) for x, y in zip(lm, rm)]

    def element_parity(self, a):
        pars = {self.parity(i) for i, c in enumerate(a) if c != 0}
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
        e = tuple(self.ring.normalize(x) for x in e)
        d = SuperDialgebra(self.ring, self.module, self.left, self.right, e, self.name)
        bad = [v for v in validate(d) if "bar-unit" in v]
        if bad:
            raise InvalidInputError("; ".join(bad))
        return d

    def __repr__(self):
        u = "unital" if self.is_unital else "non-unital"
        return f"SuperDialgebra({self.name!r}, dim={self.dim}, {self.ring.describe()}, {u})"


def _build(ring, parity, left, right, bar_unit, name, labels=None):
    dim = len(parity)
    mod = GradedFreeModule(dim, tuple(parity), tuple(labels) if labels else None)
    bu = tuple(ring.normalize(x) for x in bar_unit) if bar_unit is not None else None
    return SuperDialgebra(
        ring, mod,
        _table_normalize(ring, dim, left),
        _table_normalize(ring, dim, right),
        bu, name,
    )


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def validate(d: SuperDialgebra) -> list:
    """Check every axiom on every basis pair/triple; violations are returned
    as strings (empty list = valid), never raised."""
    ring = d.ring
    dim = d.dim
    issues = []
    seen = set()

    def note(kind, where):
        if kind not in seen:
            seen.add(kind)
            issues.append(f"{kind} fails first at {where}")

    basis = [d.basis_vector(i) for i in range(dim)]

    for i in range(dim):
        for j in range(dim):
            target = (d.parity(i) + d.parity(j)) % 2
            for table, op in ((d.left, "left-product"), (d.right, "right-product")):
                for k, c in table.get((i, j), ()):
                    if d.parity(k) != target:
                        note(f"parity-additivity of {op}", f"(e{i}, e{j})")

    for i in range(dim):
        a = basis[i]
        for j in range(dim):
            b = basis[j]
            ab_l = d.lmul(a, b)
            ab_r = d.rmul(a, b)
            for k in range(dim):
                c = basis[k]
                bc_l = d.lmul(b, c)
                bc_r = d.rmul(b, c)
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
        e = list(d.bar_unit)
        try:
            if d.element_parity(e) != 0:
                issues.append("bar-unit parity: the bar-unit must be even")
        except ValueError:
            issues.append("bar-unit parity: the bar-unit must be even")
        for i in range(dim):
            a = basis[i]
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
    multiplication, bar-unit = unit."""
    d = _build(ring, parity, product, product, unit, name)
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

    def apply_d(v):
        out = [ring.zero] * dim
        for j, c in enumerate(v):
            if c == 0:
                continue
            for i in range(dim):
                out[i] = out[i] + c * dmat[i][j]
        return [ring.normalize(x) for x in out]

    for j in range(dim):
        col = apply_d(alg.basis_vector(j))
        par = {alg.parity(i) for i, c in enumerate(col) if c != 0}
        if par - {alg.parity(j)}:
            raise NotADifferentialError("d is not parity preserving")
        if any(x != 0 for x in apply_d(col)):
            raise NotADifferentialError("d^2 != 0")
    for i in range(dim):
        a = alg.basis_vector(i)
        da = apply_d(a)
        for j in range(dim):
            b = alg.basis_vector(j)
            lhs = apply_d(alg.lmul(a, b))
            rhs = [
                ring.normalize(x + y)
                for x, y in zip(alg.lmul(da, b), alg.lmul(a, apply_d(b)))
            ]
            if lhs != rhs:
                raise NotADifferentialError(f"Leibniz rule fails at (e{i}, e{j})")

    left = {}
    right = {}
    for i in range(dim):
        for j in range(dim):
            dj = apply_d(alg.basis_vector(j))
            di = apply_d(alg.basis_vector(i))
            lvec = alg.lmul(alg.basis_vector(i), dj)
            rvec = alg.lmul(di, alg.basis_vector(j))
            lt = [(k, c) for k, c in enumerate(lvec) if c != 0]
            rt = [(k, c) for k, c in enumerate(rvec) if c != 0]
            if lt:
                left[(i, j)] = lt
            if rt:
                right[(i, j)] = rt
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
    non-basis solution, else the result is flagged non-unital).
    """
    ring = alg.ring
    dim_a = alg.dim
    dim_m = len(mod_parity)
    la = _table_normalize(ring, dim_m, left_action)
    ra = _table_normalize(ring, dim_m, right_action)

    def act_left(avec, mvec):
        out = [ring.zero] * dim_m
        for i, ca in enumerate(avec):
            if ca == 0:
                continue
            for j, cm in enumerate(mvec):
                if cm == 0:
                    continue
                for k, c in la.get((i, j), ()):
                    out[k] = out[k] + ca * cm * c
        return [ring.normalize(x) for x in out]

    def act_right(mvec, avec):
        out = [ring.zero] * dim_m
        for i, cm in enumerate(mvec):
            if cm == 0:
                continue
            for j, ca in enumerate(avec):
                if ca == 0:
                    continue
                for k, c in ra.get((i, j), ()):
                    out[k] = out[k] + cm * ca * c
        return [ring.normalize(x) for x in out]

    def f(mvec):
        out = [ring.zero] * dim_a
        for j, cm in enumerate(mvec):
            if cm == 0:
                continue
            for i in range(dim_a):
                out[i] = out[i] + cm * fmat[i][j]
        return [ring.normalize(x) for x in out]

    for i in range(dim_a):
        a = alg.basis_vector(i)
        for j in range(dim_m):
            m = [ring.zero] * dim_m
            m[j] = ring.one
            if f(act_left(a, m)) != alg.lmul(a, f(m)):
                raise NotABimoduleMapError(f"f(a.m) != a.f(m) at (a{i}, m{j})")
            if f(act_right(m, a)) != alg.lmul(f(m), a):
                raise NotABimoduleMapError(f"f(m.a) != f(m).a at (m{j}, a{i})")

    left = {}
    right = {}
    for i in range(dim_m):
        mi = [ring.zero] * dim_m
        mi[i] = ring.one
        for j in range(dim_m):
            mj = [ring.zero] * dim_m
            mj[j] = ring.one
            lvec = act_right(mi, f(mj))
            rvec = act_left(f(mi), mj)
            lt = [(k, c) for k, c in enumerate(lvec) if c != 0]
            rt = [(k, c) for k, c in enumerate(rvec) if c != 0]
            if lt:
                left[(i, j)] = lt
            if rt:
                right[(i, j)] = rt

    built = _build(ring, mod_parity, left, right, None,
                   name or f"bimodule({alg.name})")

    def is_bar_unit(e):
        return all(
            built.lmul(built.basis_vector(i), e) == built.basis_vector(i)
            and built.rmul(e, built.basis_vector(i)) == built.basis_vector(i)
            for i in range(dim_m)
        )

    bar = None
    unit = list(alg.bar_unit)
    for j in range(dim_m):
        if mod_parity[j] == 0:
            mj = [ring.zero] * dim_m
            mj[j] = ring.one
            if f(mj) == unit and is_bar_unit(mj):
                bar = mj
                break
    if bar is None:
        fm = SparseMat.from_dense(ring, fmat)
        sol = solve_linear(fm, unit)
        if sol is not None and all(
            c == 0 for c, p in zip(sol, mod_parity) if p == 1
        ) and is_bar_unit(sol):
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
        bar = [ring.zero] * (n1 * n2)
        for i1, c1 in enumerate(d1.bar_unit):
            for i2, c2 in enumerate(d2.bar_unit):
                bar[idx(i1, i2)] = c1 * c2
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
        bar = [ring.zero] * (k * k * nd)
        for p in range(k):
            for b, c in enumerate(d.bar_unit):
                bar[idx(p, p, b)] = c
    return _build(ring, parity, build(d.left), build(d.right), bar,
                  f"mat{k}({d.name})", labels)


# ---------------------------------------------------------------------------
# bracket span, bracket ideal and the quotients D_m
# ---------------------------------------------------------------------------


def _same_span(ring, a: Echelon, b: Echelon) -> bool:
    """Mutual containment of two echelons over the same ambient module."""
    if a.rank != b.rank:
        return False
    for src, dst in ((a, b), (b, a)):
        for mat in (src.basis_matrix(),):
            cols = mat.columns()
            for j in range(mat.cols):
                if not dst.contains(dst.vector(cols[j])):
                    return False
    return True


def bracket_span(d: SuperDialgebra) -> SparseMat:
    """R-span of all brackets a <| b - (-1)^{|a||b|} b |> a on basis pairs."""
    ech = Echelon(d.ring, d.dim)
    for i in range(d.dim):
        for j in range(d.dim):
            v = d.bracket(d.basis_vector(i), d.parity(i),
                          d.basis_vector(j), d.parity(j))
            if any(x != 0 for x in v):
                ech.insert(ech.vector(v))
    return ech.basis_matrix()


def _ideal_closure(d: SuperDialgebra, generators) -> Echelon:
    """Smallest submodule containing the generators and closed under left and
    right multiplication by basis vectors, via both products.  Chains of
    submodules of a finite-rank module stabilise within rank steps."""
    ech = Echelon(d.ring, d.dim)
    fresh = []
    for g in generators:
        if any(x != 0 for x in g) and ech.insert(ech.vector(list(g))):
            fresh.append(list(g))
    rounds = 0
    while fresh and rounds <= d.dim:
        rounds += 1
        new_fresh = []
        for x in fresh:
            for i in range(d.dim):
                e = d.basis_vector(i)
                for prod in (d.lmul(x, e), d.lmul(e, x), d.rmul(x, e), d.rmul(e, x)):
                    if any(c != 0 for c in prod) and ech.insert(ech.vector(prod)):
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
    gens = []
    for i in range(d.dim):
        for j in range(d.dim):
            gens.append(d.bracket(d.basis_vector(i), d.parity(i),
                                  d.basis_vector(j), d.parity(j)))
    ech = _ideal_closure(d, gens)

    alt = Echelon(d.ring, d.dim)
    for g in gens:
        for k in range(d.dim):
            v = d.lmul(g, d.basis_vector(k))
            if any(x != 0 for x in v):
                alt.insert(alt.vector(v))
    if not _same_span(d.ring, ech, alt):
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
        ring = self.source.ring
        for i in range(self.source.dim):
            v = [ring.zero] * self.source.dim
            v[i] = ring.normalize(m)
            if self.echelon.residue_of(v).any():
                return False
        return True


def quotient_Dm(d: SuperDialgebra, m: int) -> QuotientModule:
    """D_m = D / (ideal generated by m*a and all brackets)."""
    if not d.is_unital:
        raise InvalidInputError("quotient_Dm needs a unital dialgebra")
    ring = d.ring
    gens = []
    for i in range(d.dim):
        v = [ring.zero] * d.dim
        v[i] = ring.normalize(m)
        gens.append(v)
        for j in range(d.dim):
            gens.append(d.bracket(d.basis_vector(i), d.parity(i),
                                  d.basis_vector(j), d.parity(j)))
    ech = _ideal_closure(d, gens)
    ideal = ech.basis_matrix()
    inv = subquotient_invariants(
        SparseMat.identity(ring, d.dim), ideal, d.module.parity
    )
    return QuotientModule(d, ideal, inv, ech)


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
    if not isinstance(dim, int) or dim < 0:
        _fail(f"{source}:dim", "expected a non-negative integer")
    parity = data.get("parity")
    if (
        not isinstance(parity, list)
        or len(parity) != dim
        or any(p not in (0, 1) for p in parity)
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
                if not isinstance(v, int) or not 0 <= v < dim:
                    _fail(loc, f"index {v} outside 0..{dim - 1}")
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
            bar_vec = [ring.parse(str(c)) for c in bar]
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
        out["bar_unit"] = [d.ring.fmt(c) for c in d.bar_unit]
    return out
