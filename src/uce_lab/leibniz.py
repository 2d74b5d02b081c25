"""Leibniz superalgebras by structure constants, and the matrix Leibniz
superalgebras gl(m, n, D) and sl(m, n, D) over a unital superdialgebra.

The bracket of gl(m, n, D) on matrix units is
[E_ij(a), E_kl(b)] = d_jk E_il(a <| b) - (-1)^{|E_ij(a)||E_kl(b)|} d_il E_kj(b |> a)
with |E_ij(a)| = |i| + |j| + |a|, |i| = 0 for i <= m and 1 for i > m.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .exactlin import (
    Echelon,
    GradedFreeModule,
    RingSpec,
    SparseMat,
    SpanSolver,
    kernel_basis,
)
from .superdialg import SuperDialgebra, matrix_dialgebra, bracket_span

__all__ = [
    "LeibnizSuperalgebra",
    "from_dialgebra",
    "GeneralLinear",
    "SpecialLinear",
    "gl",
    "sl",
    "centre",
    "is_perfect",
]


@dataclass(frozen=True)
class LeibnizSuperalgebra:
    """Bracket structure constants on a graded basis: table[(i, j)] expands
    [e_i, e_j] as [(k, coeff), ...]; missing pairs are zero."""

    ring: RingSpec
    module: GradedFreeModule
    table: dict
    name: str = "leibniz"

    @property
    def dim(self) -> int:
        return self.module.rank

    def parity(self, i: int) -> int:
        return self.module.parity[i]

    def basis_vector(self, i: int):
        v = [self.ring.zero] * self.dim
        v[i] = self.ring.one
        return v

    def bracket(self, a, b):
        """[a, b] on dense coordinate vectors (bilinear extension)."""
        ring = self.ring
        out = [ring.zero] * self.dim
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                if cb == 0:
                    continue
                for k, c in self.table.get((i, j), ()):
                    out[k] = out[k] + ca * cb * c
        return [ring.normalize(x) for x in out]

    def bracket_basis(self, i: int, j: int):
        out = [self.ring.zero] * self.dim
        for k, c in self.table.get((i, j), ()):
            out[k] = c
        return out

    def leibniz_violations(self, max_exhaustive=40, samples=10_000, seed=0):
        """Triples violating [x,[y,z]] = [[x,y],z] - (-1)^{|y||z|}[[x,z],y].

        Exhaustive up to max_exhaustive basis vectors, randomized above.
        Returns at most one witness (empty list = identity holds).
        """
        ring = self.ring
        n = self.dim
        if n <= max_exhaustive:
            triples = (
                (i, j, k) for i in range(n) for j in range(n) for k in range(n)
            )
        else:
            rng = random.Random(seed)
            triples = (
                (rng.randrange(n), rng.randrange(n), rng.randrange(n))
                for _ in range(samples)
            )
        for i, j, k in triples:
            x = self.basis_vector(i)
            lhs = self.bracket(x, self.bracket_basis(j, k))
            xy_z = self.bracket(self.bracket_basis(i, j), self.basis_vector(k))
            xz_y = self.bracket(self.bracket_basis(i, k), self.basis_vector(j))
            sign = -ring.one if (self.parity(j) * self.parity(k)) % 2 else ring.one
            rhs = [ring.normalize(p - sign * q) for p, q in zip(xy_z, xz_y)]
            if lhs != rhs:
                return [(i, j, k)]
        return []

    def parity_violations(self):
        bad = []
        for (i, j), terms in self.table.items():
            target = (self.parity(i) + self.parity(j)) % 2
            if any(self.parity(k) != target for k, _ in terms):
                bad.append((i, j))
        return bad

    def __repr__(self):
        return f"LeibnizSuperalgebra({self.name!r}, dim={self.dim}, {self.ring.describe()})"


def from_dialgebra(d: SuperDialgebra, name=None) -> LeibnizSuperalgebra:
    """[a, b] = a <| b - (-1)^{|a||b|} b |> a on the dialgebra's basis."""
    table = {}
    for i in range(d.dim):
        for j in range(d.dim):
            v = d.bracket(d.basis_vector(i), d.parity(i),
                          d.basis_vector(j), d.parity(j))
            terms = [(k, c) for k, c in enumerate(v) if c != 0]
            if terms:
                table[(i, j)] = terms
    return LeibnizSuperalgebra(d.ring, d.module, table,
                               name or f"leibniz({d.name})")


# ---------------------------------------------------------------------------
# matrix Leibniz superalgebras
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GeneralLinear:
    """gl(m, n, D): (m+n) x (m+n) matrices over D with the super grading."""

    m: int
    n: int
    dlg: SuperDialgebra
    algebra: LeibnizSuperalgebra

    @property
    def size(self) -> int:
        return self.m + self.n

    def row_parity(self, i: int) -> int:
        """|i| for 1-based i."""
        return 0 if i <= self.m else 1

    def unit_index(self, i: int, j: int, b: int) -> int:
        """Basis position of E_ij(e_b), i and j 1-based."""
        k = self.size
        return ((i - 1) * k + (j - 1)) * self.dlg.dim + b

    def unit_vector(self, i: int, j: int, dvec):
        """E_ij(x) for x given as a dense D-coordinate vector."""
        v = [self.algebra.ring.zero] * self.algebra.dim
        for b, c in enumerate(dvec):
            if c != 0:
                v[self.unit_index(i, j, b)] = c
        return v

    def supertrace(self, xvec):
        """Str(x) = sum_i (-1)^{|i|(|i| + |x_ii|)} x_ii, a D element."""
        return self.supertrace_matrix().apply(xvec)

    def supertrace_matrix(self) -> SparseMat:
        ent = {}
        ring = self.dlg.ring
        for i in range(1, self.size + 1):
            for b in range(self.dlg.dim):
                if self.row_parity(i) and self.dlg.parity(b) == 0:
                    ent[(b, self.unit_index(i, i, b))] = -ring.one
                else:
                    ent[(b, self.unit_index(i, i, b))] = ring.one
        return SparseMat(ring, self.dlg.dim, self.algebra.dim, ent)


def gl(m: int, n: int, d: SuperDialgebra) -> GeneralLinear:
    """General Leibniz superalgebra of (m+n) x (m+n) matrices over d."""
    if m + n < 1:
        raise ValueError("need m + n >= 1")
    if not d.is_unital:
        raise ValueError("gl needs a unital superdialgebra")
    k = m + n
    md = matrix_dialgebra(k, d)
    parity = []
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            for b in range(d.dim):
                ri = 0 if i <= m else 1
                rj = 0 if j <= m else 1
                parity.append((ri + rj + d.parity(b)) % 2)
    graded = md.regrade(parity, name=f"mat{k}({d.name})[{m}|{n}]")
    alg = from_dialgebra(graded, name=f"gl({m},{n},{d.name})")
    return GeneralLinear(m, n, d, alg)


@dataclass(frozen=True, eq=False)
class SpecialLinear:
    """sl(m, n, D) = [gl, gl], with its inclusion into gl.

    The inclusion columns are an echelon basis of the bracket span; the
    solver converts gl coordinate vectors that lie in sl into sl coordinates.
    """

    gl: GeneralLinear
    algebra: LeibnizSuperalgebra
    inclusion: SparseMat
    solver: SpanSolver

    def embed(self, slvec):
        """gl coordinates of an element given in sl coordinates."""
        return self.inclusion.apply(slvec)

    def coords_of_unit(self, i: int, j: int, dvec):
        """sl coordinates of E_ij(x); raises if the element is not in sl."""
        x = self.solver.solve(self.gl.unit_vector(i, j, dvec))
        if x is None:
            raise ValueError(f"E[{i},{j}](...) does not lie in sl")
        return x


def _bracket_span_echelon(l: LeibnizSuperalgebra) -> Echelon:
    ech = Echelon(l.ring, l.dim)
    for i in range(l.dim):
        for j in range(l.dim):
            v = l.bracket_basis(i, j)
            if any(x != 0 for x in v):
                ech.insert(ech.vector(v))
    return ech


def sl(m: int, n: int, d: SuperDialgebra, cross_check: bool = True) -> SpecialLinear:
    """Special linear Leibniz superalgebra: the bracket span of gl(m, n, d).

    With cross_check the span is verified to equal
    {x : Str(x) in span of dialgebra brackets} as submodules.
    """
    if m + n < 2:
        raise ValueError("need m + n >= 2")
    g = gl(m, n, d)
    ech = _bracket_span_echelon(g.algebra)
    incl = ech.basis_matrix()

    if cross_check:
        _check_supertrace_characterization(g, ech)

    sub_parity = []
    cols = incl.columns()
    for j in range(incl.cols):
        pars = {g.algebra.parity(i) for i, _ in cols[j]}
        if len(pars) != 1:
            raise RuntimeError("bracket span produced a parity-mixed generator")
        sub_parity.append(pars.pop())

    solver = SpanSolver(incl)
    table = {}
    embedded = [incl.column_dense(j) for j in range(incl.cols)]
    for a in range(incl.cols):
        for b in range(incl.cols):
            v = g.algebra.bracket(embedded[a], embedded[b])
            if all(x == 0 for x in v):
                continue
            coords = solver.solve(v)
            if coords is None:
                raise RuntimeError("sl is not closed under the bracket")
            terms = [(k, c) for k, c in enumerate(coords) if c != 0]
            if terms:
                table[(a, b)] = terms
    mod = GradedFreeModule(incl.cols, tuple(sub_parity))
    alg = LeibnizSuperalgebra(g.algebra.ring, mod, table,
                              name=f"sl({m},{n},{d.name})")
    return SpecialLinear(g, alg, incl, solver)


def _check_supertrace_characterization(g: GeneralLinear, span_ech: Echelon):
    """sl = {x : Str(x) in span[D, D]} checked as equality of submodules."""
    ring = g.algebra.ring
    str_mat = g.supertrace_matrix()
    dd = bracket_span(g.dlg)
    # {x : S x in lattice L} is the x-projection of ker [S | L]
    ent = dict(str_mat.entries)
    for (i, j), v in dd.entries.items():
        ent[(i, str_mat.cols + j)] = v
    block = SparseMat(ring, str_mat.rows, str_mat.cols + dd.cols, ent)
    ker = kernel_basis(block)
    char_ech = Echelon(ring, g.algebra.dim)
    kcols = ker.columns()
    for j in range(ker.cols):
        v = [ring.zero] * g.algebra.dim
        for i, c in kcols[j]:
            if i < g.algebra.dim:
                v[i] = c
        if any(x != 0 for x in v):
            char_ech.insert(char_ech.vector(v))
    ok = char_ech.rank == span_ech.rank
    if ok:
        mat = span_ech.basis_matrix()
        cols = mat.columns()
        ok = all(
            char_ech.contains(char_ech.vector(cols[j])) for j in range(mat.cols)
        )
        mat = char_ech.basis_matrix()
        cols = mat.columns()
        ok = ok and all(
            span_ech.contains(span_ech.vector(cols[j])) for j in range(mat.cols)
        )
    if not ok:
        raise RuntimeError(
            "[gl, gl] differs from the supertrace characterization of sl"
        )


def centre(l: LeibnizSuperalgebra) -> SparseMat:
    """Basis of {z : [z, x] = [x, z] = 0 for all x}, as a joint kernel."""
    n = l.dim
    ent = {}
    for (i, j), terms in l.table.items():
        # z on the left: contribution of z_i to [z, e_j]
        for k, c in terms:
            key = (j * n + k, i)
            ent[key] = ent.get(key, 0) + c
        # z on the right: contribution of z_j to [e_i, z]
        for k, c in terms:
            key = (n * n + i * n + k, j)
            ent[key] = ent.get(key, 0) + c
    m = SparseMat(l.ring, 2 * n * n, n, ent)
    return kernel_basis(m)


def is_perfect(l: LeibnizSuperalgebra) -> bool:
    """True iff the bracket span has full rank."""
    return _bracket_span_echelon(l).rank == l.dim
