"""Leibniz superalgebras by structure constants, and the matrix Leibniz
superalgebras gl(m, n, D) and sl(m, n, D) over a unital superdialgebra.

The bracket of gl(m, n, D) on matrix units is
[E_ij(a), E_kl(b)] = d_jk E_il(a <| b) - (-1)^{|E_ij(a)||E_kl(b)|} d_il E_kj(b |> a)
with |E_ij(a)| = |i| + |j| + |a|, |i| = 0 for i <= m and 1 for i > m.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import permutations, product

from .exactlin import (
    Echelon,
    GradedFreeModule,
    RingSpec,
    SparseMat,
    SpanSolver,
    column_span_echelon,
    combine,
    kernel_basis,
    multiply,
)
from .superdialg import (
    InvalidInputError,
    SuperDialgebra,
    bracket_span,
    bracket_table,
    matrix_dialgebra,
)

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
    [e_i, e_j] as [(k, coeff), ...]; missing pairs are zero.  Elements are
    vectors: (index, value) pairs, as in ``exactlin``.

    weight, when given, is one integer tuple per basis vector for which the
    bracket is additive: [e_i, e_j] only involves e_k of weight
    weight[i] + weight[j].  The boundary maps then split into blocks of equal
    total weight (chain.delta checks this exactly).  None means every basis
    vector has the empty weight, a single block per parity.
    """

    ring: RingSpec
    module: GradedFreeModule
    table: dict
    name: str = "leibniz"
    weight: tuple | None = None
    # chain.blocked_complex per degree, and [is_perfect] once known; not
    # init fields, so replace() empties them
    _complexes: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _perfect: list = field(default_factory=list, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.weight is not None and len(self.weight) != self.dim:
            raise ValueError("weight needs one entry per basis vector")

    @property
    def dim(self) -> int:
        return self.module.rank

    def parity(self, i: int) -> int:
        return self.module.parity[i]

    def basis_vector(self, i: int) -> list:
        return [(i, self.ring.one)]

    def bracket(self, a, b) -> list:
        """[a, b] from the structure constants."""
        return multiply(self.ring, self.table, a, b)

    def leibniz_violations(self):
        """Basis triples violating [x,[y,z]] = [[x,y],z] - (-1)^{|y||z|}[[x,z],y],
        all dim^3 of them, with brackets from ``multiply`` (independent of
        the boundary assembly in ``chain``).  Returns at most one witness
        (empty list = identity holds).
        """
        table = self.table
        for i, j, k in product(range(self.dim), repeat=3):
            lhs = self.bracket(self.basis_vector(i), table.get((j, k), ()))
            xy_z = self.bracket(table.get((i, j), ()), self.basis_vector(k))
            xz_y = self.bracket(table.get((i, k), ()), self.basis_vector(j))
            sign = -1 if (self.parity(j) * self.parity(k)) % 2 else 1
            if lhs != combine(self.ring, [(1, xy_z), (-sign, xz_y)]):
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
    """[e_i, e_j] = e_i <| e_j - (-1)^{|i||j|} e_j |> e_i on the dialgebra's
    basis (``superdialg.bracket_table``)."""
    return LeibnizSuperalgebra(d.ring, d.module, bracket_table(d),
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

    def unit_vector(self, i: int, j: int, dvec) -> list:
        """E_ij(x) for the D element x with the (index, value) pairs dvec."""
        return [(self.unit_index(i, j, b), c) for b, c in dvec]

    def supertrace(self, items):
        """Str(x) = sum_i (-1)^{|i|(|i| + |x_ii|)} x_ii, a D element; x and
        the result are (index, value) pairs, as for ``SparseMat.apply``."""
        return self.supertrace_matrix.apply(items)

    @cached_property
    def supertrace_matrix(self) -> SparseMat:
        """The matrix of Str, built once per gl."""
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
    """General Leibniz superalgebra of (m+n) x (m+n) matrices over d; the
    matrix unit E_ij(e_b) has the weight e_i - e_j in Z^(m+n)."""
    if m < 0 or n < 0:
        raise InvalidInputError(f"need m, n >= 0, got ({m}, {n})")
    if m + n < 1:
        raise InvalidInputError("need m + n >= 1")
    if not d.is_unital:
        raise InvalidInputError("gl needs a unital superdialgebra")
    k = m + n
    md = matrix_dialgebra(k, d)
    parity = []
    weight = []
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            w = [0] * k
            w[i - 1] += 1
            w[j - 1] -= 1
            for b in range(d.dim):
                ri = 0 if i <= m else 1
                rj = 0 if j <= m else 1
                parity.append((ri + rj + d.parity(b)) % 2)
                weight.append(tuple(w))
    graded = md.regrade(parity, name=f"mat{k}({d.name})[{m}|{n}]")
    alg = replace(from_dialgebra(graded, name=f"gl({m},{n},{d.name})"),
                  weight=tuple(weight))
    return GeneralLinear(m, n, d, alg)


@dataclass(frozen=True, eq=False)
class SpecialLinear:
    """sl(m, n, D) = [gl, gl], with its inclusion into gl.

    The inclusion columns are an echelon basis of the bracket span in which
    every unit off the diagonal is a column; sl_index maps the gl index of
    such a unit to its sl index.
    """

    gl: GeneralLinear
    algebra: LeibnizSuperalgebra
    inclusion: SparseMat
    sl_index: dict

    def embed(self, items):
        """gl coordinates of an element given in sl coordinates, both as
        (index, value) pairs, as for ``SparseMat.apply``."""
        return self.inclusion.apply(items)

    def coords_of_unit(self, i: int, j: int, dvec) -> list:
        """sl coordinates of E_ij(x) for i != j and the D element x with the
        (index, value) pairs dvec, read off sl_index."""
        if i == j:
            raise ValueError(f"E[{i},{i}](...) is diagonal, not an sl basis vector")
        at = [(self.sl_index[self.gl.unit_index(i, j, b)], c) for b, c in dvec]
        return combine(self.algebra.ring, [(1, at)])


def sl(m: int, n: int, d: SuperDialgebra) -> SpecialLinear:
    """Special linear Leibniz superalgebra: the bracket span of gl(m, n, d).

    The bracket adds weights, and [E_ij(a), E_jj(e)] = E_ij(a) for the
    bar-unit e (checked: RuntimeError), so every unit off the diagonal is a
    basis vector; only weight 0 is eliminated, from the brackets of unit
    pairs of opposite weights.  The span is verified to equal
    {x : Str(x) in span of dialgebra brackets} as submodules, and each basis
    vector to be homogeneous in parity and weight (RuntimeError).  Only the
    structure constants of weight 0 are solved; the others are read off.
    """
    if m + n < 2:
        raise InvalidInputError("need m + n >= 2")
    g = gl(m, n, d)
    ring, gl_table, gl_weight = g.algebra.ring, g.algebra.table, g.algebra.weight
    ech = Echelon(ring, g.algebra.dim)
    for i, j in permutations(range(1, g.size + 1), 2):
        e_jj = g.unit_vector(j, j, d.bar_unit)
        for b in range(d.dim):
            x = g.unit_vector(i, j, d.basis_vector(b))
            if g.algebra.bracket(x, e_jj) != x:
                raise RuntimeError(f"[E[{i},{j}](e{b}), E[{j},{j}](e)] is not "
                                   f"E[{i},{j}](e{b}): e is not a bar-unit")
            ech.insert(ech.vector(x))
    # the nonzero brackets of weight 0, of unit pairs of opposite weights
    ech.extend(terms for terms in gl_table.values() if not any(gl_weight[terms[0][0]]))
    incl = ech.basis_matrix()
    _check_supertrace_characterization(g, ech)

    cols = incl.columns()
    sub_parity, sub_weight = [], []
    for col in cols:
        for grade, out, what in ((g.algebra.module.parity, sub_parity, "parity"),
                                 (gl_weight, sub_weight, "weight")):
            seen = {grade[i] for i, _ in col}
            if len(seen) != 1:
                raise RuntimeError(f"bracket span produced a {what}-mixed generator")
            out.append(seen.pop())
    sl_index = {col[0][0]: a for a, col in enumerate(cols) if any(sub_weight[a])}
    at_zero = [a for a, w in enumerate(sub_weight) if not any(w)]
    solver = SpanSolver(incl.submatrix(range(incl.rows), at_zero))
    table = {}
    for a, col_a in enumerate(cols):
        for b, col_b in enumerate(cols):
            v = multiply(ring, gl_table, col_a, col_b)   # [x_a, x_b] in gl
            if v and any(x + y for x, y in zip(sub_weight[a], sub_weight[b])):
                table[(a, b)] = [(sl_index[k], c) for k, c in v]   # units off the diagonal
            elif v:
                coords = solver.solve(v)
                if coords is None:
                    raise RuntimeError("sl is not closed under the bracket")
                if coords:
                    table[(a, b)] = [(at_zero[t], c) for t, c in coords]
    mod = GradedFreeModule(incl.cols, tuple(sub_parity))
    alg = LeibnizSuperalgebra(ring, mod, table, name=f"sl({m},{n},{d.name})",
                              weight=tuple(sub_weight))
    return SpecialLinear(g, alg, incl, sl_index)


def _check_supertrace_characterization(g: GeneralLinear, span_ech: Echelon):
    """sl = {x : Str(x) in span[D, D]} checked as equality of submodules."""
    ring = g.algebra.ring
    str_mat = g.supertrace_matrix
    dd = bracket_span(g.dlg)
    # {x : S x in lattice L} is the x-projection of ker [S | L]
    block = SparseMat._trusted(ring, str_mat.rows, str_mat.columns() + dd.columns())
    dim = g.algebra.dim
    char_ech = Echelon(ring, dim).extend(
        [(i, c) for i, c in col if i < dim] for col in kernel_basis(block).columns()
    )
    if not span_ech.same_span(char_ech):
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
    """True iff [L, L] = L (over the integers: the brackets generate L).
    The nonzero brackets are read only until they provably span L.
    Memoised on l, for ``chain.blocked_complex`` and ``tensor_square``."""
    if not l._perfect:
        brackets = SparseMat._trusted(l.ring, l.dim,
                                      [combine(l.ring, [(1, terms)]) for terms in l.table.values()])
        l._perfect.append(column_span_echelon(
            brackets, within=SparseMat.identity(l.ring, l.dim)).is_full())
    return l._perfect[0]
