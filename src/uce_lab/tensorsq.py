"""Non-abelian tensor square of a perfect Leibniz superalgebra.

The carrier is (L (x) L) / Im delta_3 with bracket
[u, v] = class(delta_2(u) (x) delta_2(v)); delta_2 descends to the carrier and
is a central extension of L whose kernel is the degree-2 homology.  The
w-cycle machinery tracks the explicit kernel classes E_ij(a) (x) E_kl(1) that
realise the low-rank extra summands.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .exactlin import (
    Echelon,
    GradedModuleInvariants,
    SparseMat,
    column_span_echelon,
    kernel_basis,
    snf_with_transforms,
    subquotient_invariants,
)
from .chain import DEFAULT_SIZE_GUARD, ChainMap, delta, guard_check
from .leibniz import LeibnizSuperalgebra, SpecialLinear, is_perfect

__all__ = [
    "NotPerfectError",
    "TensorSquare",
    "tensor_square",
    "hl2",
    "uce",
    "UceReport",
    "w_cycles",
    "WCycleReport",
    "low_rank_case",
    "admissible_patterns",
    "pattern_rep_and_sign",
    "pattern_modulus",
    "pattern_parity_offset",
    "pattern_coefficient_sign",
    "sigma_sign",
]


class NotPerfectError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# index patterns of the low-rank kernel classes
# ---------------------------------------------------------------------------


def low_rank_case(m: int, n: int):
    """One of "stable", "(3,0)", "(4,0)", "(3,1)", "(2,2)", or None when the
    pair is outside the classified list."""
    if m + n >= 5 or (m, n) == (2, 1):
        return "stable"
    return {(3, 0): "(3,0)", (4, 0): "(4,0)", (3, 1): "(3,1)", (2, 2): "(2,2)"}.get((m, n))


def admissible_patterns(m: int, n: int):
    """Index quadruples (i, j, k, l) whose classes E_ij(a) (x) E_kl(1) carry
    the extra kernel summand; 1-based indices."""
    case = low_rank_case(m, n)
    if case in (None, "stable"):
        return []
    if case == "(3,0)":
        pats = []
        for i in range(1, 4):
            for j in range(1, 4):
                if i == j:
                    continue
                k = ({1, 2, 3} - {i, j}).pop()
                pats.append((i, j, i, k))   # same row
                pats.append((i, j, k, j))   # same column
        return sorted(set(pats))
    # the three m+n = 4 cases: all quadruples with distinct entries
    pats = []
    for i in range(1, 5):
        for j in range(1, 5):
            for k in range(1, 5):
                for l in range(1, 5):
                    if len({i, j, k, l}) == 4:
                        pats.append((i, j, k, l))
    return pats


def pattern_rep_and_sign(m: int, n: int, pat):
    """Orbit representative and relative sign under the class relations
    v_ijkl = -v_ilkj = -v_kjil = v_klij (quadruple cases) respectively
    v_ijpq = -v_pqij (the (3,0) case)."""
    i, j, k, l = pat
    if low_rank_case(m, n) == "(3,0)":
        orbit = [((i, j, k, l), 1), ((k, l, i, j), -1)]
    else:
        orbit = [
            ((i, j, k, l), 1),
            ((i, l, k, j), -1),
            ((k, j, i, l), -1),
            ((k, l, i, j), 1),
        ]
    rep, sign = min(orbit, key=lambda t: t[0])
    return rep, sign


def sigma_sign(pat) -> int:
    """The sign map on quadruples used in the (2, 2) case; -1 exactly on
    (1423), (2314), (3241), (4132).  On the patterns whose classes land in
    the m = 0 quotient it coincides with the orbit sign relative to the
    lexicographically smallest representative; everywhere else signs are
    immaterial because those classes are 2-torsion."""
    return -1 if pat in ((1, 4, 2, 3), (2, 3, 1, 4), (3, 2, 4, 1), (4, 1, 3, 2)) else 1


def pattern_modulus(m: int, n: int, pat) -> int:
    """The subscript of the quotient D_m the class of this pattern lives in."""
    case = low_rank_case(m, n)
    if case == "(3,0)":
        return 3
    if case in ("(4,0)", "(3,1)"):
        return 2
    if case == "(2,2)":
        i, j, k, l = pat
        rp = [0, 0, 0, 1, 1]  # row parities for (2,2), 1-based
        if (rp[i] + rp[j]) % 2 == 1 and (rp[k] + rp[l]) % 2 == 1 \
                and (rp[i] + rp[k]) % 2 == 0 and (rp[j] + rp[l]) % 2 == 0:
            return 0
        return 2
    raise ValueError(f"({m},{n}) has no extra kernel classes")


def pattern_parity_offset(m: int, n: int, pat) -> int:
    """|i| + |j| + |k| + |l| mod 2; the classes of a pattern carry the parity
    of their D-coefficient shifted by this amount."""
    size = m + n
    rp = [0] + [0 if t <= m else 1 for t in range(1, size + 1)]
    return sum(rp[t] for t in pat) % 2


def pattern_coefficient_sign(m: int, n: int, pat, a_parity: int, b_parity: int) -> int:
    """Sign relating the class of E_ij(a) (x) E_kl(b) to the class of
    E_ij(a <| b) (x) E_kl(1):

        (-1)^{(|i|+|j|+|a|)(|k|+|i|+|b|) + |a||b|}

    (reduce the second factor through [E_ki(b), E_il(1)], move the
    coefficient across with the quotient relation b |> a = +-(a <| b), and
    swap the pattern back).  It is +1 whenever all the data is even, which
    covers every ungraded dialgebra."""
    size = m + n
    rp = [0] + [0 if t <= m else 1 for t in range(1, size + 1)]
    i, j, k, _ = pat
    exp = (rp[i] + rp[j] + a_parity) * (rp[k] + rp[i] + b_parity) + a_parity * b_parity
    return -1 if exp % 2 else 1


# ---------------------------------------------------------------------------
# the tensor square
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class TensorSquare:
    """Quotient presentation of (L (x) L)/Im delta_3 with the induced bracket
    and the boundary to L."""

    base: LeibnizSuperalgebra
    d2: ChainMap
    d3: ChainMap
    image: Echelon                  # echelon/lattice of Im delta_3
    complement: list                # ambient indices without image pivots
    _carrier_cache: dict = field(default_factory=dict)

    @property
    def ambient_dim(self) -> int:
        return self.base.dim ** 2

    def project(self, vec):
        """Canonical representative of the class of an ambient coordinate
        vector (list or numpy) modulo Im delta_3."""
        return self.image.residue_of(vec)

    def classes_equal(self, u, v) -> bool:
        diff = [a - b for a, b in zip(u, v)]
        return not self.project(diff).any()

    def is_zero_class(self, u) -> bool:
        return not self.project(u).any()

    def pair_vector(self, a, b):
        """a (x) b in ambient coordinates for dense L vectors a, b."""
        ring = self.base.ring
        dim = self.base.dim
        out = [ring.zero] * (dim * dim)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                if cb == 0:
                    continue
                out[i * dim + j] = ring.normalize(ca * cb)
        return out

    def bracket(self, u, v):
        """Induced bracket on classes: project(delta_2(u) (x) delta_2(v)).
        Independent of the chosen representatives since delta_2 kills the
        image."""
        d2 = self.d2.matrix
        return self.project(self.pair_vector(d2.apply(u), d2.apply(v)))

    def carrier_generators(self):
        """Ambient vectors whose classes generate the carrier: complement
        unit vectors, plus (over the integers) pivot units with pivot value
        above 1."""
        ring = self.base.ring
        gens = []
        for c in self.complement:
            v = [ring.zero] * self.ambient_dim
            v[c] = ring.one
            gens.append((c, v))
        if ring.kind == "integers":
            for p, d in sorted(self.image.pivot_values().items()):
                if abs(d) > 1:
                    v = [ring.zero] * self.ambient_dim
                    v[p] = ring.one
                    gens.append((p, v))
        return gens

    def generator_parity(self, ambient_index: int) -> int:
        return self.d2.source.parity[ambient_index]

    # -- homology of the boundary on the carrier ----------------------------

    def _carrier_block(self, par: int):
        """(lift, kernel, torsion_lift, torsion) of one parity of the carrier.

        The columns of lift are ambient vectors whose classes form a basis of
        the free part: complement unit vectors over a field, the free Smith
        coordinates of the image block over the integers.  kernel is a basis
        of Ker(delta_2 @ lift).  Torsion lies entirely in the kernel (the
        boundary lands in a free module); column t of torsion_lift generates
        the cyclic summand of order torsion[t].
        """
        key = ("block", par)
        if key in self._carrier_cache:
            return self._carrier_cache[key]
        ring = self.base.ring
        parity = self.d2.source.parity
        amb = self.ambient_dim
        if ring.kind != "integers":
            comp = [c for c in self.complement if parity[c] == par]
            lift = SparseMat(ring, amb, len(comp),
                             {(c, t): ring.one for t, c in enumerate(comp)})
            torsion_lift, torsion = SparseMat.zeros(ring, amb, 0), ()
        else:
            idx = [i for i in range(amb) if parity[i] == par]
            imat = self.image.basis_matrix()
            cols = []
            for j in range(imat.cols):
                col = imat.column_dense(j)
                support = [i for i, v in enumerate(col) if v != 0]
                if support and parity[support[0]] == par:
                    cols.append([col[i] for i in idx])
            block = SparseMat.from_columns(ring, len(idx), cols)
            diag, _, uinv = snf_with_transforms(block)

            def smith_columns(positions):
                return SparseMat(ring, amb, len(positions), {
                    (idx[s], k): int(uinv[s, t])
                    for k, t in enumerate(positions)
                    for s in np.flatnonzero(uinv[:, t] != 0)
                })

            lift = smith_columns(range(len(diag), len(idx)))
            torsion_lift = smith_columns([t for t, d in enumerate(diag) if d > 1])
            torsion = tuple(int(d) for d in diag if d > 1)
            if not (self.d2.matrix @ torsion_lift).is_zero():
                raise RuntimeError("torsion coordinate not killed by the boundary")
        out = (lift, kernel_basis(self.d2.matrix @ lift), torsion_lift, torsion)
        self._carrier_cache[key] = out
        return out

    def kernel_invariants(self) -> GradedModuleInvariants:
        """Invariants of Ker(delta_2 on the carrier), the degree-2 homology:
        per parity, the kernel on the free part plus all of the torsion."""
        (_, k0, _, t0), (_, k1, _, t1) = self._carrier_block(0), self._carrier_block(1)
        return GradedModuleInvariants(self.base.ring, k0.cols, k1.cols, t0, t1)

    def kernel_class_generators(self):
        """Ambient vectors in Ker delta_2 whose classes generate the
        degree-2 homology."""
        gens = []
        for par in (0, 1):
            lift, kernel, torsion_lift, _ = self._carrier_block(par)
            for mat in (lift @ kernel, torsion_lift):
                gens.extend(mat.column_dense(j) for j in range(mat.cols))
        for g in gens:
            if any(x != 0 for x in self.d2.matrix.apply(g)):
                raise RuntimeError("kernel generator is not in Ker delta_2")
        return gens

    # -- property checks -----------------------------------------------------

    def leibniz_violations_on_carrier(self, samples=300, seed=0):
        gens = self.carrier_generators()
        ring = self.base.ring
        n = len(gens)
        if n <= 8:
            triples = [
                (a, b, c) for a in range(n) for b in range(n) for c in range(n)
            ]
        else:
            rng = random.Random(seed)
            triples = [
                (rng.randrange(n), rng.randrange(n), rng.randrange(n))
                for _ in range(samples)
            ]
        for a, b, c in triples:
            x, y, z = gens[a][1], gens[b][1], gens[c][1]
            py = self.generator_parity(gens[b][0])
            pz = self.generator_parity(gens[c][0])
            lhs = self.bracket(x, list(self.bracket(y, z)))
            xy_z = self.bracket(list(self.bracket(x, y)), z)
            xz_y = self.bracket(list(self.bracket(x, z)), y)
            sign = -1 if (py * pz) % 2 else 1
            rhs = [p - sign * q for p, q in zip(xy_z, xz_y)]
            if not self.classes_equal(list(lhs), rhs):
                return [(a, b, c)]
        return []

    def bracket_lift_independence(self, trials=100, seed=0) -> bool:
        """Transported bracket constants do not depend on representative
        lifts: redraw lifts by adding random image elements."""
        rng = random.Random(seed)
        gens = self.carrier_generators()
        imat = self.image.basis_matrix()
        if not gens:
            return True
        for _ in range(trials):
            (ia, a), (ib, b) = rng.choice(gens), rng.choice(gens)
            base = self.bracket(a, b)
            a2 = list(a)
            b2 = list(b)
            for vec in (a2, b2):
                for _ in range(2):
                    j = rng.randrange(imat.cols)
                    c = rng.randint(-3, 3)
                    if c:
                        col = imat.column_dense(j)
                        for t in range(len(vec)):
                            vec[t] = vec[t] + c * col[t]
            if not self.classes_equal(list(self.bracket(a2, b2)), list(base)):
                return False
        return True

    def kernel_is_central(self) -> bool:
        kgens = self.kernel_class_generators()
        cgens = self.carrier_generators()
        for k in kgens:
            for _, g in cgens:
                if not self.is_zero_class(list(self.bracket(k, g))):
                    return False
                if not self.is_zero_class(list(self.bracket(g, k))):
                    return False
        return True

    def carrier_is_perfect(self) -> bool:
        """[carrier, carrier] = carrier: bracket classes plus the image span
        the full ambient module (full lattice over the integers)."""
        ring = self.base.ring
        ech = Echelon(ring, self.ambient_dim)
        imat = self.image.basis_matrix()
        cols = imat.columns()
        for j in range(imat.cols):
            ech.insert(ech.vector(cols[j]))
        gens = self.carrier_generators()
        for _, a in gens:
            for _, b in gens:
                v = self.pair_vector(self.d2.matrix.apply(a), self.d2.matrix.apply(b))
                if any(x != 0 for x in v):
                    ech.insert(ech.vector(v))
        if ech.rank != self.ambient_dim:
            return False
        if ring.kind == "integers":
            for t in range(self.ambient_dim):
                v = [0] * self.ambient_dim
                v[t] = 1
                if not ech.contains(ech.vector(v)):
                    return False
        return True

    def boundary_is_surjective(self) -> bool:
        ech = Echelon(self.base.ring, self.base.dim)
        cols = self.d2.matrix.columns()
        for j in range(self.d2.matrix.cols):
            if cols[j]:
                ech.insert(ech.vector(cols[j]))
        if ech.rank != self.base.dim:
            return False
        if self.base.ring.kind == "integers":
            for t in range(self.base.dim):
                v = [0] * self.base.dim
                v[t] = 1
                if not ech.contains(ech.vector(v)):
                    return False
        return True


def tensor_square(l: LeibnizSuperalgebra, guard: int = DEFAULT_SIZE_GUARD) -> TensorSquare:
    """Build (L (x) L)/Im delta_3 for perfect L.

    delta_2 o delta_3 = 0 is verified exactly first; over a field this also
    allows the image reduction to stop at the kernel dimension.
    """
    if not is_perfect(l):
        raise NotPerfectError(f"{l.name} is not perfect")
    dim = l.dim
    guard_check([dim ** 3, dim ** 2, dim], guard)
    d2 = delta(l, 2, guard)
    d3 = delta(l, 3, guard)
    if not (d2.matrix @ d3.matrix).is_zero():
        raise RuntimeError("delta_2 o delta_3 != 0; sign conventions drifted")
    # perfect: delta_2 has rank dim L, so Im delta_3 has rank <= dim^2 - dim
    image = column_span_echelon(d3.matrix, stop_rank=dim * dim - dim)
    pivots = set(image.row_at)
    complement = [i for i in range(dim * dim) if i not in pivots]
    return TensorSquare(l, d2, d3, image, complement)


def hl2(l: LeibnizSuperalgebra, guard: int = DEFAULT_SIZE_GUARD) -> GradedModuleInvariants:
    """Degree-2 homology as the kernel of the boundary on the tensor square."""
    return tensor_square(l, guard).kernel_invariants()


@dataclass(frozen=True)
class UceReport:
    square: TensorSquare
    kernel_invariants: GradedModuleInvariants
    kernel_central: bool
    carrier_perfect: bool
    projection_surjective: bool

    @property
    def ok(self) -> bool:
        return self.kernel_central and self.carrier_perfect and self.projection_surjective


def uce(l: LeibnizSuperalgebra, guard: int = DEFAULT_SIZE_GUARD) -> UceReport:
    """The tensor square packaged as a central extension of perfect L.

    Universality itself is a theorem once the kernel is central and the
    carrier perfect; those two facts are what gets verified here, never a
    quantification over all extensions.
    """
    ts = tensor_square(l, guard)
    return UceReport(
        ts,
        ts.kernel_invariants(),
        ts.kernel_is_central(),
        ts.carrier_is_perfect(),
        ts.boundary_is_surjective(),
    )


# ---------------------------------------------------------------------------
# explicit low-rank kernel classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WCycleReport:
    case: str
    labels: list
    span_invariants: GradedModuleInvariants
    expected_invariants: GradedModuleInvariants
    matches_expected: bool
    relations_hold: bool
    torsion_relations_hold: bool

    @property
    def ok(self) -> bool:
        return self.matches_expected and self.relations_hold and self.torsion_relations_hold


def w_cycles(slalg: SpecialLinear, ts: TensorSquare | None = None,
             guard: int = DEFAULT_SIZE_GUARD) -> WCycleReport:
    """Kernel classes E_ij(a) (x) E_kl(1) for the admissible low-rank index
    patterns, their span inside the degree-2 homology, and the relation
    checks tying them to the expected quotient modules."""
    from .theorems import expected_w  # local import; theorems drives this module

    m, n = slalg.gl.m, slalg.gl.n
    case = low_rank_case(m, n)
    if case in (None, "stable"):
        raise ValueError(f"({m},{n}) is not one of the four low-rank cases")
    d = slalg.gl.dlg
    if not d.is_unital:
        raise ValueError("w_cycles needs a unital superdialgebra")
    if ts is None:
        ts = tensor_square(slalg.algebra, guard)
    ring = slalg.algebra.ring

    def class_vec(pat, dvec):
        i, j, k, l = pat
        a = slalg.coords_of_unit(i, j, dvec)
        b = slalg.coords_of_unit(k, l, list(d.bar_unit))
        return ts.pair_vector(a, b)

    pats = admissible_patterns(m, n)
    labels = []
    vecs = []
    for pat in pats:
        for b in range(d.dim):
            vec = class_vec(pat, d.basis_vector(b))
            if any(x != 0 for x in ts.d2.matrix.apply(vec)):
                raise RuntimeError(f"class {pat} is not a cycle")
            vecs.append(vec)
            labels.append((pat, d.module.label(b)))

    # span of the classes inside the homology: (span + image)/image
    span_plus = Echelon(ring, ts.ambient_dim)
    imat = ts.image.basis_matrix()
    cols = imat.columns()
    for j in range(imat.cols):
        span_plus.insert(span_plus.vector(cols[j]))
    for v in vecs:
        span_plus.insert(span_plus.vector(v))
    span_inv = subquotient_invariants(
        span_plus.basis_matrix(), imat, ts.d2.source.parity
    )
    expected = expected_w(m, n, d)
    matches = (
        span_inv.even_free_rank == expected.even_free_rank
        and span_inv.odd_free_rank == expected.odd_free_rank
        and tuple(span_inv.even_torsion) == tuple(expected.even_torsion)
        and tuple(span_inv.odd_torsion) == tuple(expected.odd_torsion)
    )

    relations = True
    for pat in pats:
        for b in range(d.dim):
            dv = d.basis_vector(b)
            base = class_vec(pat, dv)
            i, j, k, l = pat
            if case == "(3,0)":
                others = [((k, l, i, j), -1)]
            else:
                others = [((i, l, k, j), -1), ((k, j, i, l), -1), ((k, l, i, j), 1)]
            for opat, sign in others:
                other = class_vec(opat, dv)
                diff = [x - sign * y for x, y in zip(base, other)]
                if not ts.is_zero_class(diff):
                    relations = False

    torsion_ok = True
    for pat in pats:
        mod = pattern_modulus(m, n, pat)
        for b in range(d.dim):
            scaled = [mod * x for x in class_vec(pat, d.basis_vector(b))]
            if not ts.is_zero_class(scaled):
                torsion_ok = False
        # the D_m equivalence: coefficients in the bracket span die
        for b1 in range(d.dim):
            for b2 in range(d.dim):
                br = d.bracket(d.basis_vector(b1), d.parity(b1),
                               d.basis_vector(b2), d.parity(b2))
                if any(x != 0 for x in br):
                    if not ts.is_zero_class(class_vec(pat, br)):
                        torsion_ok = False

    return WCycleReport(case, labels, span_inv, expected, matches,
                        relations, torsion_ok)
