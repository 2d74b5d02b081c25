"""Non-abelian tensor square of a perfect Leibniz superalgebra.

The carrier is (L (x) L) / Im delta_3 with bracket
[u, v] = class(delta_2(u) (x) delta_2(v)); delta_2 descends to the carrier and
is a central extension of L whose kernel is the degree-2 homology.  The
w-cycle machinery tracks the explicit kernel classes E_ij(a) (x) E_kl(1) that
realise the low-rank extra summands.

delta_2 and the Im delta_3 echelon of each (weight, parity) block of L (x) L
come from ``chain.blocked_complex``, shared with ``chain.hl``.  These block
echelons (``TensorSquare.blocks``) are the only copy of Im delta_3: a query
splits an ambient vector into its blocks and works in block coordinates, and
a span grows one block at a time, each added vector lying in one block.
Vectors are (index, value) pairs throughout (see ``TensorSquare``).
Only an integer block with a pivot value other than 1 or -1 takes a Smith
form, for its free and cyclic coordinates; the torsion is the merged
invariant factor chain of the cyclic orders.  The W classes lie in single
blocks, so ``w_cycles`` takes their span only on the blocks they hit, by
the rule of ``exactlin.quotient_invariants``.  What stays independent of
the chain path is Ker delta_2 on the carrier, taken on a whole parity.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product

from .exactlin import (
    Echelon,
    GradedModuleInvariants,
    SparseMat,
    combine,
    direct_sum_invariants,
    kernel_basis,
    merge_torsion,
    module_iso_check,
    quotient_invariants,
    snf_with_transforms,
)
from .chain import DEFAULT_SIZE_GUARD, ChainMap, _integral, blocked_complex
from .leibniz import LeibnizSuperalgebra, SpecialLinear, is_perfect
from .superdialg import bracket_table

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
    and the boundary to L.  Im delta_3 is held only as its block echelons.

    Every ambient vector, taken or returned, is a vector of (index, value)
    pairs (see ``exactlin``: a query may repeat an index).  ``project``
    returns the canonical representative of a class, so two classes are
    equal when ``is_zero_class`` holds for their difference, formed with
    ``combine``."""

    base: LeibnizSuperalgebra
    d2: ChainMap
    # (weight, parity) key -> its ``chain.Block`` of L (x) L (ambient
    # indices, Im delta_3 echelon in the block's own coordinates), in sorted
    # key order
    blocks: dict
    _carrier_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def ambient_dim(self) -> int:
        return self.base.dim ** 2

    def block_sizes(self) -> list:
        """Sizes of the (weight, parity) blocks of L (x) L, in sorted key
        order."""
        return [len(b.idx) for b in self.blocks.values()]

    @cached_property
    def complement(self) -> list:
        """Ambient indices without an Im delta_3 pivot, ascending."""
        return sorted(b.idx[s] for b in self.blocks.values()
                      for s in range(len(b.idx)) if s not in b.image.row_at)

    @cached_property
    def _position(self) -> dict:
        """ambient index -> its position within its block."""
        return {i: s for b in self.blocks.values() for s, i in enumerate(b.idx)}

    def _pieces(self, vec) -> dict:
        """key -> the nonzero (block position, value) pairs of the ambient
        vector with the (index, value) pairs vec in that block."""
        keys, pos = self.d2.source_keys, self._position
        out = {}
        for i, x in vec:
            if x != 0:
                out.setdefault(keys[i], []).append((pos[i], x))
        return out

    def project(self, vec) -> list:
        """Canonical representative of the class modulo Im delta_3 of the
        ambient vector with the (index, value) pairs vec: the block residues
        (``Echelon.residue``) at their ambient indices, as sorted (index,
        value) pairs of nonzero ring elements.  Empty exactly for the zero
        class."""
        out = []
        for key, piece in self._pieces(vec).items():
            block = self.blocks[key]
            out.extend((block.idx[s], x) for s, x in block.image.residue(piece))
        return sorted(out)

    def is_zero_class(self, u) -> bool:
        return not self.project(u)

    def image_rows(self) -> list:
        """The rows of the block echelons at their ambient indices, as
        (index, value) pairs in ascending pivot order.  Over a field they
        span Im delta_3; over the integers they generate its lattice."""
        rows = [[(b.idx[s], x) for s, x in col]
                for b in self.blocks.values()
                for col in b.image.basis_matrix().columns()]
        return sorted(rows, key=lambda row: row[0][0])

    def extend_blocks(self, vectors) -> dict:
        """key -> a copy of the block's Im delta_3 echelon extended by the
        vectors that lie in it, for each block the vectors hit; each vector
        is a list of (index, value) pairs, and zero ones are skipped.  A
        vector that meets two blocks raises RuntimeError: split across them
        it would enlarge the span."""
        out = {}
        for vec in vectors:
            # summed first, so that entries which cancel meet no block
            pieces = self._pieces(combine(self.base.ring, [(1, vec)]))
            if len(pieces) > 1:
                raise RuntimeError(
                    f"a vector added to Im delta_3 meets the blocks {sorted(pieces)}, "
                    f"not one block of L (x) L"
                )
            for key, piece in pieces.items():
                if key not in out:
                    out[key] = self.blocks[key].image.copy()
                out[key].extend([piece])
        return out

    def pair_vector(self, a, b):
        """a (x) b for L vectors given as (index, value) pairs, as its
        nonzero (index, value) pairs; in ascending index order when a and b
        are sorted."""
        norm = self.base.ring.normalize
        dim = self.base.dim
        out = []
        for i, ca in a:
            for j, cb in b:
                x = norm(ca * cb)
                if x != 0:
                    out.append((i * dim + j, x))
        return out

    def bracket(self, u, v):
        """Induced bracket on classes: project(delta_2(u) (x) delta_2(v)),
        u, v and the result as (index, value) pairs.  Independent of the
        chosen representatives since delta_2 kills the image."""
        d2 = self.d2.matrix
        return self.project(self.pair_vector(d2.apply(u), d2.apply(v)))

    def carrier_generators(self):
        """(index, vector) for the ambient unit vectors whose classes
        generate the carrier: complement units, then the pivot units whose
        pivot value is not a unit (which happens only over the integers),
        each in ascending index order.  Each vector is the one pair
        [(index, 1)]."""
        one = self.base.ring.one
        units = list(self.complement)
        units += sorted(b.idx[p] for b in self.blocks.values()
                        if not b.image.has_unit_pivots()
                        for p, d in b.image.pivot_values().items() if abs(d) > 1)
        return [(c, [(c, one)]) for c in units]

    def generator_parity(self, ambient_index: int) -> int:
        return self.d2.source.parity[ambient_index]

    # -- homology of the boundary on the carrier ----------------------------

    def _carrier_block(self, par: int):
        """(lift, kernel, torsion_lift, torsion) of one parity of the carrier.

        The columns of lift are ambient vectors whose classes form a basis of
        the free part, one (weight, parity) block of this parity at a time:
        the non-pivot unit vectors of a block with unit pivot values
        (``Echelon.has_unit_pivots``; every block over a field), else the
        free Smith coordinates of the block.  kernel is a basis of
        Ker(delta_2 @ lift), taken on the whole parity from lambda * delta_2
        (``chain._integral``: over Q the same kernel, in integer rows).  Torsion lies
        entirely in the kernel (the boundary lands in a free module): the
        columns of torsion_lift generate the cyclic summands of the blocks,
        one per Smith diagonal entry above 1, and torsion is the merged
        invariant factor chain of those entries.  A Smith diagonal not as
        long as its echelon's rank raises RuntimeError.
        """
        if par in self._carrier_cache:
            return self._carrier_cache[par]
        ring = self.base.ring
        amb = self.ambient_dim
        free, cyclic, orders = [], [], []
        for key, block in self.blocks.items():
            if key[1] != par:
                continue
            idx, image = block.idx, block.image
            if image.has_unit_pivots():
                free.extend([(i, ring.one)] for s, i in enumerate(idx) if s not in image.row_at)
                continue
            diag, uinv = snf_with_transforms(image.basis_matrix())
            if len(diag) != image.rank:
                raise RuntimeError(
                    f"Smith diagonal of block {key} has {len(diag)} entries, "
                    f"not the rank {image.rank} of its echelon"
                )
            # the columns of U^-1 in ambient coordinates
            cols = [[(idx[s], x) for s, x in col] for col in uinv]
            free.extend(cols[len(diag):])
            cyclic.extend(cols[t] for t, d in enumerate(diag) if d > 1)
            orders.append([d for d in diag if d > 1])

        lift, torsion_lift = (SparseMat._trusted(ring, amb, columns) for columns in (free, cyclic))
        d2 = _integral(self.base, self.d2.matrix)   # integer entries, the same kernel
        if not (d2 @ torsion_lift).is_zero():
            raise RuntimeError("torsion coordinate not killed by the boundary")
        out = (lift, kernel_basis(d2 @ lift), torsion_lift, merge_torsion(orders))
        self._carrier_cache[par] = out
        return out

    def kernel_invariants(self) -> GradedModuleInvariants:
        """Invariants of Ker(delta_2 on the carrier), the degree-2 homology:
        per parity, the kernel on the free part plus all of the torsion."""
        (_, k0, _, t0), (_, k1, _, t1) = self._carrier_block(0), self._carrier_block(1)
        return GradedModuleInvariants(self.base.ring, k0.cols, k1.cols, t0, t1)

    def kernel_class_generators(self):
        """Ambient vectors in Ker delta_2, as sorted (index, value) pairs,
        whose classes generate the degree-2 homology."""
        gens = []
        for par in (0, 1):
            lift, kernel, torsion_lift, _ = self._carrier_block(par)
            for mat in (lift @ kernel, torsion_lift):
                gens.extend(list(col) for col in mat.columns())
        if any(self.d2.matrix.apply(g) for g in gens):
            raise RuntimeError("kernel generator is not in Ker delta_2")
        return gens

    # -- property checks -----------------------------------------------------

    def leibniz_violations_on_carrier(self):
        """Triples of carrier generators violating the Leibniz identity
        [x,[y,z]] = [[x,y],z] - (-1)^{|y||z|}[[x,z],y] in the carrier, all n^3
        of them for the n ``carrier_generators``.  They generate the carrier
        (its lattice over the integers) and the bracket is bilinear, so an
        empty answer is the identity on the whole carrier.  Each pairwise
        bracket is computed once.  Returns at most one witness (index triple
        into the generators)."""
        gens = self.carrier_generators()
        ring, d2 = self.base.ring, self.d2.matrix
        par = [self.generator_parity(i) for i, _ in gens]

        def bracket(du, dv):   # the bracket of two classes, from their delta_2
            return self.project(self.pair_vector(du, dv))

        down = [d2.apply(g) for _, g in gens]
        # delta_2 of the bracket of each pair of generators
        pair_down = {(a, b): d2.apply(bracket(x, y))
                     for (a, x), (b, y) in product(enumerate(down), repeat=2)}
        for a, b, c in product(range(len(gens)), repeat=3):
            lhs = bracket(down[a], pair_down[b, c])
            xy_z = bracket(pair_down[a, b], down[c])
            xz_y = bracket(pair_down[a, c], down[b])
            sign = -1 if par[b] * par[c] else 1
            if not self.is_zero_class(combine(ring, [(1, lhs), (-1, xy_z), (sign, xz_y)])):
                return [(a, b, c)]
        return []

    def bracket_lift_independence(self) -> bool:
        """The bracket of two classes does not depend on their
        representatives: ``bracket`` reads u and v only through delta_2 u and
        delta_2 v, and delta_2 sends every row of ``image_rows`` to zero.
        Over a field those rows span Im delta_3, over the integers they
        generate its lattice, so two lifts of a class have the same delta_2
        image, for every choice of lifts."""
        d2 = self.d2.matrix
        return not any(d2.apply(row) for row in self.image_rows())

    def kernel_is_central(self) -> bool:
        kgens = self.kernel_class_generators()
        cgens = self.carrier_generators()
        for k in kgens:
            for _, g in cgens:
                if not self.is_zero_class(self.bracket(k, g)):
                    return False
                if not self.is_zero_class(self.bracket(g, k)):
                    return False
        return True

    def carrier_is_perfect(self) -> bool:
        """[carrier, carrier] = carrier: in every block, the bracket classes
        in it plus Im delta_3 span the block (generate its lattice over the
        integers).  A bracket that meets two blocks raises RuntimeError."""
        bd = [self.d2.matrix.apply(g) for _, g in self.carrier_generators()]
        plus = self.extend_blocks(self.pair_vector(a, b) for a in bd for b in bd)
        return all(plus.get(key, b.image).is_full() for key, b in self.blocks.items())

    def boundary_is_surjective(self) -> bool:
        """delta_2 is onto L (onto the lattice over the integers)."""
        return Echelon(self.base.ring, self.base.dim).extend(self.d2.matrix.columns()).is_full()


def tensor_square(l: LeibnizSuperalgebra, guard: int = DEFAULT_SIZE_GUARD) -> TensorSquare:
    """Build (L (x) L)/Im delta_3 for perfect L from ``chain.blocked_complex``.
    delta_2 then maps each block onto the block of L with the same key, so a
    block of Ker delta_2 with other than |block of L (x) L| - |block of L|
    generators raises RuntimeError.  A certified block (``chain.Block``)
    has that rank by its certificate, and its kernel basis is not built."""
    if not is_perfect(l):
        raise NotPerfectError(f"{l.name} is not perfect")
    d2, blocks = blocked_complex(l, 2, guard)
    below = Counter(d2.target_keys)
    for b in blocks:
        want = len(b.idx) - below[b.key]
        if not b.certified and b.kernel.cols != want:
            raise RuntimeError(
                f"Ker delta_2 block {b.key} has {b.kernel.cols} generators, not "
                f"{want}; the blocks of a perfect L sum to dim^2 - dim"
            )
    return TensorSquare(l, d2, {b.key: b for b in blocks})


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
    checks tying them to the expected quotient modules.

    Class vectors are kept as sparse (index, value) pairs, one per pattern
    and basis vector a of D; a class with a coefficient outside that basis
    is the matching combination of them.  Each class must lie in exactly
    one (weight, parity) block of L (x) L, the one of weight
    e_i - e_j + e_k - e_l, else RuntimeError.  The span in homology is then
    the direct sum, over the blocks the classes hit, of
    (block image + classes) / block image, taken by
    ``exactlin.quotient_invariants`` on the block's extended echelon
    (``ts.extend_blocks`` extends a copy of the image echelon, so the image
    lies inside it).  The relation and torsion checks form sparse
    combinations and test them with ``ts.is_zero_class``.
    """
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
    ring = ts.base.ring
    keys = ts.d2.source_keys

    def check_block(pat, vec):
        weight = [0] * (m + n)
        for t, s in zip(pat, (1, -1, 1, -1)):
            weight[t - 1] += s
        hit = {keys[x] for x, _ in vec}
        if len(hit) != 1 or next(iter(hit))[0] != tuple(weight):
            raise RuntimeError(
                f"class {pat} lies in the blocks {sorted(hit)}, not in one block "
                f"of weight {tuple(weight)}"
            )

    pats = admissible_patterns(m, n)
    vecs = {}    # (pattern, basis index of D) -> sparse class vector
    labels = []
    for pat in pats:
        i, j, k, l = pat
        for b in range(d.dim):
            vec = ts.pair_vector(slalg.coords_of_unit(i, j, d.basis_vector(b)),
                                 slalg.coords_of_unit(k, l, d.bar_unit))
            check_block(pat, vec)
            if ts.d2.matrix.apply(vec):
                raise RuntimeError(f"class {pat} is not a cycle")
            vecs[(pat, b)] = vec
            labels.append((pat, d.module.label(b)))

    # span of the classes inside the homology, block by block
    span_inv = direct_sum_invariants([GradedModuleInvariants(ring)] + [
        quotient_invariants(plus.basis_matrix(), ts.blocks[key].image, key[1])
        for key, plus in sorted(ts.extend_blocks(vecs.values()).items())])
    expected = expected_w(m, n, d)
    matches = module_iso_check(span_inv, expected)

    relations = True
    for pat in pats:
        i, j, k, l = pat
        if case == "(3,0)":
            others = [((k, l, i, j), -1)]
        else:
            others = [((i, l, k, j), -1), ((k, j, i, l), -1), ((k, l, i, j), 1)]
        for b in range(d.dim):
            for opat, sign in others:
                diff = combine(ring, [(1, vecs[(pat, b)]), (-sign, vecs[(opat, b)])])
                if not ts.is_zero_class(diff):
                    relations = False

    # coefficients in the span of the D brackets die
    brackets = bracket_table(d).values()
    torsion_ok = True
    for pat in pats:
        mod = pattern_modulus(m, n, pat)
        for b in range(d.dim):
            if not ts.is_zero_class(combine(ring, [(mod, vecs[(pat, b)])])):
                torsion_ok = False
        for br in brackets:
            terms = [(c, vecs[(pat, b)]) for b, c in br]
            if not ts.is_zero_class(combine(ring, terms)):
                torsion_ok = False

    return WCycleReport(case, labels, span_inv, expected, matches,
                        relations, torsion_ok)
