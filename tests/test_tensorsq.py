"""Tensor square construction, its central-extension properties, and the
explicit low-rank kernel classes."""

import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from uce_lab import chain, cli, exactlin, tensorsq
from uce_lab.chain import blocked_complex, hl
from uce_lab.exactlin import (
    QQ,
    Echelon,
    GradedModuleInvariants,
    SparseMat,
    combine,
    kernel_basis,
    merge_torsion,
    module_iso_check,
    snf_with_transforms,
    subquotient_invariants,
)
from uce_lab.leibniz import gl, sl
from uce_lab.superdialg import builtin_dialgebra, from_algebra, load_dialgebra_file
from uce_lab.tensorsq import (
    NotPerfectError,
    TensorSquare,
    admissible_patterns,
    hl2,
    low_rank_case,
    pattern_modulus,
    pattern_parity_offset,
    pattern_rep_and_sign,
    sigma_sign,
    tensor_square,
    uce,
    w_cycles,
)
from uce_lab.theorems import default_cases

DATA = Path(__file__).resolve().parents[1] / "perfbench" / "data"


def _sl(m, n, name):
    return sl(m, n, builtin_dialgebra(name))


def ambient_image(ts):
    """The one Im delta_3 echelon of all of L (x) L that ``TensorSquare`` no
    longer holds, as the reference: every block row inserted at its ambient
    indices.  The blocks have disjoint coordinates, so each row goes in as
    it is."""
    ech = Echelon(ts.base.ring, ts.ambient_dim)
    for idx, image in ts.blocks.values():
        for col in image.basis_matrix().columns():
            ech.insert(ech.vector([(idx[s], x) for s, x in col]))
    return ech


def reference_project(ref, vec):
    return ref.residue(ref.vector(vec))


def _pairs(dense):
    """The nonzero (index, value) pairs of a dense vector, the form that
    ``TensorSquare`` takes and returns."""
    return [(i, x) for i, x in enumerate(dense) if x != 0]


def test_requires_perfect():
    with pytest.raises(NotPerfectError):
        tensor_square(gl(1, 0, builtin_dialgebra("rationals")).algebra)


def test_requires_the_bracket_lattice_over_the_integers():
    # the brackets of sl(2, 0, Z) have full rank but span a sublattice of
    # index 4 (pivot values 1, 2, 2), so it is not perfect over Z
    with pytest.raises(NotPerfectError):
        tensor_square(_sl(2, 0, "integers").algebra)


def test_sl2_square_dimension_regression():
    # frozen regression value computed by this library at first build:
    # the carrier of sl(2, 0, Q) is 3-dimensional and the kernel vanishes
    ts = tensor_square(_sl(2, 0, "rationals").algebra)
    assert len(ts.complement) == 3
    assert ts.kernel_invariants().is_zero()


def test_boundary_surjective_for_perfect():
    ts = tensor_square(_sl(2, 1, "rationals").algebra)
    assert ts.boundary_is_surjective()


def test_sl32_square_has_zero_kernel():
    ts = tensor_square(_sl(3, 2, "rationals").algebra)
    assert len(ts.complement) == 24
    assert ts.kernel_invariants().is_zero()


def _split_halfx():
    # Q[x]/(x^2 - x/2): a fractional structure constant (fracfield blocks)
    prod = {
        (0, 0): [(0, 1)], (0, 1): [(1, 1)], (1, 0): [(1, 1)],
        (1, 1): [(1, Fraction(1, 2))],
    }
    return from_algebra(QQ, (0, 0), prod, (1, 0), "split_halfx")


@pytest.mark.parametrize("m,n,name", [
    (2, 0, "split_halfx"), (2, 2, "rationals"), (2, 1, "grassmann_q"),
    (3, 0, "f3"), (4, 0, "integers"),
])
def test_image_blocks_do_not_change_pivots_or_residues(m, n, name):
    d = _split_halfx() if name == "split_halfx" else builtin_dialgebra(name)
    l = sl(m, n, d).algebra
    blocked = tensor_square(l)
    single = tensor_square(replace(l, weight=None))
    assert len(blocked.block_sizes()) > len(single.block_sizes())
    ref, single_ref = ambient_image(blocked), ambient_image(single)
    assert sorted(ref.row_at) == sorted(single_ref.row_at)
    assert blocked.complement == single.complement
    if l.ring.kind == "integers":
        assert ref.pivot_values() == single_ref.pivot_values()
    rng = random.Random(5)
    for _ in range(20):
        v = _pairs([l.ring.normalize(rng.randint(-5, 5)) for _ in range(l.dim ** 2)])
        assert blocked.project(v) == single.project(v)


@pytest.mark.parametrize("m,n,name", [
    (3, 0, "f3"), (2, 1, "rationals"), (2, 1, "split_halfx"), (4, 0, "integers"),
])
def test_shared_complex_gives_what_fresh_builds_give(m, n, name):
    def build():
        d = _split_halfx() if name == "split_halfx" else builtin_dialgebra(name)
        return sl(m, n, d).algebra

    l = build()
    chain_inv = hl(l, 2)
    ts = tensor_square(l)
    assert ts.d2 is blocked_complex(l, 2)[0]  # built once, read by both
    alone = tensor_square(build())
    assert chain_inv == hl(build(), 2)
    assert ts.kernel_invariants() == alone.kernel_invariants()
    ref, alone_ref = ambient_image(ts), ambient_image(alone)
    assert sorted(ref.row_at) == sorted(alone_ref.row_at)
    assert ts.complement == alone.complement
    if l.ring.kind == "integers":
        assert ref.pivot_values() == alone_ref.pivot_values()
    rng = random.Random(11)
    for _ in range(20):
        v = _pairs([l.ring.normalize(rng.randint(-5, 5)) for _ in range(l.dim ** 2)])
        assert ts.project(v) == alone.project(v)


@pytest.mark.parametrize("m,n,name", [
    (2, 0, "split_halfx"), (2, 1, "split_halfx"), (2, 2, "rationals"), (3, 0, "f3"),
    (4, 0, "integers"), (2, 1, "dual_z"), (3, 0, "dual_z"),
])
def test_block_queries_match_one_ambient_echelon(m, n, name):
    """project, is_zero_class, complement, image_rows, carrier_generators
    and the integer pivot values, read from the block echelons, are what one
    echelon of all of Im delta_3 gives; split_halfx has a fracfield block."""
    _, ts = _built(m, n, name)
    ring, amb = ts.base.ring, ts.ambient_dim
    ref = ambient_image(ts)
    assert ts.complement == [i for i in range(amb) if i not in ref.row_at]
    units = list(ts.complement)
    if ring.kind == "integers":
        units += sorted(p for p, d in ref.pivot_values().items() if abs(d) > 1)
    gens = ts.carrier_generators()
    assert [c for c, _ in gens] == units
    assert all(g == [(c, ring.one)] for c, g in gens)
    rows = ts.image_rows()
    assert [row[0][0] for row in rows] == sorted(ref.row_at)
    assert all(ts.is_zero_class(row) for row in rows)
    rng = random.Random(23)
    for k in range(21):
        if k == 20:
            v = []   # the zero vector
        elif ring == QQ:
            v = _pairs([Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(amb)])
        else:
            v = _pairs([ring.normalize(rng.randint(-5, 5)) for _ in range(amb)])
        want = reference_project(ref, v)
        assert ts.project(v) == want
        assert ts.is_zero_class(v) == (not want)
        # adding an element of Im delta_3 leaves the class where it was
        moved = combine(ring, [(1, v), (rng.randint(1, 3), rng.choice(rows))])
        assert ts.is_zero_class(combine(ring, [(1, moved), (-1, v)]))
        assert ts.project(moved) == want


def test_carrier_generators_read_no_ring_zero(monkeypatch):
    """The generators are single (index, 1) pairs, built without reading
    ``RingSpec.zero`` once per ambient entry."""
    _, ts = _built(2, 1, "rationals")
    ring = ts.base.ring
    reads = []
    real = exactlin.RingSpec.zero
    monkeypatch.setattr(exactlin.RingSpec, "zero",
                        property(lambda self: reads.append(self) or real.fget(self)))
    gens = ts.carrier_generators()
    assert reads == [] and len(gens) > 1
    monkeypatch.undo()
    assert gens == [(c, [(c, ring.one)]) for c in ts.complement]


@pytest.mark.parametrize("m,n,name", [(2, 1, "rationals"), (3, 0, "f3")])
def test_queries_take_the_pairs_project_returns(m, n, name):
    """project returns sorted (index, value) pairs; every query takes them
    back as it takes any other pairs."""
    _, ts = _built(m, n, name)
    ring = ts.base.ring
    rng = random.Random(5)
    for _, g in ts.carrier_generators()[:6]:
        v = combine(ring, [(rng.randint(-3, 3), g)])
        cls = ts.project(v)
        assert ts.is_zero_class(cls) == ts.is_zero_class(v)
        assert ts.is_zero_class(combine(ring, [(1, cls), (-1, v)]))
        assert ts.is_zero_class(combine(ring, [(1, ts.project(g)), (-1, g)]))
        assert ts.project(cls) == cls


def test_project_sums_the_values_of_a_repeated_index():
    """A query may repeat an index; its values are summed, as in
    ``SparseMat.apply`` and ``combine``."""
    _, ts = _built(2, 1, "rationals")
    twice = ts.project([(40, 1), (40, 1)])
    assert twice == ts.project([(40, 2)]) and twice != ts.project([(40, 1)])
    assert ts.project([(40, 1), (7, 3), (40, -1)]) == ts.project([(7, 3)])


def test_extend_blocks_sums_a_repeated_index_before_it_splits():
    # entries that cancel meet no block: the vector lies in the block of b
    _, ts = _built(2, 1, "rationals")
    keys = ts.d2.source_keys
    b = next(i for i in range(ts.ambient_dim) if keys[i] != keys[0])
    assert list(ts.extend_blocks([[(0, 1), (b, 1), (0, -1)]])) == [keys[b]]


def test_project_over_f_p_drops_repeats_that_sum_to_zero():
    _, ts = _built(3, 0, "f3")
    c = ts.complement[0]
    assert ts.project([(c, 1), (c, 2)]) == []
    assert ts.is_zero_class([(c, 1), (c, 1), (c, 1)])
    assert ts.project([(c, 2), (c, 2)]) == [(c, 1)]


def test_bracket_class_meeting_two_blocks_raises(monkeypatch):
    ts = tensor_square(_sl(2, 1, "rationals").algebra)
    assert ts.carrier_is_perfect()
    real = TensorSquare.pair_vector

    def leaky(self, a, b):
        # one more entry at e_0 (x) e_0, outside the block of most brackets
        return [(0, 1)] + [(x, c) for x, c in real(self, a, b) if x != 0]

    monkeypatch.setattr(TensorSquare, "pair_vector", leaky)
    with pytest.raises(RuntimeError, match="not one block of L \\(x\\) L"):
        ts.carrier_is_perfect()


def test_tensor_square_checks_each_kernel_block(monkeypatch):
    real = chain.kernel_basis

    def drop_last(k):
        return k.submatrix(list(range(k.rows)), list(range(max(k.cols - 1, 0))))

    def one_short(m):
        return drop_last(real(m))

    monkeypatch.setattr(chain, "kernel_basis", one_short)
    # the image reduction reads a column outside the short kernel first
    with pytest.raises(RuntimeError, match="outside the span"):
        tensor_square(_sl(2, 1, "rationals").algebra)
    monkeypatch.undo()
    real_complex = tensorsq.blocked_complex

    def short_blocks(l, n, guard):
        d2, blocks = real_complex(l, n, guard)
        return d2, tuple((key, idx, drop_last(ker), im) for key, idx, ker, im in blocks)

    monkeypatch.setattr(tensorsq, "blocked_complex", short_blocks)
    with pytest.raises(RuntimeError, match="Ker delta_2 block .* generators"):
        tensor_square(_sl(2, 1, "rationals").algebra)


@pytest.mark.parametrize("m,n,name", [
    (2, 2, "rationals"), (3, 0, "f3"), (4, 0, "integers"), (2, 1, "grassmann_q"),
])
def test_uce_properties(m, n, name):
    rep = uce(_sl(m, n, name).algebra)
    assert rep.kernel_central
    assert rep.carrier_perfect
    assert rep.projection_surjective
    assert rep.ok


@pytest.mark.parametrize("m,n,name", [
    (2, 2, "rationals"), (3, 0, "f3"), (4, 0, "integers"),
])
def test_bracket_lift_independence_100_redrawings(m, n, name):
    ts = tensor_square(_sl(m, n, name).algebra)
    assert ts.bracket_lift_independence(trials=100, seed=7)


@pytest.mark.parametrize("m,n,name", [
    (2, 2, "rationals"), (2, 1, "grassmann_q"), (4, 0, "integers"),
])
def test_carrier_bracket_satisfies_leibniz(m, n, name):
    ts = tensor_square(_sl(m, n, name).algebra)
    assert ts.leibniz_violations_on_carrier(samples=200, seed=3) == []


@pytest.mark.parametrize("m,n,name", [
    (2, 1, "rationals"), (2, 2, "rationals"), (3, 0, "f3"), (3, 0, "f2"),
    (4, 0, "f2"), (4, 0, "integers"), (3, 1, "f2"), (2, 1, "dual_numbers_q"),
    (2, 1, "grassmann_q"), (2, 1, "bar_duplex_q"),
])
def test_two_homology_paths_agree(m, n, name):
    alg = _sl(m, n, name).algebra
    assert module_iso_check(hl(alg, 2), hl2(alg))


def test_hl2_values_through_tensor_path():
    inv = hl2(_sl(2, 2, "rationals").algebra)
    assert (inv.even_free_rank, inv.odd_free_rank) == (2, 0)
    inv = hl2(_sl(4, 0, "integers").algebra)
    assert inv.even_torsion == (2,) * 6 and inv.even_free_rank == 0
    assert hl2(_sl(2, 1, "rationals").algebra).is_zero()


# ---------------------------------------------------------------------------
# patterns and kernel classes
# ---------------------------------------------------------------------------


def test_pattern_catalog():
    assert len(admissible_patterns(4, 0)) == 24
    assert len(admissible_patterns(2, 2)) == 24
    assert len(admissible_patterns(3, 0)) == 12
    assert admissible_patterns(2, 1) == []
    assert admissible_patterns(3, 2) == []


def test_pattern_orbits_partition():
    reps = {pattern_rep_and_sign(4, 0, p)[0] for p in admissible_patterns(4, 0)}
    assert len(reps) == 6
    reps30 = {pattern_rep_and_sign(3, 0, p)[0] for p in admissible_patterns(3, 0)}
    assert len(reps30) == 6


def test_sigma_matches_orbit_sign_on_d0_patterns():
    # on the m = 0 patterns the sign table is the orbit sign relative to the
    # lexicographic representative; elsewhere the classes are 2-torsion and
    # the table stays +1
    for p in admissible_patterns(2, 2):
        if pattern_modulus(2, 2, p) == 0:
            assert sigma_sign(p) == pattern_rep_and_sign(2, 2, p)[1]
        else:
            assert sigma_sign(p) == 1
    assert sigma_sign((1, 4, 2, 3)) == -1
    assert sigma_sign((2, 3, 1, 4)) == -1
    assert sigma_sign((3, 2, 4, 1)) == -1
    assert sigma_sign((4, 1, 3, 2)) == -1
    assert sigma_sign((1, 3, 2, 4)) == 1
    assert sigma_sign((3, 1, 4, 2)) == 1


def test_d0_patterns_in_2_2():
    # a pattern belongs to the m = 0 quotient iff |i|+|j| = 1 = |k|+|l| and
    # |i|+|k| = 0 = |j|+|l|; representatives (1,3,2,4) and (3,1,4,2)
    d0 = [p for p in admissible_patterns(2, 2) if pattern_modulus(2, 2, p) == 0]
    assert len(d0) == 8
    reps = {pattern_rep_and_sign(2, 2, p)[0] for p in d0}
    assert reps == {(1, 3, 2, 4), (3, 1, 4, 2)}


def test_pattern_parity_offsets():
    assert pattern_parity_offset(4, 0, (1, 2, 3, 4)) == 0
    assert pattern_parity_offset(3, 1, (1, 2, 3, 4)) == 1
    assert pattern_parity_offset(2, 2, (1, 3, 2, 4)) == 0
    assert pattern_parity_offset(3, 0, (1, 2, 1, 3)) == 0


def test_w_cycles_2_2_rationals():
    s = _sl(2, 2, "rationals")
    rep = w_cycles(s)
    assert rep.ok
    assert rep.span_invariants.even_free_rank == 2
    assert rep.span_invariants.odd_free_rank == 0


def test_w_cycles_4_0_rationals_vanish():
    # 2 is invertible, so every class dies
    s = _sl(4, 0, "rationals")
    rep = w_cycles(s)
    assert rep.ok
    assert rep.span_invariants.is_zero()


def test_w_cycles_4_0_f2_relations_and_span():
    s = _sl(4, 0, "f2")
    rep = w_cycles(s)
    assert rep.ok and rep.relations_hold and rep.torsion_relations_hold
    assert rep.span_invariants.even_free_rank == 6


def test_w_cycles_4_0_integers_torsion():
    rep = w_cycles(_sl(4, 0, "integers"))
    assert rep.ok
    assert rep.span_invariants.even_torsion == (2,) * 6


def test_w_cycles_3_1_f2_parity_shift():
    rep = w_cycles(_sl(3, 1, "f2"))
    assert rep.ok
    assert rep.span_invariants.odd_free_rank == 6
    assert rep.span_invariants.even_free_rank == 0


def test_w_cycles_3_0_f3():
    rep = w_cycles(_sl(3, 0, "f3"))
    assert rep.ok
    assert rep.span_invariants.even_free_rank == 6


def test_w_cycles_rejects_stable_range():
    with pytest.raises(ValueError):
        w_cycles(_sl(3, 2, "rationals"))


# ---------------------------------------------------------------------------
# blockwise carrier Smith form and W span against the whole-L (x) L versions
# ---------------------------------------------------------------------------


def reference_carrier_block(ts, par):
    """The whole-parity integer step that ``TensorSquare._carrier_block``
    replaced, kept verbatim as the reference: one Smith form with transforms
    on every Im delta_3 row of one parity of L (x) L."""
    ring = ts.base.ring
    parity = ts.d2.source.parity
    amb = ts.ambient_dim
    idx = [i for i in range(amb) if parity[i] == par]
    imat = ambient_image(ts).basis_matrix()   # rows of one (weight, parity) block each
    block = imat.submatrix(idx, [j for j, col in enumerate(imat.columns())
                                 if col and parity[col[0][0]] == par])
    diag, uinv = snf_with_transforms(block)

    def smith_columns(positions):
        return SparseMat(ring, amb, len(positions), {
            (idx[s], k): x for k, t in enumerate(positions) for s, x in uinv[t]
        })

    lift = smith_columns(range(len(diag), len(idx)))
    torsion_lift = smith_columns([t for t, d in enumerate(diag) if d > 1])
    torsion = tuple(int(d) for d in diag if d > 1)
    if not (ts.d2.matrix @ torsion_lift).is_zero():
        raise RuntimeError("torsion coordinate not killed by the boundary")
    return (lift, kernel_basis(ts.d2.matrix @ lift), torsion_lift, torsion)


def reference_blockwise_carrier(ts, par):
    """The integer step of ``TensorSquare._carrier_block`` before blocks
    with unit pivot values skipped their Smith form, kept as the reference:
    one Smith form with transforms on every block of the parity."""
    ring = ts.base.ring
    amb = ts.ambient_dim
    free, cyclic, orders = [], [], []
    for key, (idx, image) in ts.blocks.items():
        if key[1] != par:
            continue
        diag, uinv = snf_with_transforms(image.basis_matrix())
        assert len(diag) == image.rank
        cols = [[(idx[s], x) for s, x in col] for col in uinv]
        free.extend(cols[len(diag):])
        cyclic.extend(cols[t] for t, d in enumerate(diag) if d > 1)
        orders.append([d for d in diag if d > 1])

    def matrix(columns):
        return SparseMat(ring, amb, len(columns),
                         {(s, k): x for k, col in enumerate(columns) for s, x in col})

    lift, torsion_lift = matrix(free), matrix(cyclic)
    return (lift, kernel_basis(ts.d2.matrix @ lift), torsion_lift, merge_torsion(orders))


def _counting_smith_forms(monkeypatch):
    calls = []
    real = tensorsq.snf_with_transforms
    monkeypatch.setattr(tensorsq, "snf_with_transforms",
                        lambda m: calls.append(m) or real(m))
    return calls


def reference_w_span(slalg, ts):
    """The whole-ambient W span that ``w_cycles`` replaced, kept as the
    reference (it only reads the pairs ``coords_of_unit`` now returns):
    dense class vectors, one echelon of Im delta_3 plus all of them, and one
    subquotient over all of L (x) L."""
    d = slalg.gl.dlg
    ring = ts.base.ring
    dim = ts.base.dim

    def pair_vector(a, b):
        out = [ring.zero] * (dim * dim)
        for i, ca in a:
            for j, cb in b:
                out[i * dim + j] = ring.normalize(ca * cb)
        return out

    def class_vec(pat, dvec):
        i, j, k, l = pat
        a = slalg.coords_of_unit(i, j, dvec)
        b = slalg.coords_of_unit(k, l, list(d.bar_unit))
        return pair_vector(a, b)

    vecs = [class_vec(pat, d.basis_vector(b))
            for pat in admissible_patterns(slalg.gl.m, slalg.gl.n) for b in range(d.dim)]
    image = ambient_image(ts)
    span_plus = image.copy().extend(map(_pairs, vecs))
    return subquotient_invariants(
        span_plus.basis_matrix(), image.basis_matrix(), ts.d2.source.parity
    )


def _dialgebra(name):
    path = DATA / f"{name}.json"
    return load_dialgebra_file(path) if path.is_file() else builtin_dialgebra(name)


def _built(m, n, name):
    slalg = sl(m, n, _dialgebra(name))
    return slalg, tensor_square(slalg.algebra)


INTEGER_CASES = sorted(
    {(c.m, c.n, c.dialgebra) for c in default_cases() if c.dialgebra == "integers"}
    | {(2, 1, "dual_z"), (3, 0, "dual_z"), (2, 2, "dual_z"),
       (2, 1, "integers"), (3, 0, "integers"), (3, 2, "integers"), (5, 0, "integers")}
)
LOW_RANK_CASES = sorted(
    {(c.m, c.n, c.dialgebra) for c in default_cases() if low_rank_case(c.m, c.n) != "stable"}
    | {(m, n, name) for m, n, name in INTEGER_CASES if low_rank_case(m, n) != "stable"}
)
FIELD_LOW_RANK_CASES = [c for c in LOW_RANK_CASES if _dialgebra(c[2]).ring.is_field]


@pytest.mark.parametrize("m,n,name", INTEGER_CASES)
def test_blockwise_carrier_smith_matches_the_whole_parity(m, n, name):
    _, ts = _built(m, n, name)
    old = []
    for par in (0, 1):
        lift, kernel, torsion_lift, torsion = ts._carrier_block(par)
        ref = reference_carrier_block(ts, par)
        old.append(ref)
        assert torsion == ref[3]
        assert (lift.cols, kernel.cols) == (ref[0].cols, ref[1].cols)
        # one generator per cyclic summand of a block; the chain merges them
        assert len(torsion) <= torsion_lift.cols
        assert (ts.d2.matrix @ torsion_lift).is_zero()
    (_, k0, _, t0), (_, k1, _, t1) = old
    assert ts._carrier_block(0) is ts._carrier_block(0)
    assert ts.kernel_invariants() == GradedModuleInvariants(ts.base.ring, k0.cols, k1.cols, t0, t1)
    # the generators lie in Ker delta_2 and give the invariants back over Im
    gens = ts.kernel_class_generators()
    assert all(ts.d2.matrix.apply(g) == [] for g in gens)
    image = ambient_image(ts)
    plus = image.copy().extend(gens)
    assert subquotient_invariants(
        plus.basis_matrix(), image.basis_matrix(), ts.d2.source.parity
    ) == ts.kernel_invariants()


@pytest.mark.parametrize("m,n,name", INTEGER_CASES)
def test_carrier_takes_smith_forms_only_at_non_unit_pivots(monkeypatch, m, n, name):
    _, ts = _built(m, n, name)
    (_, k0, _, t0), (_, k1, _, t1) = (reference_blockwise_carrier(ts, par) for par in (0, 1))
    calls = _counting_smith_forms(monkeypatch)
    assert ts.kernel_invariants() == GradedModuleInvariants(ts.base.ring, k0.cols, k1.cols, t0, t1)
    ts.kernel_class_generators()   # RuntimeError for a generator outside Ker delta_2
    assert len(calls) == sum(any(abs(d) > 1 for d in image.pivot_values().values())
                             for _, image in ts.blocks.values())


def test_unit_pivot_carrier_takes_no_smith_form(monkeypatch):
    _, ts = _built(2, 1, "integers")
    calls = _counting_smith_forms(monkeypatch)
    assert ts.kernel_invariants().is_zero() and ts.kernel_class_generators() == []
    assert calls == []


@pytest.mark.parametrize("m,n,name", LOW_RANK_CASES)
def test_blockwise_w_span_matches_the_whole_ambient_span(m, n, name):
    slalg, ts = _built(m, n, name)
    rep = w_cycles(slalg, ts)
    assert rep.ok
    assert rep.span_invariants == reference_w_span(slalg, ts)


def test_short_block_smith_diagonal_exits_5(capsys, monkeypatch):
    real = tensorsq.snf_with_transforms

    def one_short(m):
        diag, uinv = real(m)
        return diag[:-1], uinv

    monkeypatch.setattr(tensorsq, "snf_with_transforms", one_short)
    code = cli.main(["verify", "--m", "3", "--n", "0", "--builtin", "integers"])
    err = capsys.readouterr().err
    assert code == 5
    assert err.strip().count("\n") == 0 and "Smith diagonal of block" in err


def test_w_class_outside_its_block_exits_5(capsys, monkeypatch):
    real = TensorSquare.pair_vector

    def leaky(self, a, b):
        # one more entry at e_0 (x) e_0, whose weight is 0 or twice a root
        return [(0, 1)] + [(x, c) for x, c in real(self, a, b) if x != 0]

    monkeypatch.setattr(TensorSquare, "pair_vector", leaky)
    code = cli.main(["verify", "--m", "4", "--n", "0", "--builtin", "f2"])
    err = capsys.readouterr().err
    assert code == 5
    assert err.strip().count("\n") == 0 and "not in one block of weight" in err


@pytest.mark.parametrize("m,n,name", FIELD_LOW_RANK_CASES)
def test_field_w_span_is_a_rank_difference(monkeypatch, m, n, name):
    """Over a field the span of the W classes comes from echelon ranks;
    ``test_blockwise_w_span_matches_the_whole_ambient_span`` checks its
    value."""
    slalg, ts = _built(m, n, name)
    calls = []
    real = exactlin.subquotient_invariants
    monkeypatch.setattr(exactlin, "subquotient_invariants",
                        lambda *args: calls.append(args) or real(*args))
    assert w_cycles(slalg, ts).ok
    assert calls == []


@pytest.mark.parametrize("ring", ["f2", "f3"])
def test_extended_echelon_without_the_image_exits_5(capsys, monkeypatch, ring):
    real = TensorSquare.extend_blocks

    def without_image(self, vectors):
        # keep only the rows that extend_blocks added to each image echelon
        out = {}
        for key, plus in real(self, vectors).items():
            image = self.blocks[key][1]
            kept = Echelon(plus.ring, plus.dim)
            out[key] = kept.extend([col for col in plus.basis_matrix().columns()
                                    if col[0][0] not in image.row_at])
        return out

    monkeypatch.setattr(TensorSquare, "extend_blocks", without_image)
    code = cli.main(["verify", "--m", "3", "--n", "0", "--builtin", ring])
    err = capsys.readouterr().err
    assert code == 5
    assert err.strip().count("\n") == 0 and "does not contain the pivots" in err
