"""Hochschild boundary, degree-one homology, and the splitting diagram."""

from dataclasses import replace

import pytest

from uce_lab import chain, hochschild
from uce_lab.chain import delta
from uce_lab.exactlin import Echelon, SparseMat, kernel_basis, module_iso_check
from uce_lab.hochschild import (
    NoBarUnitBasisError,
    d,
    degree_one_homology,
    hhs1,
    splitting_check,
    with_bar_unit_first,
)
from uce_lab.leibniz import from_dialgebra, sl
from uce_lab.superdialg import builtin_dialgebra, catalog_names, quotient_Dm, validate
from uce_lab.tensorsq import pattern_modulus, tensor_square

UNITAL = [n for n in catalog_names() if builtin_dialgebra(n).is_unital]


# ---------------------------------------------------------------------------
# boundary
# ---------------------------------------------------------------------------


def test_d1_equals_dialgebra_bracket_matrix():
    # d_1(a (x) b) = a <| b - (-1)^{|a||b|} b |> a = [a, b]
    for name in UNITAL:
        dlg = with_bar_unit_first(builtin_dialgebra(name))
        d1 = d(dlg, 1)
        bracket = delta(from_dialgebra(dlg), 2)
        assert d1.matrix == bracket.matrix


def test_d2_on_rationals():
    # 1x1 - 1x1 + 1x1 with alternating interior signs
    dlg = builtin_dialgebra("rationals")
    d2 = d(dlg, 2)
    assert d2.matrix.column_dense(0) == [1]


@pytest.mark.parametrize("name", UNITAL)
def test_complex_property_degrees_1_and_2(name):
    dlg = with_bar_unit_first(builtin_dialgebra(name))
    d1, d2, d3 = d(dlg, 1), d(dlg, 2), d(dlg, 3)
    assert (d1.matrix @ d2.matrix).is_zero()
    assert (d2.matrix @ d3.matrix).is_zero()


def test_d_requires_bar_unit():
    with pytest.raises(NoBarUnitBasisError):
        d(builtin_dialgebra("t3_dga_q"), 1)


def test_d_is_parity_even():
    dlg = builtin_dialgebra("grassmann_q")
    for n in (1, 2):
        hm = d(dlg, n)
        for (i, j) in hm.matrix.entries:
            assert hm.target.parity[i] == hm.source.parity[j]


# ---------------------------------------------------------------------------
# bar-unit-first basis
# ---------------------------------------------------------------------------


def test_with_bar_unit_first_mat2():
    dlg = builtin_dialgebra("mat2_q")
    moved = with_bar_unit_first(dlg)
    assert list(moved.bar_unit) == [1, 0, 0, 0]
    assert validate(moved) == []
    # invariants are basis independent
    assert module_iso_check(hhs1(dlg), hhs1(moved))


def test_with_bar_unit_first_noop_when_already_first():
    dlg = builtin_dialgebra("dual_numbers_q")
    assert with_bar_unit_first(dlg) is dlg


# ---------------------------------------------------------------------------
# degree-one homology (hand-derived oracles)
# ---------------------------------------------------------------------------


def test_hhs1_one_dimensional_cases():
    # Ker d_1 = span(1 (x) 1) = Im d_2 in every one-dimensional case
    for name in ("rationals", "integers", "f2", "f3"):
        assert hhs1(builtin_dialgebra(name)).is_zero()


def test_hhs1_dual_numbers():
    # Ker d_1 is everything (commutative); Im d_2 = <1(x)1, eps(x)1, 2 eps(x)eps>
    # leaves the class of 1 (x) eps: one even dimension
    inv = hhs1(builtin_dialgebra("dual_numbers_q"))
    assert (inv.even_free_rank, inv.odd_free_rank) == (1, 0)
    assert not inv.even_torsion


def test_hhs1_grassmann():
    # surviving classes: 1 (x) x (odd) and x (x) x (even)
    inv = hhs1(builtin_dialgebra("grassmann_q"))
    assert (inv.even_free_rank, inv.odd_free_rank) == (1, 1)


def test_hhs1_bar_duplex():
    # d_2(u_i (x) u_0 (x) u_j) = u_i (x) u_j fills all of D (x) D
    assert hhs1(builtin_dialgebra("bar_duplex_q")).is_zero()
    assert hhs1(builtin_dialgebra("bar_duplex_f2")).is_zero()


def test_hhs1_mat2():
    assert hhs1(builtin_dialgebra("mat2_q")).is_zero()


def test_ideal_vanishes_for_algebra_dialgebras():
    # both products coincide, so the degree-one ideal is zero
    for name in ("rationals", "dual_numbers_q", "grassmann_q", "mat2_q"):
        h = degree_one_homology(builtin_dialgebra(name))
        assert h.ideal_gens == []


def test_ideal_nonzero_for_bar_duplex():
    h = degree_one_homology(builtin_dialgebra("bar_duplex_q"))
    assert h.ideal_gens != []


# ---------------------------------------------------------------------------
# splitting checks
# ---------------------------------------------------------------------------


SPLITTING_CASES = [
    (2, 2, "rationals"),
    (3, 0, "rationals"),
    (3, 0, "f3"),
    (4, 0, "f2"),
    (4, 0, "integers"),
    (3, 1, "f2"),
    (2, 1, "rationals"),
    (2, 1, "grassmann_q"),
    (2, 1, "dual_numbers_q"),
    (2, 1, "bar_duplex_q"),
]

FLAGS = ("str2_well_defined", "mu_well_defined", "trace_square_commutes",
         "embed_square_commutes", "section_identity", "retraction_identity",
         "surjective", "invariants_match", "parity_preserving")


@pytest.mark.parametrize("m,n,name", SPLITTING_CASES)
def test_splitting_diagram(m, n, name):
    rep = splitting_check(m, n, builtin_dialgebra(name))
    assert rep.str2_well_defined
    assert rep.mu_well_defined
    assert rep.trace_square_commutes
    assert rep.embed_square_commutes
    assert rep.section_identity
    assert rep.retraction_identity
    assert rep.surjective
    assert rep.invariants_match
    assert rep.parity_preserving
    assert rep.isomorphism and rep.ok


def test_splitting_diagram_super_2_2():
    # a fully super witness of the (2, 2) decomposition: HHS_1 contributes
    # (1|1) and the m = 0 quotient contributes D twice, so (3|3) in total
    rep = splitting_check(2, 2, builtin_dialgebra("grassmann_q"))
    assert rep.ok
    assert (rep.computed_hl2.even_free_rank, rep.computed_hl2.odd_free_rank) == (3, 3)


def test_splitting_rejects_unclassified():
    with pytest.raises(ValueError):
        splitting_check(1, 2, builtin_dialgebra("rationals"))


def _drop_orbit_sign(monkeypatch):
    """Break Str2: every pattern maps to its orbit representative with sign
    +1, so the coefficients of the relations v_ijkl = -v_ilkj no longer
    cancel."""
    rep_and_sign = hochschild.pattern_rep_and_sign
    monkeypatch.setattr(hochschild, "pattern_rep_and_sign",
                        lambda m, n, pat: (rep_and_sign(m, n, pat)[0], 1))


def _str2_kills_every_d3_column(m, n, dlg) -> bool:
    """Check (a) as it was first written, the reference for the check on
    the echelon rows: Str2 on every nonzero column of delta_3."""
    base = with_bar_unit_first(dlg)
    slalg = sl(m, n, base)
    hoch = degree_one_homology(base)
    str2 = hochschild._Str2(slalg)
    quotients = {rep: quotient_Dm(base, pattern_modulus(m, n, rep)) for rep in str2.reps}
    for col in delta(slalg.algebra, 3).matrix.columns():
        if not col:
            continue
        dd, w = str2.eval(col)
        if not hoch.is_zero_class(dd):
            return False
        for rep, wcol in w.items():
            if quotients[rep].echelon.residue_of(wcol).any():
                return False
    return True


@pytest.mark.parametrize("name", ["f3", "rationals"])
def test_splitting_check_catches_a_broken_str2(monkeypatch, name):
    _drop_orbit_sign(monkeypatch)
    rep = splitting_check(2, 2, builtin_dialgebra(name))
    assert not rep.str2_well_defined
    assert all(getattr(rep, f) for f in FLAGS if f != "str2_well_defined")


@pytest.mark.parametrize("broken", [False, True])
@pytest.mark.parametrize("m,n,name", SPLITTING_CASES)
def test_str2_check_on_image_rows_equals_check_on_all_columns(monkeypatch, m, n, name, broken):
    if broken:
        _drop_orbit_sign(monkeypatch)
    dlg = builtin_dialgebra(name)
    want = _str2_kills_every_d3_column(m, n, dlg)
    assert splitting_check(m, n, dlg).str2_well_defined == want


@pytest.mark.parametrize("m,n,name", [(3, 0, "f3"), (2, 1, "rationals"), (4, 0, "integers")])
def test_d2_kernel_blocks_span_the_kernel(m, n, name):
    ts = tensor_square(sl(m, n, builtin_dialgebra(name)).algebra)
    gens = [[(idx[i], v) for i, v in col]
            for _, idx, ker, _ in chain.blocked_complex(ts.base, 2)[1]
            for col in ker.columns()]
    assert len(gens) == ts.ambient_dim - ts.base.dim
    ring, amb = ts.base.ring, ts.ambient_dim
    blocks = Echelon(ring, amb).extend(gens)
    dense = Echelon(ring, amb).extend(kernel_basis(ts.d2.matrix).columns())
    assert blocks.same_span(dense)  # over Z: the same lattice


def test_splitting_image_meeting_two_blocks_raises(monkeypatch):
    # (f) extends each block by the images of the map that lie in it; an
    # image split across two blocks would enlarge the span
    real = hochschild._Mu.of_pattern

    def leaky(self, rep, items):
        return [(0, 1)] + [(t, v) for t, v in real(self, rep, items) if t != 0]

    monkeypatch.setattr(hochschild._Mu, "of_pattern", leaky)
    with pytest.raises(RuntimeError, match="not one block of L \\(x\\) L"):
        splitting_check(3, 1, builtin_dialgebra("f2"))


def test_d2_kernel_blocks_check_their_count(monkeypatch):
    # the block kernels are built once and shared, and tensor_square checks
    # their counts as it reads them: the zero delta_2 goes in at chain.delta
    real = chain.delta

    def zero_d2(l, n, guard=chain.DEFAULT_SIZE_GUARD):
        d = real(l, n, guard)
        if n != 2:
            return d
        return replace(d, matrix=SparseMat.zeros(l.ring, d.matrix.rows, d.matrix.cols))

    monkeypatch.setattr(chain, "delta", zero_d2)
    with pytest.raises(RuntimeError, match="dim\\^2 - dim"):
        tensor_square(sl(2, 1, builtin_dialgebra("rationals")).algebra)
