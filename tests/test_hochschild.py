"""Hochschild boundary, degree-one homology, and the splitting diagram."""

import json
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest

from uce_lab import chain, hochschild, leibniz
from uce_lab.chain import delta
from uce_lab.exactlin import (
    Echelon,
    GradedFreeModule,
    SparseMat,
    SpanSolver,
    kernel_basis,
    multiply,
    snf,
)
from uce_lab.hochschild import (
    NoBarUnitBasisError,
    d,
    degree_one_homology,
    hhs1,
    splitting_check,
)
from uce_lab.leibniz import from_dialgebra, sl
from uce_lab.superdialg import (
    SuperDialgebra,
    builtin_dialgebra,
    catalog_names,
    load_dialgebra,
    matrix_dialgebra,
    quotient_Dm,
    tensor_product,
    validate,
)
from uce_lab.tensorsq import (
    admissible_patterns,
    pattern_modulus,
    pattern_rep_and_sign,
    tensor_square,
)

from helpers import entries_of

UNITAL = [n for n in catalog_names() if builtin_dialgebra(n).is_unital]


# ---------------------------------------------------------------------------
# boundary
# ---------------------------------------------------------------------------


def test_d1_equals_dialgebra_bracket_matrix():
    # d_1(a (x) b) = a <| b - (-1)^{|a||b|} b |> a = [a, b]
    for name in UNITAL:
        dlg = builtin_dialgebra(name)
        d1 = d(dlg, 1)
        bracket = delta(from_dialgebra(dlg), 2)
        assert d1.matrix == bracket.matrix


def test_d2_on_rationals():
    # 1x1 - 1x1 + 1x1 with alternating interior signs
    dlg = builtin_dialgebra("rationals")
    d2 = d(dlg, 2)
    assert d2.matrix.columns()[0] == [(0, 1)]


@pytest.mark.parametrize("name", UNITAL)
def test_complex_property_degrees_1_and_2(name):
    dlg = builtin_dialgebra(name)
    d1, d2, d3 = d(dlg, 1), d(dlg, 2), d(dlg, 3)
    assert (d1.matrix @ d2.matrix).is_zero()
    assert (d2.matrix @ d3.matrix).is_zero()


def test_d_requires_bar_unit():
    with pytest.raises(NoBarUnitBasisError):
        d(builtin_dialgebra("t3_dga_q"), 1)


def test_d_requires_a_nonzero_dialgebra(zero_dim_data):
    # the empty bar-unit of the zero dialgebra lies in no basis
    zero = load_dialgebra(zero_dim_data)
    assert validate(zero) == [] and zero.is_unital
    with pytest.raises(NoBarUnitBasisError, match="zero-dimensional"):
        d(zero, 1)


def test_d_is_parity_even():
    dlg = builtin_dialgebra("grassmann_q")
    for n in (1, 2):
        hm = d(dlg, n)
        for (i, j) in entries_of(hm.matrix):
            assert hm.target.parity[i] == hm.source.parity[j]


# ---------------------------------------------------------------------------
# D's own basis against a basis with the bar-unit first
# ---------------------------------------------------------------------------


def _with_bar_unit_first(dlg: SuperDialgebra, completion=None) -> SuperDialgebra:
    """Reference: D rewritten on a basis whose first vector is the bar-unit,
    the form in which the paper states its hypothesis.  The other vectors
    are ``completion`` or, by default, the greedy completion over the
    standard basis; over the integers the change of basis must be
    unimodular (ValueError otherwise).  The copy keeps D's name, so reports
    on it compare whole with reports on D."""
    ring, dim = dlg.ring, dlg.dim
    unit = list(dlg.bar_unit)
    if completion is None:
        ech = Echelon(ring, dim)
        ech.insert(ech.vector(unit))
        completion = [dlg.basis_vector(t) for t in range(dim)
                      if ech.insert(ech.vector(dlg.basis_vector(t)))]
    chosen = [unit] + [[(i, ring.normalize(c)) for i, c in v] for v in completion]
    basis = SparseMat(ring, dim, len(chosen),
                      {(i, j): x for j, v in enumerate(chosen) for i, x in v})
    if len(chosen) != dim or (ring.kind == "integers" and any(x != 1 for x in snf(basis))):
        raise ValueError(f"{dlg.name}: the completion is not a unimodular basis")
    solver = SpanSolver(basis)
    left, right = {}, {}
    for i in range(dim):
        for j in range(dim):
            for table, out in ((dlg.left, left), (dlg.right, right)):
                if coords := solver.solve(multiply(ring, table, chosen[i], chosen[j])):
                    out[(i, j)] = coords
    mod = GradedFreeModule(dim, tuple(dlg.element_parity(v) for v in chosen))
    return SuperDialgebra(ring, mod, left, right, ((0, ring.one),), dlg.name)


# the skew Z x Z with (2, 3), (1, 1) after its bar-unit: the greedy
# completion (2, 3), (1, 0) has determinant -3
REWRITES = [(2, 1, "mat2_q", None), (3, 0, "mat2_q", None),
            (2, 1, "skew_zz", [[(0, 1), (1, 1)]])]


@pytest.mark.parametrize("m,n,name,completion", REWRITES)
def test_results_do_not_depend_on_the_basis(m, n, name, completion, skew_zz_data):
    dlg = load_dialgebra(skew_zz_data) if name == "skew_zz" else builtin_dialgebra(name)
    moved = _with_bar_unit_first(dlg, completion)
    assert validate(moved) == []
    assert moved.bar_unit == ((0, 1),)
    assert hhs1(dlg).to_json() == hhs1(moved).to_json()
    reports = [json.dumps(splitting_check(m, n, x).to_json(), sort_keys=True)
               for x in (dlg, moved)]
    assert reports[0] == reports[1]


def test_greedy_completion_of_the_skew_zz_is_not_unimodular(skew_zz_data):
    # a valid D whose bar-unit the greedy completion cannot extend, so D is
    # used on its own basis
    with pytest.raises(ValueError, match="unimodular"):
        _with_bar_unit_first(load_dialgebra(skew_zz_data))


def _fractional_constants(slalg) -> int:
    return sum(Fraction(c).denominator != 1
               for terms in slalg.algebra.table.values() for _, c in terms)


def test_sl_of_mat2_on_its_own_basis_is_integral(monkeypatch):
    # the fractional constants came from the change of basis alone
    dlg = builtin_dialgebra("mat2_q")
    assert _fractional_constants(sl(3, 0, dlg)) == 0
    assert _fractional_constants(sl(3, 0, _with_bar_unit_first(dlg))) > 0
    switches = []
    real = Echelon._to_fracfield

    def counted(self):
        switches.append(self.mode)
        real(self)

    monkeypatch.setattr(Echelon, "_to_fracfield", counted)
    assert splitting_check(3, 0, dlg).ok
    assert switches == []


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
    the echelon rows: Str2 on every nonzero column of delta_3, its D (x) D
    part tested against Im d_2 + I and each rep's block against its D_k."""
    slalg = sl(m, n, dlg)
    hoch = degree_one_homology(dlg)
    reps = sorted({pattern_rep_and_sign(m, n, p)[0] for p in admissible_patterns(m, n)})
    str2 = hochschild._str2(slalg, reps)
    dim_d = dlg.dim
    quotients = [quotient_Dm(dlg, pattern_modulus(m, n, rep)) for rep in reps]
    for col in delta(slalg.algebra, 3).matrix.columns():
        if not col:
            continue
        image = str2.apply(col)
        if not hoch.is_zero_class([(i, x) for i, x in image if i < dim_d ** 2]):
            return False
        for p, q in enumerate(quotients):
            lo = dim_d * (dim_d + p)
            if q.echelon.residue([(i - lo, x) for i, x in image if lo <= i < lo + dim_d]):
                return False
    return True


@pytest.mark.parametrize("name", ["f3", "rationals"])
def test_splitting_check_catches_a_broken_str2(monkeypatch, name):
    _drop_orbit_sign(monkeypatch)
    rep = splitting_check(2, 2, builtin_dialgebra(name))
    assert not rep.str2_well_defined
    assert all(getattr(rep, f) for f in FLAGS if f != "str2_well_defined")


def _failing(rep) -> list:
    return [f for f in FLAGS if not getattr(rep, f)]


def _doubled(items) -> list:
    return [(k, 2 * v) for k, v in items]


def _double_supertrace(monkeypatch):
    supertrace = leibniz.GeneralLinear.supertrace
    monkeypatch.setattr(leibniz.GeneralLinear, "supertrace",
                        lambda self, items: _doubled(supertrace(self, items)))


def test_splitting_check_catches_a_broken_trace_square(monkeypatch):
    # (b), left square: Str o embed o delta_2 against d_1 o Str2.  Over
    # mat2_q, d_1 != 0, so the square has nonzero entries to compare
    _double_supertrace(monkeypatch)
    assert _failing(splitting_check(3, 0, builtin_dialgebra("mat2_q"))) == [
        "trace_square_commutes"]


def _with_columns(mat, cols) -> SparseMat:
    return SparseMat(mat.ring, mat.rows, len(cols),
                     {(i, j): v for j, col in enumerate(cols) for i, v in col})


def _patch_builder(monkeypatch, name, change):
    """Replace the map hochschild.<name> builds by change(its matrix, the
    builder's arguments)."""
    real = getattr(hochschild, name)
    monkeypatch.setattr(hochschild, name, lambda *args: change(real(*args), *args))


def _double_mu_on_dd(monkeypatch):
    # mu doubled on its D (x) D columns, the first dim D ** 2 of the middle space
    def doubled(mu, slalg, ts, reps):
        dd_dim = slalg.gl.dlg.dim ** 2
        return _with_columns(mu, [_doubled(col) if t < dd_dim else col
                                  for t, col in enumerate(mu.columns())])

    _patch_builder(monkeypatch, "_mu", doubled)


def test_splitting_check_catches_a_broken_embed_square(monkeypatch):
    # (b), right square: embed o delta_2 o mu against E_11(d_1).  A doubled mu
    # still kills the relations, and HHS_1(mat2_q) = 0 hides it from (d), (e)
    _double_mu_on_dd(monkeypatch)
    assert _failing(splitting_check(3, 0, builtin_dialgebra("mat2_q"))) == [
        "embed_square_commutes"]


@pytest.mark.parametrize("m,n,name", [(3, 0, "f3"), (2, 1, "bar_duplex_q")])
def test_splitting_check_catches_a_mu_that_misses_the_relations(monkeypatch, m, n, name):
    # (c): mu(a (x) b) without its term E_12(b |> a) (x) E_21(1) no longer
    # kills Im d_2 + I, and no longer lifts d_1 either
    def first_term(mu, slalg, ts, reps):
        dlg = slalg.gl.dlg
        unit, coords = dlg.basis_vector, slalg.coords_of_unit
        cols = list(mu.columns())
        for t, (a, b) in enumerate(product(range(dlg.dim), repeat=2)):
            cols[t] = ts.pair_vector(coords(1, 2, unit(a)), coords(2, 1, unit(b)))
        return _with_columns(mu, cols)

    _patch_builder(monkeypatch, "_mu", first_term)
    assert _failing(splitting_check(m, n, builtin_dialgebra(name))) == [
        "mu_well_defined", "embed_square_commutes"]


@pytest.mark.parametrize("part", ["hochschild", "kernel classes"])
def test_splitting_check_catches_maps_that_are_not_inverse(monkeypatch, part):
    # (d) Str2 o mu = id and (e) mu o Str2 = id: a doubled summand breaks
    # both, as over a field either identity implies the other.  HHS_1 of
    # dual_numbers_q and the W classes of (2, 2) are nonzero
    def doubled(str2, slalg, reps):
        dd_dim = slalg.gl.dlg.dim ** 2
        pick = (lambda i: i < dd_dim) if part == "hochschild" else (lambda i: i >= dd_dim)
        return _with_columns(str2, [[(i, 2 * v if pick(i) else v) for i, v in col]
                                    for col in str2.columns()])

    _patch_builder(monkeypatch, "_str2", doubled)
    m, n, name = (2, 1, "dual_numbers_q") if part == "hochschild" else (2, 2, "grassmann_q")
    assert _failing(splitting_check(m, n, builtin_dialgebra(name))) == [
        "section_identity", "retraction_identity"]


@pytest.mark.parametrize("m,n,name", [(3, 0, "f3"), (2, 2, "grassmann_q"), (3, 1, "f2")])
def test_splitting_check_catches_wrong_pattern_parities(monkeypatch, m, n, name):
    # (g): with every pattern's parity offset off by one, the images of the
    # block units no longer have the parity of their sources
    offset = hochschild.pattern_parity_offset
    monkeypatch.setattr(hochschild, "pattern_parity_offset",
                        lambda m, n, pat: offset(m, n, pat) + 1)
    assert _failing(splitting_check(m, n, builtin_dialgebra(name))) == ["parity_preserving"]


# Composites with d_1 != 0, built by the existing constructors: their
# squares (b) compare nonzero maps.  Their sl has dimension 70, over the
# default size guard, so they run with an explicit one.
COMPOSITES = {
    "M2(dual_numbers_q)": lambda: matrix_dialgebra(2, builtin_dialgebra("dual_numbers_q")),
    "mat2_q (x) grassmann_q": lambda: tensor_product(builtin_dialgebra("mat2_q"),
                                                     builtin_dialgebra("grassmann_q")),
    "M2(bar_duplex_q)": lambda: matrix_dialgebra(2, builtin_dialgebra("bar_duplex_q")),
}
BIG_GUARD = 10 ** 9


@pytest.mark.parametrize("m,n,name,d1_nnz", [
    (3, 0, "M2(dual_numbers_q)", 36),
    (2, 1, "mat2_q (x) grassmann_q", 36),
    (2, 1, "M2(bar_duplex_q)", 48),
])
def test_splitting_diagram_of_a_composite_with_nonzero_d1(m, n, name, d1_nnz):
    dlg = COMPOSITES[name]()
    assert d(dlg, 1).matrix.nnz() == d1_nnz
    assert splitting_check(m, n, dlg, guard=BIG_GUARD).ok


@pytest.mark.parametrize("m,n,name,failing", [
    (2, 1, "mat2_q (x) grassmann_q", ["trace_square_commutes"]),
    (3, 0, "M2(bar_duplex_q)", ["trace_square_commutes"]),
])
def test_composite_catches_a_doubled_supertrace(monkeypatch, m, n, name, failing):
    _double_supertrace(monkeypatch)
    assert _failing(splitting_check(m, n, COMPOSITES[name](), guard=BIG_GUARD)) == failing


@pytest.mark.parametrize("m,n,name,failing", [
    # HHS_1 is (1|1) for the Grassmann composite and 0 for M2(bar_duplex_q),
    # so only the first shows the doubled mu in (d) and (e) too
    (2, 1, "mat2_q (x) grassmann_q",
     ["embed_square_commutes", "section_identity", "retraction_identity"]),
    (3, 0, "M2(bar_duplex_q)", ["embed_square_commutes"]),
])
def test_composite_catches_a_doubled_mu_on_d_tensor_d(monkeypatch, m, n, name, failing):
    _double_mu_on_dd(monkeypatch)
    assert _failing(splitting_check(m, n, COMPOSITES[name](), guard=BIG_GUARD)) == failing


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
    gens = [[(b.idx[i], v) for i, v in col]
            for b in chain.blocked_complex(ts.base, 2)[1]
            for col in b.kernel.columns()]
    assert len(gens) == ts.ambient_dim - ts.base.dim
    ring, amb = ts.base.ring, ts.ambient_dim
    blocks = Echelon(ring, amb).extend(gens)
    dense = Echelon(ring, amb).extend(kernel_basis(ts.d2.matrix).columns())
    assert blocks.same_span(dense)  # over Z: the same lattice


def test_splitting_image_meeting_two_blocks_raises(monkeypatch):
    # (f) extends each block by the images of the map that lie in it; an
    # image split across two blocks would enlarge the span
    def leaky(mu, slalg, ts, reps):
        dd_dim = slalg.gl.dlg.dim ** 2
        return _with_columns(mu, [col if t < dd_dim else [(0, 1)] + [(i, v) for i, v in col if i != 0]
                                  for t, col in enumerate(mu.columns())])

    _patch_builder(monkeypatch, "_mu", leaky)
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
