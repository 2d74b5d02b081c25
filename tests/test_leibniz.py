"""Leibniz superalgebras from dialgebras; gl/sl, supertrace, centre,
perfectness, and the bracket-formula and identity property suites."""

from dataclasses import replace
from itertools import permutations
from pathlib import Path

import pytest

from uce_lab import exactlin, theorems
from uce_lab.exactlin import Echelon, SpanSolver
from uce_lab.leibniz import centre, from_dialgebra, gl, is_perfect, sl
from uce_lab.superdialg import (builtin_dialgebra, catalog_names, load_dialgebra_file,
                                matrix_dialgebra)
from uce_lab.tensorsq import w_cycles
from uce_lab.theorems import default_cases

UNITAL = [n for n in catalog_names() if builtin_dialgebra(n).is_unital]
DATA = Path(__file__).resolve().parents[1] / "perfbench" / "data"
# every unital catalog dialgebra and the benchmark's file sources, on the
# small shapes
SL_CASES = ([(m, n, nm) for m, n in [(2, 1), (3, 0), (2, 2)] for nm in UNITAL]
            + [(m, n, nm) for m, n in [(2, 1), (2, 2)] for nm in ("split_halfx", "dual_z")])


def _dialgebra(name):
    path = DATA / f"{name}.json"
    return load_dialgebra_file(path) if path.exists() else builtin_dialgebra(name)


def _pairs(dense):
    """The nonzero (index, value) pairs of a dense vector, the form of every
    element of an algebra."""
    return [(i, x) for i, x in enumerate(dense) if x != 0]


def _dense(n, items):
    out = [0] * n
    for i, x in items:
        out[i] = x
    return out


def _bracket_span_echelon(l):
    """The echelon (over Z: the lattice) of every basis bracket of l."""
    return Echelon(l.ring, l.dim).extend(
        l.bracket(l.basis_vector(i), l.basis_vector(j)) for i in range(l.dim) for j in range(l.dim)
    )


# ---------------------------------------------------------------------------
# from_dialgebra
# ---------------------------------------------------------------------------


def test_commutative_algebra_gives_abelian_bracket():
    l = from_dialgebra(builtin_dialgebra("dual_numbers_q"))
    assert l.table == {}


def test_bar_duplex_bracket_vanishes():
    # x <| y = x s(y) equals y |> x = s(y) x, so the bracket is zero
    l = from_dialgebra(builtin_dialgebra("bar_duplex_q"))
    assert l.table == {}


def test_mat2_gives_gl2_commutator():
    l = from_dialgebra(builtin_dialgebra("mat2_q"))
    e12, e21 = l.basis_vector(1), l.basis_vector(2)
    assert l.bracket(e12, e21) == [(0, 1), (3, -1)]           # E11 - E22
    assert l.bracket(e21, e12) == [(0, -1), (3, 1)]


def _dense_from_dialgebra(d):
    """The construction from_dialgebra replaced, kept as the reference: every
    basis bracket through SuperDialgebra.bracket on basis vectors."""
    table = {}
    for i in range(d.dim):
        for j in range(d.dim):
            v = d.bracket(d.basis_vector(i), d.parity(i),
                          d.basis_vector(j), d.parity(j))
            if v:
                table[(i, j)] = v
    return table


@pytest.mark.parametrize("name", catalog_names())
def test_from_dialgebra_matches_the_dense_brackets(name):
    d = builtin_dialgebra(name)
    # repr: the same pairs, terms, order and value types (Fraction vs int)
    assert repr(from_dialgebra(d).table) == repr(_dense_from_dialgebra(d))


@pytest.mark.parametrize("m,n", [(2, 1), (2, 2)])
@pytest.mark.parametrize("name", ["grassmann_q", "mat2_q", "bar_duplex_f2"])
def test_gl_table_matches_the_dense_brackets(m, n, name):
    d = builtin_dialgebra(name)
    g = gl(m, n, d)
    graded = matrix_dialgebra(m + n, d).regrade(g.algebra.module.parity)
    assert repr(g.algebra.table) == repr(_dense_from_dialgebra(graded))


# ---------------------------------------------------------------------------
# gl
# ---------------------------------------------------------------------------


def test_gl_1_0_is_abelian():
    assert gl(1, 0, builtin_dialgebra("rationals")).algebra.table == {}


def test_gl_2_0_classical_commutator():
    g = gl(2, 0, builtin_dialgebra("rationals"))
    v = g.algebra.bracket(g.unit_vector(1, 2, [(0, 1)]), g.unit_vector(2, 1, [(0, 1)]))
    assert v == [(g.unit_index(1, 1, 0), 1), (g.unit_index(2, 2, 0), -1)]


@pytest.mark.parametrize("m, n", [(-1, 4), (3, -1), (-2, 0)])
def test_gl_rejects_negative_sizes(m, n):
    with pytest.raises(ValueError, match=">= 0"):
        gl(m, n, builtin_dialgebra("rationals"))


def test_gl_1_1_super_sign():
    # both generators odd: [E12, E21] = E11 + E22
    g = gl(1, 1, builtin_dialgebra("rationals"))
    v = g.algebra.bracket(g.unit_vector(1, 2, [(0, 1)]), g.unit_vector(2, 1, [(0, 1)]))
    assert v == [(g.unit_index(1, 1, 0), 1), (g.unit_index(2, 2, 0), 1)]


def test_gl_grading():
    g = gl(1, 1, builtin_dialgebra("grassmann_q"))
    x_odd = g.unit_index(1, 1, 1)   # E11(x): |1|+|1|+|x| = 1
    e12_1 = g.unit_index(1, 2, 0)   # E12(1): 0+1+0 = 1
    e12_x = g.unit_index(1, 2, 1)   # E12(x): 0+1+1 = 0
    assert g.algebra.parity(x_odd) == 1
    assert g.algebra.parity(e12_1) == 1
    assert g.algebra.parity(e12_x) == 0


@pytest.mark.parametrize("m,n,name", [
    (2, 0, "rationals"), (1, 1, "rationals"), (2, 1, "rationals"),
    (1, 1, "grassmann_q"), (2, 0, "dual_numbers_q"), (1, 1, "f2"),
])
def test_gl_bracket_formula_on_matrix_units(m, n, name):
    """[E_ij(a), E_kl(b)] = d_jk E_il(a <| b)
    - (-1)^{|E_ij(a)||E_kl(b)|} d_il E_kj(b |> a), checked exhaustively."""
    d = builtin_dialgebra(name)
    g = gl(m, n, d)
    size = m + n
    ring = d.ring
    for i in range(1, size + 1):
        for j in range(1, size + 1):
            for a in range(d.dim):
                for k in range(1, size + 1):
                    for l in range(1, size + 1):
                        for b in range(d.dim):
                            x = g.unit_vector(i, j, d.basis_vector(a))
                            y = g.unit_vector(k, l, d.basis_vector(b))
                            got = g.algebra.bracket(x, y)
                            px = (g.row_parity(i) + g.row_parity(j) + d.parity(a)) % 2
                            py = (g.row_parity(k) + g.row_parity(l) + d.parity(b)) % 2
                            expect = [ring.zero] * g.algebra.dim
                            if j == k:
                                ab = d.lmul(d.basis_vector(a), d.basis_vector(b))
                                for t, c in ab:
                                    expect[g.unit_index(i, l, t)] += c
                            if i == l:
                                ba = d.rmul(d.basis_vector(b), d.basis_vector(a))
                                sgn = -ring.one if (px * py) % 2 else ring.one
                                for t, c in ba:
                                    expect[g.unit_index(k, j, t)] -= sgn * c
                            assert got == _pairs([ring.normalize(v) for v in expect])


# ---------------------------------------------------------------------------
# supertrace
# ---------------------------------------------------------------------------


def test_supertrace_signs():
    g = gl(2, 1, builtin_dialgebra("rationals"))
    assert g.supertrace(g.unit_vector(1, 1, [(0, 1)])) == [(0, 1)]
    assert g.supertrace(g.unit_vector(3, 3, [(0, 1)])) == [(0, -1)]
    gg = gl(2, 1, builtin_dialgebra("grassmann_q"))
    assert gg.supertrace(gg.unit_vector(3, 3, [(1, 1)])) == [(1, 1)]
    assert gg.supertrace(gg.unit_vector(3, 3, [(0, 1)])) == [(0, -1)]
    assert gg.supertrace(gg.unit_vector(1, 3, [(0, 1)])) == []


# ---------------------------------------------------------------------------
# sl
# ---------------------------------------------------------------------------


def test_sl_dimensions():
    assert sl(2, 0, builtin_dialgebra("rationals")).algebra.dim == 3
    assert sl(2, 2, builtin_dialgebra("rationals")).algebra.dim == 15
    # supertrace lands in [D, D] = 0 for the abelian duplex: codim = dim D
    assert sl(2, 2, builtin_dialgebra("bar_duplex_q")).algebra.dim == 30
    assert sl(2, 1, builtin_dialgebra("mat2_q")).algebra.dim == 35


@pytest.mark.parametrize("m,n,name", [
    (2, 0, "rationals"), (2, 1, "rationals"), (1, 1, "grassmann_q"),
    (2, 1, "dual_numbers_q"), (2, 0, "bar_duplex_q"), (2, 1, "f2"),
    (2, 1, "f3"), (2, 0, "mat2_q"), (2, 2, "grassmann_q"),
])
def test_sl_supertrace_characterization_cross_check(m, n, name):
    # construction raises when [gl, gl] differs from the supertrace condition
    sl(m, n, builtin_dialgebra(name))


@pytest.mark.parametrize("m,n,name", [
    (2, 1, "rationals"), (1, 1, "grassmann_q"), (2, 1, "f2"),
])
def test_sl_bracket_on_generators_matches_formula(m, n, name):
    # the bracket computed through sl coordinates agrees with
    # d_jk E_il(a <| b) - sign d_il E_kj(b |> a) for off-diagonal units
    d = builtin_dialgebra(name)
    s = sl(m, n, d)
    g = s.gl
    ring = d.ring
    size = m + n
    for i in range(1, size + 1):
        for j in range(1, size + 1):
            if i == j:
                continue
            for k in range(1, size + 1):
                for l in range(1, size + 1):
                    if k == l:
                        continue
                    for a in range(d.dim):
                        for b in range(d.dim):
                            x = s.coords_of_unit(i, j, d.basis_vector(a))
                            y = s.coords_of_unit(k, l, d.basis_vector(b))
                            got = s.embed(s.algebra.bracket(x, y))
                            px = (g.row_parity(i) + g.row_parity(j) + d.parity(a)) % 2
                            py = (g.row_parity(k) + g.row_parity(l) + d.parity(b)) % 2
                            expect = [ring.zero] * g.algebra.dim
                            if j == k:
                                for t, c in d.lmul(d.basis_vector(a), d.basis_vector(b)):
                                    expect[g.unit_index(i, l, t)] += c
                            if i == l:
                                sgn = -ring.one if (px * py) % 2 else ring.one
                                for t, c in d.rmul(d.basis_vector(b), d.basis_vector(a)):
                                    expect[g.unit_index(k, j, t)] -= sgn * c
                            assert got == _pairs([ring.normalize(v) for v in expect])


def _dense_sl_table(s):
    """The construction sl replaced, kept as the reference: every structure
    constant from one gl bracket of two embedded sl basis vectors, solved
    for in the whole inclusion."""
    incl, g = s.inclusion, s.gl.algebra
    solver = SpanSolver(incl)
    embedded = incl.columns()
    table = {}
    for a in range(incl.cols):
        for b in range(incl.cols):
            v = g.bracket(embedded[a], embedded[b])
            if v and (coords := solver.solve(v)):
                table[(a, b)] = coords
    return table


@pytest.mark.parametrize("m,n,name", SL_CASES)
def test_sl_table_matches_the_dense_brackets(m, n, name):
    s = sl(m, n, _dialgebra(name))
    # repr: the same pairs, terms, order and value types (Fraction vs int)
    assert repr(s.algebra.table) == repr(_dense_sl_table(s))
    ring = s.algebra.ring
    assert all(c == ring.normalize(c) for terms in s.algebra.table.values() for _, c in terms)


@pytest.mark.parametrize("m,n,name", sorted(
    set(SL_CASES) | {(c.m, c.n, c.dialgebra) for c in default_cases()}))
def test_sl_spans_every_gl_bracket_and_every_unit_off_the_diagonal(m, n, name):
    s = sl(m, n, _dialgebra(name))
    g, incl = s.gl, s.inclusion
    ech = Echelon(incl.ring, incl.rows).extend(incl.columns())
    # over Z: the same lattice
    assert ech.same_span(_bracket_span_echelon(g.algebra))
    off_diagonal = [[(g.unit_index(i, j, b), 1)] for i, j in permutations(range(1, g.size + 1), 2)
                    for b in range(g.dlg.dim)]
    assert all(unit in incl.columns() for unit in off_diagonal)


def test_sl_off_diagonal_units_are_members():
    s = sl(2, 1, builtin_dialgebra("dual_numbers_q"))
    coords = s.coords_of_unit(1, 3, [(1, 1)])
    assert coords and all(c != 0 for _, c in coords)
    back = s.embed(coords)
    assert back == s.gl.unit_vector(1, 3, [(1, 1)])
    # an index may repeat, and its values are summed
    assert s.coords_of_unit(1, 3, [(1, 1), (0, 2), (1, -1)]) == s.coords_of_unit(1, 3, [(0, 2)])
    with pytest.raises(ValueError, match="diagonal"):
        s.coords_of_unit(1, 1, [(0, 1)])


def test_sl_rejects_a_bar_unit_that_breaks_the_bar_unit_law():
    # (0, 1) is the nilpotent generator; validate() would reject it, so only
    # a directly built structure reaches sl
    d = replace(builtin_dialgebra("dual_numbers_q"), bar_unit=((1, 1),))
    with pytest.raises(RuntimeError, match="not a bar-unit"):
        sl(2, 1, d)


@pytest.mark.parametrize("m,n,name", [(3, 0, "f3"), (2, 2, "f3")])
def test_sl_solves_only_at_weight_0_and_units_need_no_solve(monkeypatch, m, n, name):
    d = builtin_dialgebra(name)
    # the expected W comes from a quotient of D, whose invariants take
    # coordinates in D; pinned, so that only the sl side is counted
    expected = theorems.expected_w(m, n, d)
    monkeypatch.setattr(theorems, "expected_w", lambda *args: expected)
    calls = []
    solve = SpanSolver.solve
    monkeypatch.setattr(exactlin.SpanSolver, "solve",
                        lambda self, vec: calls.append(1) or solve(self, vec))
    s = sl(m, n, d)
    w = s.algebra.weight
    weight_0_pairs = sum(1 for a in w for b in w if not any(x + y for x, y in zip(a, b)))
    assert 0 < len(calls) <= weight_0_pairs
    calls.clear()
    s.coords_of_unit(1, 2, [(0, 1)])
    assert w_cycles(s).ok
    assert calls == []


# ---------------------------------------------------------------------------
# centre / perfectness
# ---------------------------------------------------------------------------


def test_centre_of_abelian_is_everything():
    l = gl(1, 0, builtin_dialgebra("dual_numbers_q")).algebra
    assert centre(l).cols == l.dim


def test_centre_of_sl2_is_zero():
    assert centre(sl(2, 0, builtin_dialgebra("rationals")).algebra).cols == 0


def test_centre_of_gl2_is_scalars():
    z = centre(gl(2, 0, builtin_dialgebra("rationals")).algebra)
    assert z.cols == 1
    col = _dense(4, z.columns()[0])
    assert col[0] == col[3] != 0 and col[1] == col[2] == 0


def test_perfectness():
    assert is_perfect(sl(2, 1, builtin_dialgebra("rationals")).algebra)
    assert is_perfect(sl(3, 0, builtin_dialgebra("f2")).algebra)
    assert not is_perfect(gl(1, 0, builtin_dialgebra("rationals")).algebra)
    assert not is_perfect(gl(2, 0, builtin_dialgebra("rationals")).algebra)
    # over Z the bracket lattice must be all of L, not of full rank only
    assert not is_perfect(sl(2, 0, builtin_dialgebra("integers")).algebra)
    assert is_perfect(sl(2, 0, builtin_dialgebra("rationals")).algebra)
    assert is_perfect(sl(3, 0, builtin_dialgebra("integers")).algebra)


@pytest.mark.parametrize("kind,m,n,name", [
    ("sl", 2, 0, "integers"), ("sl", 3, 0, "integers"), ("sl", 2, 1, "dual_numbers_q"),
    ("sl", 2, 2, "f2"), ("gl", 2, 0, "integers"), ("gl", 1, 1, "grassmann_q"),
    ("gl", 2, 1, "f3"),
])
def test_perfectness_agrees_with_reading_every_bracket(kind, m, n, name):
    alg = (sl if kind == "sl" else gl)(m, n, builtin_dialgebra(name)).algebra
    assert is_perfect(alg) == _bracket_span_echelon(alg).is_full()


# ---------------------------------------------------------------------------
# Leibniz identity property suite
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", catalog_names())
def test_leibniz_identity_from_dialgebra(name):
    l = from_dialgebra(builtin_dialgebra(name))
    assert l.leibniz_violations() == []
    assert l.parity_violations() == []


@pytest.mark.parametrize("m,n,name", [
    (2, 0, "rationals"), (1, 1, "rationals"), (2, 1, "rationals"),
    (1, 1, "grassmann_q"), (2, 1, "grassmann_q"), (2, 2, "rationals"),
    (2, 0, "mat2_q"), (3, 1, "f2"), (2, 2, "f3"), (3, 2, "rationals"),
])
def test_leibniz_identity_matrix_algebras(m, n, name):
    # exhaustive on all basis triples up to dimension 40, sampled above
    g = gl(m, n, builtin_dialgebra(name))
    assert g.algebra.leibniz_violations() == []
    s = sl(m, n, builtin_dialgebra(name))
    assert s.algebra.leibniz_violations() == []
    assert s.algebra.parity_violations() == []
