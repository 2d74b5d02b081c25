"""Chain complex boundary signs, the complex property, and homology."""

import itertools
from dataclasses import replace
from fractions import Fraction

import pytest

from uce_lab.chain import (SizeGuardExceededError, blocked_complex, delta, hl,
                           tensor_power_module)
from uce_lab.exactlin import QQ
from uce_lab.leibniz import from_dialgebra, gl, sl
from uce_lab.superdialg import builtin_dialgebra, catalog_names, from_algebra
from uce_lab.theorems import default_cases


def split_halfx():
    """Q[x]/(x^2 - x/2): a unital dialgebra with a fractional structure
    constant, so its eliminations switch to Fraction rows."""
    prod = {
        (0, 0): [(0, 1)], (0, 1): [(1, 1)], (1, 0): [(1, 1)],
        (1, 1): [(1, Fraction(1, 2))],
    }
    return from_algebra(QQ, (0, 0), prod, (1, 0), "split_halfx")


def test_delta2_on_abelian_is_zero():
    l = gl(1, 0, builtin_dialgebra("dual_numbers_q")).algebra
    assert delta(l, 2).matrix.is_zero()


def test_delta1_is_zero_map_to_zero_module():
    l = sl(2, 0, builtin_dialgebra("rationals")).algebra
    d1 = delta(l, 1)
    assert d1.matrix.rows == 0 and d1.matrix.cols == l.dim


@pytest.mark.parametrize("m,n,name", [
    (2, 0, "rationals"), (1, 1, "grassmann_q"), (2, 1, "f3"),
])
def test_delta3_matches_displayed_formula(m, n, name):
    """delta_3(x (x) y (x) z) = -[x,y] (x) z + x (x) [y,z]
    + (-1)^{|y||z|} [x,z] (x) y on all basis triples."""
    l = sl(m, n, builtin_dialgebra(name), cross_check=False).algebra
    d3 = delta(l, 3)
    dim = l.dim
    ring = l.ring
    for i, j, k in itertools.product(range(dim), repeat=3):
        col = d3.matrix.column_dense(i * dim * dim + j * dim + k)
        expect = [ring.zero] * (dim * dim)
        syz = -1 if (l.parity(j) * l.parity(k)) % 2 else 1
        for t, c in enumerate(l.bracket_basis(i, j)):
            if c:
                expect[t * dim + k] -= c
        for t, c in enumerate(l.bracket_basis(j, k)):
            if c:
                expect[i * dim + t] += c
        for t, c in enumerate(l.bracket_basis(i, k)):
            if c:
                expect[t * dim + j] += syz * c
        assert col == [ring.normalize(x) for x in expect]


@pytest.mark.parametrize("name", catalog_names())
def test_complex_property_from_dialgebra(name):
    # delta_n o delta_{n+1} = 0 gates the sign convention
    l = from_dialgebra(builtin_dialgebra(name))
    d2, d3 = delta(l, 2), delta(l, 3)
    assert (d2.matrix @ d3.matrix).is_zero()
    d4 = delta(l, 4)
    assert (d3.matrix @ d4.matrix).is_zero()


@pytest.mark.parametrize("m,n,name", [
    (2, 0, "rationals"), (2, 1, "rationals"), (1, 1, "grassmann_q"),
    (2, 2, "rationals"), (3, 0, "f2"), (2, 1, "bar_duplex_q"),
])
def test_complex_property_matrix_algebras(m, n, name):
    l = sl(m, n, builtin_dialgebra(name), cross_check=False).algebra
    d2, d3 = delta(l, 2), delta(l, 3)
    assert (d2.matrix @ d3.matrix).is_zero()


@pytest.mark.parametrize("m,n,name", [
    (2, 1, "rationals"), (1, 1, "grassmann_q"), (2, 2, "f3"),
])
def test_delta_is_parity_even(m, n, name):
    l = sl(m, n, builtin_dialgebra(name), cross_check=False).algebra
    for deg in (2, 3):
        assert delta(l, deg).parity_even_violations() == []


def test_tensor_power_parities():
    l = from_dialgebra(builtin_dialgebra("grassmann_q"))
    t2 = tensor_power_module(l, 2)
    assert t2.parity == (0, 1, 1, 0)


def test_hl1_of_perfect_is_zero():
    l = sl(2, 1, builtin_dialgebra("rationals")).algebra
    assert hl(l, 1).is_zero()


def test_hl1_of_abelian_is_everything():
    l = gl(1, 0, builtin_dialgebra("rationals")).algebra
    inv = hl(l, 1)
    assert inv.even_free_rank == 1


def test_hl2_of_one_dim_abelian():
    # delta_2 = delta_3 = 0 by hand, so x (x) x survives
    l = gl(1, 0, builtin_dialgebra("rationals")).algebra
    inv = hl(l, 2)
    assert inv.even_free_rank == 1 and inv.odd_free_rank == 0


def test_hl2_sl3_rationals_is_zero():
    inv = hl(sl(3, 0, builtin_dialgebra("rationals")).algebra, 2)
    assert inv.is_zero()


def test_size_guard():
    l = sl(2, 2, builtin_dialgebra("rationals")).algebra
    with pytest.raises(SizeGuardExceededError):
        delta(l, 3, guard=100)
    with pytest.raises(SizeGuardExceededError):
        hl(l, 2, guard=1000)


def test_a_warm_memo_still_checks_the_guard():
    l = sl(2, 2, builtin_dialgebra("rationals")).algebra
    hl(l, 2)
    assert 2 in l._complexes
    with pytest.raises(SizeGuardExceededError):
        hl(l, 2, guard=1000)
    with pytest.raises(SizeGuardExceededError):
        blocked_complex(l, 2, guard=1000)


def test_replace_starts_with_an_empty_memo():
    l = sl(3, 0, builtin_dialgebra("f3")).algebra
    hl(l, 2)
    abelian = replace(l, table={})
    assert 2 in l._complexes and abelian._complexes == {}
    assert blocked_complex(abelian, 2)[0].matrix.is_zero()
    assert not blocked_complex(l, 2)[0].matrix.is_zero()


@pytest.mark.parametrize("kind,m,n,name,degree", [
    ("sl", 2, 0, "rationals", 1),
    ("sl", 2, 0, "rationals", 3),
    ("sl", 2, 2, "rationals", 2),
    ("sl", 2, 1, "grassmann_q", 2),
    ("gl", 2, 0, "split_halfx", 2),
    ("sl", 3, 0, "f3", 2),
    ("sl", 4, 0, "integers", 2),
])
def test_weight_blocks_do_not_change_homology(kind, m, n, name, degree):
    d = split_halfx() if name == "split_halfx" else builtin_dialgebra(name)
    l = gl(m, n, d).algebra if kind == "gl" else sl(m, n, d).algebra
    assert l.weight is not None
    assert hl(l, degree) == hl(replace(l, weight=None), degree)


def test_a_wrong_weight_leaks_out_of_its_block():
    l = sl(2, 0, builtin_dialgebra("rationals"), cross_check=False).algebra
    weight = list(l.weight)
    weight[0] = tuple(2 * x + 1 for x in weight[0])
    wrong = replace(l, weight=tuple(weight))
    for n in (2, 3):
        delta(l, n)
        with pytest.raises(RuntimeError, match="not additive"):
            delta(wrong, n)


def test_weight_needs_one_entry_per_basis_vector():
    l = sl(2, 0, builtin_dialgebra("rationals"), cross_check=False).algebra
    with pytest.raises(ValueError):
        replace(l, weight=l.weight[1:])


@pytest.mark.parametrize("case", default_cases(), ids=lambda c: c.describe())
def test_sl_weights_are_homogeneous(case):
    s = sl(case.m, case.n, builtin_dialgebra(case.dialgebra), cross_check=False)
    l, g = s.algebra, s.gl
    size = case.m + case.n
    for j, col in enumerate(s.inclusion.columns()):
        for u, _ in col:
            i, rest = divmod(u // g.dlg.dim, size)
            unit = [0] * size
            unit[i] += 1
            unit[rest] -= 1
            assert l.weight[j] == tuple(unit)
    for (a, b), terms in l.table.items():
        total = tuple(x + y for x, y in zip(l.weight[a], l.weight[b]))
        assert all(l.weight[k] == total for k, _ in terms)
