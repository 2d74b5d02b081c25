"""Chain complex boundary signs, the complex property, and homology."""

import functools
import itertools
import math
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from uce_lab.chain import (DEFAULT_SIZE_GUARD, ChainMap, SizeGuardExceededError,
                           _graded, blocked_complex, delta, guard_check, hl,
                           tensor_index, tensor_power_keys, tensor_power_module)
from uce_lab import chain, exactlin
from uce_lab.cli import main
from uce_lab.exactlin import (QQ, Echelon, GradedFreeModule, GradedModuleInvariants,
                              RingSpec, SparseMat, direct_sum_invariants,
                              kernel_basis, subquotient_invariants)
from uce_lab.leibniz import LeibnizSuperalgebra, from_dialgebra, gl, sl
from uce_lab.superdialg import (builtin_dialgebra, catalog_names, from_algebra,
                                load_dialgebra_file)
from uce_lab.theorems import default_cases

DATA = Path(__file__).resolve().parents[1] / "perfbench" / "data"


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
    l = sl(m, n, builtin_dialgebra(name)).algebra
    d3 = delta(l, 3)
    dim = l.dim
    ring = l.ring
    for i, j, k in itertools.product(range(dim), repeat=3):
        col = d3.matrix.columns()[i * dim * dim + j * dim + k]
        expect = [ring.zero] * (dim * dim)
        syz = -1 if (l.parity(j) * l.parity(k)) % 2 else 1
        for t, c in l.table.get((i, j), ()):
            expect[t * dim + k] -= c
        for t, c in l.table.get((j, k), ()):
            expect[i * dim + t] += c
        for t, c in l.table.get((i, k), ()):
            expect[t * dim + j] += syz * c
        assert col == [(t, x) for t, x in enumerate(map(ring.normalize, expect)) if x != 0]


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
    l = sl(m, n, builtin_dialgebra(name)).algebra
    d2, d3 = delta(l, 2), delta(l, 3)
    assert (d2.matrix @ d3.matrix).is_zero()


@pytest.mark.parametrize("m,n,name", [
    (2, 1, "rationals"), (1, 1, "grassmann_q"), (2, 2, "f3"),
])
def test_delta_is_parity_even(m, n, name):
    l = sl(m, n, builtin_dialgebra(name)).algebra
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
    l = sl(2, 0, builtin_dialgebra("rationals")).algebra
    weight = list(l.weight)
    weight[0] = tuple(2 * x + 1 for x in weight[0])
    wrong = replace(l, weight=tuple(weight))
    for n in (2, 3):
        delta(l, n)
        with pytest.raises(RuntimeError, match="not additive"):
            delta(wrong, n)
    for n in (1, 2):   # delta_{n+1} through the block assembly
        blocked_complex(l, n)
        with pytest.raises(RuntimeError, match="not additive"):
            blocked_complex(wrong, n)


def test_a_bracket_that_is_not_leibniz_fails_delta_squared():
    """One structure constant with its sign flipped: the weights stay
    additive, so only the per-block check of delta_2 o delta_3 can see it."""
    l = sl(2, 1, builtin_dialgebra("rationals")).algebra
    for key in sorted(l.table):
        table = dict(l.table)
        table[key] = [(k, -c) for k, c in table[key]]
        broken = replace(l, table=table)
        if broken.leibniz_violations():
            break
    assert broken.leibniz_violations()
    hl(broken, 1)   # delta_1 o delta_2 = 0 holds for any bracket
    with pytest.raises(RuntimeError, match="delta_n o delta_\\{n\\+1\\} != 0"):
        blocked_complex(broken, 2)


def test_weight_needs_one_entry_per_basis_vector():
    l = sl(2, 0, builtin_dialgebra("rationals")).algebra
    with pytest.raises(ValueError):
        replace(l, weight=l.weight[1:])


@pytest.mark.parametrize("case", default_cases(), ids=lambda c: c.describe())
def test_sl_weights_are_homogeneous(case):
    s = sl(case.m, case.n, builtin_dialgebra(case.dialgebra))
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


def reference_delta(l, n, guard=DEFAULT_SIZE_GUARD):
    """The per-column assembly that ``chain.delta`` replaced, kept verbatim
    as the reference: every basis tuple, every position pair, one dict
    update per bracket term, and ``SparseMat`` normalising at the end."""
    if n < 1:
        raise ValueError("delta is defined for n >= 1")
    dim = l.dim
    guard_check([dim ** n, dim ** (n - 1) if n > 1 else 0], guard)
    src_keys = tensor_power_keys(l, n)
    src = _graded(src_keys)
    if n == 1:
        return ChainMap(src, _graded([]), SparseMat.zeros(l.ring, 0, dim), 1, src_keys, [])
    tgt_keys = tensor_power_keys(l, n - 1)

    ring = l.ring
    pars = l.module.parity
    entries = {}
    for col, tup in enumerate(product(range(dim), repeat=n)):
        for jpos in range(1, n):          # 0-based position of x_j, j = jpos+1
            for ipos in range(jpos):      # 0-based position of x_i
                koszul = sum(pars[tup[t]] for t in range(ipos + 1, jpos))
                exp = (n - (jpos + 1)) + pars[tup[jpos]] * koszul
                sign = -ring.one if exp % 2 else ring.one
                terms = l.table.get((tup[ipos], tup[jpos]))
                if not terms:
                    continue
                rest = tup[:ipos] + tup[ipos + 1:jpos] + tup[jpos + 1:]
                for k, c in terms:
                    row = tensor_index(rest[:ipos] + (k,) + rest[ipos:], dim)
                    key = (row, col)
                    entries[key] = entries.get(key, ring.zero) + sign * c
    mat = SparseMat(ring, dim ** (n - 1), dim ** n, entries)
    for i, j in mat.entries:
        if tgt_keys[i] != src_keys[j]:
            raise RuntimeError(
                f"delta_{n} maps index {j} of block {src_keys[j]} into block "
                f"{tgt_keys[i]}; the weights are not additive for the bracket"
            )
    return ChainMap(src, _graded(tgt_keys), mat, n, src_keys, tgt_keys)


def _typed(mat):
    return {key: (type(v), v) for key, v in mat.entries.items()}


def assert_same_delta(got, ref):
    assert _typed(got.matrix) == _typed(ref.matrix)
    assert (got.matrix.rows, got.matrix.cols) == (ref.matrix.rows, ref.matrix.cols)
    assert [[(i, type(v), v) for i, v in col] for col in got.matrix.columns()] == \
        [[(i, type(v), v) for i, v in col] for col in ref.matrix.columns()]
    assert got.source_keys == ref.source_keys and got.target_keys == ref.target_keys
    assert (got.source, got.target, got.degree) == (ref.source, ref.target, ref.degree)


# (m, n) -> degrees compared, by the dimension of the dialgebra: every unital
# catalog dialgebra on each shape, degree 3 where L^(x)3 stays small
_SL_DEGREES = {
    (2, 0): {1: (1, 2, 3, 4), 2: (1, 2, 3, 4), 4: (2, 3)},
    (3, 0): {1: (2, 3), 2: (2,), 4: (2,)},
    (2, 1): {1: (2, 3), 2: (2, 3), 4: (2,)},
    (2, 2): {1: (1, 2, 3), 2: (2,), 4: (2,)},
}


def _reference_cases():
    unital = [nm for nm in catalog_names() if nm not in ("t3_dga_q", "dual_dga_zero_q")]
    for shape, by_dim in _SL_DEGREES.items():
        for nm in unital:
            for degree in by_dim[builtin_dialgebra(nm).dim]:
                yield ("sl", *shape, nm, degree)
    for data in ("split_halfx", "dual_z", "grass_f3"):
        for degree in (1, 2, 3):
            yield ("sl", 2, 1, data, degree)
        yield ("sl", 2, 0, data, 4)
    for degree in (2, 3):
        yield ("gl", 2, 1, "grassmann_q", degree)
        yield ("gl", 1, 1, "bar_duplex_f2", degree)
    yield ("gl", 1, 1, "grassmann_q", 4)


@functools.cache
def _algebra(kind, m, n, name):
    """Built once for all degrees; delta leaves the algebra as it is."""
    path = DATA / f"{name}.json"
    d = load_dialgebra_file(path) if path.exists() else builtin_dialgebra(name)
    return (gl(m, n, d) if kind == "gl" else sl(m, n, d)).algebra


@pytest.mark.parametrize("kind,m,n,name,degree", list(_reference_cases()))
def test_delta_equals_the_per_column_reference(kind, m, n, name, degree):
    l = _algebra(kind, m, n, name)
    assert_same_delta(delta(l, degree), reference_delta(l, degree))


def _hand_table(ring, parity, table):
    return LeibnizSuperalgebra(ring, GradedFreeModule(len(parity), tuple(parity)), table, "hand")


def test_two_pairs_hitting_one_entry_cancel():
    """e_0 even, e_1 odd, [e_0, e_1] = e_1 and no other bracket: the pairs
    (1, 2) and (1, 3) both send e_0 (x) e_1 (x) e_1 to -e_1 (x) e_1 (the
    second through the Koszul sign of swapping two odd e_1), so the entry is
    -2 over Z and 1 + 1 = 0 over F_2, where it must be absent."""
    col = tensor_index((0, 1, 1), 2)
    row = tensor_index((1, 1), 2)
    zz = _hand_table(RingSpec("integers"), (0, 1), {(0, 1): [(1, 1)]})
    assert delta(zz, 3).matrix.entries[(row, col)] == -2
    l = _hand_table(RingSpec("int_mod", 2), (0, 1), {(0, 1): [(1, 1)]})
    d3 = delta(l, 3)
    assert (row, col) not in d3.matrix.entries
    assert d3.matrix.columns()[col] == []
    assert_same_delta(d3, reference_delta(l, 3))


def test_unnormalised_and_zero_coefficients_are_cleaned():
    f2 = RingSpec("int_mod", 2)
    l = _hand_table(f2, (0, 1), {
        (0, 0): [(0, -1), (1, 0)], (1, 1): [(0, 4)], (0, 1): [(1, 3)],
        (1, 0): [(1, -5), (0, 2)],
    })
    for degree in (2, 3, 4):
        got = delta(l, degree)
        assert got.matrix.entries
        assert all(v == 1 and type(v) is int for v in got.matrix.entries.values())
        assert_same_delta(got, reference_delta(l, degree))
    # the zero-only bracket [e_1, e_1] = 4 e_0 = 0 mod 2 leaves no column
    assert delta(l, 2).matrix.columns()[tensor_index((1, 1), 2)] == []


def test_delta_shapes_in_degrees_one_and_two():
    l = _hand_table(QQ, (0, 1), {(0, 1): [(1, Fraction(2, 4))], (1, 0): [(1, -1)]})
    d1 = delta(l, 1)
    assert (d1.matrix.rows, d1.matrix.cols, d1.target_keys) == (0, 2, [])
    d2 = delta(l, 2)
    assert (d2.matrix.rows, d2.matrix.cols) == (2, 4)
    assert _typed(d2.matrix) == {(1, 1): (Fraction, Fraction(1, 2)), (1, 2): (int, -1)}
    for degree in (1, 2):
        assert_same_delta(delta(l, degree), reference_delta(l, degree))


def reference_image_echelon(up):
    """Every column, sparsest first: the image reduction ``blocked_complex``
    used before the certified stop and the leading-row-first column order,
    kept as the reference."""
    ech = Echelon(up.ring, up.rows)
    cols = up.columns()
    for j in sorted(range(up.cols), key=lambda j: (len(cols[j]), j)):
        if cols[j]:
            ech.insert(ech.vector(cols[j]))
    return ech


def assert_blocks_equal_reference(l):
    """Each block echelon spans what inserting every column spans (over the
    integers: generates the lattice, with the same pivot values); HL_2 from
    the reference echelons is the same."""
    blocks = blocked_complex(l, 2)[1]
    d3 = delta(l, 3)
    above = {}
    for i, key in enumerate(d3.source_keys):
        above.setdefault(key, []).append(i)
    parts = [GradedModuleInvariants(l.ring)]
    for key, idx, ker, image in blocks:
        ref = reference_image_echelon(d3.matrix.submatrix(idx, above.get(key, [])))
        assert image.same_span(ref)
        if l.ring.kind == "integers":
            assert image.pivot_values() == ref.pivot_values()
        if ker.cols:
            parts.append(subquotient_invariants(ker, ref.basis_matrix(), (key[1],) * len(idx)))
    assert hl(l, 2) == direct_sum_invariants(parts)


INTEGER_CASES = sorted(
    {(c.m, c.n, c.dialgebra) for c in default_cases() if c.dialgebra == "integers"}
    | {(3, 0, "integers"), (3, 2, "integers"), (5, 0, "integers"),
       (2, 1, "dual_z"), (3, 0, "dual_z"), (2, 2, "dual_z")}
)


@pytest.mark.parametrize("m,n,name", INTEGER_CASES)
def test_integer_block_echelons_equal_inserting_every_column(m, n, name):
    assert_blocks_equal_reference(_algebra("sl", m, n, name))


@pytest.mark.parametrize("m,n,name", [
    (3, 2, "f3"), (4, 1, "f2"), (2, 2, "grass_f3"), (3, 0, "dual_numbers_q"),
    (2, 1, "split_halfx"),   # fractional constants: the blocks are scaled
])
def test_field_block_echelons_equal_inserting_every_column(m, n, name):
    assert_blocks_equal_reference(_algebra("sl", m, n, name))


def test_split_halfx_blocks_span_what_the_exact_fraction_complex_spans():
    """``blocked_complex`` reduces sl(2,1,split_halfx) scaled to integers.
    Every block's kernel and image span what the exact complex, with its
    Fraction entries, gives; the delta_2 it returns is the exact one; and
    ``hl`` equals the homology of the exact blocks."""
    l = replace(_algebra("sl", 2, 1, "split_halfx"))   # a fresh memo
    d2, d3 = reference_delta(l, 2), reference_delta(l, 3)
    assert Fraction in {type(v) for v in d3.matrix.entries.values()}
    below, above = {}, {}
    for keys, out in ((d2.target_keys, below), (d3.source_keys, above)):
        for i, key in enumerate(keys):
            out.setdefault(key, []).append(i)

    def span(m):
        return Echelon(QQ, m.rows).extend(m.columns())

    dn, blocks = blocked_complex(l, 2)
    assert_same_delta(dn, d2)
    parts = [GradedModuleInvariants(QQ)]
    for key, idx, ker, image in blocks:
        exact_ker = kernel_basis(d2.matrix.submatrix(below.get(key, []), idx))
        exact_image = reference_image_echelon(d3.matrix.submatrix(idx, above.get(key, [])))
        assert span(ker).same_span(span(exact_ker))
        assert image.same_span(exact_image)
        if exact_ker.cols:
            parts.append(subquotient_invariants(exact_ker, exact_image.basis_matrix(),
                                                (key[1],) * len(idx)))
    assert hl(l, 2) == direct_sum_invariants(parts)


@pytest.mark.parametrize("m,n,name,types", [
    (2, 2, "dual_z", {int}), (2, 2, "grass_f3", {int}),
    (2, 1, "split_halfx", {int, Fraction}),   # fracfield blocks hold Fractions
])
def test_block_echelon_rows_hold_python_numbers(m, n, name, types):
    """Echelon rows have no overflow guard, so a numpy integer in one would
    wrap silently: every stored value is exactly a Python int (or, over Q,
    a Fraction)."""
    blocks = blocked_complex(_algebra("sl", m, n, name), 2)[1]
    seen = {type(x) for *_, image in blocks for row in image.rows for x in row.values()}
    assert seen and seen <= types


def _scaled(l, factor):
    """The bracket times factor: the Leibniz identity is homogeneous of
    degree 2 in the bracket, so this is again a Leibniz superalgebra."""
    return replace(l, table={key: [(k, c * factor) for k, c in terms]
                             for key, terms in l.table.items()})


def scaled_reference(l, n):
    """``reference_delta(l, n)`` times lambda, the least common multiple of
    the denominators of the structure constants: the integral complex that
    ``blocked_complex`` reduces (lambda = 1 unless a constant over Q is
    fractional)."""
    ref = reference_delta(l, n)
    lam = math.lcm(*(Fraction(c).denominator for terms in l.table.values() for _, c in terms))
    if lam == 1:
        return ref
    mat = ref.matrix
    return replace(ref, matrix=SparseMat(mat.ring, mat.rows, mat.cols,
                                         {key: lam * v for key, v in mat.entries.items()}))


_BLOCK_CASES = {
    "Z": lambda: _algebra("sl", 3, 0, "integers"),
    "F_2": lambda: _algebra("sl", 3, 0, "f2"),
    "F_3": lambda: _algebra("sl", 2, 1, "f3"),
    "Q": lambda: _algebra("sl", 1, 1, "grassmann_q"),
    "split_halfx": lambda: _algebra("sl", 2, 0, "split_halfx"),
    # past the int64 bound: object arrays of Python ints
    "GF(2^61-1)": lambda: replace(_algebra("sl", 3, 0, "integers"), ring=RingSpec("int_mod", 2 ** 61 - 1)),
    "Z times 2^62": lambda: _scaled(_algebra("sl", 3, 0, "integers"), 2 ** 62),
}


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("case", list(_BLOCK_CASES))
def test_block_columns_equal_the_global_reference(monkeypatch, case, degree):
    """The columns of each block ``blocked_complex`` reduces are the
    submatrix of the whole delta_{n+1} on the block (times lambda, for
    fractional constants over Q: ``scaled_reference``), column for column
    in ascending global index, and the memo holds no matrix of the size of
    L^(x)(n+1)."""
    l = replace(_BLOCK_CASES[case]())   # a fresh memo
    seen, dtypes = [], []
    real_echelon, real_entries = chain.column_span_echelon, chain._boundary_entries
    monkeypatch.setattr(chain, "column_span_echelon",
                        lambda m, within: seen.append(m) or real_echelon(m, within=within))

    def entries(l, n):
        out = real_entries(l, n)
        dtypes.append(out[2].dtype)
        return out

    monkeypatch.setattr(chain, "_boundary_entries", entries)
    dn, blocks = blocked_complex(l, degree)
    ref = scaled_reference(l, degree + 1)
    above = {}
    for i, key in enumerate(ref.source_keys):
        above.setdefault(key, []).append(i)
    assert len(seen) == len(blocks)
    for m, (key, idx, _, _) in zip(seen, blocks):
        want = ref.matrix.submatrix(idx, above.get(key, []))
        assert (m.rows, m.cols) == (want.rows, want.cols)
        assert m.columns() == want.columns()
    # Python ints past the int64 bound
    assert (object in dtypes) == (case in ("GF(2^61-1)", "Z times 2^62"))
    memo = l._complexes[degree]
    mats = [dn.matrix] + [ker for _, _, ker, _ in memo[1]]
    assert memo == (dn, blocks) and all(isinstance(m, SparseMat) for m in mats)
    assert max(m.cols for m in mats) < l.dim ** (degree + 1)


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("case", list(_BLOCK_CASES))
def test_block_insert_order_equals_the_reference(monkeypatch, case, degree):
    """The array path inserts each block's columns in the order that
    ``exactlin._insert_order`` gives the reference SparseMat block
    (``scaled_reference``), as many
    as ``column_span_echelon`` inserts from that block, and ends with the
    same rows and pivots."""
    l = replace(_BLOCK_CASES[case]())   # a fresh memo
    calls, inserts = [], []
    real_echelon, real_column = chain.column_span_echelon, chain._ImageBlock.column
    real_insert = exactlin.Echelon.insert
    monkeypatch.setattr(chain, "column_span_echelon",
                        lambda m, within: calls.append((within, [])) or real_echelon(m, within=within))
    monkeypatch.setattr(chain._ImageBlock, "column",
                        lambda self, j: calls[-1][1].append(j) or real_column(self, j))
    monkeypatch.setattr(exactlin.Echelon, "insert",
                        lambda self, v: inserts.append(1) or real_insert(self, v))
    blocks = blocked_complex(l, degree)[1]
    ref = scaled_reference(l, degree + 1)
    above = {}
    for i, key in enumerate(ref.source_keys):
        above.setdefault(key, []).append(i)
    assert len(calls) == len(blocks)
    lattice = l.ring.kind == "integers"
    for (within, order), (key, idx, ker, image) in zip(calls, blocks):
        assert within is ker
        want = ref.matrix.submatrix(idx, above.get(key, []))
        expected = exactlin._insert_order(exactlin._MatrixColumns(want),
                                          exactlin._leading_entries(ker), lattice)
        assert order == list(itertools.islice(expected, len(order)))
        before = len(inserts)
        again = exactlin.column_span_echelon(want, within=ker)
        assert len(inserts) - before == len(order)
        assert (again.rows, again.row_at, again.sorted_pivots) == \
            (image.rows, image.row_at, image.sorted_pivots)


def test_a_fault_in_one_small_block_fails_the_one_delta_squared_check(monkeypatch):
    """delta_n o delta_{n+1} = 0 is checked once over all entries: one
    doubled delta_3 entry, in the smallest block whose rows delta_2 does not
    kill and not in the largest block, still fails it."""
    l = _algebra("sl", 2, 1, "rationals")
    keys = delta(l, 2).source_keys
    sizes = Counter(keys)
    live = {j for _, j in delta(l, 2).matrix.entries}   # delta_2 e_j != 0
    rows, cols, vals = chain._boundary_entries(l, 3)
    t = min((t for t in range(len(rows)) if rows[t] in live), key=lambda t: sizes[keys[rows[t]]])
    assert sizes[keys[rows[t]]] < max(sizes.values())
    faulty = vals.copy()
    faulty[t] *= 2
    blocked_complex(replace(l), 2)   # the true entries pass
    real = chain._boundary_entries
    monkeypatch.setattr(chain, "_boundary_entries",
                        lambda l, n: (rows, cols, faulty) if n == 3 else real(l, n))
    with pytest.raises(RuntimeError, match="delta_n o delta_\\{n\\+1\\} != 0"):
        blocked_complex(replace(l), 2)


@pytest.mark.parametrize("m,n,name,total,image", [
    (2, 2, "dual_z", 5328, 4428), (2, 2, "grass_f3", 3329, 2429), (3, 2, "rationals", 1128, 552),
])
def test_blocked_complex_makes_the_pinned_number_of_inserts(monkeypatch, m, n, name, total, image):
    """``Echelon.insert`` calls inside ``blocked_complex(l, 2)``, in all and
    from the image echelons: a change to the insertion order or to the
    certified stop moves them."""
    l = replace(_algebra("sl", m, n, name))   # a fresh memo
    inserts, inside = [], []
    real_insert, real_echelon = exactlin.Echelon.insert, chain.column_span_echelon
    monkeypatch.setattr(exactlin.Echelon, "insert",
                        lambda self, v: inserts.append(bool(inside)) or real_insert(self, v))

    def echelon(m, within):
        inside.append(1)
        try:
            return real_echelon(m, within=within)
        finally:
            inside.pop()

    monkeypatch.setattr(chain, "column_span_echelon", echelon)
    blocked_complex(l, 2)
    assert (len(inserts), sum(inserts)) == (total, image)


def _hl_and_every_block_subquotient(monkeypatch, l, degree):
    """(blocks with a kernel, subquotient_invariants calls made by ``hl``):
    the reference kept here takes the subquotient of every block with a
    kernel, and ``hl`` must equal it."""
    blocks = blocked_complex(l, degree)[1]
    with_kernel = [(key, idx, ker, image) for key, idx, ker, image in blocks if ker.cols]
    ref = direct_sum_invariants([GradedModuleInvariants(l.ring)] + [
        subquotient_invariants(ker, image.basis_matrix(), (key[1],) * len(idx))
        for key, idx, ker, image in with_kernel])
    calls = []
    real = exactlin.subquotient_invariants
    monkeypatch.setattr(exactlin, "subquotient_invariants",
                        lambda *args: calls.append(args) or real(*args))
    assert hl(l, degree) == ref
    return with_kernel, calls


@pytest.mark.parametrize("m,n,name,degree", [
    (2, 0, "integers", 1), (2, 0, "integers", 2), (2, 0, "integers", 3),   # not perfect
    (3, 0, "integers", 1), (3, 0, "integers", 2), (3, 0, "integers", 3),
    (4, 0, "integers", 2), (3, 2, "integers", 2), (5, 0, "integers", 2),
    (2, 1, "dual_z", 2), (3, 0, "dual_z", 2), (2, 2, "dual_z", 2),
])
def test_integer_hl_equals_the_subquotient_of_every_block(monkeypatch, m, n, name, degree):
    """``hl`` skips the blocks whose image is certified equal to the kernel
    lattice, and skips at least one."""
    l = _algebra("sl", m, n, name)
    with_kernel, calls = _hl_and_every_block_subquotient(monkeypatch, l, degree)
    assert len(calls) < len(with_kernel)
    if (m, n, name, degree) == (3, 0, "integers", 2):
        assert hl(l, degree) == GradedModuleInvariants(l.ring, 0, 0, (3,) * 6, ())


@pytest.mark.parametrize("m,n,name,degree", [
    (3, 0, "f3", 1), (3, 0, "f3", 2), (3, 0, "f3", 3),
    (2, 1, "f3", 1), (2, 1, "f3", 2), (2, 1, "f3", 3),
    (1, 1, "f2", 1), (1, 1, "f2", 2), (1, 1, "f2", 3),   # not perfect
    (4, 0, "f2", 2), (3, 1, "f2", 2), (3, 2, "f3", 2), (4, 1, "f2", 2),
    (3, 0, "bar_duplex_f2", 2), (2, 2, "grass_f3", 2),
])
def test_finite_field_hl_is_the_rank_count_of_every_block(monkeypatch, m, n, name, degree):
    """Over F_p ``hl`` reads dim Ker - rank Im off the block echelons and
    solves no coordinates."""
    l = _algebra("sl", m, n, name)
    with_kernel, calls = _hl_and_every_block_subquotient(monkeypatch, l, degree)
    assert with_kernel and calls == []


@pytest.mark.parametrize("ring", ["integers", "f3", "f2"])
def test_image_outside_the_kernel_pivots_exits_5(capsys, monkeypatch, ring):
    """A kernel basis whose leading rows differ from the image pivots at the
    stop is an internal invariant breach; over F_p it guards the rank count
    of ``hl``."""
    real = chain.kernel_basis

    def shifted(m):
        # as many unit columns as the kernel has, at the last rows
        k, n = real(m).cols, m.cols
        return SparseMat.identity(m.ring, n).submatrix(range(n), range(n - k, n))

    monkeypatch.setattr(chain, "kernel_basis", shifted)
    code = main(["hl2", "--m", "3", "--n", "0", "--builtin", ring])
    err = capsys.readouterr().err
    assert code == 5
    assert err.strip().count("\n") == 0 and "outside the span" in err
