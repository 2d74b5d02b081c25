"""Substrate tests: SNF, kernels, subquotients, invariants.

Independent oracles: sympy's smith_normal_form / rank for randomized
cross-checks, and a brute-force coset enumeration (Cramer-rule membership,
annihilator counting) for quotient groups of full-rank sublattices.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form

from uce_lab import exactlin
from uce_lab.superdialg import builtin_dialgebra, catalog_names
from uce_lab.exactlin import (
    GF,
    QQ,
    ZZ,
    Echelon,
    GradedModuleInvariants,
    NotASubmoduleError,
    RingSpec,
    SparseMat,
    SpanSolver,
    UnsupportedRingError,
    _is_prime,
    bilinear,
    column_span_echelon,
    kernel_basis,
    merge_torsion,
    module_iso_check,
    parity_shift,
    quotient_invariants,
    rank,
    snf,
    snf_with_transforms,
    solve_linear,
    spans_within,
    subquotient_invariants,
)


# ---------------------------------------------------------------------------
# rings
# ---------------------------------------------------------------------------


def test_ring_construction():
    assert ZZ.kind == "integers" and not ZZ.is_field
    assert QQ.is_field
    assert GF(5).is_field
    assert not GF(6).is_field
    with pytest.raises(ValueError):
        RingSpec("int_mod", 1)
    with pytest.raises(ValueError):
        RingSpec("integers", 5)
    with pytest.raises(ValueError):
        RingSpec("reals")


def test_ring_parse_and_fmt():
    assert QQ.parse("3/4") == Fraction(3, 4)
    assert QQ.fmt(Fraction(-1, 2)) == "-1/2"
    assert ZZ.parse("-7") == -7
    assert GF(3).parse("5") == 2
    with pytest.raises(ValueError):
        ZZ.parse("1/2")
    with pytest.raises(ValueError):
        ZZ.normalize(Fraction(1, 2))


def test_composite_modulus_rejected_by_elimination():
    m = SparseMat.from_dense(RingSpec("int_mod", 6), [[2, 0], [0, 3]])
    with pytest.raises(UnsupportedRingError):
        snf(m)
    with pytest.raises(UnsupportedRingError):
        kernel_basis(m)


def test_primality_matches_trial_division_and_rejects_pseudoprimes():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))

    assert all(_is_prime(n) == trial(n) for n in range(3000))
    assert not _is_prime(561)                    # Carmichael number
    assert not _is_prime(3825123056546413051)    # strong pseudoprime to 2..23
    assert _is_prime(2 ** 61 - 1)
    with pytest.raises(UnsupportedRingError):
        GF(10 ** 25 + 13).is_field


# ---------------------------------------------------------------------------
# snf
# ---------------------------------------------------------------------------


def test_snf_identity():
    assert snf(SparseMat.identity(ZZ, 3)) == (1, 1, 1)


def test_snf_zero():
    assert snf(SparseMat.zeros(ZZ, 2, 2)) == ()


def test_snf_diag_2_3():
    # row/column reduction by hand: gcd 1 up front, 6 behind
    m = SparseMat.from_dense(ZZ, [[2, 0], [0, 3]])
    assert snf(m) == (1, 6)


def test_snf_field_is_rank_many_ones():
    m = SparseMat.from_dense(QQ, [[1, 2], [2, 4]])
    assert snf(m) == (Fraction(1),)
    m = SparseMat.from_dense(GF(3), [[1, 2], [2, 1]])
    assert snf(m) == (1,)  # second row = 2 * first mod 3


@pytest.mark.parametrize("seed", range(8))
def test_snf_divisibility_chain_and_sympy(seed):
    rng = random.Random(seed)
    for _ in range(12):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        dense = [[rng.randint(-6, 6) for _ in range(c)] for _ in range(r)]
        got = snf(SparseMat.from_dense(ZZ, dense))
        for a, b in zip(got, got[1:]):
            assert b % a == 0
        ref = smith_normal_form(Matrix(dense))
        ref_diag = [abs(ref[i, i]) for i in range(min(r, c)) if ref[i, i] != 0]
        assert list(got) == ref_diag


def test_snf_transforms_are_inverse():
    import numpy as np

    m = SparseMat.from_dense(ZZ, [[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    diag, u, uinv = snf_with_transforms(m)
    assert list(diag) == [2, 2, 156]
    assert np.array_equal(u @ uinv, np.eye(3, dtype=u.dtype))


def test_snf_big_entries_escalate_exactly():
    m = SparseMat.from_dense(ZZ, [[2 ** 40, 1], [1, 2 ** 40]])
    assert snf(m) == (1, 2 ** 80 - 1)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def test_kernel_identity_empty():
    assert kernel_basis(SparseMat.identity(QQ, 3)).cols == 0


def test_kernel_zero_map():
    k = kernel_basis(SparseMat.zeros(ZZ, 3, 2))
    assert k.cols == 2


def test_kernel_row_2_minus_2():
    # solve 2x - 2y = 0 by hand: generated by (1, 1) over the integers
    k = kernel_basis(SparseMat.from_dense(ZZ, [[2, -2]]))
    assert k.cols == 1
    col = k.column_dense(0)
    assert col in ([1, 1], [-1, -1])


def test_kernel_is_saturated():
    # kernel of (2 4) over Z contains (2,-1) and must contain it primitively
    k = kernel_basis(SparseMat.from_dense(ZZ, [[2, 4]]))
    assert k.cols == 1
    col = [abs(x) for x in k.column_dense(0)]
    assert col == [2, 1]


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(2), GF(5)])
def test_kernel_annihilates_randomized(ring):
    rng = random.Random(17)
    for _ in range(25):
        r, c = rng.randint(1, 5), rng.randint(1, 6)
        dense = [[rng.randint(-4, 4) for _ in range(c)] for _ in range(r)]
        m = SparseMat.from_dense(ring, dense)
        k = kernel_basis(m)
        assert (m @ k).is_zero()
        if ring in (QQ, ZZ):
            assert k.cols == c - Matrix(dense).rank()


def test_rank_matches_sympy():
    rng = random.Random(5)
    for _ in range(20):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        dense = [[rng.randint(-4, 4) for _ in range(c)] for _ in range(r)]
        assert rank(SparseMat.from_dense(QQ, dense)) == Matrix(dense).rank()


def _counting_inserts(monkeypatch):
    calls = []
    real = Echelon.insert

    def counted(self, v):
        calls.append(1)
        return real(self, v)

    monkeypatch.setattr(Echelon, "insert", counted)
    return calls


def test_column_span_within_stops_at_equal_span(monkeypatch):
    m = SparseMat.identity(QQ, 3)
    assert column_span_echelon(m, within=SparseMat.identity(QQ, 3).submatrix(range(3), [0, 1])).rank == 2
    assert column_span_echelon(m).rank == 3
    # over the integers the rank alone would stop with pivot value 2 at row 1
    z = SparseMat.from_dense(ZZ, [[1, 0, 1], [0, 2, 1]])
    assert column_span_echelon(z, within=SparseMat.identity(ZZ, 2)).is_full()
    # equal pivot values: the third column is never read
    calls = _counting_inserts(monkeypatch)
    ech = column_span_echelon(SparseMat.from_dense(ZZ, [[1, 0, 1], [0, 2, 1]]),
                              within=SparseMat.from_dense(ZZ, [[1, 0], [0, 2]]))
    assert len(calls) == 2 and ech.pivot_values() == {0: 1, 1: 2}
    # a lattice with torsion over its image reads every column
    calls.clear()
    ech = column_span_echelon(SparseMat.from_dense(ZZ, [[2, 0, 2], [0, 2, 2]]),
                              within=SparseMat.identity(ZZ, 2))
    assert len(calls) == 3 and ech.pivot_values() == {0: 2, 1: 2}


def test_column_span_reads_representatives_first(monkeypatch):
    # the representatives (1,1,0), (0,1,1), (0,0,1) cover the leading rows of
    # within with equal |values|: rank inserts, however sparse the decoys are
    cols = [[2, 0, 0], [0, 2, 0], [4, 0, 0], [1, 1, 0], [0, 1, 1], [0, 0, 1]]
    calls = _counting_inserts(monkeypatch)
    ech = column_span_echelon(SparseMat.from_columns(ZZ, 3, cols), within=SparseMat.identity(ZZ, 3))
    assert len(calls) == 3 and ech.is_full()


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(3)])
def test_column_span_reads_a_column_at_an_open_row_before_decoys(monkeypatch, ring):
    # no column leads at row 1, so its pivot comes from cancellation; the
    # column touching it is read before the decoys (2,0,0) and (3,0,0), which
    # sparsest-first reads first (4 inserts)
    m = SparseMat.from_columns(ring, 3, [[1, 0, 0], [2, 0, 0], [3, 0, 0], [1, 1, 0]])
    calls = _counting_inserts(monkeypatch)
    ech = column_span_echelon(m, within=SparseMat.identity(ring, 3).submatrix(range(3), [0, 1]))
    assert len(calls) == 2 and sorted(ech.row_at) == [0, 1]


def test_column_span_within_checks_its_pivots():
    z = SparseMat.from_dense(ZZ, [[1, 0], [0, 1], [0, 0]])
    with pytest.raises(RuntimeError, match="outside"):
        column_span_echelon(z, within=SparseMat.from_dense(ZZ, [[1, 0], [0, 0], [0, 1]]))
    # the first column read already leaves the span of within
    with pytest.raises(RuntimeError, match="outside"):
        column_span_echelon(SparseMat.from_dense(GF(3), [[0], [1], [0]]),
                            within=SparseMat.from_dense(GF(3), [[1], [0], [0]]))
    with pytest.raises(ValueError, match="distinct leading rows"):
        column_span_echelon(z, within=SparseMat.from_dense(ZZ, [[1, 1], [0, 1], [0, 0]]))
    with pytest.raises(ValueError, match="distinct leading rows"):
        column_span_echelon(z, within=SparseMat.from_dense(ZZ, [[1, 0], [0, 0], [0, 0]]))


def test_spans_within_needs_equal_pivot_sets_and_values(monkeypatch):
    within = SparseMat.identity(ZZ, 2)
    # equal pivot sets, unequal |values| at row 1: index 2, not equal
    ech = column_span_echelon(SparseMat.from_columns(ZZ, 2, [[1, 0], [0, 2]]), within=within)
    assert sorted(ech.row_at) == [0, 1] and not spans_within(ech, within)
    assert subquotient_invariants(within, ech.basis_matrix(), (0, 0)) == \
        GradedModuleInvariants(ZZ, 0, 0, (2,), ())
    # a pivot set other than the leading rows of within
    assert not spans_within(Echelon(ZZ, 2).extend([[1, 0]]), within)
    w3 = SparseMat.from_columns(ZZ, 3, [[1, 0, 0], [0, 1, 0]])
    assert not spans_within(Echelon(ZZ, 3).extend([[1, 0, 0], [0, 0, 1]]), w3)
    # equal |values|, non-unit and of either sign
    assert spans_within(Echelon(ZZ, 2).extend([[-1, 0], [0, 2]]),
                        SparseMat.from_columns(ZZ, 2, [[1, 0], [0, -2]]))
    # over a field the pivot set decides
    assert spans_within(Echelon(GF(3), 2).extend([[1, 0], [0, 2]]), SparseMat.identity(GF(3), 2))
    # the last column closes the last pivot: every column is read, the stop
    # never fires, and the finished echelon still counts as equal
    calls = _counting_inserts(monkeypatch)
    ech = column_span_echelon(SparseMat.from_columns(ZZ, 2, [[1, 0], [0, 2], [0, 3]]),
                              within=within)
    assert len(calls) == 3 and spans_within(ech, within)


@st.composite
def _within_case(draw):
    """within = kernel_basis(C) for a random C, and random integer
    combinations of its columns."""
    ring = draw(st.sampled_from([ZZ, QQ, GF(3)]))
    rows, dim = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    entry = st.integers(-3, 3)
    c = draw(st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=rows, max_size=rows))
    within = kernel_basis(SparseMat.from_dense(ring, c))
    gens = [within.column_dense(k) for k in range(within.cols)]
    coeffs = draw(st.lists(st.lists(entry, min_size=within.cols, max_size=within.cols),
                           max_size=6))
    cols = [[sum(x * g[i] for x, g in zip(cf, gens)) for i in range(dim)] for cf in coeffs]
    return ring, dim, within, cols


@given(_within_case())
def test_column_span_within_equals_inserting_every_column(case):
    ring, dim, within, cols = case
    stopped = column_span_echelon(SparseMat.from_columns(ring, dim, cols), within=within)
    full = Echelon(ring, dim).extend(cols)
    assert stopped.same_span(full)
    if ring == ZZ:
        assert stopped.pivot_values() == full.pivot_values()


@given(_within_case(), st.sampled_from([0, 1]), st.booleans())
def test_quotient_invariants_equals_the_subquotient(case, parity, stopped):
    """The rule for one block (rank count, certificate or coordinates)
    against the coordinate reference, on full and on stopped echelons."""
    ring, dim, gens, cols = case
    if stopped:
        image = column_span_echelon(SparseMat.from_columns(ring, dim, cols), within=gens)
    else:
        image = Echelon(ring, dim).extend(cols)
    assert quotient_invariants(gens, image, parity) == \
        subquotient_invariants(gens, image.basis_matrix(), (parity,) * dim)


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(3)])
def test_quotient_invariants_rejects_an_image_pivot_outside_the_generators(ring):
    gens = SparseMat.from_columns(ring, 3, [[1, 0, 0], [0, 0, 1]])
    image = Echelon(ring, 3).extend([[0, 1, 0]])
    with pytest.raises(RuntimeError, match=r"does not contain the pivots \[1\]"):
        quotient_invariants(gens, image, 0)


def test_integer_quotient_takes_coordinates_only_without_a_certificate(monkeypatch):
    calls = []
    real = exactlin.subquotient_invariants
    monkeypatch.setattr(exactlin, "subquotient_invariants",
                        lambda *args: calls.append(args) or real(*args))
    gens = SparseMat.from_columns(ZZ, 2, [[1, 0], [0, -2]])
    # equal pivot sets and |pivot values|: certified equal, quotient zero
    equal = Echelon(ZZ, 2).extend([[-1, 0], [0, 2]])
    assert quotient_invariants(gens, equal, 1) == GradedModuleInvariants(ZZ)
    assert calls == []
    # |4| at row 1 against |-2|: index 2, read off a Smith form
    assert quotient_invariants(gens, Echelon(ZZ, 2).extend([[1, 0], [0, 4]]), 1) == \
        GradedModuleInvariants(ZZ, 0, 0, (), (2,))
    assert len(calls) == 1


def test_solve_linear_and_span_solver():
    b = SparseMat.from_dense(ZZ, [[2, 0], [0, 3]])
    s = SpanSolver(b)
    assert s.solve([4, 3]) == [2, 1]
    assert s.solve([1, 0]) is None
    assert solve_linear(SparseMat.from_dense(QQ, [[1, 1]]), [1]) is not None
    with pytest.raises(ValueError):
        SpanSolver(SparseMat.from_dense(ZZ, [[1, 2], [1, 2]]))  # dependent


@pytest.mark.parametrize("p", [3, 2**61 - 1])
def test_solved_coordinates_over_f_p_lie_in_0_to_p(p):
    ring = GF(p)
    rng = random.Random(p)
    m = SparseMat.from_dense(ring, [[rng.randrange(p) for _ in range(3)] for _ in range(4)])
    solver = SpanSolver(column_span_echelon(m).basis_matrix())
    for _ in range(20):
        c = [rng.randrange(p) for _ in range(3)]
        for x in (solver.solve(m.apply(c)), solve_linear(m, m.apply(c))):
            assert x is not None and all(type(v) is int and 0 <= v < p for v in x)


def test_kernel_with_huge_entries_stays_exact():
    # products past the int64 range arise mid-computation
    m = SparseMat.from_dense(ZZ, [[2 ** 40, 2 ** 40 + 1, 3], [5, 7, 2 ** 45]])
    k = kernel_basis(m)
    assert k.cols == 1
    assert (m @ k).is_zero()
    q = SparseMat.from_dense(QQ, [[2 ** 40, 2 ** 40 + 1, 3], [5, 7, 2 ** 45]])
    kq = kernel_basis(q)
    assert kq.cols == 1 and (q @ kq).is_zero()


def test_echelon_residue_is_canonical_over_z():
    ech = Echelon(ZZ, 2)
    ech.insert(ech.vector([2, 1]))
    ech.insert(ech.vector([0, 3]))
    # residues of congruent vectors agree
    r1 = ech.residue(ech.vector([5, 4]))
    r2 = ech.residue(ech.vector([5 + 2, 4 + 1]))
    assert list(r1) == list(r2)
    assert 0 <= r1[0] < 2


# ---------------------------------------------------------------------------
# the fraction-free residue over Q against a plain-Fraction reference
# ---------------------------------------------------------------------------


def _reference_residue(rows, v):
    """Canonical residue of v modulo the span of rows, by Gauss-Jordan
    elimination in Fractions: zero at the pivot columns of the reduced row
    echelon form."""
    reduced = []  # (pivot, row with 1 at its pivot and 0 at other pivots)
    for row in rows:
        row = [Fraction(x) for x in row]
        for p, r in reduced:
            row = [a - row[p] * b for a, b in zip(row, r)]
        lead = next((i for i, x in enumerate(row) if x != 0), None)
        if lead is None:
            continue
        row = [x / row[lead] for x in row]
        reduced = [(p, [a - r[lead] * b for a, b in zip(r, row)]) for p, r in reduced]
        reduced.append((lead, row))
    out = [Fraction(x) for x in v]
    for p, r in reduced:
        out = [a - out[p] * b for a, b in zip(out, r)]
    return out


_SMALL = st.integers(-6, 6)
_FRACTION = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
_HUGE = st.sampled_from([2**60 - 1, -(2**60) + 5, 2**60 + 3, 3 * 2**59])


@st.composite
def _qq_case(draw):
    dim = draw(st.integers(1, 6))
    row_entry = st.one_of(_SMALL, _FRACTION) if draw(st.booleans()) else _SMALL
    probe_entry = st.one_of(_SMALL, _FRACTION, _HUGE)
    rows = draw(st.lists(st.lists(row_entry, min_size=dim, max_size=dim),
                         min_size=1, max_size=5))
    probes = draw(st.lists(st.lists(probe_entry, min_size=dim, max_size=dim),
                           min_size=1, max_size=3))
    return rows, probes


@given(_qq_case())
def test_qq_residue_matches_fraction_reference(case):
    rows, probes = case
    ech = Echelon(QQ, len(rows[0]))
    for r in rows:
        ech.insert(ech.vector(r))
    for v in probes:
        want = _reference_residue(rows, v)
        assert list(ech.residue_of(v)) == want
        assert ech.contains(ech.vector(v)) == (not any(want))


@given(_qq_case(), st.lists(st.one_of(_SMALL, _FRACTION), min_size=5, max_size=5))
def test_qq_solutions_are_exact(case, coeffs):
    rows, probes = case
    dim = len(rows[0])
    m = SparseMat.from_columns(QQ, dim, rows)
    for target in probes + [m.apply(coeffs[:len(rows)])]:
        x = solve_linear(m, target)
        in_span = not any(_reference_residue(rows, target))
        assert (x is not None) == in_span
        if x is not None:
            assert m.apply(x) == [Fraction(t) for t in target]
    basis = column_span_echelon(m).basis_matrix()
    solver = SpanSolver(basis)
    c = coeffs[:basis.cols]
    assert solver.solve(basis.apply(c)) == c


def _in_ring(ring, x):
    """A Fraction as an element of ring (its denominator a unit there)."""
    x = Fraction(x)
    if ring.kind == "int_mod":
        return x.numerator * pow(x.denominator, -1, ring.modulus) % ring.modulus
    return ring.normalize(x)


def test_huge_entries_stay_exact():
    """Rows hold Python numbers, so entries of 2^62 and +-2^100 neither
    overflow nor lose precision in insert, residue_of and contains."""
    for ring in (ZZ, QQ, GF(2**61 - 1)):
        lead = 1 if ring == ZZ else 3   # unit pivots: the lattice residue is the field one
        a = [lead, 2**62, -(2**100), 0, 2**100]
        b = [0, 0, lead, 2**100, 2**62]
        ech = Echelon(ring, 5)
        assert ech.insert(ech.vector([x + 2**100 * y for x, y in zip(a, b)]))
        assert ech.insert(ech.vector(b))
        assert not ech.insert(ech.vector(a))
        inside = [2**100 * x - 2**62 * y for x, y in zip(a, b)]
        probes = [[2**100, -(2**100), 2**62, 1, 0], [2**62] * 5,
                  inside, [x + y for x, y in zip(inside, [0, 1, 0, 0, -(2**100)])]]
        for v in probes:
            want = [_in_ring(ring, x) for x in _reference_residue([a, b], v)]
            assert [ring.normalize(x) for x in ech.residue_of(v)] == want
            assert ech.contains(ech.vector(v)) == (not any(want))
        assert ech.contains(ech.vector(inside))


def test_fraction_free_residue_checks_its_pivots():
    """Every residue sweep ends by checking that it is reduced at the pivots
    (zero over a field, in [0, pivot value) over the integers)."""
    for ring in (QQ, ZZ, GF(3)):
        ech = Echelon(ring, 3)
        ech.insert(ech.vector([2, 1, 0]))
        ech.insert(ech.vector([0, 3, 1]))
        ech.rows[1][0] = 5  # corrupt: the second row reaches back to pivot 0
        for check in (ech.residue_of, lambda v: ech.contains(ech.vector(v))):
            with pytest.raises(RuntimeError, match="pivot"):
                check([1, 4, 1])


def _dense_rows(ech):
    """The full content of every row, in row order."""
    return [[r.get(i, 0) for i in range(ech.dim)] for r in ech.rows]


def test_copy_is_independent():
    for ring in (ZZ, QQ, GF(3)):
        ech = Echelon(ring, 3)
        ech.insert(ech.vector([2, 1, 0]))
        before = _dense_rows(ech)
        dup = ech.copy()
        dup.insert(dup.vector([0, 1, 1]))
        assert (ech.rank, dup.rank) == (1, 2)
        assert list(ech.row_at) == [0]
        assert list(ech.residue_of([0, 1, 1])) != [0, 0, 0]
        assert not dup.residue_of([0, 1, 1]).any()
        assert dup.mode == ech.mode and _dense_rows(dup)[:1] == before
        dup.rows[0][2] = 1
        assert _dense_rows(ech) == before


def test_pivot_values_are_lattice_only():
    ech = Echelon(ZZ, 2)
    for row in ([3, 1], [1, 0]):
        ech.insert(ech.vector(row))
    assert ech.pivot_values() == {0: 1, 1: 1}
    for ring in (QQ, GF(3)):
        ech = Echelon(ring, 2)
        ech.insert(ech.vector([3, 1]))
        with pytest.raises(ValueError, match="insertion order"):
            ech.pivot_values()


def _random_entry(ring, rng, lo, hi):
    if ring == QQ:
        return Fraction(rng.randint(lo, hi), rng.randint(1, 3))
    return ring.normalize(rng.randint(lo, hi))


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(3)])
def test_residue_and_pivots_do_not_depend_on_insertion_order(ring):
    rng = random.Random(7)
    for _ in range(15):
        rows = [[_random_entry(ring, rng, -4, 4) for _ in range(5)] for _ in range(3)]
        probes = [[_random_entry(ring, rng, -9, 9) for _ in range(5)] for _ in range(4)]
        seen = set()
        for perm in itertools.permutations(rows):
            ech = Echelon(ring, 5)
            for r in perm:
                ech.insert(ech.vector(r))
            # over a field the pivot set is a span invariant; pivot values
            # are one only over the integers (pivot_values is lattice-only)
            pivots = sorted(ech.pivot_values().items()) if ring == ZZ else sorted(ech.row_at)
            residues = [[ring.normalize(x) for x in ech.residue_of(p)] for p in probes]
            seen.add(repr((pivots, residues)))
        assert len(seen) == 1


def _plain_sort_residue(ech, v):
    """The loop the kept pivot order replaced: sort the pivots on every call,
    then one ascending sweep (exact Fractions; floor quotients over Z)."""
    out = [Fraction(x) for x in v]
    for p in sorted(ech.row_at):
        r = [Fraction(x) for x in _dense_rows(ech)[ech.row_at[p]]]
        q = out[p] // r[p] if ech.ring == ZZ else out[p] / r[p]
        out = [a - q * b for a, b in zip(out, r)]
    return [ech.ring.normalize(x) for x in out]


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(3)])
def test_pivot_order_follows_insert_add_block_and_copy(ring):
    """Random interleavings of insert and copy, with residue and contains on
    every echelon after each step: every residue equals the plain-sort
    sweep, and the kept order is sorted(row_at), also in copies and in
    originals that grow after being copied."""
    rng = random.Random(17)
    for _ in range(12):
        states = [Echelon(ring, 12)]
        for _ in range(14):
            ech = rng.choice(states)
            if rng.choice(["insert", "insert", "copy"]) == "insert":
                idx = rng.sample(range(12), rng.randint(1, 3))
                ech.insert(ech.vector([(i, _random_entry(ring, rng, 1, 4)) for i in sorted(idx)]))
            else:
                states.append(ech.copy())
            for e in states:
                assert e.sorted_pivots == sorted(e.row_at)
                probe = [ring.normalize(rng.randint(-9, 9)) for _ in range(12)]
                want = _plain_sort_residue(e, probe)
                assert [ring.normalize(x) for x in e.residue_of(probe)] == want
                assert e.contains(e.vector(probe)) == (not any(want))


# ---------------------------------------------------------------------------
# the span API (extend, same_span, is_full) against the loops it replaced
# ---------------------------------------------------------------------------


def _insert_loop(ring, dim, vectors):
    """The hand-written loop extend replaced: insert each nonzero vector."""
    ech = Echelon(ring, dim)
    for v in vectors:
        if any(x != 0 for x in v):
            ech.insert(ech.vector(v))
    return ech


def _full_by_units(ech):
    """The unit-vector test is_full replaced: full rank, and every unit
    vector in the span (over the integers: in the lattice)."""
    if ech.rank != ech.dim:
        return False
    for t in range(ech.dim):
        v = [0] * ech.dim
        v[t] = 1
        if not ech.contains(ech.vector(v)):
            return False
    return True


def _contains_all(ech, vectors):
    return all(ech.contains(ech.vector(v)) for v in vectors if any(x != 0 for x in v))


@st.composite
def _span_case(draw):
    """A ring, a dimension, up to six rows (zero rows included) and probes."""
    ring = draw(st.sampled_from([ZZ, QQ, GF(3)]))
    dim = draw(st.integers(1, 4))
    entry = st.one_of(st.integers(-3, 3), _FRACTION) if ring == QQ else st.integers(-3, 3)
    vec = st.lists(entry, min_size=dim, max_size=dim).map(
        lambda v: [ring.normalize(x) for x in v])
    rows = draw(st.lists(vec, max_size=6))
    probes = draw(st.lists(vec, min_size=1, max_size=3))
    return ring, dim, rows, probes


def _state(ech, probes):
    return (ech.mode, list(ech.row_at), _dense_rows(ech),
            [list(ech.residue_of(p)) for p in probes])


@given(_span_case())
def test_extend_matches_an_insert_loop(case):
    ring, dim, rows, probes = case
    want = _state(_insert_loop(ring, dim, rows), probes)
    ech = Echelon(ring, dim)
    assert ech.extend(rows) is ech
    assert _state(ech, probes) == want
    # the nonzero (index, value) pairs of the same rows, as a generator
    pairs = ([(i, x) for i, x in enumerate(r) if x != 0] for r in rows)
    assert _state(Echelon(ring, dim).extend(pairs), probes) == want


@given(_span_case())
def test_is_full_matches_unit_vector_containment(case):
    ring, dim, rows, _ = case
    assert Echelon(ring, dim).extend(rows).is_full() == _full_by_units(
        _insert_loop(ring, dim, rows))


@given(_span_case(), st.sampled_from(["random", "recombined", "doubled"]))
def test_same_span_matches_two_way_containment(case, how):
    ring, dim, rows, probes = case
    if how == "random":
        other = probes
    elif how == "recombined":
        # the same span and lattice: reversed, plus the sum of the first two
        other = rows[::-1]
        if len(rows) > 1:
            other.append([ring.normalize(a + b) for a, b in zip(rows[0], rows[1])])
    else:
        # the same span, but over the integers a sublattice of index 2
        other = [[ring.normalize(2 * x) for x in r] for r in rows[:1]] + rows[1:]
    want = (_contains_all(_insert_loop(ring, dim, rows), other)
            and _contains_all(_insert_loop(ring, dim, other), rows))
    a = Echelon(ring, dim).extend(rows)
    b = Echelon(ring, dim).extend(other)
    assert a.same_span(b) == b.same_span(a) == want


def test_span_api_over_the_integers_sees_the_lattice():
    assert Echelon(QQ, 2).extend([[2, 1], [0, 3]]).is_full()
    assert not Echelon(ZZ, 2).extend([[2, 1], [0, 3]]).is_full()
    assert Echelon(ZZ, 2).extend([[2, 1], [1, 1]]).is_full()
    assert not Echelon(GF(3), 2).extend([[1, 2], [2, 1]]).is_full()
    assert Echelon(ZZ, 0).is_full()
    for ring, same in ((ZZ, False), (QQ, True)):
        a = Echelon(ring, 2).extend([[1, 1], [0, 1]])
        assert a.same_span(Echelon(ring, 2).extend([[2, 0], [0, 1]])) == same


def _reference_product(ring, table, dim, a, b):
    """sum over the table entries of a_i b_j c e_k, in table order."""
    out = [ring.zero] * dim
    for (i, j), terms in table.items():
        for k, c in terms:
            out[k] = out[k] + a[i] * b[j] * c
    return [ring.normalize(x) for x in out]


@pytest.mark.parametrize("name", catalog_names())
@given(data=st.data())
def test_bilinear_matches_the_products_of_the_catalog(name, data):
    d = builtin_dialgebra(name)
    entry = st.integers(-3, 3).map(d.ring.normalize)
    vec = st.lists(entry, min_size=d.dim, max_size=d.dim)
    a, b = data.draw(vec), data.draw(vec)
    for table, mul in ((d.left, d.lmul), (d.right, d.rmul)):
        want = _reference_product(d.ring, table, d.dim, a, b)
        assert bilinear(d.ring, table, d.dim, a, b) == want
        assert mul(a, b) == want


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(5)])
def test_sparse_apply_agrees_with_matmul(ring):
    rng = random.Random(11)
    for _ in range(20):
        a = SparseMat.from_dense(
            ring, [[_random_entry(ring, rng, -2, 3) * rng.randint(0, 1)
                    for _ in range(6)] for _ in range(4)]
        )
        v = [_random_entry(ring, rng, -3, 3) for _ in range(6)]
        assert a.apply(v) == (a @ SparseMat.from_columns(ring, 6, [v])).column_dense(0)


def _columns_by_global_sort(m):
    """columns() as it was built before: one sort of every entry by (col, row)."""
    cols = [[] for _ in range(m.cols)]
    for (i, j), v in sorted(m.entries.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        cols[j].append((i, v))
    return cols


@st.composite
def _sparse_case(draw):
    """A ring and a sparse matrix whose entries arrive in a drawn order."""
    ring = draw(st.sampled_from([ZZ, QQ, GF(3)]))
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    entry = st.one_of(st.integers(-3, 3), _FRACTION) if ring == QQ else st.integers(-3, 3)
    cells = [(i, j) for i in range(rows) for j in range(cols)]
    chosen = draw(st.permutations(cells)) if cells else []
    chosen = chosen[:draw(st.integers(0, len(chosen)))]
    return SparseMat(ring, rows, cols, {c: draw(entry) for c in chosen})


@given(_sparse_case())
def test_columns_match_the_global_sort(m):
    got, want = m.columns(), _columns_by_global_sort(m)
    assert got == want
    assert [[type(v) for _, v in col] for col in got] == [[type(v) for _, v in col] for col in want]
    # the trusted constructor with ready columns equals the checked one
    assert SparseMat._trusted(m.ring, m.rows, m.cols, dict(m.entries), got) == m
    assert SparseMat._trusted(m.ring, m.rows, m.cols, dict(m.entries)).columns() == got


# ---------------------------------------------------------------------------
# subquotients, with a brute-force enumeration oracle
# ---------------------------------------------------------------------------


def _det(mat):
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        total += (-1) ** j * mat[0][j] * _det(minor)
    return total


def _in_lattice(cols, v):
    """Cramer-rule membership of v in the full-rank lattice spanned by cols."""
    n = len(v)
    base = [[cols[j][i] for j in range(n)] for i in range(n)]
    d = _det(base)
    for j in range(n):
        mod = [row[:] for row in base]
        for i in range(n):
            mod[i][j] = v[i]
        if _det(mod) % d != 0:
            return False
    return True


def _brute_quotient_invariants(cols):
    """Invariant factors of Z^n / lattice(cols) for a full-rank lattice, by
    enumerating the quotient group and counting annihilators."""
    n = len(cols[0])
    order = abs(_det([[cols[j][i] for j in range(n)] for i in range(n)]))
    # BFS over cosets, dedup by lattice membership of differences
    reps = [tuple([0] * n)]
    frontier = [tuple([0] * n)]
    gens = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
    while frontier and len(reps) < order:
        nxt = []
        for v in frontier:
            for g in gens:
                w = tuple(a + b for a, b in zip(v, g))
                if not any(
                    _in_lattice(cols, [a - b for a, b in zip(w, r)]) for r in reps
                ):
                    reps.append(w)
                    nxt.append(w)
        frontier = nxt
    assert len(reps) == order
    # N(p^j) = #{x : p^j x = 0} = prod_i p^{min(j, e_i)} pins the exponent
    # profile of each prime; slot s of the chain takes the s-th largest
    import math

    primes = sorted({
        p for p in range(2, order + 1)
        if order % p == 0 and all(p % q for q in range(2, p))
    })
    exps = {}
    for p in primes:
        profile = []  # profile[j-1] = #factors with p-exponent >= j
        prev = 1
        j = 1
        while True:
            ann = sum(1 for r in reps if _in_lattice(cols, [p ** j * x for x in r]))
            grew = ann // prev
            if grew == 1:
                break
            profile.append(round(math.log(grew, p)))
            prev = ann
            j += 1
        exps[p] = profile
    width = max((prof[0] for prof in exps.values() if prof), default=0)
    out = []
    for slot in range(width):
        d = 1
        for p, prof in exps.items():
            e = sum(1 for count in prof if count > slot)
            d *= p ** e
        out.append(d)
    out.sort()
    return tuple(d for d in out if d > 1)


def test_subquotient_trivial_cases():
    ker = SparseMat.identity(ZZ, 2)
    inv = subquotient_invariants(ker, SparseMat.zeros(ZZ, 2, 0), (0, 0))
    assert (inv.even_free_rank, inv.odd_free_rank) == (2, 0)
    inv = subquotient_invariants(ker, ker, (0, 0))
    assert inv.is_zero()


def test_subquotient_z_mod_2():
    ker = SparseMat.identity(ZZ, 1)
    im = SparseMat.from_dense(ZZ, [[2]])
    inv = subquotient_invariants(ker, im, (0,))
    assert inv.even_torsion == (2,) and inv.even_free_rank == 0


def test_subquotient_not_a_submodule():
    ker = SparseMat.from_dense(ZZ, [[2], [0]])
    im = SparseMat.from_dense(ZZ, [[1], [0]])
    with pytest.raises(NotASubmoduleError):
        subquotient_invariants(ker, im, (0, 0))


def test_subquotient_parity_split():
    # even block Z/2, odd block Z/3, one even free generator
    ker = SparseMat.identity(ZZ, 3)
    im = SparseMat.from_dense(ZZ, [[2, 0], [0, 3], [0, 0]])
    inv = subquotient_invariants(ker, im, (0, 1, 0))
    assert inv.even_torsion == (2,)
    assert inv.odd_torsion == (3,)
    assert inv.even_free_rank == 1 and inv.odd_free_rank == 0


@pytest.mark.parametrize("seed", range(10))
def test_subquotient_matches_brute_force_enumeration(seed):
    rng = random.Random(seed)
    trials = 0
    while trials < 3:
        k = rng.randint(1, 4)
        cols = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
        square = [[cols[j][i] for j in range(k)] for i in range(k)]
        d = _det(square)
        if d == 0 or abs(d) > 40:
            continue
        trials += 1
        ker = SparseMat.identity(ZZ, k)
        im = SparseMat.from_columns(ZZ, k, cols)
        inv = subquotient_invariants(ker, im, (0,) * k)
        assert inv.even_free_rank == 0
        assert tuple(inv.even_torsion) == _brute_quotient_invariants(cols)


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def test_module_iso_check_reflexive():
    a = GradedModuleInvariants(ZZ, 1, 2, (2, 4), ())
    assert module_iso_check(a, a)


def test_module_iso_check_parity_matters():
    a = GradedModuleInvariants(QQ, even_free_rank=1)
    b = GradedModuleInvariants(QQ, odd_free_rank=1)
    assert not module_iso_check(a, b)


def test_module_iso_check_torsion():
    # Z/2 + Z/2 and Z/4 have the same order but different element orders
    a = GradedModuleInvariants(ZZ, even_torsion=(2, 2))
    b = GradedModuleInvariants(ZZ, even_torsion=(4,))
    assert not module_iso_check(a, b)


def test_parity_shift():
    a = GradedModuleInvariants(ZZ, 2, 0)
    s = parity_shift(a)
    assert (s.even_free_rank, s.odd_free_rank) == (0, 2)
    assert module_iso_check(parity_shift(s), a)
    t = GradedModuleInvariants(ZZ, 1, 0, (2,), ())
    st = parity_shift(t)
    assert st.odd_free_rank == 1 and st.odd_torsion == (2,)


def test_direct_sum_merges_invariant_factors():
    a = GradedModuleInvariants(ZZ, even_torsion=(6,))
    b = GradedModuleInvariants(ZZ, even_torsion=(4,))
    s = a.direct_sum(b)
    assert s.even_torsion == (2, 12)  # Z/6 + Z/4 = Z/2 + Z/12
    six = GradedModuleInvariants(ZZ, even_torsion=(2,))
    total = six
    for _ in range(5):
        total = total.direct_sum(six)
    assert total.even_torsion == (2,) * 6


def test_invariants_validate_chain():
    with pytest.raises(ValueError):
        GradedModuleInvariants(ZZ, even_torsion=(4, 2))
    with pytest.raises(ValueError):
        GradedModuleInvariants(QQ, even_torsion=(2,))


def _factorize(n: int) -> dict:
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def reference_merge_torsion(lists) -> tuple:
    """The factorising merge that ``merge_torsion`` replaced, kept verbatim
    as the reference: split every factor into prime powers by trial
    division, then rebuild the chain slot by slot."""
    by_prime: dict = {}
    for tl in lists:
        for d in tl:
            for p, e in _factorize(int(d)).items():
                by_prime.setdefault(p, []).append(e)
    if not by_prime:
        return ()
    width = max(len(v) for v in by_prime.values())
    factors = []
    for slot in range(width):
        d = 1
        for p, exps in by_prime.items():
            exps_sorted = sorted(exps, reverse=True)
            if slot < len(exps_sorted):
                d *= p ** exps_sorted[slot]
        factors.append(d)
    factors.reverse()  # ascending divisibility chain
    return tuple(factors)


@given(st.lists(st.lists(st.integers(2, 400), max_size=5), max_size=4))
def test_merge_torsion_matches_the_factorising_merge(lists):
    got = merge_torsion(lists)
    assert got == reference_merge_torsion(lists)
    assert all(type(d) is int for d in got)


def test_merge_torsion_of_huge_factors_needs_no_factorisation():
    p = 10**18 + 3  # trial division would run up to 10^9
    assert merge_torsion([(2,), (2 * p,), (3,)]) == (2, 6 * p)
    assert merge_torsion([(p * p,), (p,)]) == (p, p * p)
