"""Superdialgebra constructors, validation, the bracket ideal and the
quotients D_m, plus the structural identity suite for unital dialgebras."""

import json
import random
from dataclasses import replace

import pytest

from uce_lab.exactlin import QQ, combine
from uce_lab.superdialg import (
    DialgebraFormatError,
    InvalidInputError,
    NotABimoduleMapError,
    NotADifferentialError,
    SuperDialgebra,
    bracket_ideal,
    bracket_span,
    builtin_dialgebra,
    catalog_names,
    dump_dialgebra,
    from_algebra,
    from_bimodule_map,
    from_dga,
    load_dialgebra,
    load_dialgebra_file,
    matrix_dialgebra,
    quotient_Dm,
    tensor_product,
    validate,
)

UNITAL = [n for n in catalog_names() if builtin_dialgebra(n).is_unital]


def _pairs(dense):
    """The nonzero (index, value) pairs of a dense vector: the form of the
    elements of a dialgebra."""
    return [(i, x) for i, x in enumerate(dense) if x != 0]


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", catalog_names())
def test_catalog_is_valid(name):
    assert validate(builtin_dialgebra(name)) == []


def test_one_dim_rationals_is_valid():
    d = builtin_dialgebra("rationals")
    assert d.lmul([(0, 1)], [(0, 1)]) == [(0, 1)]


def test_perturbed_left_constant_reports_mixed_axiom():
    d = builtin_dialgebra("rationals")
    broken = SuperDialgebra(d.ring, d.module, {(0, 0): [(0, 2)]}, d.right,
                            d.bar_unit, "broken")
    issues = validate(broken)
    assert any("mixed-axiom" in v for v in issues)


def _dense_validate(d):
    """The dense validation that ``validate`` replaced, kept as the
    reference: every triple multiplied out on dense coordinate lists."""
    issues, seen = [], set()

    def product(table, a, b):
        out = [0] * d.dim
        for (i, j), terms in table.items():
            for k, c in terms:
                out[k] += a[i] * b[j] * c
        return [d.ring.normalize(x) for x in out]

    def lmul(a, b):
        return product(d.left, a, b)

    def rmul(a, b):
        return product(d.right, a, b)

    def note(kind, where):
        if kind not in seen:
            seen.add(kind)
            issues.append(f"{kind} fails first at {where}")

    basis = [[int(i == t) for t in range(d.dim)] for i in range(d.dim)]
    for i in range(d.dim):
        for j in range(d.dim):
            target = (d.parity(i) + d.parity(j)) % 2
            for table, op in ((d.left, "left-product"), (d.right, "right-product")):
                for k, c in table.get((i, j), ()):
                    if d.parity(k) != target:
                        note(f"parity-additivity of {op}", f"(e{i}, e{j})")
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            ab_l, ab_r = lmul(a, b), rmul(a, b)
            for k, c in enumerate(basis):
                bc_l, bc_r = lmul(b, c), rmul(b, c)
                where = f"(e{i}, e{j}, e{k})"
                if lmul(ab_l, c) != lmul(a, bc_l):
                    note("left-associativity", where)
                if rmul(ab_r, c) != rmul(a, bc_r):
                    note("right-associativity", where)
                if lmul(a, bc_l) != lmul(a, bc_r):
                    note("mixed-axiom a<|(b<|c) = a<|(b|>c)", where)
                if lmul(ab_r, c) != rmul(a, bc_l):
                    note("mixed-axiom (a|>b)<|c = a|>(b<|c)", where)
                if rmul(ab_l, c) != rmul(ab_r, c):
                    note("mixed-axiom (a<|b)|>c = (a|>b)|>c", where)
    if d.is_unital:
        e = [0] * d.dim
        for i, x in d.bar_unit:
            e[i] = x
        if {d.parity(i) for i, x in enumerate(e) if x != 0} - {0}:
            issues.append("bar-unit parity: the bar-unit must be even")
        for i, a in enumerate(basis):
            if lmul(a, e) != a:
                note("bar-unit law a<|e = a", f"e{i}")
            if rmul(e, a) != a:
                note("bar-unit law e|>a = a", f"e{i}")
    return issues


@pytest.mark.parametrize("name", catalog_names())
def test_sparse_validate_reports_what_the_dense_loop_reports(name):
    """The same violation strings in the same order, first failing triples
    included, on the catalog and on random perturbations of it: changed,
    added and removed structure constants, some of them zero."""
    d = builtin_dialgebra(name)
    rng = random.Random(name)
    probes = [d]
    for _ in range(12):
        left, right = dict(d.left), dict(d.right)
        for _ in range(rng.randint(1, 3)):
            table = rng.choice((left, right))
            key = (rng.randrange(d.dim), rng.randrange(d.dim))
            if key in table and rng.random() < 0.3:
                del table[key]
            else:
                table[key] = [(rng.randrange(d.dim), rng.randint(-2, 2))]
        probes.append(SuperDialgebra(d.ring, d.module, left, right, d.bar_unit, "perturbed"))
    for x in probes:
        assert validate(x) == _dense_validate(x)
    assert any(validate(x) for x in probes)


def test_bar_duplex_is_valid_with_two_bar_units():
    d = builtin_dialgebra("bar_duplex_q")
    assert validate(d) == []
    # both basis vectors satisfy the bar-unit laws (checked by hand: the
    # products are x <| y = x s(y) and x |> y = s(x) y with s = coordinate sum)
    assert validate(d.with_bar_unit([0, 1])) == []


def test_validate_flags_odd_bar_unit():
    g = builtin_dialgebra("grassmann_q")
    broken = SuperDialgebra(g.ring, g.module, g.left, g.right, ((1, 1),), "odd-unit")
    assert any("even" in v for v in validate(broken))


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def test_from_algebra_dual_numbers():
    d = builtin_dialgebra("dual_numbers_q")
    eps = [(1, 1)]
    assert d.lmul(eps, eps) == []
    assert d.lmul([(0, 1)], eps) == eps


def test_from_algebra_rejects_nonassociative():
    bad = {(0, 0): [(1, 1)], (0, 1): [(0, 1)], (1, 0): [(0, 1)], (1, 1): [(1, 1)]}
    with pytest.raises(InvalidInputError):
        from_algebra(QQ, (0, 0), bad, (1, 0))


def test_from_dga_zero_differential_gives_zero_products():
    d = builtin_dialgebra("dual_dga_zero_q")
    assert d.left == {} and d.right == {}
    assert not d.is_unital


def test_from_dga_t3():
    # Q[t]/(t^3) with d(t) = t^2, products x <| y = x d(y)
    d = builtin_dialgebra("t3_dga_q")
    assert validate(d) == []
    one, t, t2 = [(0, 1)], [(1, 1)], [(2, 1)]
    assert d.lmul(one, t) == t2          # 1 d(t) = t^2
    assert d.rmul(t, one) == t2          # d(t) 1 = t^2
    assert d.rmul(t, t) == []            # d(t) t = t^3 = 0
    assert d.lmul(t, t) == []            # t d(t) = t^3 = 0


def test_from_dga_rejects_non_differential():
    alg = builtin_dialgebra("dual_numbers_q")
    # d(eps) = 1 is not a derivation (d(eps^2) = 0 but 2 eps d(eps) = 2 eps)
    with pytest.raises(NotADifferentialError):
        from_dga(alg, [[0, 1], [0, 0]])


def test_from_bimodule_identity_recovers_algebra():
    alg = builtin_dialgebra("dual_numbers_q")
    la = {(i, j): [(k, c) for k, c in alg.left.get((i, j), [])]
          for i in range(2) for j in range(2) if alg.left.get((i, j))}
    fmat = [[1, 0], [0, 1]]
    d = from_bimodule_map(alg, la, la, fmat, (0, 0))
    assert d.left == alg.left and d.right == alg.right
    assert d.bar_unit == ((0, 1),)


def test_bar_duplex_products_match_hand_evaluation():
    d = builtin_dialgebra("bar_duplex_q")
    u0, u1 = [(0, 1)], [(1, 1)]
    assert d.lmul(u1, u0) == u1     # (0,1) <| (1,0) = (0,1) f(1,0)
    assert d.rmul(u0, u1) == u1     # (1,0) |> (0,1) = f(1,0) (0,1)
    assert d.lmul(u0, u0) == u0
    assert d.rmul(u1, u1) == u1
    assert d.bar_unit == ((0, 1),)


def test_from_bimodule_rejects_non_equivariant():
    alg = builtin_dialgebra("rationals")
    ra = {(0, 0): [(0, 1)], (1, 0): [(1, 1)]}
    # left action a.(x, y) = (ax, 0): f(a.m) = ax but a.f(m) = a(x + y)
    bad_la = {(0, 0): [(0, 1)]}
    with pytest.raises(NotABimoduleMapError):
        from_bimodule_map(alg, bad_la, ra, [[1, 1]], (0, 0))


def test_from_bimodule_flags_non_unital_action():
    # f(e) = 1 exists but the left action is not unital, so no bar-unit
    alg = builtin_dialgebra("rationals")
    ra = {(0, 0): [(0, 1)], (1, 0): [(1, 1)]}
    shifty_la = {(0, 0): [(1, 1)], (0, 1): [(1, 1)]}
    d = from_bimodule_map(alg, shifty_la, ra, [[1, 1]], (0, 0))
    assert not d.is_unital
    assert validate(d) == []


def test_from_bimodule_over_a_non_unital_algebra_is_non_unital():
    # dual_dga_zero_q has no bar-unit, so there is no unit f(e) could hit
    alg = builtin_dialgebra("dual_dga_zero_q")
    assert not alg.is_unital
    d = from_bimodule_map(alg, {}, {}, [[1], [0]], (0,))
    assert not d.is_unital and d.dim == 1
    assert d.left == {} and d.right == {}
    assert validate(d) == []


def test_tensor_product_with_unit_factor():
    q = builtin_dialgebra("rationals")
    bd = builtin_dialgebra("bar_duplex_q")
    t = tensor_product(q, bd)
    assert t.dim == 2
    assert t.left == bd.left and t.right == bd.right
    qq = tensor_product(q, q)
    assert qq.dim == 1 and qq.lmul([(0, 1)], [(0, 1)]) == [(0, 1)]


def test_tensor_product_koszul_sign():
    g = builtin_dialgebra("grassmann_q")
    gg = tensor_product(g, g)
    assert validate(gg) == []
    x_tensor_1 = [(2, 1)]
    one_tensor_x = [(1, 1)]
    a = gg.lmul(x_tensor_1, one_tensor_x)
    b = gg.lmul(one_tensor_x, x_tensor_1)
    assert a == [(k, -v) for k, v in b] and a


def test_matrix_dialgebra_units():
    md = matrix_dialgebra(2, builtin_dialgebra("rationals"))
    assert validate(md) == []
    e12, e21 = md.basis_vector(1), md.basis_vector(2)
    assert md.lmul(e12, e21) == [(0, 1)]   # E12 <| E21 = E11
    assert md.lmul(e12, e12) == []
    one = matrix_dialgebra(1, builtin_dialgebra("dual_numbers_q"))
    assert one.left == builtin_dialgebra("dual_numbers_q").left


@pytest.mark.parametrize("name", ["rationals", "dual_numbers_q", "grassmann_q",
                                  "bar_duplex_q", "f2"])
def test_constructor_outputs_validate(name):
    assert validate(matrix_dialgebra(2, builtin_dialgebra(name))) == []


# ---------------------------------------------------------------------------
# bracket span / ideal / quotients
# ---------------------------------------------------------------------------


def test_bracket_ideal_commutative_is_zero():
    assert bracket_ideal(builtin_dialgebra("dual_numbers_q")).cols == 0
    assert bracket_ideal(builtin_dialgebra("rationals")).cols == 0


def test_bracket_ideal_bar_duplex_is_zero():
    # x <| y = x s(y) and y |> x = s(y) x coincide, so every bracket vanishes
    d = builtin_dialgebra("bar_duplex_q")
    assert d.bracket([(0, 1)], 0, [(1, 1)], 0) == []
    assert bracket_ideal(d).cols == 0


def test_bracket_ideal_mat2_is_everything_but_span_is_trace_zero():
    d = builtin_dialgebra("mat2_q")
    # the two-sided ideal generated by the commutators of a simple algebra
    # is the whole algebra; the commutator span itself is trace zero
    assert bracket_ideal(d).cols == 4
    span = bracket_span(d)
    assert span.cols == 3
    for col in span.columns():
        col = dict(col)
        assert col.get(0, 0) + col.get(3, 0) == 0  # trace of a E11 + b E12 + c E21 + d E22


def test_quotient_dm_examples():
    assert quotient_Dm(builtin_dialgebra("rationals"), 2).invariants.is_zero()
    f2_q = quotient_Dm(builtin_dialgebra("f2"), 2).invariants
    assert f2_q.even_free_rank == 1 and f2_q.odd_free_rank == 0
    z_q = quotient_Dm(builtin_dialgebra("integers"), 2).invariants
    assert z_q.even_torsion == (2,)
    bd0 = quotient_Dm(builtin_dialgebra("bar_duplex_q"), 0).invariants
    assert bd0.even_free_rank == 2  # the bracket ideal vanishes
    g0 = quotient_Dm(builtin_dialgebra("grassmann_q"), 0).invariants
    assert (g0.even_free_rank, g0.odd_free_rank) == (1, 1)
    m0 = quotient_Dm(builtin_dialgebra("mat2_q"), 0).invariants
    assert m0.is_zero()


def test_quotient_dm_is_memoised_on_the_dialgebra():
    d = builtin_dialgebra("grassmann_q")
    q2 = quotient_Dm(d, 2)
    assert quotient_Dm(d, 2) is q2 and quotient_Dm(d, 0) is not q2
    assert sorted(d._quotients) == [0, 2]
    # a copy starts empty, and a regraded dialgebra has quotients of its own
    assert replace(d)._quotients == {} and d.regrade((0, 0))._quotients == {}
    assert quotient_Dm(replace(d), 2) == q2


@pytest.mark.parametrize("name", UNITAL)
@pytest.mark.parametrize("m", [0, 2, 3])
def test_quotient_dm_annihilated_by_m(name, m):
    q = quotient_Dm(builtin_dialgebra(name), m)
    assert q.annihilated_by(m)


# ---------------------------------------------------------------------------
# structural identities of unital dialgebras (randomized homogeneous triples)
# ---------------------------------------------------------------------------


def _random_homogeneous(d, rng):
    par = rng.choice(sorted(set(d.module.parity)))
    vec = [0] * d.dim
    for i in range(d.dim):
        if d.parity(i) == par:
            vec[i] = rng.randint(-3, 3)
    if all(v == 0 for v in vec):
        idx = [i for i in range(d.dim) if d.parity(i) == par][0]
        vec[idx] = 1
    return _pairs([d.ring.normalize(v) for v in vec]), par


@pytest.mark.parametrize("name", UNITAL)
def test_unital_bracket_identities(name):
    """a <| [b,c] = [a,b] <| c - (-1)^{|b||c|} [a <| c, b] <| 1
    [a,b] |> c = -(-1)^{|b||c|} a |> [c,b] + (-1)^{|b||c|} 1 |> [a |> c, b]
    [a,b] <| c = -(-1)^{|a||b|} b |> [a,c] + [a, b |> c]"""
    d = builtin_dialgebra(name)
    ring = d.ring
    one = d.bar_unit
    rng = random.Random(hash(name) & 0xFFFF)
    for _ in range(1000):
        a, pa = _random_homogeneous(d, rng)
        b, pb = _random_homogeneous(d, rng)
        c, pc = _random_homogeneous(d, rng)
        sbc = -ring.one if (pb * pc) % 2 else ring.one
        sab = -ring.one if (pa * pb) % 2 else ring.one

        lhs = d.lmul(a, d.bracket(b, pb, c, pc))
        t1 = d.lmul(d.bracket(a, pa, b, pb), c)
        t2 = d.lmul(d.bracket(d.lmul(a, c), (pa + pc) % 2, b, pb), one)
        assert lhs == combine(ring, [(1, t1), (-sbc, t2)])

        lhs = d.rmul(d.bracket(a, pa, b, pb), c)
        t1 = d.rmul(a, d.bracket(c, pc, b, pb))
        t2 = d.rmul(one, d.bracket(d.rmul(a, c), (pa + pc) % 2, b, pb))
        assert lhs == combine(ring, [(-sbc, t1), (sbc, t2)])

        lhs = d.lmul(d.bracket(a, pa, b, pb), c)
        t1 = d.rmul(b, d.bracket(a, pa, c, pc))
        t2 = d.bracket(a, pa, d.rmul(b, c), (pb + pc) % 2)
        assert lhs == combine(ring, [(-sab, t1), (1, t2)])


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", catalog_names())
def test_file_round_trip(name, tmp_path):
    d = builtin_dialgebra(name)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(dump_dialgebra(d)))
    d2 = load_dialgebra_file(path)
    assert d2.left == d.left and d2.right == d.right
    assert d2.module.parity == d.module.parity
    assert (d2.bar_unit is None) == (d.bar_unit is None)
    assert validate(d2) == []


def test_load_rejects_bad_index():
    blob = dump_dialgebra(builtin_dialgebra("rationals"))
    blob["left"] = [[0, 0, 5, "1"]]
    with pytest.raises(DialgebraFormatError) as err:
        load_dialgebra(blob, source="mem")
    assert "mem:left[0]" in str(err.value)


def test_load_rejects_bad_coefficient():
    blob = dump_dialgebra(builtin_dialgebra("integers"))
    blob["left"] = [[0, 0, 0, "1/2"]]
    with pytest.raises(DialgebraFormatError):
        load_dialgebra(blob)


def test_load_rejects_bad_parity():
    blob = dump_dialgebra(builtin_dialgebra("rationals"))
    blob["parity"] = [2]
    with pytest.raises(DialgebraFormatError) as err:
        load_dialgebra(blob, source="mem")
    assert "parity" in str(err.value)


def test_load_rejects_malformed_file(tmp_path):
    p = tmp_path / "x.json"
    p.write_text("{broken")
    with pytest.raises(DialgebraFormatError) as err:
        load_dialgebra_file(p)
    assert str(p) in str(err.value)
