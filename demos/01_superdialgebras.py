"""A tour of the built-in superdialgebras.

A superdialgebra carries two associative products <| and |> tied together by
three compatibility axioms, a Z/2 grading, and (usually) a bar-unit e with
a <| e = a = e |> a.  Every unital associative (super)algebra is one; the
"bar duplex" shows that bar-units need not be unique.
"""

from uce_lab.superdialg import (
    bracket_ideal,
    bracket_span,
    builtin_dialgebra,
    catalog_entries,
    quotient_Dm,
    tensor_product,
    validate,
)

print("catalog:")
for entry in catalog_entries():
    print(f"  {entry['name']:18s} dim={entry['dim']} odd={entry['odd_dim']}"
          f" ring={entry['ring']} unital={entry['unital']}")

print("\nevery entry satisfies all five axioms:")
for entry in catalog_entries():
    issues = validate(builtin_dialgebra(entry["name"]))
    print(f"  {entry['name']:18s} violations: {issues or 'none'}")

# The bar duplex: Q^2 with x <| y = x s(y) and x |> y = s(x) y, s = sum of
# coordinates.  Both (1,0) and (0,1) satisfy the bar-unit laws.  Elements
# are lists of (index, value) pairs: u0 = (1,0) is [(0, 1)], u1 = (0,1) is
# [(1, 1)].
bd = builtin_dialgebra("bar_duplex_q")
u0, u1 = [(0, 1)], [(1, 1)]
print("\nbar duplex products:")
print("  u1 <| u0 =", bd.lmul(u1, u0))
print("  u0 |> u1 =", bd.rmul(u0, u1))
print("  chosen bar-unit:", bd.bar_unit)
print("  (0,1) also works:", validate(bd.with_bar_unit([0, 1])) == [])

# Koszul signs in the graded tensor product
g = builtin_dialgebra("grassmann_q")
gg = tensor_product(g, g)
x1 = [(2, 1)]   # x (x) 1
ox = [(1, 1)]   # 1 (x) x
print("\nKoszul sign in grassmann (x) grassmann:")
print("  (x(x)1) <| (1(x)x) =", gg.lmul(x1, ox))
print("  (1(x)x) <| (x(x)1) =", gg.lmul(ox, x1))

# The bracket ideal and the quotients D_m = D / (mD + bracket ideal)
print("\nbracket structure of the 2x2 matrix algebra:")
m2 = builtin_dialgebra("mat2_q")
print("  commutator span dimension:", bracket_span(m2).cols, "(trace zero)")
print("  two-sided bracket ideal dimension:", bracket_ideal(m2).cols,
      "(everything: the algebra is simple)")

print("\nquotients D_m:")
for name, m in [("rationals", 2), ("integers", 2), ("f2", 2), ("f3", 3),
                ("bar_duplex_q", 0), ("mat2_q", 0)]:
    q = quotient_Dm(builtin_dialgebra(name), m)
    print(f"  D_{m}({name}) = {q.invariants.describe()}")
