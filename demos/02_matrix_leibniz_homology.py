"""Matrix Leibniz superalgebras and their degree-2 homology, two ways.

gl(m, n, D) is the space of (m+n) x (m+n) matrices over a unital
superdialgebra D with bracket [x, y] = x <| y - (-1)^{|x||y|} y |> x and
grading |E_ij(a)| = |i| + |j| + |a|; sl(m, n, D) = [gl, gl].  For m + n >= 3
it is perfect, and its degree-2 homology is computed here both as
Ker delta_2 / Im delta_3 and as the kernel of the boundary on the non-abelian
tensor square - two implementations that must agree exactly.
"""

from uce_lab.chain import hl
from uce_lab.exactlin import module_iso_check
from uce_lab.leibniz import centre, gl, is_perfect, sl
from uce_lab.superdialg import builtin_dialgebra
from uce_lab.tensorsq import tensor_square, uce

Q = builtin_dialgebra("rationals")

# elements are lists of (index, value) pairs; E_ij(1) is unit_vector(i, j,
# [(0, 1)]), and E11, E12, E21, E22 are the basis vectors 0, 1, 2, 3
g = gl(2, 0, Q)
print("gl(2,0,Q): [E12, E21] =", g.algebra.bracket(
    g.unit_vector(1, 2, [(0, 1)]), g.unit_vector(2, 1, [(0, 1)])), "(= E11 - E22)")

g11 = gl(1, 1, Q)
print("gl(1,1,Q): [E12, E21] =", g11.algebra.bracket(
    g11.unit_vector(1, 2, [(0, 1)]), g11.unit_vector(2, 1, [(0, 1)])),
    "(= E11 + E22: both generators are odd)")

print("\ncentre of gl(2,0,Q) has dimension", centre(g.algebra).cols,
      "(the scalars); centre of sl(2,0,Q) is",
      centre(sl(2, 0, Q).algebra).cols)

for m, n in [(2, 1), (2, 2), (3, 0)]:
    s = sl(m, n, Q)
    print(f"sl({m},{n},Q): dim {s.algebra.dim}, perfect: "
          f"{is_perfect(s.algebra)}")

# Degree-2 homology two ways
print("\ndegree-2 homology by both paths:")
for m, n, name in [(2, 1, "rationals"), (2, 2, "rationals"), (3, 0, "f3")]:
    alg = sl(m, n, builtin_dialgebra(name)).algebra
    chain_inv = hl(alg, 2)
    ts = tensor_square(alg)
    tensor_inv = ts.kernel_invariants()
    agree = module_iso_check(chain_inv, tensor_inv)
    print(f"  sl({m},{n},{name}): chain [{chain_inv.describe()}]  "
          f"tensor [{tensor_inv.describe()}]  agree: {agree}")

# The tensor square as a central extension
rep = uce(sl(2, 2, Q).algebra)
print("\ntensor square of sl(2,2,Q) as a central extension:")
print("  kernel:", rep.kernel_invariants.describe())
print("  kernel is central:", rep.kernel_central)
print("  carrier is perfect:", rep.carrier_perfect)
print("  boundary is surjective:", rep.projection_surjective)
