"""The Leibniz chain complex and its homology.

delta_n : L^(x)n -> L^(x)(n-1) sends x_1 (x) ... (x) x_n to the signed sum over
pairs i < j of x_1 (x) .. (x) [x_i, x_j] (x) .. (x) ^x_j (x) .. (x) x_n with sign
(-1)^{n-j+|x_j|(|x_{i+1}|+...+|x_{j-1}|)}.  delta_1 is the zero map to the zero
module.  Homology in degree n is Ker delta_n / Im delta_{n+1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .exactlin import (
    GradedFreeModule,
    GradedModuleInvariants,
    SparseMat,
    column_span_echelon,
    kernel_basis,
    subquotient_invariants,
)
from .leibniz import LeibnizSuperalgebra

__all__ = [
    "ChainMap",
    "DEFAULT_SIZE_GUARD",
    "SizeGuardExceededError",
    "tensor_power_module",
    "delta",
    "hl",
]

DEFAULT_SIZE_GUARD = 50_000


class SizeGuardExceededError(RuntimeError):
    """Total tensor dimension of the requested complex exceeds the guard."""


def guard_check(dims, guard):
    total = sum(dims)
    if total > guard:
        raise SizeGuardExceededError(
            f"total tensor dimension {total} exceeds the guard {guard}"
        )


@dataclass(frozen=True)
class ChainMap:
    """A boundary matrix together with its graded source and target."""

    source: GradedFreeModule
    target: GradedFreeModule
    matrix: SparseMat
    degree: int

    def parity_even_violations(self):
        """Entries mapping parity-p generators outside parity p (none for a
        correct boundary; the map is even)."""
        bad = []
        for (i, j) in self.matrix.entries:
            if self.target.parity[i] != self.source.parity[j]:
                bad.append((i, j))
        return bad


def tensor_power_module(l, n: int) -> GradedFreeModule:
    """L^(x)n with basis tuples in lexicographic order and Koszul parity
    |x_1 (x) ... (x) x_n| = sum |x_i|.  l is anything with a graded basis
    (``dim`` and ``module``): a Leibniz superalgebra or a superdialgebra."""
    pars = [0]
    for _ in range(n):
        pars = [(p + q) % 2 for p in pars for q in l.module.parity]
    return GradedFreeModule(l.dim ** n, tuple(pars))


def tensor_index(tup, dim: int) -> int:
    """Position of the basis tuple tup in the lexicographic basis of a tensor
    power of a dim-dimensional module; itertools.product(range(dim),
    repeat=n) lists the tuples in this order."""
    idx = 0
    for t in tup:
        idx = idx * dim + t
    return idx


def delta(l: LeibnizSuperalgebra, n: int, guard: int = DEFAULT_SIZE_GUARD) -> ChainMap:
    """Matrix of delta_n; delta_2(x (x) y) = [x, y], delta_1 = 0."""
    if n < 1:
        raise ValueError("delta is defined for n >= 1")
    dim = l.dim
    guard_check([dim ** n, dim ** (n - 1) if n > 1 else 0], guard)
    src = tensor_power_module(l, n)
    if n == 1:
        tgt = GradedFreeModule(0, ())
        return ChainMap(src, tgt, SparseMat.zeros(l.ring, 0, dim), 1)
    tgt = tensor_power_module(l, n - 1)

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
    return ChainMap(src, tgt, mat, n)


def hl(l: LeibnizSuperalgebra, n: int, guard: int = DEFAULT_SIZE_GUARD) -> GradedModuleInvariants:
    """HL_n(L) = Ker delta_n / Im delta_{n+1} as a graded module.

    The chain property delta_n o delta_{n+1} = 0 is verified exactly before
    the quotient is taken; over a field this also licenses stopping the image
    reduction once it reaches the kernel dimension.
    """
    if n < 1:
        raise ValueError("homology is computed for n >= 1")
    dim = l.dim
    guard_check([dim ** (n + 1), dim ** n, dim ** (n - 1) if n > 1 else 0], guard)
    dn = delta(l, n, guard)
    dn1 = delta(l, n + 1, guard)
    if n > 1 and not (dn.matrix @ dn1.matrix).is_zero():
        raise RuntimeError(
            "delta_n o delta_{n+1} != 0; the bracket does not satisfy the "
            "Leibniz identity or the boundary signs drifted"
        )
    if n == 1:
        ker = SparseMat.identity(l.ring, dim)
    else:
        ker = kernel_basis(dn.matrix)
    im_ech = column_span_echelon(dn1.matrix, stop_rank=ker.cols)
    return subquotient_invariants(ker, im_ech.basis_matrix(), dn.source.parity)
