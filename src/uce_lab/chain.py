"""The Leibniz chain complex and its homology.

delta_n : L^(x)n -> L^(x)(n-1) sends x_1 (x) ... (x) x_n to the signed sum over
pairs i < j of x_1 (x) .. (x) [x_i, x_j] (x) .. (x) ^x_j (x) .. (x) x_n with sign
(-1)^{n-j+|x_j|(|x_{i+1}|+...+|x_{j-1}|)}.  delta_1 is the zero map to the zero
module.  Homology in degree n is Ker delta_n / Im delta_{n+1}.

``delta`` loops per pair i < j, per nonzero bracket [e_a, e_b], per choice of
the other n - 2 slots, with offsets and Koszul parity once per (pair, choice)
and normalised signed terms once per bracket; only a key hit twice is summed
(then normalised, and dropped if zero), so no second normalisation pass runs.

Each basis tuple of L^(x)n has the block key (total weight, Koszul parity),
the weights coming from ``LeibnizSuperalgebra.weight``.  The bracket adds
weights and is even, so delta_n maps each block into the block of the same
key; ``delta`` checks this for every nonzero entry and raises RuntimeError on
a leak.  ``blocked_complex`` then computes the kernel and the image echelon
one block at a time, in sorted key order, once per algebra and degree: ``hl``
takes the subquotient of each block (over the integers, of each block whose
image is not certified equal to its kernel) and direct-sums the invariants,
and the tensor square and the splitting check read the same blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import add

from .exactlin import (
    GradedFreeModule,
    GradedModuleInvariants,
    SparseMat,
    column_span_echelon,
    direct_sum_invariants,
    kernel_basis,
    spans_within,
    subquotient_invariants,
)
from .leibniz import LeibnizSuperalgebra

__all__ = [
    "ChainMap",
    "DEFAULT_SIZE_GUARD",
    "SizeGuardExceededError",
    "tensor_power_module",
    "tensor_power_keys",
    "delta",
    "blocked_complex",
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
    """A boundary matrix together with its graded source and target, and
    the block key of every source and target index."""

    source: GradedFreeModule
    target: GradedFreeModule
    matrix: SparseMat
    degree: int
    source_keys: list   # (total weight, parity) per index, tensor_power_keys
    target_keys: list

    def parity_even_violations(self):
        """Entries mapping parity-p generators outside parity p (none for a
        correct boundary; the map is even)."""
        bad = []
        for (i, j) in self.matrix.entries:
            if self.target.parity[i] != self.source.parity[j]:
                bad.append((i, j))
        return bad


def tensor_power_keys(l, n: int) -> list:
    """Block key (total weight, Koszul parity |x_1| + ... + |x_n| mod 2) of
    each basis tuple of L^(x)n, tuples in lexicographic order.  l is anything
    with a graded basis (``dim`` and ``module``); without a ``weight`` (or
    with None) every basis vector has the empty weight."""
    weight = getattr(l, "weight", None) or ((),) * l.dim
    pars = l.module.parity
    keys = [((0,) * len(weight[0]) if weight else (), 0)]
    for _ in range(n):
        # L^(x)n has few blocks and many indices: one tuple per distinct key
        known = {}
        step = {
            k: [known.setdefault(s, s) for s in (
                (tuple(map(add, k[0], w)), (k[1] + p) % 2) for w, p in zip(weight, pars))]
            for k in set(keys)
        }
        keys = [s for k in keys for s in step[k]]
    return keys


def _graded(keys) -> GradedFreeModule:
    return GradedFreeModule(len(keys), tuple(p for _, p in keys))


def tensor_power_module(l, n: int) -> GradedFreeModule:
    """L^(x)n with basis tuples in lexicographic order and Koszul parity
    |x_1 (x) ... (x) x_n| = sum |x_i|."""
    return _graded(tensor_power_keys(l, n))


def tensor_index(tup, dim: int) -> int:
    """Position of the basis tuple tup in the lexicographic basis of a tensor
    power of a dim-dimensional module; itertools.product(range(dim),
    repeat=n) lists the tuples in this order."""
    idx = 0
    for t in tup:
        idx = idx * dim + t
    return idx


def delta(l: LeibnizSuperalgebra, n: int, guard: int = DEFAULT_SIZE_GUARD) -> ChainMap:
    """Matrix of delta_n; delta_2(x (x) y) = [x, y], delta_1 = 0.

    Assembled bracket by bracket (module docstring).  Every nonzero entry is
    checked to join two indices of the same block key; a leak (weights that
    are not additive for the bracket) raises RuntimeError.
    """
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
    norm = ring.normalize
    brackets = []   # (a, b, |e_b|, + terms, - terms), normalised and nonzero
    for (a, b), terms in l.table.items():
        plus = [(k, v) for k, v in ((k, norm(c)) for k, c in terms) if v != 0]
        if plus:
            brackets.append((a, b, pars[b], plus, [(k, norm(-v)) for k, v in plus]))
    entries = {}
    for jpos in range(1, n):              # 0-based position of x_j, j = jpos+1
        for ipos in range(jpos):          # 0-based position of x_i
            # per choice of the other slots: row and column with e_0 in place
            # of [x_i, x_j], x_i and x_j, and the parity between x_i and x_j
            slots = [(tensor_index(r[:ipos] + (0,) + r[ipos:], dim),
                      tensor_index(r[:ipos] + (0,) + r[ipos:jpos - 1] + (0,) + r[jpos - 1:], dim),
                      sum(pars[t] for t in r[ipos:jpos - 1]))
                     for r in product(range(dim), repeat=n - 2)]
            rk, ca, cb = dim ** (n - 2 - ipos), dim ** (n - 1 - ipos), dim ** (n - 1 - jpos)
            for a, b, pb, plus, minus in brackets:
                for row, col, koszul in slots:
                    col += a * ca + b * cb
                    for k, v in minus if (n - 1 - jpos + pb * koszul) % 2 else plus:
                        key = (row + k * rk, col)
                        if key not in entries:
                            entries[key] = v
                        elif total := norm(entries[key] + v):   # hit twice
                            entries[key] = total
                        else:
                            del entries[key]
    mat = SparseMat._trusted(ring, dim ** (n - 1), dim ** n, entries)
    for i, j in mat.entries:
        if tgt_keys[i] != src_keys[j]:
            raise RuntimeError(
                f"delta_{n} maps index {j} of block {src_keys[j]} into block "
                f"{tgt_keys[i]}; the weights are not additive for the bracket"
            )
    return ChainMap(src, _graded(tgt_keys), mat, n, src_keys, tgt_keys)


def _indices_by_key(keys) -> dict:
    out = {}
    for i, k in enumerate(keys):
        out.setdefault(k, []).append(i)
    return out


def blocked_complex(l: LeibnizSuperalgebra, n: int, guard: int = DEFAULT_SIZE_GUARD) -> tuple:
    """(delta_n, delta_{n+1}, blocks) with delta_n o delta_{n+1} = 0 verified
    exactly; blocks lists, per block of L^(x)n in sorted key order, (key,
    indices, kernel basis of the delta_n block, echelon of the image of the
    delta_{n+1} block) in the block's own coordinates.  The chain property
    puts each image inside the block's kernel, which licenses stopping the
    image reduction once it provably equals the kernel: at the kernel
    dimension over a field, and over the integers once the pivot values
    match the kernel's too (``column_span_echelon``).  Memoised on l per n
    after the guard check; ``hl``, ``tensor_square`` and the splitting check
    share it, so no caller may change a span in it (a query may switch an
    echelon's number type)."""
    if n < 1:
        raise ValueError("homology is computed for n >= 1")
    dim = l.dim
    guard_check([dim ** (n + 1), dim ** n, dim ** (n - 1) if n > 1 else 0], guard)
    if n in l._complexes:
        return l._complexes[n]
    dn = delta(l, n, guard)
    dn1 = delta(l, n + 1, guard)
    if n > 1 and not (dn.matrix @ dn1.matrix).is_zero():
        raise RuntimeError(
            "delta_n o delta_{n+1} != 0; the bracket does not satisfy the "
            "Leibniz identity or the boundary signs drifted"
        )
    below = _indices_by_key(dn.target_keys)
    above = _indices_by_key(dn1.source_keys)
    blocks = []
    for key, idx in sorted(_indices_by_key(dn.source_keys).items()):
        ker = kernel_basis(dn.matrix.submatrix(below.get(key, []), idx))
        up = dn1.matrix.submatrix(idx, above.get(key, []))
        blocks.append((key, idx, ker, column_span_echelon(up, within=ker)))
    l._complexes[n] = (dn, dn1, tuple(blocks))
    return l._complexes[n]


def hl(l: LeibnizSuperalgebra, n: int, guard: int = DEFAULT_SIZE_GUARD) -> GradedModuleInvariants:
    """HL_n(L) = Ker delta_n / Im delta_{n+1} as a graded module: the direct
    sum of the subquotients of the blocks of ``blocked_complex``.  Over the
    integers a block whose image echelon certifiably equals its kernel
    lattice (``spans_within``) adds nothing, so only the other blocks take
    coordinates and a Smith form (``subquotient_invariants``)."""
    lattice = l.ring.kind == "integers"
    parts = [GradedModuleInvariants(l.ring)]
    for (_, par), idx, ker, image in blocked_complex(l, n, guard)[2]:
        if ker.cols and not (lattice and spans_within(image, ker)):
            parts.append(subquotient_invariants(ker, image.basis_matrix(), (par,) * len(idx)))
    return direct_sum_invariants(parts)
