"""The Leibniz chain complex and its homology.

delta_n : L^(x)n -> L^(x)(n-1) sends x_1 (x) ... (x) x_n to the signed sum over
pairs i < j of x_1 (x) .. (x) [x_i, x_j] (x) .. (x) ^x_j (x) .. (x) x_n with sign
(-1)^{n-j+|x_j|(|x_{i+1}|+...+|x_{j-1}|)}.  delta_1 is the zero map to the zero
module.  Homology in degree n is Ker delta_n / Im delta_{n+1}.

Every boundary is assembled by one routine, ``_boundary_entries``, as numpy
arrays (rows, columns, values): per pair i < j of positions, the nonzero
bracket terms [e_a, e_b] = sum c e_k broadcast against the offsets and the
Koszul parities of the other n - 2 slots.  Entries hit twice are summed,
zero sums dropped and F_p values reduced.  The entries are integers: a
table over Q with fractional constants is scaled by lambda, the least
common multiple of their denominators (``_scale``), and a boundary is linear
in the bracket, so they are lambda times the exact ones.  Values are int64
only where a bound from the largest constant and the number of terms an
entry can sum proves every sum exact; otherwise exact Python ints in object
arrays.  No floats, and no Fractions.

Each basis tuple of L^(x)n has the block key (total weight, Koszul parity),
the weights coming from ``LeibnizSuperalgebra.weight``.  The bracket adds
weights and is even, so delta_n maps each block into the block of the same
key; every nonzero entry is checked for this, and a leak raises
RuntimeError.  ``delta`` divides the entries back by lambda and cuts them
into the columns of a ``SparseMat``.  ``blocked_complex`` takes delta_n from
``delta`` but never builds delta_{n+1} as a matrix, whole or per block: it
places each of its entries in its block, by block ids computed from the
keys of L^(x)n and L, checks delta_n o delta_{n+1} = 0 once over all
entries, picks the leading-row representatives of every image block with
one array pass over all blocks, and settles the blocks one at a time, in
sorted key order, once per algebra and degree.  It reduces the complex
scaled by lambda: over Q that has the same kernels and images.

In degree 2 a block is certified from its representatives alone when L is
perfect (``leibniz.is_perfect``, memoised on L): delta_2 is then onto L, so
Ker delta_2 has rank |block| - |block of L| on the block; when the
representatives number exactly that (they are triangular, so independent)
and, over the integers, each leads with +-1 (so the lattice they generate
is saturated), delta_2 o delta_3 = 0 puts them inside that kernel and
Im delta_3 = Ker delta_2 = their span on the block.  This counting
certificate is exact over Q, F_p and Z.  A certified block's image echelon
is its representatives, and its kernel basis is built only if a caller
reads it; every other block builds its kernel basis and reduces its image
inside it.  ``hl`` direct-sums the homology of the blocks: zero on a
certified block, the one rule of ``exactlin.quotient_invariants``
elsewhere.  The tensor square and the splitting check read the same blocks;
nothing here reads the tensor square.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add

import numpy as np

from .exactlin import (
    GradedFreeModule,
    GradedModuleInvariants,
    SparseMat,
    column_span_echelon,
    direct_sum_invariants,
    kernel_basis,
    quotient_invariants,
    subquotient_invariants,
    triangular_echelon,
)
from .leibniz import LeibnizSuperalgebra, is_perfect

__all__ = [
    "ChainMap",
    "DEFAULT_SIZE_GUARD",
    "SizeGuardExceededError",
    "tensor_power_module",
    "tensor_power_keys",
    "delta",
    "Block",
    "blocked_complex",
    "hl",
]

# int64 sums are exact while they stay below this, 2^61, which leaves
# headroom under the int64 limit 2^63; the assembly and the
# delta_n o delta_{n+1} = 0 check switch to Python ints above it.
_INT64_SAFE = 1 << 61

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
        return [(i, j) for j, col in enumerate(self.matrix.columns()) for i, _ in col
                if self.target.parity[i] != self.source.parity[j]]


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


def _exact_array(xs, terms: int) -> np.ndarray:
    """Python ints as an array in which a sum of up to ``terms`` of them, or
    of their negatives, is exact: int64 when terms * max |x| stays below
    ``_INT64_SAFE``, an object array of the ints otherwise."""
    small = max(map(abs, xs), default=0) * terms < _INT64_SAFE
    return np.array(xs, dtype=np.int64 if small else object)


def _summed(ring, rows, cols, vals):
    """The entries (rows, cols, vals) sorted by column, then row, with the
    values at one position summed (reduced mod p over F_p) and the zero
    sums dropped."""
    order = np.lexsort((rows, cols))
    rows, cols, vals = rows[order], cols[order], vals[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    at = np.flatnonzero(first)
    rows, cols = rows[at], cols[at]
    vals = np.add.reduceat(vals, at) if len(at) else vals
    if ring.kind == "int_mod":
        vals = vals % ring.modulus
    keep = vals != 0
    return rows[keep], cols[keep], vals[keep]


def _scale(l: LeibnizSuperalgebra) -> int:
    """lambda, the least common multiple of the denominators of the
    structure constants of l: 1 unless l is over Q with a fractional
    constant."""
    if l.ring.kind != "rationals":
        return 1
    norm = l.ring.normalize
    return math.lcm(*(norm(c).denominator for ts in l.table.values() for _, c in ts))


def _integral(l: LeibnizSuperalgebra, mat: SparseMat) -> SparseMat:
    """lambda * mat, lambda = ``_scale(l)``: for a boundary of l, the same
    kernel and image over Q with integer entries."""
    lam = _scale(l)
    if lam == 1:
        return mat
    return SparseMat._trusted(mat.ring, mat.rows,
                              [[(i, int(v * lam)) for i, v in col] for col in mat.columns()])


def _boundary_entries(l: LeibnizSuperalgebra, n: int) -> tuple:
    """Entries of lambda * delta_n, n >= 2, lambda = ``_scale(l)``, as arrays
    (rows, cols, values) sorted by column, then row: the one assembly of
    every boundary (module docstring).  Values are ``_exact_array``s of
    integers for the sums they enter."""
    dim, ring, lam = l.dim, l.ring, _scale(l)
    terms = [(a, b, k, v if lam == 1 else int(v * lam)) for (a, b), ts in l.table.items()
             for k, v in ((k, ring.normalize(c)) for k, c in ts) if v != 0]
    pairs = [(i, j) for j in range(1, n) for i in range(j)]   # 0-based positions
    # one entry sums at most one bracket's terms per pair
    most = len(pairs) * max(map(len, l.table.values()), default=0)
    coeff = _exact_array([t[3] for t in terms], most)
    a, b, k = (np.array([t[s] for t in terms], dtype=np.int64) for s in range(3))
    pars = np.array(l.module.parity, dtype=np.int64)
    others = np.arange(dim ** (n - 2), dtype=np.int64)   # the other n - 2 slots
    rows, cols, vals = [], [], []
    for i, j in pairs:
        # the slots before x_i, between x_i and x_j, and after x_j
        before, tail = np.divmod(others, dim ** (n - 2 - i))
        between, after = np.divmod(tail, dim ** (n - 1 - j))
        koszul = sum((pars[between // dim ** s % dim] for s in range(j - 1 - i)),
                     np.zeros_like(others))
        odd = (n - 1 - j + koszul[:, None] * pars[b]) % 2 == 1
        rows.append((before * dim ** (n - 1 - i) + tail)[:, None] + k * dim ** (n - 2 - i))
        cols.append((before * dim ** (n - i) + between * dim ** (n - j) + after)[:, None]
                    + a * dim ** (n - 1 - i) + b * dim ** (n - 1 - j))
        vals.append(np.where(odd, -coeff, coeff))
    return _summed(ring, *(np.concatenate([x.ravel() for x in xs])
                           for xs in (rows, cols, vals)))


def _leak(n: int, j, source, target) -> RuntimeError:
    return RuntimeError(
        f"delta_{n} maps index {j} of block {source} into block {target}; "
        "the weights are not additive for the bracket"
    )


def delta(l: LeibnizSuperalgebra, n: int, guard: int = DEFAULT_SIZE_GUARD) -> ChainMap:
    """Matrix of delta_n; delta_2(x (x) y) = [x, y], delta_1 = 0.

    Assembled by ``_boundary_entries`` (module docstring) and divided by
    its scale lambda, with normalised ring values; its entries, sorted by
    column and then row, are cut straight into the columns.  Every nonzero
    entry is checked to join two indices of the same block key; a leak
    (weights that are not additive for the bracket) raises RuntimeError.
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
    rows, cols, vals = _boundary_entries(l, n)
    cut = np.searchsorted(cols, np.arange(dim ** n + 1)).tolist()   # column starts
    rows, vals, lam = rows.tolist(), vals.tolist(), _scale(l)
    if lam != 1:   # the other values are canonical ints already
        vals = [l.ring.normalize(Fraction(v, lam)) for v in vals]
    for i, j in zip(rows, cols.tolist()):
        if tgt_keys[i] != src_keys[j]:
            raise _leak(n, j, src_keys[j], tgt_keys[i])
    entries = list(zip(rows, vals))
    mat = SparseMat._trusted(l.ring, dim ** (n - 1),
                             [entries[s:e] for s, e in zip(cut, cut[1:])])
    return ChainMap(src, _graded(tgt_keys), mat, n, src_keys, tgt_keys)


def _indices_by_key(keys) -> dict:
    out = {}
    for i, k in enumerate(keys):
        out.setdefault(k, []).append(i)
    return out


def _positions(block, count: int) -> tuple:
    """(position of each index among the indices of its block, ascending;
    the size of each of the count blocks)."""
    order = np.argsort(block, kind="stable")
    sizes = np.bincount(block, minlength=count)
    pos = np.empty_like(block)
    pos[order] = np.arange(len(block)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    return pos, sizes


def _composes_to_zero(ring, down, rows, cols, vals) -> bool:
    """Whether d @ u = 0, for d given by its columns ``down`` = (pointers,
    rows, values) and u by its entries (rows, cols, vals).  int64 only when
    the largest |product| times their count is below the guard, object
    otherwise."""
    ptr, d_rows, d_vals = down
    start = ptr[rows]
    count = ptr[rows + 1] - start
    which = np.repeat(np.arange(len(rows)), count)
    at = _ranges(start, count)
    x, y = d_vals[at], vals[which]
    if object not in (x.dtype, y.dtype) and _absmax(x) * _absmax(y) * len(x) >= _INT64_SAFE:
        x, y = x.astype(object), y.astype(object)
    return not len(_summed(ring, d_rows[at], cols[which], x * y)[0])


def _absmax(arr) -> int:
    return int(np.abs(arr).max(initial=0))


class _ImageBlock:
    """The columns of one delta_{n+1} block in block coordinates, as
    ``column_span_echelon`` reads them (``exactlin._MatrixColumns`` gives
    a SparseMat the same interface): ``best``, the representative of each
    leading row as leading row -> (|leading value|, index); ``others()``,
    the other nonzero columns in index order, listed only when asked for;
    and each column's rows and entries.  The representatives arrive as
    ready columns; the block's entry arrays become Python lists only when
    another column is read, so a certified block, which reads its
    representatives alone, converts nothing else.  Values are the integers
    ``_boundary_entries`` gives."""

    __slots__ = ("ring", "rows", "cols", "best", "_reps", "_entries", "_ptr", "_free")

    def __init__(self, ring, rows: int, best: dict, reps: dict, entries, free):
        """reps: index -> column of each representative; entries: the
        block's (rows, values, column pointers) as arrays; free: (index, is
        representative) of each nonzero column."""
        self.ring, self.rows, self.best, self._reps, self._free = ring, rows, best, reps, free
        self._entries, self._ptr = entries[:2], entries[2].tolist()
        self.cols = len(self._ptr) - 1

    def _lists(self):
        """The block's (rows, values) as Python lists, made on first use."""
        if isinstance(self._entries[0], np.ndarray):
            self._entries = [a.tolist() for a in self._entries]
        return self._entries

    def others(self) -> list:
        pos, rep = self._free
        return pos[~rep].tolist()

    def rows_of(self, j) -> list:
        return self._lists()[0][self._ptr[j]:self._ptr[j + 1]]

    def column(self, j) -> list:
        if j in self._reps:
            return self._reps[j]
        rows, vals = self._lists()
        s, e = self._ptr[j], self._ptr[j + 1]
        return list(zip(rows[s:e], vals[s:e]))

    def columns(self) -> list:
        return [self.column(j) for j in range(self.cols)]


def _ranges(start, count) -> np.ndarray:
    """The indices start[t], ..., start[t] + count[t] - 1 for every t, in
    that order."""
    return np.repeat(start - np.cumsum(count) + count, count) + np.arange(count.sum())


def _representatives(block, pos, lead, mag) -> np.ndarray:
    """Which of the nonzero columns, given by their block, position in it,
    leading row and |leading value| and sorted by block and position,
    represent their leading row: per block and leading row, the smallest
    |leading value|, then the lowest position.  One lexsort over all
    blocks; Python ints past int64 (an object array) enter it as their
    ranks."""
    if mag.dtype == object:
        mag = np.unique(mag, return_inverse=True)[1]
    order = np.lexsort((pos, mag, lead, block))
    first = np.ones(len(order), dtype=bool)
    first[1:] = (np.diff(block[order]) != 0) | (np.diff(lead[order]) != 0)
    rep = np.zeros(len(order), dtype=bool)
    rep[order[first]] = True
    return rep


def _image_blocks(ring, sizes, block, rows, cols, vals, col_sizes):
    """One ``_ImageBlock`` per block of L^(x)n (``sizes`` rows each), in
    block id order, from the entries of delta_{n+1} in block coordinates,
    sorted by block, then column, then row; ``col_sizes`` counts the
    columns of every block id.  One array pass over all blocks finds each
    nonzero column's leading row and |leading value|, one lexsort its
    representative (``_representatives``), and one gather the entries of
    every representative, which become Python columns; a block keeps its
    other entries as arrays."""
    first = np.cumsum(col_sizes) - col_sizes   # each block's first column
    slot = first[block] + cols
    ptr = np.concatenate(([0], np.cumsum(np.bincount(slot, minlength=col_sizes.sum()))))
    start = np.flatnonzero(np.diff(slot, prepend=-1))   # of each nonzero column
    nz_block, nz_pos, nz_lead, nz_mag = block[start], cols[start], rows[start], np.abs(vals[start])
    rep = _representatives(nz_block, nz_pos, nz_lead, nz_mag)
    at = np.flatnonzero(rep)
    rep_pos = nz_pos[at].tolist()
    best = list(zip(nz_lead[at].tolist(), zip(nz_mag[at].tolist(), rep_pos)))
    count = np.diff(start, append=len(slot))[at]
    take = _ranges(start[at], count)
    rep_rows, rep_vals, ends = rows[take].tolist(), vals[take].tolist(), np.cumsum(count).tolist()
    reps = [list(zip(rep_rows[s:e], rep_vals[s:e])) for s, e in zip([0] + ends, ends)]
    ids = np.arange(len(sizes) + 1)
    rep_cut = np.searchsorted(nz_block[at], ids).tolist()
    nz_cut = np.searchsorted(nz_block, ids).tolist()
    for b, size in enumerate(sizes):
        cut = ptr[first[b]:first[b] + col_sizes[b] + 1]
        part, nz, mine = (slice(cut[0], cut[-1]), slice(nz_cut[b], nz_cut[b + 1]),
                          slice(rep_cut[b], rep_cut[b + 1]))
        yield _ImageBlock(ring, size, dict(best[mine]), dict(zip(rep_pos[mine], reps[mine])),
                          (rows[part], vals[part], cut - cut[0]), (nz_pos[nz], rep[nz]))


def _certified(up: _ImageBlock, kernel_rank: int, lattice: bool) -> bool:
    """Whether the representatives of the image block up, inside a kernel
    of rank kernel_rank, span it: as many as that rank (they are
    triangular, so independent) and, over the integers, each leading with
    +-1, so that the lattice they generate is saturated."""
    return len(up.best) == kernel_rank and not (
        lattice and any(mag != 1 for mag, _ in up.best.values()))


class Block:
    """One (weight, parity) block of L^(x)n, as ``blocked_complex`` gives
    it: ``key``; ``idx``, its indices in ascending order; ``image``, the
    echelon of Im delta_{n+1} on it in block coordinates; ``certified``,
    True when that image is proven to be all of Ker delta_n on the block
    without a kernel basis; and ``kernel``, a basis of Ker delta_n on the
    block (``kernel_basis`` of the scaled delta_n block), built the first
    time it is read."""

    __slots__ = ("key", "idx", "image", "certified", "_low", "_below", "_kernel")

    def __init__(self, key, idx: list, low: SparseMat, below: list):
        self.key, self.idx, self._low, self._below = key, idx, low, below
        self.image, self.certified, self._kernel = None, False, None

    @property
    def kernel(self) -> SparseMat:
        if self._kernel is None:
            self._kernel = kernel_basis(self._low.submatrix(self._below, self.idx))
        return self._kernel


def blocked_complex(l: LeibnizSuperalgebra, n: int, guard: int = DEFAULT_SIZE_GUARD) -> tuple:
    """(delta_n, blocks); blocks lists a ``Block`` per block of L^(x)n in
    sorted key order: its key, its indices, the echelon of the image of
    the delta_{n+1} block and the kernel basis of the delta_n block, both in
    the block's own coordinates.

    delta_{n+1} is never a matrix: ``_boundary_entries`` gives its entries
    as arrays, and each column and row gets a block id and a position in
    its block from the key ids of L^(x)n and L.  An entry whose row and
    column lie in different blocks raises the leak RuntimeError of
    ``delta``; then delta_n o delta_{n+1} = 0 is verified exactly, once
    over all entries, against ``delta_n.matrix`` (the blocks partition the
    columns, so this is the check of every block).  Each block's columns
    come in ascending global index, so each image echelon reads the
    submatrix of the whole delta_{n+1} on the block.  No block becomes a
    SparseMat: ``_image_blocks`` picks the representatives that
    ``column_span_echelon`` inserts first, and makes them Python columns,
    by one array pass over all blocks, and an ``_ImageBlock`` converts its
    other entries only when one of its other columns is read.

    The kernels, the images and the delta_n o delta_{n+1} = 0 check are
    those of the complex scaled by lambda = ``_scale(l)``, whose entries are
    integers.  Over Q, Ker(lambda delta_n) = Ker delta_n and
    Im(lambda delta_{n+1}) = Im delta_{n+1}, and lambda^2 times a composite
    is zero when the composite is.  The delta_n returned is the exact one,
    which the tensor square and the splitting check apply.

    The chain property puts each image inside the block's kernel, which
    licenses stopping the image reduction once it provably equals the
    kernel: at the kernel dimension over a field, and over the integers once
    the pivot values match the kernel's too (``column_span_echelon``).  In
    degree 2 it also licenses the certificate of the module docstring
    (``_certified``): a certified block skips the kernel basis and the
    reduction, and its image echelon, built from the representatives in
    ascending column order, has the rows, pivots and order that
    ``column_span_echelon`` reaches at its stop after inserting exactly
    them.  Memoised on l per n after the guard check; ``hl``,
    ``tensor_square`` and the splitting check share it, so no caller may
    change a span in it (queries leave an echelon as it is)."""
    if n < 1:
        raise ValueError("homology is computed for n >= 1")
    dim = l.dim
    guard_check([dim ** (n + 1), dim ** n, dim ** (n - 1) if n > 1 else 0], guard)
    if n in l._complexes:
        return l._complexes[n]
    dn = delta(l, n, guard)
    low = _integral(l, dn.matrix)   # lambda * delta_n
    by_key = sorted(_indices_by_key(dn.source_keys).items())
    names = [key for key, _ in by_key]   # block id -> key
    ids = {key: b for b, key in enumerate(names)}
    row_block = np.array([ids[key] for key in dn.source_keys], dtype=np.int64)
    own = {}   # key of L -> id
    own_block = [own.setdefault(key, len(own)) for key in tensor_power_keys(l, 1)]
    joined = np.empty((len(names), len(own)), dtype=np.int64)
    for b, ((w, p), _) in enumerate(by_key):
        for (v, q), c in own.items():
            key = (tuple(map(add, w, v)), (p + q) % 2)
            if key not in ids:
                ids[key] = len(names)
                names.append(key)
            joined[b, c] = ids[key]
    col_block = joined[row_block][:, own_block].ravel()   # index x_1..x_n * dim + x_{n+1}
    row_pos, _ = _positions(row_block, len(names))
    col_pos, col_sizes = _positions(col_block, len(names))

    rows, cols, vals = _boundary_entries(l, n + 1)
    block = col_block[cols]
    leak = np.flatnonzero(block != row_block[rows])
    if len(leak):
        i, j = rows[leak[0]], cols[leak[0]]
        raise _leak(n + 1, j, names[col_block[j]], names[row_block[i]])
    if n > 1:
        cols_n = low.columns()
        down = (np.cumsum([0] + [len(col) for col in cols_n]),
                np.array([i for col in cols_n for i, _ in col], dtype=np.int64),
                _exact_array([v for col in cols_n for _, v in col], 1))
        if not _composes_to_zero(l.ring, down, rows, cols, vals):
            raise RuntimeError(
                "delta_n o delta_{n+1} != 0; the bracket does not satisfy the "
                "Leibniz identity or the boundary signs drifted"
            )
    order = np.argsort(block, kind="stable")   # by block, then column, then row
    block, rows, cols, vals = block[order], row_pos[rows[order]], col_pos[cols[order]], vals[order]
    images = _image_blocks(l.ring, [len(idx) for _, idx in by_key],
                           block, rows, cols, vals, col_sizes)
    below = _indices_by_key(dn.target_keys)
    # delta_2 is onto L when L is perfect, so Ker delta_2 has rank
    # |block| - |block of L| on each block
    onto = n == 2 and is_perfect(l)
    lattice = l.ring.kind == "integers"
    blocks = []
    for (key, idx), up in zip(by_key, images):
        rows_l = below.get(key, [])
        block = Block(key, idx, low, rows_l)
        if onto and _certified(up, len(idx) - len(rows_l), lattice):
            block.certified = True
            block.image = triangular_echelon(
                l.ring, up.rows, [up.column(j) for j in sorted(j for _, j in up.best.values())])
        else:
            block.image = column_span_echelon(up, within=block.kernel)
        blocks.append(block)
    l._complexes[n] = (dn, tuple(blocks))
    return l._complexes[n]


def hl(l: LeibnizSuperalgebra, n: int, guard: int = DEFAULT_SIZE_GUARD) -> GradedModuleInvariants:
    """HL_n(L) = Ker delta_n / Im delta_{n+1} as a graded module, the direct
    sum of the quotients of the blocks of ``blocked_complex``.  That of a
    certified block is zero (Im = Ker, proven without its kernel basis),
    and its kernel is not read; every other block's is taken by
    ``exactlin.quotient_invariants`` (``blocked_complex`` verified
    delta_n o delta_{n+1} = 0 on every block, so each image lies in its
    kernel).  Over Q every block with a kernel still takes
    ``subquotient_invariants``, certified or not, so every kernel is built.  The kernel and image of a block are integral
    (``blocked_complex``), but an image's coordinates over the kernel basis
    need not be, and this is the only path to the ``Echelon._to_fracfield``
    calls that ``perfbench/test_perfbench.py`` requires, until the benchmark
    reads library spans (ROADMAP item 1)."""
    parts = [GradedModuleInvariants(l.ring)]
    for block in blocked_complex(l, n, guard)[1]:
        par = block.key[1]
        if l.ring.kind == "rationals":   # benchmark pin, ROADMAP item 1
            ker = block.kernel
            if ker.cols:
                parts.append(subquotient_invariants(
                    ker, block.image.basis_matrix(), (par,) * len(block.idx)))
        elif not block.certified:
            parts.append(quotient_invariants(block.kernel, block.image, par))
    return direct_sum_invariants(parts)
