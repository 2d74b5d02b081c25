"""Exact linear algebra substrate: coefficient rings, sparse matrices,
incremental echelon/lattice reduction, Smith normal form, kernels and
invariant factors of graded subquotients.

Everything is exact: integers, rationals (via ``fractions.Fraction``) and
prime fields.  numpy is used only as a fast container for exact integer
arithmetic (int64 with a strict pre-op overflow guard, escalating to
object-dtype Python ints when bounds are exceeded).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

__all__ = [
    "RingSpec",
    "ZZ",
    "QQ",
    "GF",
    "SparseMat",
    "GradedFreeModule",
    "GradedModuleInvariants",
    "SpanSolver",
    "snf",
    "snf_with_transforms",
    "kernel_basis",
    "column_span_echelon",
    "rank",
    "subquotient_invariants",
    "module_iso_check",
    "parity_shift",
    "direct_sum_invariants",
    "UnsupportedRingError",
    "NotASubmoduleError",
]

# int64 entries are kept strictly below this; any op that could exceed it
# escalates the computation to object dtype (exact Python ints).
_INT64_SAFE = 1 << 61


class ExactLinError(Exception):
    pass


class UnsupportedRingError(ExactLinError):
    """Raised when an operation needs PID/field behaviour the ring lacks."""


class NotASubmoduleError(ExactLinError):
    """Raised when alleged image generators do not lie in the kernel span."""


# Miller-Rabin with the first thirteen prime bases decides primality exactly
# below _MR_LIMIT (Sorenson and Webster, Math. Comp. 86 (2017))
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    if n >= _MR_LIMIT:
        raise UnsupportedRingError(
            f"modulus {n} is above {_MR_LIMIT}, where primality is not decided"
        )
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class RingSpec:
    """One of the three supported coefficient rings.

    kind is "integers", "rationals" or "int_mod"; modulus is set only for
    int_mod and must be >= 2.  Elimination-style operations additionally
    require the modulus to be prime (composite moduli are data-valid but
    rejected by snf/kernels with UnsupportedRingError).
    """

    kind: str
    modulus: int | None = None

    def __post_init__(self):
        if self.kind not in ("integers", "rationals", "int_mod"):
            raise ValueError(f"unknown ring kind {self.kind!r}")
        if self.kind == "int_mod":
            if self.modulus is None or self.modulus < 2:
                raise ValueError("int_mod needs a modulus >= 2")
        elif self.modulus is not None:
            raise ValueError(f"{self.kind} takes no modulus")

    @cached_property
    def is_field(self) -> bool:
        """Decided once per ring; a modulus too large for the primality test
        raises UnsupportedRingError."""
        if self.kind == "rationals":
            return True
        return self.kind == "int_mod" and _is_prime(self.modulus)

    def require_pid(self):
        if self.kind == "int_mod" and not self.is_field:
            raise UnsupportedRingError(
                f"modulus {self.modulus} is composite; compute over the "
                "integers and reduce instead"
            )

    @property
    def zero(self):
        return Fraction(0) if self.kind == "rationals" else 0

    @property
    def one(self):
        return Fraction(1) if self.kind == "rationals" else 1

    def normalize(self, x):
        if self.kind == "rationals":
            return Fraction(x)
        if self.kind == "int_mod":
            return int(x) % self.modulus
        if isinstance(x, Fraction):
            if x.denominator != 1:
                raise ValueError(f"{x} is not an integer")
            return x.numerator
        return int(x)

    def parse(self, s: str):
        s = s.strip()
        if "/" in s:
            if self.kind != "rationals":
                raise ValueError(f"fraction literal {s!r} in a {self.kind} ring")
            num, den = s.split("/")
            return Fraction(int(num), int(den))
        return self.normalize(int(s))

    def fmt(self, x) -> str:
        return str(x)

    def describe(self) -> str:
        if self.kind == "int_mod":
            return f"integers mod {self.modulus}"
        return self.kind


ZZ = RingSpec("integers")
QQ = RingSpec("rationals")


def GF(p: int) -> RingSpec:
    return RingSpec("int_mod", p)


@dataclass(frozen=True)
class GradedFreeModule:
    """A finite-rank free module with a Z/2 parity per basis index."""

    rank: int
    parity: tuple
    labels: tuple | None = None

    def __post_init__(self):
        if len(self.parity) != self.rank:
            raise ValueError("parity length must equal rank")
        if any(p not in (0, 1) for p in self.parity):
            raise ValueError("parities must be 0 or 1")
        if self.labels is not None and len(self.labels) != self.rank:
            raise ValueError("labels length must equal rank")

    @classmethod
    def even(cls, rank: int, labels=None):
        return cls(rank, (0,) * rank, tuple(labels) if labels else None)

    def label(self, i: int) -> str:
        if self.labels:
            return self.labels[i]
        return f"e{i}"


class SparseMat:
    """Immutable sparse matrix with exact entries, stored as (row, col) -> value."""

    __slots__ = ("ring", "rows", "cols", "entries", "_cols_cache")

    def __init__(self, ring: RingSpec, rows: int, cols: int, entries=None):
        self.ring = ring
        self.rows = rows
        self.cols = cols
        clean = {}
        if entries:
            for (i, j), v in entries.items():
                v = ring.normalize(v)
                if v != 0:
                    if not (0 <= i < rows and 0 <= j < cols):
                        raise IndexError(f"entry ({i},{j}) outside {rows}x{cols}")
                    clean[(i, j)] = v
        self.entries = clean
        self._cols_cache = None

    @classmethod
    def identity(cls, ring, n):
        return cls(ring, n, n, {(i, i): ring.one for i in range(n)})

    @classmethod
    def zeros(cls, ring, rows, cols):
        return cls(ring, rows, cols, {})

    @classmethod
    def from_dense(cls, ring, dense):
        rows = len(dense)
        cols = len(dense[0]) if rows else 0
        ent = {}
        for i, row in enumerate(dense):
            for j, v in enumerate(row):
                if v != 0:
                    ent[(i, j)] = v
        return cls(ring, rows, cols, ent)

    @classmethod
    def from_columns(cls, ring, nrows, columns):
        ent = {}
        for j, col in enumerate(columns):
            for i, v in enumerate(col):
                if v != 0:
                    ent[(i, j)] = v
        return cls(ring, nrows, len(columns), ent)

    def nnz(self) -> int:
        return len(self.entries)

    def is_zero(self) -> bool:
        return not self.entries

    def columns(self):
        """entries grouped per column: list of list[(row, value)]."""
        if self._cols_cache is None:
            cols = [[] for _ in range(self.cols)]
            for (i, j), v in sorted(self.entries.items(), key=lambda kv: (kv[0][1], kv[0][0])):
                cols[j].append((i, v))
            self._cols_cache = cols
        return self._cols_cache

    def column_dense(self, j):
        col = [self.ring.zero] * self.rows
        for i, v in self.columns()[j]:
            col[i] = v
        return col

    def __matmul__(self, other: "SparseMat") -> "SparseMat":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        ring = self.ring
        own_cols = self.columns()
        out = {}
        for (k, j), bv in other.entries.items():
            for i, av in own_cols[k]:
                key = (i, j)
                out[key] = out.get(key, 0) + av * bv
        if ring.kind == "int_mod":
            out = {k: v % ring.modulus for k, v in out.items()}
        return SparseMat(ring, self.rows, other.cols, out)

    def apply(self, vec) -> list:
        """self @ vec for a dense coordinate sequence, as a dense list of
        normalized ring elements."""
        ring = self.ring
        out = [ring.zero] * self.rows
        cols = self.columns()
        for j, c in enumerate(vec):
            if c == 0:
                continue
            for i, m in cols[j]:
                out[i] = out[i] + c * m
        return [ring.normalize(x) for x in out]

    def transpose(self) -> "SparseMat":
        return SparseMat(
            self.ring, self.cols, self.rows,
            {(j, i): v for (i, j), v in self.entries.items()},
        )

    def __eq__(self, other):
        return (
            isinstance(other, SparseMat)
            and self.ring == other.ring
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"SparseMat({self.ring.describe()}, {self.rows}x{self.cols}, nnz={len(self.entries)})"


# ---------------------------------------------------------------------------
# incremental echelon / lattice engine
# ---------------------------------------------------------------------------


def _ext_gcd(a: int, b: int):
    """g, x, y with x*a + y*b = g, g > 0 (a != 0 or b != 0)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _content(arr) -> int:
    return int(np.gcd.reduce(arr))


class Echelon:
    """Incremental row-space (fields) or lattice (integers) builder.

    Rows have pairwise distinct leading indices.  Over fields the row span is
    maintained; over the integers every update is unimodular on the stored
    rows plus incoming vector, so the generated lattice is preserved exactly.
    Canonical residues (unique coset representatives) come from a single
    ascending sweep over the pivots.
    """

    def __init__(self, ring: RingSpec, dim: int):
        ring.require_pid()
        self.ring = ring
        self.dim = dim
        if ring.kind == "int_mod":
            self.mode = "modp"
        elif ring.kind == "integers":
            self.mode = "lattice"
        else:
            self.mode = "intfield"  # rationals; switches to fracfield on demand
        self.rows: list = []
        self.pivots: list = []        # leading index per row, parallel to rows
        self.row_at: dict = {}        # leading index -> row position
        # mod-p products stay below p^2, so int64 is safe only for small p
        self._obj = ring.kind == "int_mod" and ring.modulus >= 1 << 31

    # -- vector plumbing ----------------------------------------------------

    def _blank(self):
        if self.mode == "fracfield":
            v = np.empty(self.dim, dtype=object)
            v[:] = Fraction(0)
            return v
        dt = object if self._obj else np.int64
        return np.zeros(self.dim, dtype=dt)

    def vector(self, items):
        """Dense engine vector from list[(index, value)] or a full list."""
        v = self._blank()
        if isinstance(items, (list, tuple)) and items and not isinstance(items[0], tuple):
            seq = enumerate(items)
        else:
            seq = items
        if self.mode == "fracfield":
            for i, x in seq:
                v[i] = Fraction(x)
            return v
        p = self.ring.modulus
        for i, x in seq:
            if isinstance(x, Fraction):
                if x.denominator != 1:
                    if self.mode == "intfield":
                        self._to_fracfield()
                        return self.vector(items)
                    raise ValueError("non-integer entry over a non-rational ring")
                x = x.numerator
            x = int(x)
            if p is not None:
                x %= p
            if not self._obj and abs(x) >= _INT64_SAFE:
                self._escalate()
                return self.vector(items)
            v[i] = x
        return v

    def _escalate(self):
        if not self._obj:
            self._obj = True
            self.rows = [r.astype(object) for r in self.rows]

    def _to_fracfield(self):
        if self.mode == "fracfield":
            return
        assert self.mode == "intfield"
        self.mode = "fracfield"
        new_rows = []
        for r in self.rows:
            fr = np.empty(self.dim, dtype=object)
            fr[:] = [Fraction(int(x)) for x in r]
            piv = int(np.flatnonzero(fr != 0)[0]) if fr.any() else None
            fr = fr / fr[piv]
            new_rows.append(fr)
        self.rows = new_rows
        self._obj = True

    @staticmethod
    def _leading(v):
        nz = np.flatnonzero(v != 0)
        return int(nz[0]) if len(nz) else None

    def _guard(self, a: int, va, b: int, vb):
        """Escalate to object dtype if a*va + b*vb could leave int64 range."""
        if self._obj or self.mode in ("modp", "fracfield"):
            return
        bound = abs(a) * int(np.abs(va).max(initial=0)) + abs(b) * int(np.abs(vb).max(initial=0))
        if bound >= _INT64_SAFE:
            self._escalate()

    # -- core operations ----------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.rows)

    def insert(self, v) -> bool:
        """Reduce v against the rows; grow by one row if independent.

        Returns True when the rank grew.  v is an engine vector and is
        consumed.
        """
        if self._obj and v.dtype != object:
            v = v.astype(object)
        mode = self.mode
        p_mod = self.ring.modulus
        while True:
            p = self._leading(v)
            if p is None:
                return False
            at = self.row_at.get(p)
            if at is None:
                v = self._normalize_new_row(v, p)
                self.row_at[p] = len(self.rows)
                self.rows.append(v)
                self.pivots.append(p)
                return True
            r = self.rows[at]
            if self._obj and r.dtype != object:
                r = r.astype(object)
                self.rows[at] = r
            c = int(v[p])
            if mode == "modp":
                v = (v - c * r) % p_mod
            elif mode == "fracfield":
                v = v - v[p] * r
            elif mode == "intfield":
                d = int(r[p])
                self._guard(d, v, c, r)
                if self._obj:
                    r = self.rows[at]
                    v = v.astype(object)
                v = d * v - c * r
                g = _content(v)
                if g > 1:
                    v = v // g
            else:  # lattice
                d = int(r[p])
                if c % d == 0:
                    q = c // d
                    self._guard(1, v, q, r)
                    if self._obj:
                        r = self.rows[at]
                        v = v.astype(object)
                    v = v - q * r
                else:
                    g, x, y = _ext_gcd(d, c)
                    self._guard(abs(x) + abs(d // g), r, abs(y) + abs(c // g), v)
                    if self._obj:
                        r = self.rows[at]
                        v = v.astype(object)
                    new_r = x * r + y * v
                    v = (d // g) * v - (c // g) * r
                    self.rows[at] = new_r

    def _normalize_new_row(self, v, p):
        if self.mode == "modp":
            inv = pow(int(v[p]), self.ring.modulus - 2, self.ring.modulus)
            return (v * inv) % self.ring.modulus
        if self.mode == "fracfield":
            return v / v[p]
        if self.mode == "intfield":
            # scaling is free over a field; keep the integers small
            g = _content(v)
            if g > 1:
                v = v // g
        # over the integers only sign-flips are unimodular on a single row
        if v[p] < 0:
            v = -v
        return v

    def residue(self, v):
        """Canonical representative of v modulo the row span / lattice.

        Fields: zeros at every pivot (complement coordinates).  Integers:
        pivot coordinates reduced into [0, pivot value).  Over the rationals
        the result may be a Fraction vector.
        """
        if self._obj and v.dtype != object:
            v = v.astype(object)
        mode = self.mode
        if mode == "intfield" and self.rows:
            out = np.empty(self.dim, dtype=object)
            out[:] = [Fraction(int(x)) for x in v]
            v = out
        for p in sorted(self.row_at):
            if v[p] == 0:
                continue
            r = self.rows[self.row_at[p]]
            if mode == "modp":
                v = (v - int(v[p]) * r) % self.ring.modulus
            elif mode == "fracfield":
                v = v - v[p] * r
            elif mode == "intfield":
                v = v - (v[p] / int(r[p])) * r
            else:
                q = int(v[p]) // int(r[p])
                if q:
                    self._guard(1, v, q, r)
                    if self._obj:
                        r = self.rows[self.row_at[p]]
                        v = v.astype(object)
                    v = v - q * r
        return v

    def residue_of(self, dense):
        """residue of a dense coordinate sequence (list or numpy array)."""
        return self.residue(self.vector([(i, x) for i, x in enumerate(dense) if x != 0]))

    def contains(self, v) -> bool:
        res = self.residue(v.copy() if hasattr(v, "copy") else v)
        return not res.any()

    def basis_matrix(self) -> SparseMat:
        """Rows as columns of a SparseMat, ordered by pivot index."""
        order = sorted(range(len(self.rows)), key=lambda k: self.pivots[k])
        cols = [_ring_values(self.ring, self.rows[k]) for k in order]
        return SparseMat.from_columns(self.ring, self.dim, cols)

    def pivot_values(self) -> dict:
        return {p: int(self.rows[at][p]) for p, at in self.row_at.items()}


def _ring_values(ring: RingSpec, xs) -> list:
    """Engine entries as ring elements: Fractions over the rationals, ints
    otherwise."""
    if ring.kind == "rationals":
        return [x if isinstance(x, Fraction) else Fraction(int(x)) for x in xs]
    return [int(x) for x in xs]


def column_span_echelon(m: SparseMat, stop_rank: int | None = None) -> Echelon:
    """Echelon of the column span (field) / column lattice (integers).

    Columns are inserted sparsest-first.  ``stop_rank`` lets field callers
    stop once a proven upper bound on the rank is reached: when the columns
    are known to lie in a subspace of that dimension (callers verify the
    inclusion exactly beforehand), hitting the bound means the span IS that
    subspace and the remaining columns are dependent.  The bound is ignored
    over the integers, where lattice membership is not implied by rank
    saturation.
    """
    ech = Echelon(m.ring, m.rows)
    cols = m.columns()
    order = sorted(range(m.cols), key=lambda j: (len(cols[j]), j))
    allow_stop = stop_rank is not None and m.ring.is_field
    for j in order:
        if not cols[j]:
            continue
        if allow_stop and ech.rank >= stop_rank:
            break
        ech.insert(ech.vector(cols[j]))
    return ech


def rank(m: SparseMat) -> int:
    return column_span_echelon(m).rank


def _augmented_echelon(m: SparseMat) -> Echelon:
    """Echelon of the columns of m, column j extended by the unit vector at
    m.rows + j: the rows of [m | I] after reduction record which combination
    of columns each one is."""
    n = m.rows
    ech = Echelon(m.ring, n + m.cols)
    cols = m.columns()
    for j in range(m.cols):
        ech.insert(ech.vector(cols[j] + [(n + j, 1)]))
    return ech


def _coordinates(ech: Echelon, n: int, vec):
    """x with m @ x = vec from the augmented echelon of an n-row m, or None
    when vec is outside the column span (lattice)."""
    res = ech.residue_of(vec)
    if res[:n].any():
        return None
    return _ring_values(ech.ring, [-x for x in res[n:]])


def kernel_basis(m: SparseMat) -> SparseMat:
    """Columns spanning {v : m @ v = 0}.

    Over fields this is a basis; over the integers it is a basis of the
    (automatically saturated) kernel lattice.  Built by reducing the columns
    of m augmented with companion unit vectors; a column whose matrix part
    dies leaves its companion as a kernel generator.
    """
    n = m.rows
    ech = _augmented_echelon(m)
    out = [
        _ring_values(m.ring, ech.rows[ech.row_at[p]][n:])
        for p in sorted(p for p in ech.pivots if p >= n)
    ]
    return SparseMat.from_columns(m.ring, m.cols, out)


def solve_linear(m: SparseMat, target):
    """Some x with m @ x = target (exactly, over the matrix ring), or None.

    Columns may be dependent; the returned solution is then one valid choice.
    """
    return _coordinates(_augmented_echelon(m), m.rows, target)


class SpanSolver:
    """Exact coordinates with respect to independent generator columns."""

    def __init__(self, basis: SparseMat):
        self.ring = basis.ring
        self.n = basis.rows
        self.k = basis.cols
        self.ech = _augmented_echelon(basis)
        if any(p >= self.n for p in self.ech.pivots):
            raise ValueError("SpanSolver needs independent columns")

    def solve(self, dense_vec):
        """Coefficients x with basis @ x = vec, or None if not in the span
        (over the integers: not in the lattice)."""
        return _coordinates(self.ech, self.n, dense_vec)


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def _dense_int_matrix(m: SparseMat):
    big = any(
        abs(v if not isinstance(v, Fraction) else v.numerator) >= _INT64_SAFE
        for v in m.entries.values()
    )
    dt = object if big else np.int64
    a = np.zeros((m.rows, m.cols), dtype=dt)
    for (i, j), v in m.entries.items():
        if isinstance(v, Fraction):
            raise ValueError("integer matrix expected")
        a[i, j] = v
    return a


class _SnfWorker:
    """Dense integer SNF with optional row-transform tracking (D = U @ M @ V)."""

    def __init__(self, a, track: bool):
        self.a = a
        self.obj = a.dtype == object
        n = a.shape[0]
        self.track = track
        if track:
            self.u = np.eye(n, dtype=np.int64)
            self.uinv = np.eye(n, dtype=np.int64)
            if self.obj:
                self.u = self.u.astype(object)
                self.uinv = self.uinv.astype(object)
        # pessimistic running bound on |u|, |uinv| entries, refreshed by a
        # real scan only when it crosses the safety line
        self._ubound = 1

    def _escalate(self):
        if not self.obj:
            self.obj = True
            self.a = self.a.astype(object)
            if self.track:
                self.u = self.u.astype(object)
                self.uinv = self.uinv.astype(object)

    def _guard(self, q: int, src_row, dst_row):
        if self.obj:
            return
        bound = abs(q) * int(np.abs(src_row).max(initial=0)) + int(np.abs(dst_row).max(initial=0))
        if bound >= _INT64_SAFE:
            self._escalate()
            return
        if self.track:
            self._ubound *= 1 + abs(q)
            if self._ubound >= _INT64_SAFE:
                actual = max(
                    int(np.abs(self.u).max(initial=0)),
                    int(np.abs(self.uinv).max(initial=0)),
                )
                self._ubound = actual * (1 + abs(q))
                if self._ubound >= _INT64_SAFE:
                    self._escalate()

    def row_axpy(self, i, t, q):
        self._guard(q, self.a[t], self.a[i])
        self.a[i] -= q * self.a[t]
        if self.track:
            self.u[i] -= q * self.u[t]
            self.uinv[:, t] += q * self.uinv[:, i]

    def col_axpy(self, j, t, q):
        self._guard(q, self.a[:, t], self.a[:, j])
        self.a[:, j] -= q * self.a[:, t]

    def row_swap(self, i, t):
        if i != t:
            self.a[[i, t]] = self.a[[t, i]]
            if self.track:
                self.u[[i, t]] = self.u[[t, i]]
                self.uinv[:, [i, t]] = self.uinv[:, [t, i]]

    def col_swap(self, j, t):
        if j != t:
            self.a[:, [j, t]] = self.a[:, [t, j]]

    def row_negate(self, i):
        self.a[i] = -self.a[i]
        if self.track:
            self.u[i] = -self.u[i]
            self.uinv[:, i] = -self.uinv[:, i]

    def run(self):
        a = self.a
        nr, nc = a.shape
        t = 0
        diag = []
        while t < nr and t < nc:
            sub = a[t:, t:]
            nz = np.argwhere(sub != 0)
            if len(nz) == 0:
                break
            # smallest |entry| as pivot keeps the numbers small
            best = min(nz.tolist(), key=lambda ij: abs(int(sub[ij[0], ij[1]])))
            self.row_swap(best[0] + t, t)
            self.col_swap(best[1] + t, t)
            a = self.a
            while True:
                # clear column t
                changed = False
                for i in range(t + 1, nr):
                    if a[i, t] != 0:
                        q = int(a[i, t]) // int(a[t, t])
                        if q:
                            self.row_axpy(i, t, q)
                            a = self.a
                        if a[i, t] != 0:
                            self.row_swap(i, t)
                            changed = True
                if changed:
                    continue
                # clear row t
                changed = False
                for j in range(t + 1, nc):
                    if a[t, j] != 0:
                        q = int(a[t, j]) // int(a[t, t])
                        if q:
                            self.col_axpy(j, t, q)
                            a = self.a
                        if a[t, j] != 0:
                            self.col_swap(j, t)
                            changed = True
                if not changed and not a[t + 1:, t].any():
                    break
            if a[t, t] < 0:
                self.row_negate(t)
            # enforce divisibility of the remaining block
            d = int(a[t, t])
            if d != 1:
                rest = a[t + 1:, t + 1:]
                bad = np.argwhere(rest % d != 0)
                if len(bad):
                    i = int(bad[0][0]) + t + 1
                    self.row_axpy(t, i, -1)  # a[t] += a[i]
                    continue
            diag.append(int(a[t, t]))
            t += 1
        return diag


def snf(m: SparseMat) -> tuple:
    """Invariant factors (nonzero Smith diagonal, each dividing the next).

    Over fields: a run of 1s of length rank.
    """
    m.ring.require_pid()
    if m.ring.is_field and m.ring.kind != "integers":
        r = rank(m)
        return tuple([m.ring.one] * r)
    worker = _SnfWorker(_dense_int_matrix(m), track=False)
    return tuple(worker.run())


def snf_with_transforms(m: SparseMat):
    """(diag, U, Uinv) with diag = the Smith diagonal of U @ m @ V for some
    unimodular V; U and Uinv are dense integer numpy arrays (rows x rows)."""
    if m.ring.kind != "integers":
        raise UnsupportedRingError("transforms are tracked over the integers only")
    worker = _SnfWorker(_dense_int_matrix(m), track=True)
    diag = worker.run()
    return diag, worker.u, worker.uinv


# ---------------------------------------------------------------------------
# graded module invariants
# ---------------------------------------------------------------------------


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


def _merge_torsion(lists) -> tuple:
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


@dataclass(frozen=True)
class GradedModuleInvariants:
    """Isomorphism-class data of a finitely generated graded module:
    per-parity free rank plus per-parity invariant factors d1 | d2 | ..."""

    ring: RingSpec
    even_free_rank: int = 0
    odd_free_rank: int = 0
    even_torsion: tuple = ()
    odd_torsion: tuple = ()

    def __post_init__(self):
        for tl in (self.even_torsion, self.odd_torsion):
            if self.ring.is_field and self.ring.kind != "integers" and tl:
                raise ValueError("torsion is impossible over a field")
            for a, b in zip(tl, tl[1:]):
                if b % a != 0:
                    raise ValueError(f"torsion {tl} violates the divisibility chain")
            if any(d < 2 for d in tl):
                raise ValueError("invariant factors must be >= 2")

    def is_zero(self) -> bool:
        return (
            self.even_free_rank == 0
            and self.odd_free_rank == 0
            and not self.even_torsion
            and not self.odd_torsion
        )

    def direct_sum(self, other: "GradedModuleInvariants") -> "GradedModuleInvariants":
        if self.ring != other.ring:
            raise ValueError("direct sum over mismatched rings")
        return GradedModuleInvariants(
            self.ring,
            self.even_free_rank + other.even_free_rank,
            self.odd_free_rank + other.odd_free_rank,
            _merge_torsion([self.even_torsion, other.even_torsion]),
            _merge_torsion([self.odd_torsion, other.odd_torsion]),
        )

    def describe(self) -> str:
        def side(free, tors):
            parts = []
            if free:
                parts.append(f"free^{free}")
            parts.extend(f"Z/{d}" for d in tors)
            return " + ".join(parts) if parts else "0"

        return f"even: {side(self.even_free_rank, self.even_torsion)} | odd: {side(self.odd_free_rank, self.odd_torsion)}"

    def to_json(self) -> dict:
        return {
            "even_free_rank": self.even_free_rank,
            "odd_free_rank": self.odd_free_rank,
            "even_torsion": [int(d) for d in self.even_torsion],
            "odd_torsion": [int(d) for d in self.odd_torsion],
        }


def direct_sum_invariants(parts) -> GradedModuleInvariants:
    parts = list(parts)
    if not parts:
        raise ValueError("need at least one summand")
    out = parts[0]
    for p in parts[1:]:
        out = out.direct_sum(p)
    return out


def module_iso_check(a: GradedModuleInvariants, b: GradedModuleInvariants) -> bool:
    """Equality of all four invariant components; this is exactly graded-module
    isomorphism for finitely generated modules over the supported rings."""
    if a.ring != b.ring:
        raise ValueError("invariants over different rings are not comparable")
    return (
        a.even_free_rank == b.even_free_rank
        and a.odd_free_rank == b.odd_free_rank
        and tuple(a.even_torsion) == tuple(b.even_torsion)
        and tuple(a.odd_torsion) == tuple(b.odd_torsion)
    )


def parity_shift(a: GradedModuleInvariants) -> GradedModuleInvariants:
    """Swap the even and odd components."""
    return GradedModuleInvariants(
        a.ring, a.odd_free_rank, a.even_free_rank, a.odd_torsion, a.even_torsion
    )


def _column_parity(col_items, parity, j):
    pars = {parity[i] for i, _ in col_items}
    if len(pars) > 1:
        raise ValueError(f"column {j} mixes parities; split it first")
    return pars.pop() if pars else None


def subquotient_invariants(ker: SparseMat, im: SparseMat, parity) -> GradedModuleInvariants:
    """Invariant factors of span(ker)/span(im), split by parity.

    ker columns must be independent (a basis over a field, a lattice basis
    over the integers, as produced by kernel_basis); im columns must lie in
    that span, else NotASubmoduleError.
    """
    if ker.ring != im.ring:
        raise ValueError("ker and im must share a ring")
    ring = ker.ring
    ring.require_pid()
    if ker.rows != im.rows or len(parity) != ker.rows:
        raise ValueError("ambient dimensions disagree")

    ker_cols = ker.columns()
    ker_par = [_column_parity(ker_cols[j], parity, j) for j in range(ker.cols)]
    # zero kernel columns carry no parity and no content; reject them
    if any(p is None for p in ker_par):
        raise ValueError("kernel columns must be nonzero")

    solver = SpanSolver(ker) if ker.cols else None
    im_cols = im.columns()
    coords_by_parity = {0: [], 1: []}
    for j in range(im.cols):
        if not im_cols[j]:
            continue
        par = _column_parity(im_cols[j], parity, j)
        if solver is None:
            raise NotASubmoduleError("image generators outside the zero kernel")
        x = solver.solve(im.column_dense(j))
        if x is None:
            raise NotASubmoduleError(f"image column {j} is not in the kernel span")
        for idx, c in enumerate(x):
            if c != 0 and ker_par[idx] != par:
                raise NotASubmoduleError(
                    f"image column {j} uses kernel generators of the wrong parity"
                )
        coords_by_parity[par].append(x)

    out = {}
    for par in (0, 1):
        k_idx = [i for i, p in enumerate(ker_par) if p == par]
        pos_of = {ki: t for t, ki in enumerate(k_idx)}
        cols = []
        for x in coords_by_parity[par]:
            col = [ring.zero] * len(k_idx)
            for idx, c in enumerate(x):
                if c != 0:
                    col[pos_of[idx]] = c
            cols.append(col)
        x_mat = SparseMat.from_columns(ring, len(k_idx), cols)
        if ring.is_field and ring.kind != "integers":
            r = rank(x_mat)
            out[par] = (len(k_idx) - r, ())
        else:
            diag = snf(x_mat)
            free = len(k_idx) - len(diag)
            out[par] = (free, tuple(int(d) for d in diag if d > 1))
    return GradedModuleInvariants(
        ring, out[0][0], out[1][0], out[0][1], out[1][1]
    )
