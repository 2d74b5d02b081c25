"""Exact linear algebra substrate: coefficient rings, vectors as (index,
value) pairs, sparse matrices, products from structure constants,
incremental echelon/lattice reduction, Smith normal form, kernels and
invariant factors of graded subquotients.

A vector is a list of (index, value) pairs.  Inputs may repeat an index,
whose values are then summed; outputs are sorted by index, nonzero and
normalized.  ``combine`` forms linear combinations, ``multiply`` the product
of two vectors from structure constants, and ``SparseMat.apply`` a matrix
times a vector.

Span and lattice facts go through one ``Echelon`` API: ``extend`` builds the
span of a sequence of vectors (zero vectors skipped, insertion order kept),
``contains`` and ``residue`` test and reduce one vector, ``same_span``
compares two echelons and ``is_full`` says whether the rows span the whole
module (over the integers: generate the whole lattice).

Everything is exact: integers, rationals and prime fields.  A ring element
has one canonical form, which ``RingSpec.normalize``, ``zero``, ``one`` and
``parse`` give and every value leaving this module has: a Python int over
the integers, an int in [0, p) over F_p, and over the rationals an int when
the value is integral and a ``fractions.Fraction`` only when it is not.  So
integral rationals cost int arithmetic, and a Fraction with denominator 1
never appears in a result.

An echelon row is sparse, a dict {index: value} of its nonzero entries as
Python ints (in [0, p) over F_p) or, in Fraction mode, Fractions; Python
ints never overflow, so elimination needs no overflow guard and touches
only the nonzero entries.  The Smith normal form works on the same sparse
rows of Python ints.  Over the rationals, echelon rows are integer vectors,
and residues and solution coordinates are computed fraction-free, as an
integer vector over one positive denominator; a Fraction is built only
where a result leaves the module (``Echelon.residue``, ``SpanSolver.solve``,
``basis_matrix``, ``kernel_basis``), and only for an entry that is not
integral.  A vector inserted with fractional entries switches an echelon to
Fraction rows, whose entries are normalized on their way out; a query
(``contains``, ``residue``, solving) clears its own denominators instead,
so it leaves a shared echelon as it is.
"""

from __future__ import annotations

import bisect
import copy
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

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
    "triangular_echelon",
    "rank",
    "spans_within",
    "subquotient_invariants",
    "module_iso_check",
    "parity_shift",
    "direct_sum_invariants",
    "quotient_invariants",
    "merge_torsion",
    "combine",
    "multiply",
    "UnsupportedRingError",
    "NotASubmoduleError",
]

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
            m = self.modulus
            if not isinstance(m, int) or isinstance(m, bool) or m < 2:
                raise ValueError(f"int_mod needs an integer modulus >= 2, got {m!r}")
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
        return 0

    @property
    def one(self):
        return 1

    def normalize(self, x):
        """x as a ring element in canonical form: over the rationals an int
        when x is integral and a Fraction otherwise, over F_p an int in
        [0, p), over the integers an int (ValueError for a non-integer)."""
        if self.kind == "rationals":
            if type(x) is int:
                return x
            if type(x) is not Fraction:
                x = Fraction(x)
            return int(x.numerator) if x.denominator == 1 else x
        if type(x) is Fraction:
            if x.denominator != 1:
                raise ValueError(f"{x} is not an integer")
            x = x.numerator
        if self.kind == "int_mod":
            return int(x) % self.modulus
        return int(x)

    def parse(self, s: str):
        s = s.strip()
        if "/" in s:
            if self.kind != "rationals":
                raise ValueError(f"fraction literal {s!r} in a {self.kind} ring")
            num, den = s.split("/")
            return self.normalize(Fraction(int(num), int(den)))
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
    """Immutable sparse matrix with exact entries: the list of its columns,
    each a vector of the nonzero (row, value) pairs, sorted by row, with
    normalized values.

    The constructor takes a dict {(row, col): value}, for callers that
    accumulate sums: it normalizes the values, drops zeros, range-checks
    and sorts once.  ``_trusted`` wraps ready columns as they are.
    ``chain.blocked_complex`` builds no SparseMat for its image blocks:
    ``column_span_echelon`` reads them from arrays."""

    __slots__ = ("ring", "rows", "cols", "_columns")

    def __init__(self, ring: RingSpec, rows: int, cols: int, entries=None):
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self._columns = columns = [[] for _ in range(cols)]
        if entries:
            for (i, j), v in entries.items():
                v = ring.normalize(v)
                if v != 0:
                    if not (0 <= i < rows and 0 <= j < cols):
                        raise IndexError(f"entry ({i},{j}) outside {rows}x{cols}")
                    columns[j].append((i, v))
            for col in columns:
                col.sort()   # rows are distinct, so values are never compared

    @classmethod
    def _trusted(cls, ring, rows, columns):
        """Wrap columns as they are: a list of vectors sorted by row, with
        nonzero normalized values and rows in range(rows)."""
        out = cls.__new__(cls)
        out.ring, out.rows, out.cols, out._columns = ring, rows, len(columns), columns
        return out

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

    def nnz(self) -> int:
        return sum(map(len, self._columns))

    def is_zero(self) -> bool:
        return not any(self._columns)

    def columns(self):
        """The stored columns: a list of vectors, list[(row, value)]."""
        return self._columns

    def submatrix(self, rows, cols) -> "SparseMat":
        """The block on the ascending index lists rows and cols, renumbered
        in that order.  Every entry of the chosen columns must lie in a
        chosen row (KeyError otherwise)."""
        pos = {i: t for t, i in enumerate(rows)}
        own = self._columns
        return SparseMat._trusted(self.ring, len(rows),
                                  [[(pos[i], v) for i, v in own[j]] for j in cols])

    def __matmul__(self, other: "SparseMat") -> "SparseMat":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        return SparseMat._trusted(self.ring, self.rows, [self.apply(col) for col in other._columns])

    def apply(self, items) -> list:
        """self @ v as a vector, for the vector v with the (index, value)
        pairs items.  Only the nonzero entries of v and the columns they hit
        are visited."""
        cols = self._columns
        acc = {}
        for j, c in items:
            if c != 0:
                for i, m in cols[j]:
                    acc[i] = acc.get(i, 0) + c * m
        return _pairs(self.ring, acc)

    def __eq__(self, other):
        return (
            isinstance(other, SparseMat)
            and self.ring == other.ring
            and self.rows == other.rows
            and self._columns == other._columns
        )

    def __repr__(self):
        return f"SparseMat({self.ring.describe()}, {self.rows}x{self.cols}, nnz={self.nnz()})"


def _pairs(ring: RingSpec, acc: dict) -> list:
    """The accumulated entries acc {index: value} as a vector: sorted by
    index, normalized, zeros dropped."""
    norm = ring.normalize
    return [(k, y) for k, x in sorted(acc.items()) if (y := norm(x)) != 0]


def combine(ring: RingSpec, terms) -> list:
    """The vector sum of coef * vec over the (coef, vec) terms."""
    acc = {}
    for coef, vec in terms:
        for k, v in vec:
            acc[k] = acc.get(k, 0) + coef * v
    return _pairs(ring, acc)


def multiply(ring: RingSpec, table: dict, a, b) -> list:
    """The product of the vectors a and b from structure constants:
    table[(i, j)] expands e_i * e_j as [(k, coeff), ...], missing pairs are
    zero.  A vector."""
    acc = {}
    for i, x in a:
        for j, y in b:
            terms = table.get((i, j))
            if terms:
                xy = x * y
                for k, c in terms:
                    acc[k] = acc.get(k, 0) + xy * c
    return _pairs(ring, acc)


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


def _content(v: dict) -> int:
    """gcd of the values of a sparse vector (0 when it is empty)."""
    return math.gcd(*v.values())


def _axpy(w: dict, b, r: dict, mod=None):
    """w += b * r in place, for sparse vectors w and r, dropping the entries
    that become zero; reduced mod ``mod`` when given (w already is)."""
    for k, x in r.items():
        y = w.get(k, 0) + b * x
        if mod is not None:
            y %= mod
        if y:
            w[k] = y
        else:
            w.pop(k, None)


def _scaled(a, r: dict) -> dict:
    """a * r as a new sparse vector."""
    return {k: a * x for k, x in r.items()} if a else {}


class Echelon:
    """Incremental row-space (fields) or lattice (integers) builder.

    Rows have pairwise distinct leading indices.  Over fields the row span is
    maintained; over the integers every update is unimodular on the stored
    rows plus incoming vector, so the generated lattice is preserved exactly.
    Canonical residues (unique coset representatives) come from a single
    ascending sweep over the pivots.

    Engine vectors and rows are sparse: dicts {index: value} of the nonzero
    entries, Python ints (in [0, p) over F_p) or, in fracfield mode,
    Fractions.  The leading index of a vector is its smallest key.
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
        self.row_at: dict = {}        # leading index -> row position
        self.sorted_pivots: list = []  # the pivots in ascending order

    # -- vector plumbing ----------------------------------------------------

    def vector(self, items) -> dict:
        """Sparse engine vector of the vector with the (index, value) pairs
        items: the values of a repeated index are summed, reduced mod p over
        F_p, and zero sums dropped.  A fractional value switches an intfield
        echelon to Fraction rows (``_query`` does not)."""
        if self.mode == "fracfield":
            v = {}
            for i, x in items:
                if i in v:
                    x += v.pop(i)
                if x != 0:
                    v[i] = Fraction(x)
            return v
        v, den = self._cleared(items)
        if den == 1:
            return v
        self._to_fracfield()
        return {k: Fraction(x, den) for k, x in v.items()}

    def _cleared(self, items) -> tuple:
        """(v, den): den > 0 the least common denominator of the values of
        the pairs items and v the engine vector of den times their vector,
        with integer values (summed, reduced mod p, zeros dropped).  Outside
        the rationals a fractional value raises ValueError."""
        v = {}
        items = iter(items)
        p = self.ring.modulus
        for i, x in items:
            if type(x) is not int:
                if type(x) is Fraction:  # an isinstance test on an ABC is slow
                    if x.denominator != 1:
                        if self.mode != "intfield":
                            raise ValueError("non-integer entry over a non-rational ring")
                        rest = [*v.items(), (i, x), *items]
                        den = math.lcm(*(y.denominator for _, y in rest if type(y) is Fraction))
                        return self._cleared([(k, y * den) for k, y in rest])[0], den
                    x = x.numerator
                else:
                    x = int(x)
            if i in v:
                x += v.pop(i)
            if p is not None:
                x %= p
            if x:
                v[i] = x
        return v, 1

    def _escalate(self):
        """Does nothing and is never called: rows hold Python numbers, which
        cannot overflow.  Kept as the entry point that
        ``perfbench/layertrace.py`` patches for its ``object_escalations``
        metric, until the benchmark reads library spans (ROADMAP item 1)."""

    def _to_fracfield(self):
        if self.mode == "fracfield":
            return
        assert self.mode == "intfield"
        self.mode = "fracfield"
        new_rows = []
        for r in self.rows:
            d = r[min(r)]
            new_rows.append({k: Fraction(x, d) for k, x in r.items()})
        self.rows = new_rows

    # -- core operations ----------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.rows)

    def insert(self, v) -> bool:
        """Reduce v against the rows; grow by one row if independent.

        Returns True when the rank grew.  v is an engine vector and is
        consumed.
        """
        mode = self.mode
        p_mod = self.ring.modulus
        while v:
            p = min(v)
            at = self.row_at.get(p)
            if at is None:
                self._append(v, p)
                return True
            r = self.rows[at]
            c = v[p]
            if mode == "modp":
                _axpy(v, -c, r, p_mod)
            elif mode == "fracfield":
                _axpy(v, -c, r)
            elif mode == "intfield":
                v = _scaled(r[p], v)
                _axpy(v, -c, r)
                g = _content(v)
                if g > 1:
                    v = {k: x // g for k, x in v.items()}
            else:  # lattice
                d = r[p]
                if c % d == 0:
                    _axpy(v, -(c // d), r)
                else:
                    g, x, y = _ext_gcd(d, c)
                    new_r = _scaled(x, r)
                    _axpy(new_r, y, v)
                    v = _scaled(d // g, v)
                    _axpy(v, -(c // g), r)
                    self.rows[at] = new_r
        return False

    def _append(self, v, p):
        """Store the engine vector v, whose leading index p is not a pivot,
        as a new row: what ``insert`` does once nothing is left to reduce."""
        v = self._normalize_new_row(v, p)
        bisect.insort(self.sorted_pivots, p)
        self.row_at[p] = len(self.rows)
        self.rows.append(v)

    def extend(self, vectors) -> "Echelon":
        """Insert each nonzero vector, in order.  Returns self, whose rows
        then span the old span plus the vectors (lattice: generate)."""
        for items in vectors:
            v = self.vector(items)
            if v:
                self.insert(v)
        return self

    def _normalize_new_row(self, v, p):
        if self.mode == "modp":
            m = self.ring.modulus
            inv = pow(v[p], m - 2, m)
            return {k: x * inv % m for k, x in v.items()}
        if self.mode == "fracfield":
            d = v[p]
            return {k: x / d for k, x in v.items()}
        if self.mode == "intfield":
            # scaling is free over a field; keep the integers small
            g = _content(v)
            if g > 1:
                v = {k: x // g for k, x in v.items()}
        # over the integers only sign-flips are unimodular on a single row
        if v[p] < 0:
            v = _scaled(-1, v)
        return v

    def copy(self) -> "Echelon":
        """An independent echelon with the same rows, pivots and mode."""
        new = copy.copy(self)
        new.rows = [dict(r) for r in self.rows]
        new.row_at = dict(self.row_at)
        new.sorted_pivots = list(self.sorted_pivots)
        return new

    def _query(self, items):
        """(v, den) with v / den the vector with the (index, value) pairs
        items, v an engine vector and den > 0.  Outside fracfield mode the
        query clears its own denominators (``_cleared``), so a query never
        switches the echelon, which callers may share, to Fraction rows."""
        if self.mode == "fracfield":
            return self.vector(items), 1
        return self._cleared(items)

    def _reduce(self, v, den=1):
        """(w, den') with w / den' the canonical residue of the vector
        v / den, v an engine vector, which is left as it is: w is sparse,
        den' > 0, and den' is den outside intfield mode.

        One ascending sweep over the pivots.  In intfield mode it runs in
        integers with one running denominator (w <- d*w - c*r, den <- d*den,
        both divided by their common content), so no Fraction is built.
        The result is checked to be reduced at every pivot (zero over a
        field, in [0, pivot value) over the integers); a breach raises
        RuntimeError.
        """
        mode = self.mode
        p_mod = self.ring.modulus
        w = dict(v)
        for p in self.sorted_pivots:
            c = w.get(p)
            if c is None:
                continue
            r = self.rows[self.row_at[p]]
            if mode == "modp":
                _axpy(w, -c, r, p_mod)
            elif mode == "fracfield":
                _axpy(w, -c, r)
            elif mode == "lattice":
                q = c // r[p]
                if q:
                    _axpy(w, -q, r)
            else:
                d = r[p]
                w = _scaled(d, w)
                _axpy(w, -c, r)
                den *= d
                if den > 1:
                    g = math.gcd(_content(w), den)
                    if g > 1:
                        w = {k: x // g for k, x in w.items()}
                        den //= g
        if den <= 0 or any(mode != "lattice" or not 0 <= w[p] < self.rows[self.row_at[p]][p]
                           for p in self.row_at.keys() & w.keys()):
            raise RuntimeError("echelon residue is not reduced at the pivots")
        return w, den

    def residue(self, items) -> list:
        """Canonical representative modulo the row span / lattice of the
        vector with the (index, value) pairs items, as the sorted (index,
        value) pairs of its nonzero entries, normalized ring elements; empty
        exactly when the vector lies in the span.

        Fields: no entry at any pivot (complement coordinates).  Integers:
        pivot coordinates reduced into [0, pivot value).  Over the rationals
        the values are in canonical form (module docstring).  A query leaves
        the echelon as it is (``_query``).
        """
        return sorted(_ring_values(self.ring, *self._reduce(*self._query(items))).items())

    def contains(self, items) -> bool:
        """Whether the vector with the (index, value) pairs items lies in
        the span (lattice); the echelon is left as it is."""
        return not self._reduce(*self._query(items))[0]

    def same_span(self, other: "Echelon") -> bool:
        """Equal rank and mutual containment: the two echelons have the same
        span (over the integers: generate the same lattice)."""
        if self.rank != other.rank:
            return False
        for src, dst in ((self, other), (other, self)):
            for col in src.basis_matrix().columns():
                if not dst.contains(col):
                    return False
        return True

    def has_unit_pivots(self) -> bool:
        """True when every pivot value is a unit (always over a field).  The
        rows and the unit vectors at the other indices are then triangular
        with unit diagonal, so the classes of those unit vectors are a basis
        of the quotient by the span."""
        return self.mode != "lattice" or all(abs(d) == 1 for d in self.pivot_values().values())

    def is_full(self) -> bool:
        """True when the rows span the whole module.  Over the integers they
        must also generate the whole lattice: the rows are triangular, so the
        lattice index is the absolute value of the product of the pivot
        values, which must all be 1 or -1."""
        return self.rank == self.dim and self.has_unit_pivots()

    def basis_matrix(self) -> SparseMat:
        """Rows as columns of a SparseMat, ordered by pivot index."""
        rows = [self.rows[self.row_at[p]] for p in self.sorted_pivots]
        return _engine_columns(self.ring, self.dim, rows)

    def pivot_values(self) -> dict:
        """Leading value per pivot of a lattice (integer) echelon.

        Only lattice pivot values are invariants of the span: over a field a
        row may be rescaled freely, and intfield rows keep their
        content-reduced leading entry, which depends on insertion order.
        Other modes raise ValueError.
        """
        if self.mode != "lattice":
            raise ValueError(f"pivot values depend on insertion order in {self.mode} mode")
        return {p: self.rows[at][p] for p, at in self.row_at.items()}


def _ring_values(ring: RingSpec, w: dict, den: int) -> dict:
    """The entries of the sparse vector w / den as normalized ring elements:
    the ints of w outside the rationals (den is 1 there); over the rationals
    an int where an entry is integral and a Fraction, built once, where it
    is not (den is 1 for Fraction rows, whose entries are normalized)."""
    if ring.kind != "rationals":
        return w
    if den == 1:
        norm = ring.normalize
        return {k: norm(x) for k, x in w.items()}
    out = {}
    for k, x in w.items():
        q, r = divmod(x, den)
        out[k] = Fraction(x, den) if r else q
    return out


def _engine_columns(ring: RingSpec, nrows: int, vecs) -> SparseMat:
    """SparseMat with the engine vectors vecs as its columns."""
    return SparseMat._trusted(ring, nrows, [sorted(_ring_values(ring, v, 1).items())
                                            for v in vecs])


def _leading_entries(m: SparseMat) -> dict:
    """Leading row -> leading value of each column of m; ValueError unless
    the columns are nonzero with distinct leading rows (triangular)."""
    lead = {}
    for col in m.columns():
        if not col or col[0][0] in lead:
            raise ValueError("within needs nonzero columns with distinct leading rows")
        lead[col[0][0]] = col[0][1]
    return lead


def _open_pivots(ech: Echelon, lead: dict, pivots) -> list:
    """The pivots p among ``pivots`` where a lattice echelon's |d_p| differs
    from |lead[p]|; none over a field, where every pivot value is a unit."""
    if ech.mode != "lattice":
        return []
    return [p for p in pivots if abs(int(ech.rows[ech.row_at[p]][p])) != abs(lead[p])]


def spans_within(ech: Echelon, within: SparseMat) -> bool:
    """True when an echelon of vectors known to lie in the module of
    ``within`` (triangular columns) spans all of it, so that the quotient is
    zero: the same pivot set as the leading rows of ``within`` and, over the
    integers, the same |pivot value| at each.  This is the certificate on
    which ``column_span_echelon`` stops; an echelon that reads every column
    (its last column closing the last pivot) satisfies it too."""
    lead = _leading_entries(within)
    return ech.row_at.keys() == lead.keys() and not _open_pivots(ech, lead, lead)


class _MatrixColumns:
    """The columns of a SparseMat as ``column_span_echelon`` reads them: the
    representative of each leading row, ``best`` (leading row ->
    (|leading value|, index)), the other nonzero columns in index order
    (``others``), and each column's rows and entries.  Read in Python from
    ``columns()``; ``chain.blocked_complex`` gives its blocks the same
    interface from numpy arrays."""

    def __init__(self, m: SparseMat):
        self.ring, self.rows = m.ring, m.rows
        self._cols = cols = m.columns()
        best = {}
        for j, col in enumerate(cols):
            if col:
                p, x = col[0]
                key = (abs(x), j)
                if p not in best or key < best[p]:
                    best[p] = key
        self.best = best

    def others(self) -> list:
        chosen = {j for _, j in self.best.values()}
        return [j for j, col in enumerate(self._cols) if col and j not in chosen]

    def rows_of(self, j) -> list:
        return [i for i, _ in self._cols[j]]

    def column(self, j) -> list:
        return self._cols[j]


def _insert_order(src, lead, lattice: bool):
    """Yields the indices of the nonzero columns of ``src`` (a
    ``_MatrixColumns`` or a block of ``chain.blocked_complex``) in the order
    ``column_span_echelon`` inserts them: the representatives, then the
    columns touching an open row, then the rest, each phase in index order
    (see there).  Lazily, so a stop after the representatives never asks
    ``src.others()``."""
    yield from sorted(j for _, j in src.best.values())
    open_rows = {p for p, d in (lead or {}).items()
                 if p not in src.best or (lattice and src.best[p][0] != abs(d))}
    rest = []
    for j in src.others():
        if open_rows and not open_rows.isdisjoint(src.rows_of(j)):
            yield j
        else:
            rest.append(j)
    yield from rest


def _repeats(col, twins: dict, modulus) -> bool:
    """Whether the nonzero column col, a list of (row, value) pairs of
    normalized values, is +-1 times a column in twins, which maps (leading
    row, nnz) to the columns seen with them; if not, col joins twins.  Only
    columns of the same leading row and nnz are compared, whole."""
    seen = twins.setdefault((col[0][0], len(col)), [])
    if seen and (col in seen or [(i, -x % modulus if modulus else -x) for i, x in col] in seen):
        return True
    seen.append(col)
    return False


def triangular_echelon(ring: RingSpec, dim: int, columns) -> Echelon:
    """The echelon that inserting the columns in order gives, for nonzero
    columns with distinct leading rows: each becomes a row as it is
    (normalized), with no reduction step.  ValueError for a repeated
    leading row."""
    ech = Echelon(ring, dim)
    for col in columns:
        v = ech.vector(col)
        p = min(v)
        if p in ech.row_at:
            raise ValueError("triangular columns need distinct leading rows")
        ech._append(v, p)
    return ech


def column_span_echelon(m, within: SparseMat | None = None) -> Echelon:
    """Echelon of the column span (field) / column lattice (integers) of m,
    a SparseMat or a block of ``chain.blocked_complex``, which keeps its
    columns in arrays until they are read.

    ``within`` holds triangular columns (distinct leading rows, as
    ``kernel_basis`` gives) of a module that callers have proven, exactly
    and beforehand, to contain every column of m; the reduction stops once
    the span provably equals it.  Over a field that is the rank of
    ``within``.  Over the integers, for a lattice with a triangular basis
    the leading values at p of its vectors that start at p form the ideal
    d_p Z, d_p the pivot value of row p.  Im inside W gives d_p(W) | d_p(Im)
    at every pivot, and at equal rank [W : Im] = prod |d_p(Im)| /
    prod |d_p(W)|.  So Im = W once the rank is reached and
    |d_p(Im)| = |d_p(W)| at every pivot; every later column then reduces to
    zero.  A matched pivot stays matched, so only the open ones are
    compared after each insert.  A lattice with torsion over its image
    never matches and reads every column.  ``spans_within`` tests the same
    certificate on a finished echelon.

    The columns are inserted in three phases, an order fixed by the
    columns and ``within`` alone (``_insert_order``), each in index order.
    (1) One representative per distinct leading row: the smallest
    |leading value|, then the lowest index.  They are triangular, so each
    raises the rank with no reduction step.  The leading row of any vector
    of a span is one of its pivots, so when the representatives cover the
    leading rows of ``within`` (over the integers with equal |values|), the
    stop fires after exactly rank inserts, and the other columns are never
    listed.
    (2) The other columns with a nonzero entry at an open row: a leading
    row of ``within`` that no representative covers (its pivot can only
    come from cancellation) or, over the integers, whose representative's
    |value| differs from |d_p(W)|.  (3) The rest.  The order decides which columns are read and which rows are
    stored, but not the output: either every column is read, or the stop
    certifies the span of ``within``.  So the span, the pivot set and the
    integer pivot values are those of all the columns, in any order.

    A column equal to +-1 times one already inserted is skipped: it lies
    in the span, so it would reduce to zero and leave every row as it is
    (over the integers too, where the leading value of a lattice vector is
    a multiple of the pivot value and no row is recombined).

    Equal spans have equal pivot sets, so a pivot that is not a leading
    row of ``within`` means a column outside it: RuntimeError.
    """
    src = _MatrixColumns(m) if isinstance(m, SparseMat) else m
    ech = Echelon(src.ring, src.rows)
    lead = None if within is None else _leading_entries(within)
    order = _insert_order(src, lead, ech.mode == "lattice")
    unmatched = None  # open pivots, once the rank of within is reached
    inserted = {}     # the inserted columns by leading row and nnz
    while True:
        if lead is not None and ech.rank == len(lead):
            if unmatched is None:
                if ech.row_at.keys() != lead.keys():
                    break   # raised below
                unmatched = list(lead)
            unmatched = _open_pivots(ech, lead, unmatched)
            if not unmatched:
                break
        j = next(order, None)
        if j is None:
            break
        col = src.column(j)
        if not _repeats(col, inserted, src.ring.modulus):   # a repeat changes nothing
            ech.insert(ech.vector(col))
    if lead is not None and not ech.row_at.keys() <= lead.keys():
        raise RuntimeError("a column lies outside the span it was proven to lie in")
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
        if cols[j]:
            ech.insert(ech.vector(cols[j] + [(n + j, 1)]))
        else:   # no earlier row reaches index n + j: a new row as it is
            ech._append(ech.vector([(n + j, 1)]), n + j)
    return ech


def _coordinates(ech: Echelon, n: int, vec):
    """The vector x with m @ x = vec from the augmented echelon of an n-row
    m, or None when vec is outside the column span (lattice)."""
    w, den = ech._reduce(*ech._query(vec))
    if w and min(w) < n:
        return None
    p = ech.ring.modulus
    neg = {k - n: -x % p if p else -x for k, x in w.items()}
    return sorted(_ring_values(ech.ring, neg, den).items())


def kernel_basis(m: SparseMat) -> SparseMat:
    """Columns spanning {v : m @ v = 0}.

    Over fields this is a basis; over the integers it is a basis of the
    (automatically saturated) kernel lattice.  Built by reducing the columns
    of m augmented with companion unit vectors; a column whose matrix part
    dies leaves its companion as a kernel generator.  These are the
    augmented rows with leading index >= m.rows, so the columns are
    triangular: distinct leading rows, in ascending order.
    """
    n = m.rows
    ech = _augmented_echelon(m)
    out = [{i - n: x for i, x in ech.rows[ech.row_at[p]].items()}
           for p in ech.sorted_pivots if p >= n]
    return _engine_columns(m.ring, m.cols, out)


def solve_linear(m: SparseMat, target):
    """Some vector x with m @ x = target (exactly, over the matrix ring), or
    None.

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
        if any(p >= self.n for p in self.ech.row_at):
            raise ValueError("SpanSolver needs independent columns")

    def solve(self, vec):
        """The vector x with basis @ x = vec, or None if vec is not in the
        span (over the integers: not in the lattice)."""
        return _coordinates(self.ech, self.n, vec)


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def _smith(m: SparseMat):
    """(diag, uinv) for an integer matrix m: diag the Smith diagonal of
    U @ m @ V for some unimodular U and V, and uinv the columns of U^-1 as
    sparse dicts {row: value}.

    The matrix is a list of sparse rows {col: value} of Python ints, so no
    step can overflow.  Each diagonal entry is found by the same elementary
    operations in the same order as a dense elimination: pivot on the
    smallest |entry| of the remaining block, first in row-major order;
    reduce its column, then its row, by floor quotients, swapping a nonzero
    remainder in as the new pivot, until both are clear; negate a negative
    pivot; where some entry of the remaining block is not a multiple of the
    pivot, add the first such row to the pivot row and pick again.  Rows
    from t on have entries in columns from t on only, so a column operation
    at step t touches those rows alone.
    """
    nr, nc = m.rows, m.cols
    rows = [{} for _ in range(nr)]
    for j, col in enumerate(m.columns()):
        for i, v in col:
            rows[i][j] = v
    uinv = [{i: 1} for i in range(nr)]

    def row_axpy(i, t, q):   # row i -= q * row t
        _axpy(rows[i], -q, rows[t])
        _axpy(uinv[t], q, uinv[i])

    def row_swap(i, t):
        rows[i], rows[t] = rows[t], rows[i]
        uinv[i], uinv[t] = uinv[t], uinv[i]

    def col_axpy(j, t, q):   # column j -= q * column t
        for r in rows[t:]:
            x = r.get(t)
            if x:
                y = r.get(j, 0) - q * x
                if y:
                    r[j] = y
                else:
                    del r[j]

    def col_swap(j, t):
        for r in rows[t:]:
            x, y = r.pop(j, 0), r.pop(t, 0)
            if x:
                r[t] = x
            if y:
                r[j] = y

    diag = []
    t = 0
    while t < nr and t < nc:
        best = min(((abs(x), i, j) for i in range(t, nr) for j, x in rows[i].items()),
                   default=None)
        if best is None:
            break
        _, i, j = best
        if i != t:
            row_swap(i, t)
        if j != t:
            col_swap(j, t)
        while True:
            changed = False
            for i in range(t + 1, nr):
                x = rows[i].get(t)
                if x:
                    q = x // rows[t][t]
                    if q:
                        row_axpy(i, t, q)
                    if t in rows[i]:
                        row_swap(i, t)
                        changed = True
            if changed:
                continue
            # each step below touches only columns j and t of the pivot row
            for j in sorted(k for k in rows[t] if k > t):
                q = rows[t][j] // rows[t][t]
                if q:
                    col_axpy(j, t, q)
                if j in rows[t]:
                    col_swap(j, t)
                    changed = True
            if not changed and not any(t in rows[i] for i in range(t + 1, nr)):
                break
        d = rows[t][t]
        if d < 0:
            d = -d
            rows[t] = _scaled(-1, rows[t])
            uinv[t] = _scaled(-1, uinv[t])
        if d != 1:
            bad = next((i for i in range(t + 1, nr) if any(x % d for x in rows[i].values())),
                       None)
            if bad is not None:
                row_axpy(t, bad, -1)   # row t += row bad
                continue
        diag.append(d)
        t += 1
    return diag, uinv


def snf(m: SparseMat) -> tuple:
    """Invariant factors (nonzero Smith diagonal, each dividing the next).

    Over fields: a run of 1s of length rank.
    """
    m.ring.require_pid()
    if m.ring.is_field:
        r = rank(m)
        return tuple([m.ring.one] * r)
    return tuple(_smith(m)[0])


def snf_with_transforms(m: SparseMat):
    """(diag, uinv_columns) with diag the Smith diagonal of U @ m @ V for
    some unimodular U and V, and uinv_columns the m.rows columns of U^-1,
    column t a list of its nonzero (row, value) pairs in ascending row
    order.  Column t of U^-1 generates the t-th cyclic summand of the
    cokernel: Z/diag[t] for t < len(diag), Z beyond."""
    if m.ring.kind != "integers":
        raise UnsupportedRingError("transforms are tracked over the integers only")
    diag, uinv = _smith(m)
    return diag, [sorted(col.items()) for col in uinv]


# ---------------------------------------------------------------------------
# graded module invariants
# ---------------------------------------------------------------------------


def merge_torsion(lists) -> tuple:
    """Invariant factors of the direct sum of the cyclic modules Z/d, d in
    the given lists: an ascending chain d1 | d2 | ... without 1s.

    Z/a (+) Z/b = Z/gcd(a, b) (+) Z/lcm(a, b), so a pass of gcd/lcm steps
    over all pairs leaves each entry dividing the later ones; no entry is
    ever factorised, so huge moduli cost a few gcds each."""
    factors = sorted(int(d) for tl in lists for d in tl)
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            a, b = factors[i], factors[j]
            g = math.gcd(a, b)
            factors[i], factors[j] = g, a // g * b
    return tuple(d for d in factors if d != 1)


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
            if self.ring.is_field and tl:
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
            merge_torsion([self.even_torsion, other.even_torsion]),
            merge_torsion([self.odd_torsion, other.odd_torsion]),
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
    # position of each kernel generator among those of its parity
    counts = [0, 0]
    pos_of = []
    for p in ker_par:
        pos_of.append(counts[p])
        counts[p] += 1
    coords_by_parity = ([], [])   # the coordinate columns of each parity
    im_cols = im.columns()
    for j in range(im.cols):
        if not im_cols[j]:
            continue
        par = _column_parity(im_cols[j], parity, j)
        if solver is None:
            raise NotASubmoduleError("image generators outside the zero kernel")
        x = solver.solve(im_cols[j])
        if x is None:
            raise NotASubmoduleError(f"image column {j} is not in the kernel span")
        if any(ker_par[idx] != par for idx, _ in x):
            raise NotASubmoduleError(
                f"image column {j} uses kernel generators of the wrong parity"
            )
        # positions within one parity ascend with the index, so x stays sorted
        coords_by_parity[par].append([(pos_of[idx], c) for idx, c in x])

    out = {}
    for par in (0, 1):
        x_mat = SparseMat._trusted(ring, counts[par], coords_by_parity[par])
        if ring.is_field:
            r = rank(x_mat)
            out[par] = (counts[par] - r, ())
        else:
            diag = snf(x_mat)
            free = counts[par] - len(diag)
            out[par] = (free, tuple(int(d) for d in diag if d > 1))
    return GradedModuleInvariants(
        ring, out[0][0], out[1][0], out[0][1], out[1][1]
    )


def quotient_invariants(gens: SparseMat, image: Echelon, parity: int) -> GradedModuleInvariants:
    """span(gens) / span(image) for a block whose generators all have the
    one parity ``parity``.

    ``gens`` holds triangular columns (distinct leading rows, as
    ``kernel_basis`` and ``Echelon.basis_matrix`` give), and ``image`` is an
    echelon of vectors that callers have proven, exactly and beforehand, to
    lie in their span.  An image pivot that is not a leading row of ``gens``
    breaches that and raises RuntimeError.  Over a field the quotient is
    free of rank gens.cols - image.rank.  Over the integers it is zero when
    the image certifiably spans the lattice (``spans_within``), and
    otherwise takes coordinates and a Smith form
    (``subquotient_invariants``).
    """
    ring = gens.ring
    outside = image.row_at.keys() - _leading_entries(gens).keys()
    if outside:
        raise RuntimeError(
            f"the span of the generators does not contain the pivots "
            f"{sorted(outside)} of the image"
        )
    if ring.is_field:
        free = [0, 0]
        free[parity] = gens.cols - image.rank
        return GradedModuleInvariants(ring, *free)
    if spans_within(image, gens):
        return GradedModuleInvariants(ring)
    return subquotient_invariants(gens, image.basis_matrix(), (parity,) * gens.rows)
