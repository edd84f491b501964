"""Exact rational linear algebra helpers.

Two consumers with different scale:

* Subfield bookkeeping works on tiny matrices (dimension of the ambient
  field), where plain Fraction reduced row echelon is the clearest tool.
* The brute-force filtration oracle feeds thousands of monomial columns to
  SparseRowSpace, a column echelon keyed by lead. The columns hold
  integers only: the oracle clears each column of denominators once, and
  a column is reduced fraction-free (cross-multiplication plus content
  stripping), each time only against the stored column that shares its
  lead.
"""

from fractions import Fraction
from math import gcd

from .errors import SingularMatrix


def rref(rows):
    """Reduced row echelon form over Fraction.

    Takes an iterable of rows (sequences of Fraction-coercible values) and
    returns (basis_rows, pivot_cols) with pivot entries normalized to 1 and
    cleared above and below. Zero rows are dropped.
    """
    basis = []
    pivots = []
    for row in rows:
        row = [Fraction(x) for x in row]
        for piv, col in zip(basis, pivots):
            if row[col]:
                f = row[col]
                row = [a - f * b for a, b in zip(row, piv)]
        lead = next((j for j, a in enumerate(row) if a), None)
        if lead is None:
            continue
        inv = row[lead]
        row = [a / inv for a in row]
        for i, (piv, col) in enumerate(zip(basis, pivots)):
            if piv[lead]:
                f = piv[lead]
                basis[i] = [a - f * b for a, b in zip(piv, row)]
        basis.append(row)
        pivots.append(lead)
    order = sorted(range(len(basis)), key=lambda i: pivots[i])
    return [basis[i] for i in order], [pivots[i] for i in order]


def reduce_against(row, basis, pivots):
    """Reduce a Fraction row against an rref basis; returns the remainder."""
    row = list(row)
    for piv, col in zip(basis, pivots):
        if row[col]:
            f = row[col]
            row = [a - f * b for a, b in zip(row, piv)]
    return row


def _primitive(entries):
    """The sparse integer row divided by the gcd of its entries."""
    g = 0
    for a in entries.values():
        g = gcd(g, a)
        if g == 1:
            return entries
    if g > 1:
        return {c: v // g for c, v in entries.items()}
    return entries


class SparseRowSpace:
    """Incremental span held as an echelon of sparse primitive integer
    vectors, keyed by lead.

    Vectors come in as {key: int} dicts with orderable keys; the lead of a
    vector is its least key with a nonzero entry, and no two stored vectors
    share a lead. add() reduces a vector fraction-free (cross-multiplication
    plus content stripping) only while its lead is a stored one, found by
    dict lookup; every step removes the lead and brings in larger keys only,
    so the lead grows until the vector vanishes or lands on a free lead,
    under which it is stored. The filtration oracle feeds it monomial
    columns keyed by (tau order, coordinate key), and counts the stored
    leads per tau order.
    """

    def __init__(self):
        self.rows = {}      # lead -> primitive integer dict with that lead

    @property
    def rank(self):
        return len(self.rows)

    def add(self, row):
        """row: {key: int}. Returns True on rank increase."""
        work = _primitive({c: v for c, v in row.items() if v})
        while work:
            lead = min(work)
            piv = self.rows.get(lead)
            if piv is None:
                self.rows[lead] = work
                return True
            g = gcd(work[lead], piv[lead])
            a, b = piv[lead] // g, work[lead] // g
            merged = {c: a * v for c, v in work.items()}
            for c, v in piv.items():
                merged[c] = merged.get(c, 0) - b * v
            work = _primitive({c: v for c, v in merged.items() if v})
        return False


def invert(matrix):
    """Exact inverse of a square rational matrix via Gauss-Jordan.

    Raises SingularMatrix when no inverse exists. Only the tests' reference
    resolution.minus_inverse calls it. It stays because the benchmark's
    tracer (bench/spans.py) looks it up by name, until the benchmark is
    revised.
    """
    n = len(matrix)
    aug = [[Fraction(a) for a in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            raise SingularMatrix("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = aug[col][col]
        aug[col] = [a / inv for a in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]

