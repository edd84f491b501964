"""Exact linear algebra helpers for the filtration oracle.

The brute-force filtration oracle feeds vectors to SparseRowSpace, a
column echelon keyed by lead, or to the oracle's Q[x]-module variant of
it, which looks up its pivots and stores its vectors its own way. The
vectors hold integers only: the oracle builds each one as x or y times a
vector that add() returned, the last power of y or the last link of its
x-chain, with integer multiplication tables of the coordinate images. Its
keys are integers too: the oracle packs the tau order v, the c power a and
the field coordinate k of an entry into v*W + a*n + k, with W larger than
any a*n + k, so that comparing two keys is comparing their (v, a, k)
triples and no tuple is built or hashed. A vector is made primitive on
entry and reduced fraction-free (cross-multiplication plus content
stripping), each time only against the one vector pivot() gives for its
lead. The small dense echelons of number-field inverses and subfields use
the same idiom on integer rows, in exactfield. invert, a Fraction
Gauss-Jordan, serves only the tests' reference resolution.minus_inverse.
"""

from fractions import Fraction
from math import gcd

from .errors import SingularMatrix


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
    under which it is stored, and add() returns it. The filtration oracle
    feeds it vectors keyed by integers ordered as (tau order, c power,
    field coordinate), builds the next vector from the returned one, and
    counts the stored leads per tau order. A subclass that overrides
    pivot() and store() keeps this one reduction step: the oracle's
    Q[x]-module echelon forms its pivot from the stored vector of the
    lead's class and stores one vector per class.
    """

    def __init__(self):
        self.rows = {}      # lead -> primitive integer dict with that lead

    def pivot(self, lead):
        """The vector to reduce a vector with this lead against, with the
        same lead, or None when the lead is free."""
        return self.rows.get(lead)

    def store(self, lead, work):
        """Stores work, whose lead has no pivot."""
        self.rows[lead] = work

    def add(self, row):
        """row: {key: int}. On rank increase, returns the reduced vector
        it stored (truthy), which no later add() changes; returns {} when
        the row lies in the span."""
        work = _primitive({c: v for c, v in row.items() if v})
        while work:
            lead = min(work)
            piv = self.pivot(lead)
            if piv is None:
                self.store(lead, work)
                return work
            g = gcd(work[lead], piv[lead])
            a, b = piv[lead] // g, work[lead] // g
            merged = {c: a * v for c, v in work.items()}
            for c, v in piv.items():
                merged[c] = merged.get(c, 0) - b * v
            work = _primitive({c: v for c, v in merged.items() if v})
        return work


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

