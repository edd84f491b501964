"""The scalar kernels skip the work a trivial operand makes unnecessary.

Most operands the resolution meets are trivial: the denominator of a
RatFunc is usually the constant one, and most field elements it divides by
or multiplies with are rational. One in-process pass of cli.build_analysis
over the corpus documents that `analyze` accepts checks that
- AlgNum.inverse of a rational element builds no matrix of
  multiplication (AmbientField.mul_matrix);
- Poly.__mul__ hands a product to its ring's kernel (the integer
  convolution AmbientField.convolve over a number field, the schoolbook
  loop ratfunc.schoolbook over the nested rings) only when both tails
  have two terms or more, and the number-field kernel runs;
- Poly.scale multiplies no zero coefficient, and the rescale of tau in
  resolution._tail_ok multiplies no zero coefficient and no coefficient
  by a power of the inverse of d, u's lowest coefficient, that is one.
Without the shortcuts the pass built 103 such matrices and ran the
convolution step 1243 times in such products, and 32 of the 58
polynomials the tail test rescaled were rescaled by a factor one. With
them, the pass builds 51 matrices (one for each of the 39 fields, one for
each of 12 irrational inverses; 2 more inverses are rational; 56 and 17
when the tail test formed its own inverse of d), makes
42 AmbientField.convolve calls and 5 ratfunc.schoolbook calls; without
the one-term shortcuts of Poly.__mul__ they would take 661 and 28 more
products. _tail_ok rescales tau in 5 of its 45 calls, with 50 products
in its own frame (81 when each of the four forms was rescaled in full
before any coefficient was tested): in the other 40 the lowest
coefficient of u already lies in the subfield. resolve asks it 45
times, not 49: once the test has held, a run does not ask again.

The ring and field checks of Poly, RatFunc, AlgNum, BranchParam and the
subfield helpers test identity before they compare two fields by their
minimal polynomials. Without that the same pass ran AmbientField.__eq__
2275 times, 2270 of them on a field and itself; with it, 5 times, each on
two different rings.
"""

import inspect
import sys

from artifact import cli, ratfunc, resolution
from artifact.exactfield import AlgNum, AmbientField
from artifact.ratfunc import Poly, RatFunc

from test_chart_states import WORKLOADS

CONVOLUTION_STEP = "out[i + j] = out[i + j] + a * b"


def corpus_docs():
    return [cli.parse_input(item["doc"])
            for item in WORKLOADS.generate("corpus", 1)
            if item["expect"]["analyze"] == 0]


def convolution_line():
    lines, first = inspect.getsourcelines(ratfunc.schoolbook)
    found = [first + k for k, line in enumerate(lines)
             if line.strip() == CONVOLUTION_STEP]
    assert len(found) == 1
    return found[0]


def test_corpus_pass_takes_the_shortcuts(monkeypatch):
    docs = corpus_docs()
    assert len(docs) == 39

    # mul_matrix calls, each marked by whether a rational inverse made it
    matrices = []
    inside_rational = [False]
    inverse = AlgNum.inverse
    mul_matrix = AmbientField.mul_matrix

    def traced_inverse(self):
        outer = inside_rational[0]
        inside_rational[0] = not any(self.num[1:])
        try:
            return inverse(self)
        finally:
            inside_rational[0] = outer

    def traced_mul_matrix(self, num):
        matrices.append(inside_rational[0])
        return mul_matrix(self, num)

    monkeypatch.setattr(AlgNum, "inverse", traced_inverse)
    monkeypatch.setattr(AmbientField, "mul_matrix", traced_mul_matrix)

    # each pass through the schoolbook convolution step and each call of
    # the number-field kernel, marked by whether an operand of that
    # product has a one-term tail
    steps = []
    code = ratfunc.schoolbook.__code__
    line = convolution_line()

    def in_mul(frame, event, _arg):
        if event == "line" and frame.f_lineno == line:
            degrees = len(frame.f_locals["x"]), len(frame.f_locals["y"])
            steps.append(min(degrees) == 1)
        return in_mul

    kernel_calls = []
    convolve = AmbientField.convolve

    def traced_convolve(self, x, y):
        kernel_calls.append(min(len(x), len(y)) == 1)
        return convolve(self, x, y)

    monkeypatch.setattr(AmbientField, "convolve", traced_convolve)

    def on_call(frame, _event, _arg):
        return in_mul if frame.f_code is code else None

    # each product made inside scale or in _tail_ok's own frame, marked by
    # whether its coefficient was zero; the power of the inverse of d that
    # each product of _tail_ok's rescale multiplies by, marked by whether
    # it was one; and the kinds of coefficient scaled or rescaled
    factors = []
    zero_products = []
    coefficients = set()
    tail_ok = resolution._tail_ok.__code__
    scaling = {Poly.scale.__code__, tail_ok}
    scale = Poly.scale

    def traced_scale(self, s):
        coefficients.update(type(c) for c in self.coeffs)
        return scale(self, s)

    def counted(mul):
        def product(self, other):
            caller = sys._getframe(1).f_code
            if caller in scaling:
                zero_products.append(not self)
            if caller is tail_ok:
                coefficients.add(type(self))
                factors.append(other == 1)
            return mul(self, other)
        return product

    monkeypatch.setattr(Poly, "scale", traced_scale)
    for cls in (AlgNum, RatFunc):
        monkeypatch.setattr(cls, "__mul__", counted(cls.__mul__))

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        for doc in docs:
            cli.build_analysis(doc)
    finally:
        sys.settrace(previous)

    # the field builds and the irrational inverses still take the matrix
    # route, and the products of two polynomials still convolve, over a
    # number field in its integer kernel
    assert matrices.count(False) >= 40
    assert steps.count(False) > 0
    assert kernel_calls.count(False) > 0
    assert matrices.count(True) == 0
    assert steps.count(True) == 0
    assert kernel_calls.count(True) == 0

    # both coefficient kinds are scaled, some factors are not one, and
    # some coefficients are multiplied, none of them zero
    assert coefficients == {AlgNum, RatFunc}
    assert factors.count(False) > 0 and zero_products.count(False) > 0
    assert factors.count(True) == 0
    assert zero_products.count(True) == 0


def test_corpus_pass_compares_no_field_with_itself(monkeypatch):
    docs = corpus_docs()
    calls = []
    eq = AmbientField.__eq__

    def traced_eq(self, other):
        calls.append(self is other)
        return eq(self, other)

    monkeypatch.setattr(AmbientField, "__eq__", traced_eq)
    for doc in docs:
        cli.build_analysis(doc)
    assert calls.count(True) == 0
    assert len(calls) < 20
