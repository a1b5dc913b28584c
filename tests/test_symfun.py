import itertools
import math
import random

import pytest

from helpers import (
    esym,
    grid_products,
    pk_assignment,
    power_sum,
    reference_pij,
    reference_pk,
    reference_pk_cauchy,
    reference_psi,
    reference_psi_girard_waring,
    reference_sum_alphabet,
    subset_products,
)
from lambdaops.errors import LambdaOpsError, NonSymmetricInput
from lambdaops.intpoly import IntPoly
from lambdaops.symfun import (
    _newton_step,
    elementary_expand,
    lambda_of_integer,
    left_linearise,
    newton_psi,
    product_alphabet,
    sum_alphabet,
    universal_pij,
    universal_pk,
)

X1, X2, X3 = (IntPoly.var("x", i) for i in (1, 2, 3))
E1, E2 = (IntPoly.var("e", i) for i in (1, 2))


# -- elementary_expand -------------------------------------------------------


def test_expand_examples():
    assert elementary_expand(X1 + X2) == E1
    assert elementary_expand(X1 * X1 + X2 * X2) == E1 * E1 - 2 * E2
    assert elementary_expand(X1 * X2) == E2


def test_expand_rejects_nonsymmetric():
    with pytest.raises(NonSymmetricInput):
        elementary_expand(X1 + 2 * X2)
    with pytest.raises(NonSymmetricInput):
        elementary_expand(X1 * X1 + X2, m=2)


def test_expand_rejects_index_above_m():
    with pytest.raises(ValueError, match="x2 lies above m = 1"):
        elementary_expand(X1 + X2, "x", m=1)
    with pytest.raises(ValueError, match="x3 lies above m = 2"):
        elementary_expand(X1 * X2 * X3, m=2)
    assert elementary_expand(X1 + X2 + X3, m=3) == E1
    with pytest.raises(NonSymmetricInput):
        elementary_expand(X1 + X2, m=3)


def test_newton_step_rejects_inexact_division():
    # power sums that no alphabet has: e_2 = (L1^2 - L1) / 2
    with pytest.raises(LambdaOpsError) as err:
        _newton_step(2, lambda n: IntPoly.var("L", 1), lambda n: IntPoly.var("L", 1))
    assert str(err.value) == (
        "Newton step 2: coefficient 1 of (('L', 1, 2),) is not divisible by 2")


def test_expand_roundtrip_randomized():
    rng = random.Random(5)
    for m in (2, 3):
        for _ in range(8):
            # symmetrise a random polynomial, expand, then compare on values
            import itertools

            p = IntPoly.zero()
            for _ in range(3):
                mono = IntPoly.const(rng.randint(-3, 3))
                for i in range(1, m + 1):
                    mono = mono * IntPoly.var("x", i, rng.randint(0, 2))
                p = p + mono
            sym = IntPoly.zero()
            for perm in itertools.permutations(range(1, m + 1)):
                sym = sym + p.substitute(
                    {("x", i): IntPoly.var("x", perm[i - 1]) for i in range(1, m + 1)}
                )
            expanded = elementary_expand(sym, m=m)
            vals = [rng.randint(-4, 4) for _ in range(m)]
            lhs = sym.evaluate({("x", i): vals[i - 1] for i in range(1, m + 1)})
            rhs = expanded.evaluate({("e", i): esym(vals, i) for i in range(1, m + 1)})
            assert lhs == rhs


# -- universal product polynomials -------------------------------------------


def test_pk_goldens():
    assert universal_pk(1) == IntPoly.var("x", 1) * IntPoly.var("y", 1)
    x1, x2 = IntPoly.var("x", 1), IntPoly.var("x", 2)
    y1, y2 = IntPoly.var("y", 1), IntPoly.var("y", 2)
    assert universal_pk(2) == x1 * x1 * y2 + x2 * y1 * y1 - 2 * x2 * y2


def test_pk_one_line_collapse():
    # substituting x1 = 1, higher x_i = 0 represents a trivial line factor
    for k in (1, 2, 3, 4):
        images = {("x", 1): IntPoly.const(1)}
        images.update({("x", i): IntPoly.zero() for i in range(2, k + 1)})
        assert universal_pk(k).substitute(images) == IntPoly.var("y", k)


def test_pk_splitting_oracle():
    rng = random.Random(11)
    for k in (2, 3, 4):
        for _ in range(10):
            a = [rng.randint(-4, 4) for _ in range(k)]
            b = [rng.randint(-4, 4) for _ in range(k)]
            lhs = universal_pk(k).evaluate(pk_assignment(a, b, k))
            assert lhs == esym(grid_products(a, b), k)


def test_pij_goldens():
    assert universal_pij(1, 5) == IntPoly.var("L", 5)
    assert universal_pij(4, 1) == IntPoly.var("L", 4)
    expected = IntPoly.var("L", 1) * IntPoly.var("L", 3) - IntPoly.var("L", 4)
    assert universal_pij(2, 2) == expected


def test_pij_with_a_unit_index_matches_the_recursion():
    # P_{i,1} = L_i and P_{1,j} = L_j are returned directly
    for i in range(1, 13):
        for i_, j_ in ((i, 1), (1, i)):
            recursion = reference_pij(i_, j_)
            assert universal_pij(i_, j_) == recursion == IntPoly.var("L", i), (i_, j_)


def test_newton_steps_match_the_reference_recursions():
    # each alphabet's cached Newton step against the recursions that rebuilt
    # the whole sequence on every call
    for k in range(1, 13):
        assert universal_pk(k) == reference_pk(k), k
    for i in range(1, 17):
        for j in range(1, 16 // i + 1):
            assert universal_pij(i, j) == reference_pij(i, j), (i, j)
    for k in range(1, 41):
        assert newton_psi(k) == reference_psi(k), k


def test_newton_psi_matches_girard_waring():
    # one term per partition of n, no Newton step shared with newton_psi
    for n in [*range(1, 31), 37, 40]:
        assert newton_psi(n) == reference_psi_girard_waring(n), n


def test_universal_pk_matches_dual_cauchy():
    # e_k(ab) = sum over lambda of k of s_lambda(a) s_lambda'(b), each Schur
    # function by the dual Jacobi-Trudi determinant: no division anywhere
    for k in range(1, 13):
        assert universal_pk(k) == reference_pk_cauchy(k), k


@pytest.mark.parametrize("families", [("T1",), ("T1", "T2"), ("M", "T3"), ("T1", "T2", "T3"),
                                      ("U", "V", "T2", "T3")])
def test_sum_alphabet_is_the_sum_over_compositions(families):
    for k in range(0, 9):
        assert sum_alphabet(k, families) == reference_sum_alphabet(k, families), (k, families)


def test_sum_alphabet_needs_a_family():
    with pytest.raises(ValueError):
        sum_alphabet(3, ())


def test_pij_splitting_oracle():
    rng = random.Random(13)
    for i, j in ((2, 2), (2, 3), (3, 2), (2, 4)):
        n = i * j
        for _ in range(6):
            lines = [rng.randint(-3, 3) for _ in range(n)]
            assign = {("L", m): esym(lines, m) for m in range(1, n + 1)}
            lhs = universal_pij(i, j).evaluate(assign)
            assert lhs == esym(subset_products(lines, j), i)


def _esym_of(items, k):
    """e_k of the given polynomials, from the series prod (1 + item * t)."""
    series = [IntPoly.one()] + [IntPoly.zero()] * k
    for item in items:
        for t in range(k, 0, -1):
            series[t] = series[t] + series[t - 1] * item
    return series[k]


def test_universal_polynomials_match_symbolic_expansion():
    # independent oracle: expand over formal line variables A_r (and B_s)
    A = [IntPoly.var("A", r) for r in range(1, 10)]
    B = [IntPoly.var("B", s) for s in range(1, 6)]
    for k in range(1, 6):
        grid = _esym_of([a * b for a in A[:k] for b in B[:k]], k)
        in_x = elementary_expand(grid, family="A", m=k, target="x")
        assert elementary_expand(in_x, family="B", m=k, target="y") == universal_pk(k)
    for i in range(1, 9):
        for j in range(1, 8 // i + 1):
            subsets = itertools.combinations(A[: i * j], j)
            products = [math.prod(subset, start=IntPoly.one()) for subset in subsets]
            expected = elementary_expand(_esym_of(products, i), family="A", m=i * j, target="L")
            assert expected == universal_pij(i, j), (i, j)


# -- left linearisation --------------------------------------------------------


def test_left_linearise_examples():
    assert left_linearise(universal_pk(1)) == universal_pk(1)
    x2 = IntPoly.var("x", 2)
    y1, y2 = IntPoly.var("y", 1), IntPoly.var("y", 2)
    assert left_linearise(universal_pk(2)) == x2 * y1 * y1 - 2 * x2 * y2
    p = IntPoly.var("x", 1) * IntPoly.var("x", 2) * y1 + y2
    assert left_linearise(p).is_zero


# -- Newton power sums -----------------------------------------------------------


def test_newton_psi_goldens():
    L1, L2, L3 = (IntPoly.var("L", i) for i in (1, 2, 3))
    assert newton_psi(1) == L1
    assert newton_psi(2) == L1 * L1 - 2 * L2
    assert newton_psi(3) == L1**3 - 3 * L1 * L2 + 3 * L3


def test_newton_psi_against_expansion_oracle():
    # the power sum expanded by leading-term subtraction must agree
    for k in (2, 3, 4):
        power = IntPoly.zero()
        for i in range(1, k + 1):
            power = power + IntPoly.var("x", i, k)
        expanded = elementary_expand(power, m=k).rename_family("e", "L")
        assert expanded == newton_psi(k)


def test_newton_psi_additive_via_splitting():
    rng = random.Random(17)
    for k in (2, 3, 4):
        for _ in range(8):
            a = [rng.randint(-4, 4) for _ in range(3)]
            b = [rng.randint(-4, 4) for _ in range(3)]
            assign = {("L", m): esym(a + b, m) for m in range(1, k + 1)}
            lhs = newton_psi(k).evaluate(assign)
            assert lhs == power_sum(a, k) + power_sum(b, k)


# -- integer lambda values ---------------------------------------------------------


def test_lambda_of_integer_examples():
    assert lambda_of_integer(5, 0) == 1
    assert all(lambda_of_integer(-1, k) == (-1) ** k for k in range(8))
    assert lambda_of_integer(3, 2) == 3


def test_lambda_of_integer_pascal_negative():
    for n in range(1, 9):
        for i in range(1, 9):
            lhs = lambda_of_integer(-n, i) + lambda_of_integer(-n, i - 1)
            assert lhs == lambda_of_integer(-n + 1, i)


def test_lambda_of_integer_generating_series():
    # product over vals of (1+t)^v matches binomial coefficients of the sum
    rng = random.Random(23)
    for _ in range(10):
        n = rng.randint(-6, 6)
        for k in range(5):
            direct = lambda_of_integer(n, k)
            conv = sum(
                lambda_of_integer(n - 1, i) * lambda_of_integer(1, k - i)
                for i in range(k + 1)
            )
            assert direct == conv


def test_universal_pk_is_the_product_alphabet_of_x_and_y():
    for k in range(1, 8):
        assert universal_pk(k) is product_alphabet(k, ("x", "y")), k
