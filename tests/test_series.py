"""Series kernel tests: parsing, evaluation, and the GF(2) invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riordan_graphs import series
from riordan_graphs.series import (
    Add,
    Builtin,
    Div,
    Gf2Series,
    Lit,
    Mul,
    Pow,
    SeriesSyntaxError,
    Var,
    evaluate,
    mul_trunc,
    parity_part,
    parse,
    reciprocal,
    solve_fixed_point,
)
from riordan_graphs.series import _mul_bits, _square_bits


def integer_catalan_mod2(order):
    """Oracle: Catalan numbers by the integer convolution recurrence, mod 2."""
    cat = [1]
    for n in range(1, order):
        cat.append(sum(cat[i] * cat[n - 1 - i] for i in range(n)))
    return tuple(c % 2 for c in cat)


def integer_motzkin_mod2(order):
    """Oracle: Motzkin numbers by M_n = M_(n-1) + sum M_i M_(n-2-i), mod 2."""
    mot = [1]
    for n in range(1, order):
        val = mot[n - 1] + sum(mot[i] * mot[n - 2 - i] for i in range(n - 1))
        mot.append(val)
    return tuple(m % 2 for m in mot)


def catalan_by_p_recurrence(order):
    """Oracle: C_(n+1) = 2(2n+1) C_n / (n+2) in integers, then mod 2."""
    cat = [1]
    for n in range(order - 1):
        cat.append(2 * (2 * n + 1) * cat[n] // (n + 2))
    return tuple(c % 2 for c in cat)


def motzkin_by_p_recurrence(order):
    """Oracle: (n+2) M_n = (2n+1) M_(n-1) + 3(n-1) M_(n-2) in integers, mod 2."""
    mot = [1, 1][:order]
    for n in range(2, order):
        mot.append(((2 * n + 1) * mot[n - 1] + 3 * (n - 1) * mot[n - 2]) // (n + 2))
    return tuple(m % 2 for m in mot)


P_RECURRENCE_ORDERS = list(range(1, 301)) + [511, 512, 513, 1024, 2047, 2048]

series_strategy = st.builds(
    Gf2Series, st.integers(min_value=0, max_value=(1 << 40) - 1), st.integers(1, 40)
)


class TestParse:
    def test_geometric(self):
        assert parse("1/(1-z)") == Div(Lit(1), Add(Lit(1), Var()))

    def test_power_sum(self):
        assert parse("z+z^2+z^3") == Add(Add(Var(), Pow(Var(), 2)), Pow(Var(), 3))

    def test_unbalanced_paren_position(self):
        with pytest.raises(SeriesSyntaxError) as exc:
            parse("1/(1-z")
        assert exc.value.position == 6

    def test_unknown_builtin(self):
        with pytest.raises(SeriesSyntaxError, match="unknown builtin"):
            parse("1/(1-fib)")

    def test_builtin_and_whitespace(self):
        assert parse(" catalan * z ") == Mul(Builtin("catalan"), Var())

    def test_minus_is_plus(self):
        assert parse("1-z") == parse("1+z")

    def test_trailing_garbage(self):
        with pytest.raises(SeriesSyntaxError):
            parse("1+z)")

    def test_missing_exponent(self):
        with pytest.raises(SeriesSyntaxError):
            parse("z^")

    def test_equality_depends_on_the_node_type(self):
        # nodes with the same children but different operators differ, and
        # none is equal to the bare tuple of its children
        add, mul = Add(Var(), Lit(1)), Mul(Var(), Lit(1))
        assert add != mul and mul != add
        assert add != (Var(), Lit(1)) and mul != (Var(), Lit(1))
        assert add == Add(Var(), Lit(1)) and hash(add) == hash(Add(Var(), Lit(1)))
        assert repr(add) == "Add(left=Var(), right=Lit(value=1))"


class TestEvaluate:
    def test_geometric_all_ones(self):
        assert evaluate(parse("1/(1-z)"), 8).coeffs == (1,) * 8

    def test_z_over_one_minus_z_squared(self):
        # integer oracle: z/(1-z)^2 = sum n z^n
        expected = tuple(n % 2 for n in range(8))
        assert evaluate(parse("z/(1-z)^2"), 8).coeffs == expected

    def test_catalan_against_integer_recurrence(self):
        assert evaluate(parse("catalan"), 8).coeffs == integer_catalan_mod2(8)

    def test_literal_reduced_mod_2(self):
        assert evaluate(parse("2+3*z"), 3).coeffs == (0, 1, 0)

    def test_division_by_even_constant_term(self):
        with pytest.raises(ZeroDivisionError):
            evaluate(parse("1/z"), 4)

    def test_order_must_be_positive(self):
        with pytest.raises(ValueError):
            evaluate(parse("z"), 0)


class TestCoeffs:
    @pytest.mark.parametrize(
        "bits, order, expected",
        [
            (0, 0, ()),
            (5, 0, ()),  # bits at or above the order are dropped
            (0, 1, (0,)),
            (0, 7, (0,) * 7),
            (0b101, 6, (1, 0, 1, 0, 0, 0)),  # trailing zeros
            (0b11011, 3, (1, 1, 0)),
        ],
    )
    def test_edge_cases(self, bits, order, expected):
        assert Gf2Series(bits, order).coeffs == expected

    @given(bits=st.integers(min_value=0, max_value=(1 << 300) - 1), order=st.integers(0, 300))
    def test_matches_coeff(self, bits, order):
        a = Gf2Series(bits, order)
        assert a.coeffs == tuple(a.coeff(k) for k in range(order))


class TestMulTrunc:
    def test_frobenius_square(self):
        a = Gf2Series.from_coeffs((1, 1, 0, 0))
        assert mul_trunc(a, a, 4).coeffs == (1, 0, 1, 0)

    def test_geometric_squared_is_binomial_parity(self):
        geo = evaluate(parse("1/(1-z)"), 6)
        expected = tuple((n + 1) % 2 for n in range(6))
        assert mul_trunc(geo, geo, 6).coeffs == expected

    def test_multiplicative_identity(self):
        a = evaluate(parse("catalan"), 10)
        one = evaluate(parse("1"), 10)
        assert mul_trunc(a, one, 10) == a

    def test_order_exceeding_operand(self):
        a = Gf2Series.from_coeffs((1, 1))
        with pytest.raises(ValueError):
            mul_trunc(a, a, 3)


class TestReciprocal:
    def test_geometric(self):
        assert reciprocal(Gf2Series.from_coeffs((1, 1, 0, 0, 0)), 5).coeffs == (1,) * 5

    def test_one(self):
        assert reciprocal(Gf2Series.from_coeffs((1, 0, 0)), 3).coeffs == (1, 0, 0)

    def test_degree_two_roundtrip(self):
        a = evaluate(parse("1+z+z^2"), 8)
        inv = reciprocal(a, 8)
        assert inv.coeffs == (1, 1, 0, 1, 1, 0, 1, 1)
        assert mul_trunc(a, inv, 8).coeffs == (1,) + (0,) * 7

    def test_constant_term_zero(self):
        with pytest.raises(ZeroDivisionError):
            reciprocal(Gf2Series.from_coeffs((0, 1)), 2)


class TestParityPart:
    def test_all_ones(self):
        ones = Gf2Series.from_coeffs((1,) * 9)
        assert parity_part(ones, "odd").coeffs == (1,) * 4
        assert parity_part(ones, "even").coeffs == (1,) * 5

    def test_catalan_odd_part_is_catalan_prefix(self):
        cat = evaluate(parse("catalan"), 8)
        assert parity_part(cat, "odd").coeffs == (1, 1, 0, 1)
        assert parity_part(cat, "odd").coeffs == cat.coeffs[:4]

    def test_motzkin_odd_part_differs_from_prefix(self):
        mot = evaluate(parse("motzkin"), 8)
        odd = parity_part(mot, "odd").coeffs
        assert odd == (1, 0, 1, 1)
        assert odd != mot.coeffs[:4]

    def test_bad_parity(self):
        with pytest.raises(ValueError):
            parity_part(Gf2Series.from_coeffs((1,)), "mixed")


class TestFixedPoints:
    def test_catalan_order_9(self):
        assert solve_fixed_point("catalan", 9).coeffs == integer_catalan_mod2(9)

    def test_catalan_power_of_two_law(self):
        cat = solve_fixed_point("catalan", 64)
        for k in range(64):
            expected = 1 if (k + 1) & k == 0 else 0
            assert cat.coeff(k) == expected

    def test_motzkin_order_8(self):
        got = solve_fixed_point("motzkin", 8).coeffs
        assert got == (1, 1, 0, 0, 1, 1, 1, 1)
        assert got == integer_motzkin_mod2(8)

    def test_catalan_order_1(self):
        assert solve_fixed_point("catalan", 1).coeffs == (1,)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            solve_fixed_point("fibonacci", 4)

    @pytest.mark.parametrize(
        "name, oracle",
        [("catalan", catalan_by_p_recurrence), ("motzkin", motzkin_by_p_recurrence)],
    )
    def test_matches_integer_p_recurrence_at_scale(self, name, oracle):
        expected = oracle(max(P_RECURRENCE_ORDERS))
        for order in P_RECURRENCE_ORDERS:
            assert solve_fixed_point(name, order).coeffs == expected[:order], order

    def test_motzkin_passes_are_logarithmic(self, monkeypatch):
        step = series._BUILTIN_STEPS["motzkin"]
        calls = []

        def counted(bits, order):
            calls.append(order)
            return step(bits, order)

        monkeypatch.setitem(series._BUILTIN_STEPS, "motzkin", counted)
        assert solve_fixed_point("motzkin", 2048).coeffs == motzkin_by_p_recurrence(2048)
        # the correct prefix grows k -> 2k+2 per pass: 11 passes reach 2048
        assert len(calls) <= 12


class TestSympyOracle:
    def test_matches_integer_series_mod_2(self):
        """sympy's integer series of closed forms, reduced mod 2, against
        evaluate: reduction mod 2 is a ring map from Z[[z]] onto GF(2)[[z]]."""
        pytest.importorskip("sympy")
        from sympy import QQ
        from sympy.polys.ring_series import rs_mul, rs_nth_root, rs_series_inversion
        from sympy.polys.rings import ring

        _, x = ring("x", QQ)
        order = 200
        p = order + 2
        # each series as r / x^s: r to precision p, and the shift s
        closed_forms = {
            # (1 - sqrt(1 - 4z)) / 2z
            "catalan": ((1 - rs_nth_root(1 - 4 * x, 2, x, p)) / 2, 1),
            # (1 - z - sqrt(1 - 2z - 3z^2)) / 2z^2
            "motzkin": ((1 - x - rs_nth_root(1 - 2 * x - 3 * x**2, 2, x, p)) / 2, 2),
            "1/(1-z-z^2)": (rs_series_inversion(1 - x - x**2, x, p), 0),
            "(1+3*z-z^4)/(1-2*z-z^3)^2": (
                rs_mul(1 + 3 * x - x**4, rs_series_inversion((1 - 2 * x - x**3) ** 2, x, p), x, p),
                0,
            ),
        }
        for text, (r, shift) in closed_forms.items():
            coeffs = [r.coeff(x ** (k + shift)) for k in range(order)]
            assert all(c == int(c) for c in coeffs), text
            assert evaluate(parse(text), order).coeffs == tuple(int(c) % 2 for c in coeffs), text


@given(a=series_strategy, order=st.integers(1, 40))
def test_frobenius_property(a, order):
    order = min(order, a.order)
    sq = mul_trunc(a, a, order)
    for k in range(order):
        expected = a.coeff(k // 2) if k % 2 == 0 else 0
        assert sq.coeff(k) == expected


@given(
    a=st.integers(min_value=0, max_value=(1 << 320) - 1),
    order=st.one_of(st.integers(0, 3), st.integers(0, 300)),
)
def test_square_bits_is_the_general_product(a, order):
    # `a` may carry bits at and above `order`; both sides must drop them
    assert _square_bits(a, order) == _mul_bits(a, a, order)


@given(
    a=st.integers(min_value=0, max_value=(1 << 200) - 1),
    order=st.integers(0, 200),
    k=st.integers(0, 6),
)
def test_iterated_square_is_the_power_of_two(a, order, k):
    # the Frobenius step of graphs._riordan_columns: f^(2^k) = f(z^(2^k))
    squared = a & ((1 << order) - 1)
    for _ in range(k):
        squared = _square_bits(squared, order)
    power = _mul_bits(1, 1, order)
    for _ in range(1 << k):
        power = _mul_bits(power, a, order)
    assert squared == power


series_texts = st.sampled_from(
    ["z", "1+z", "1+z+z^3", "1/(1-z)", "catalan", "motzkin", "1+z*motzkin", "catalan+z^2"]
)


@settings(max_examples=40)
@given(
    base=series_texts,
    other=series_texts,
    exponent=st.integers(0, 70),
    order=st.integers(1, 300),
)
def test_pow_and_div_match_repeated_products(base, other, exponent, order):
    a = evaluate(parse(base), order)
    power = evaluate(parse("1"), order)
    for _ in range(exponent):
        power = mul_trunc(power, a, order)
    assert evaluate(parse(f"({base})^{exponent}"), order) == power

    den = evaluate(parse(f"1+z*({other})"), order)
    quotient = mul_trunc(a, reciprocal(den, order), order)
    assert evaluate(parse(f"({base})/(1+z*({other}))"), order) == quotient
    assert mul_trunc(quotient, den, order) == a


@given(a=series_strategy)
def test_reciprocal_roundtrip(a):
    unit = Gf2Series(a.bits | 1, a.order)
    inv = reciprocal(unit, unit.order)
    assert mul_trunc(unit, inv, unit.order).coeffs == (1,) + (0,) * (unit.order - 1)


@given(a=series_strategy)
def test_parity_parts_reconstruct(a):
    even = parity_part(a, "even")
    odd = parity_part(a, "odd")
    rebuilt = [0] * a.order
    for k, c in enumerate(even.coeffs):
        rebuilt[2 * k] = c
    for k, c in enumerate(odd.coeffs):
        rebuilt[2 * k + 1] = c
    assert tuple(rebuilt) == a.coeffs


@settings(max_examples=30)
@given(order=st.integers(1, 80))
def test_builtin_equations_hold(order):
    cat = solve_fixed_point("catalan", order)
    rhs = Gf2Series((mul_trunc(cat, cat, order).bits << 1) | 1, order)
    assert cat == rhs

    mot = solve_fixed_point("motzkin", order)
    sq = mul_trunc(mot, mot, order)
    rhs_bits = 1 ^ (mot.bits << 1) ^ (sq.bits << 2)
    assert mot == Gf2Series(rhs_bits, order)
