"""Truncated formal power series over GF(2), plus the expression language.

A series is stored as a Python int whose bit k is the coefficient of z^k,
together with a truncation order N: coefficients 0..N-1 are exact and
everything above is unknown.  All arithmetic is carryless (mod 2).  Squares
use the Frobenius identity a(z)^2 = a(z^2): the bits of `a` are spread
apart, in linear time, with no general product.  Series with integer
coefficients live in `formulas`, not here.
"""

from __future__ import annotations


class SeriesSyntaxError(ValueError):
    """Malformed series expression; `position` is the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


def _mask(order: int) -> int:
    return (1 << order) - 1


def _mul_bits(a: int, b: int, order: int) -> int:
    """Carryless product of two coefficient masks, truncated to `order` bits."""
    m = _mask(order)
    a &= m
    b &= m
    acc = 0
    while a:
        low = a & -a
        acc ^= b << (low.bit_length() - 1)
        a ^= low
    return acc & m


def _square_bits(a: int, order: int) -> int:
    """Square truncated to `order` bits: over GF(2), a(z)^2 = a(z^2), so bit k
    moves to bit 2k and only the low ceil(order/2) bits of `a` survive."""
    return int("0".join(format(a & _mask((order + 1) // 2), "b")), 2)


class Gf2Series:
    """A power series over GF(2) whose first `order` coefficients are exact."""

    __slots__ = ("bits", "order")

    def __init__(self, bits: int, order: int):
        if order < 0:
            raise ValueError("order must be nonnegative")
        self.bits = bits & _mask(order)
        self.order = order

    @classmethod
    def from_coeffs(cls, coeffs) -> Gf2Series:
        bits = 0
        n = 0
        for k, c in enumerate(coeffs):
            if c & 1:
                bits |= 1 << k
            n = k + 1
        return cls(bits, n)

    @property
    def coeffs(self) -> tuple[int, ...]:
        # byte k of the reversed binary string is coefficient k; order 0 formats one "0"
        bits = format(self.bits, f"0{self.order}b")[::-1][: self.order]
        return tuple(bits.encode().translate(bytes.maketrans(b"01", b"\0\1")))

    def coeff(self, k: int) -> int:
        if not 0 <= k < self.order:
            raise IndexError(f"coefficient {k} outside truncation order {self.order}")
        return (self.bits >> k) & 1

    def truncate(self, order: int) -> Gf2Series:
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        return Gf2Series(self.bits, order)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Gf2Series)
            and self.order == other.order
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.bits, self.order))

    def __repr__(self) -> str:
        return f"Gf2Series({','.join(map(str, self.coeffs))})"


def mul_trunc(a: Gf2Series, b: Gf2Series, order: int) -> Gf2Series:
    """Product truncated to `order` coefficients; operands must know that many."""
    if order < 1:
        raise ValueError("order must be positive")
    if a.order < order or b.order < order:
        raise ValueError(
            f"order {order} exceeds an operand's order ({a.order}, {b.order})"
        )
    return Gf2Series(_mul_bits(a.bits, b.bits, order), order)


def reciprocal(a: Gf2Series, order: int) -> Gf2Series:
    """Multiplicative inverse to `order` coefficients, by Newton doubling.

    In characteristic 2 the Newton step is r <- a*r^2: if a*r = 1 + e with
    e = 0 mod z^m then a*(a*r^2) = (1+e)^2 = 1 + e^2 = 1 mod z^2m.
    """
    if order < 1:
        raise ValueError("order must be positive")
    if a.order < order:
        raise ValueError(f"order {order} exceeds operand's order {a.order}")
    if not a.bits & 1:
        raise ZeroDivisionError("series with constant term 0 has no reciprocal")
    r = 1
    m = 1
    while m < order:
        m = min(2 * m, order)
        r = _mul_bits(a.bits, _square_bits(r, m), m)
    return Gf2Series(r, order)


def parity_part(a: Gf2Series, parity: str) -> Gf2Series:
    """Subsequence of odd- or even-indexed coefficients.

    odd  -> result_k = a_{2k+1}, carrying floor(order/2) coefficients;
    even -> result_k = a_{2k},   carrying ceil(order/2) coefficients.
    Over GF(2) these are what differentiating a series (with or without a
    leading z factor) and substituting sqrt(z) boils down to, since the
    derivative kills every even-index term; the block-decomposition code
    is built on that reading.
    """
    if a.order < 1:
        raise ValueError("series must carry at least one coefficient")
    if parity == "odd":
        start = 1
    elif parity == "even":
        start = 0
    else:
        raise ValueError(f"parity must be 'odd' or 'even', got {parity!r}")
    # coefficient k is character k of the reversed, zero-padded binary string
    picked = format(a.bits, f"0{a.order}b")[::-1][start::2]
    return Gf2Series(int(picked[::-1], 2) if picked else 0, len(picked))


def shift_up(a: Gf2Series) -> Gf2Series:
    """Multiply by z; the new constant coefficient is exactly 0."""
    return Gf2Series(a.bits << 1, a.order + 1)


def shift_down(a: Gf2Series) -> Gf2Series:
    """Divide by z; requires zero constant term."""
    if a.bits & 1:
        raise ValueError("cannot divide by z: constant term is 1")
    if a.order < 1:
        raise ValueError("series must carry at least one coefficient")
    return Gf2Series(a.bits >> 1, a.order - 1)


# --- builtin algebraic series, realized as fixed points mod 2 ---

def _catalan_step(bits: int, order: int) -> int:
    # g = 1 + z*g^2
    return 1 ^ (_square_bits(bits, order - 1) << 1)


def _motzkin_step(bits: int, order: int) -> int:
    # m = 1 + z*m + z^2*m^2, restated as (1+z)*m = 1 + z^2*m^2 so that m on
    # the right enters only squared; dividing by 1+z is a prefix XOR
    bits = 1 ^ (_square_bits(bits, order - 2) << 2)
    s = 1
    while s < order:
        bits ^= bits << s
        s <<= 1
    return bits & _mask(order)


_BUILTIN_STEPS = {"catalan": _catalan_step, "motzkin": _motzkin_step}


def solve_fixed_point(name: str, order: int) -> Gf2Series:
    """Coefficients of a builtin series from its defining equation mod 2.

    Iterates s <- Phi(s) from s = 1.  Both equations are written so that s
    enters Phi only squared and shifted: if s is right mod z^k, Phi(s) is
    right mod z^(2k+1) (Catalan) or z^(2k+2) (Motzkin), so each pass at
    least doubles the correct prefix and O(log order) passes suffice.  The
    cap of order+1 passes, one per coefficient, is only a guard.
    """
    if order < 1:
        raise ValueError("order must be positive")
    try:
        step = _BUILTIN_STEPS[name]
    except KeyError:
        raise ValueError(f"unknown builtin series {name!r}") from None
    m = _mask(order)
    s = 1
    for _ in range(order + 1):
        nxt = step(s, order) & m
        if nxt == s:
            return Gf2Series(s, order)
        s = nxt
    raise ArithmeticError(
        f"fixed point for {name!r} did not converge within {order + 1} passes"
    )


# --- expression AST ---

class SeriesExpr:
    """Base class for parsed series expressions.  A node is its type and the
    values of its slots, given by position: two nodes are equal when both
    match, so Add(a, b) != Mul(a, b), and neither equals the tuple (a, b)."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            setattr(self, name, value)

    def _key(self) -> tuple:
        return (type(self), *map(self.__getattribute__, self.__slots__))

    def __eq__(self, other) -> bool:
        return isinstance(other, SeriesExpr) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = (f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({', '.join(fields)})"


class Lit(SeriesExpr):
    __slots__ = ("value",)  # int


class Var(SeriesExpr):
    """The formal variable z."""

    __slots__ = ()


class Add(SeriesExpr):
    __slots__ = ("left", "right")


class Mul(SeriesExpr):
    __slots__ = ("left", "right")


class Div(SeriesExpr):
    __slots__ = ("num", "den")


class Pow(SeriesExpr):
    __slots__ = ("base", "exponent")  # SeriesExpr, int


class Builtin(SeriesExpr):
    __slots__ = ("name",)  # a key of _BUILTIN_STEPS


class _Parser:
    """Recursive descent over:

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ('^' uint)?
    atom   := uint | 'z' | builtin-name | '(' expr ')'

    '-' is parsed as '+' (characteristic 2), so paper-style inputs like
    1-z work unchanged.
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def parse(self) -> SeriesExpr:
        node = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            raise SeriesSyntaxError(
                f"unexpected character {self.text[self.pos]!r}", self.pos
            )
        return node

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expr(self) -> SeriesExpr:
        node = self.term()
        while self.peek() in ("+", "-"):
            self.pos += 1
            node = Add(node, self.term())
        return node

    def term(self) -> SeriesExpr:
        node = self.factor()
        while self.peek() in ("*", "/"):
            op = self.text[self.pos]
            self.pos += 1
            rhs = self.factor()
            node = Mul(node, rhs) if op == "*" else Div(node, rhs)
        return node

    def factor(self) -> SeriesExpr:
        node = self.atom()
        if self.peek() == "^":
            self.pos += 1
            node = Pow(node, self.uint())
        return node

    def atom(self) -> SeriesExpr:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            node = self.expr()
            if self.peek() != ")":
                raise SeriesSyntaxError("expected ')'", self.pos)
            self.pos += 1
            return node
        if ch.isdigit():
            return Lit(self.uint())
        if ch.isalpha():
            start = self.pos
            while self.pos < len(self.text) and (
                self.text[self.pos].isalnum() or self.text[self.pos] == "_"
            ):
                self.pos += 1
            name = self.text[start : self.pos]
            if name == "z":
                return Var()
            if name in _BUILTIN_STEPS:
                return Builtin(name)
            raise SeriesSyntaxError(f"unknown builtin name {name!r}", start)
        raise SeriesSyntaxError("expected a number, 'z', a name, or '('", self.pos)

    def uint(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            raise SeriesSyntaxError("expected an unsigned integer", self.pos)
        return int(self.text[start : self.pos])


def parse(text: str) -> SeriesExpr:
    """Parse a series expression into an AST."""
    try:
        return _Parser(text).parse()
    except RecursionError:
        raise ValueError("series expression nested too deeply") from None


def _eval_bits(expr: SeriesExpr, order: int) -> int:
    if isinstance(expr, Lit):
        return expr.value & 1
    if isinstance(expr, Var):
        return 2 & _mask(order)
    if isinstance(expr, Add):
        # a sum parses left-deep, so its left spine is folded in one loop
        bits = 0
        while isinstance(expr, Add):
            bits ^= _eval_bits(expr.right, order)
            expr = expr.left
        return bits ^ _eval_bits(expr, order)
    if isinstance(expr, Mul):
        return _mul_bits(_eval_bits(expr.left, order), _eval_bits(expr.right, order), order)
    if isinstance(expr, Div):
        den = Gf2Series(_eval_bits(expr.den, order), order)
        inv = reciprocal(den, order)
        return _mul_bits(_eval_bits(expr.num, order), inv.bits, order)
    if isinstance(expr, Pow):
        if expr.exponent < 0:
            raise ValueError(f"negative power {expr.exponent}")
        result = 1
        base = _eval_bits(expr.base, order)
        e = expr.exponent
        while e:
            if e & 1:
                result = _mul_bits(result, base, order)
            base = _square_bits(base, order)
            e >>= 1
        return result
    if isinstance(expr, Builtin):
        return solve_fixed_point(expr.name, order).bits
    raise TypeError(f"not a series expression: {expr!r}")


def evaluate(expr: SeriesExpr, order: int) -> Gf2Series:
    """Exact mod-2 coefficients 0..order-1 of the expression's series."""
    if order < 1:
        raise ValueError("order must be positive")
    try:
        return Gf2Series(_eval_bits(expr, order), order)
    except RecursionError:
        raise ValueError("series expression nested too deeply") from None
