"""Small closed-form expression trees over chart coordinates.

Every component function in this package (contact forms, metrics, almost
complex structures, anything produced by an exterior derivative or a Lie
derivative) is one of these trees.  The node set is deliberately tiny:
constants, coordinates, the four arithmetic operations, powers with a
constant exponent, exp, sin, cos and sqrt.  Trees support

  * exact symbolic partial differentiation (``diff``), which is how the
    symbolic first-order operators (d, Lie derivative, bracket,
    Nijenhuis) produce new component functions.  Each node caches its
    partials, so a subtree shared by many parents is differentiated once
    and its derivative is shared by identity as well;
  * substitution of expressions for the coordinates (``subs``), one
    rebuild per shared node within a call;
  * numeric evaluation by one evaluator, :func:`evaluate`, which walks the
    union of a set of roots once, iteratively, visiting each shared node
    once.  It propagates only the Taylor order its caller consumes:
    order 0 gives plain value arrays, order 1 first-order jets
    (:class:`metsymp.jets.Jet1`, value and gradient) and order 2
    second-order jets (:class:`metsymp.jets.Jet2`).  Order-0 values
    repeat the value part of the jet arithmetic operation for operation,
    and a Jet1 repeats the value and gradient parts of a Jet2, so values
    agree bit for bit at every order and gradients at orders 1 and 2.

Trees are immutable.  The constructors fold constants and prune additive
and multiplicative identities, so an operation has at most one constant
operand and a structurally zero component is the leaf ``ZERO``.  Every node
also carries its ``support``, the bitmask of the coordinates its tree
reads (bit k for coordinate k), set as it is built: a partial along a
coordinate outside the support is structurally zero, which is what the
numeric first-order operators read to drop the terms the symbolic ones
never build.

Every symbolic contraction (Lie derivative, bracket, interior product,
index raising, Nijenhuis tensor, Pfaffian and cofactor expansions) is a
signed sum of two-factor products built by :func:`sum_of_products`.  It
skips a term with a structurally zero factor before building anything for
it, not even the other factor when that is a partial derivative still to
be taken.  The sum it builds is the tree of the plain loop
``total = total +- x * y`` (``ZERO + p`` is ``p``, ``ZERO - p`` is ``-p``),
so trees and values are unchanged, up to the sign of a zero.

Constants evaluate as plain floats at every order: no array or jet is made
for a ``Const`` leaf, and an operation with one constant operand is a
scalar operation on the other (``c * J`` scales a jet, it is not a full jet
product).  A float is broadcast to the batch only where a result needs the
batch's shape: at a root that is a constant, and at an operation whose
operands are all constants, which only a hand-built node can have.  Values
are bit for bit those of evaluating constants as full arrays and jets;
derivatives are too, except for the sign of a zero and, where a value is
already non-finite, the ``0 * NaN`` terms of a zero gradient.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import Sequence

import numpy as np

from .jets import coordinate_jets

__all__ = [
    "Expr",
    "Const",
    "Coord",
    "as_expr",
    "evaluate",
    "substitute",
    "sum_of_products",
    "parse_expression",
    "ExpressionSyntaxError",
    "ZERO",
    "ONE",
]


class Expr:
    """Base class for expression nodes."""

    __slots__ = ()

    def diff(self, i: int) -> "Expr":
        raise NotImplementedError

    def subs(self, replacements: Sequence["Expr"]) -> "Expr":
        """Substitute ``replacements[k]`` for coordinate ``k``."""
        return substitute([self], replacements)[0]

    # Operator sugar.  All algebra goes through the simplifying helpers.

    def __add__(self, other):
        return _add(self, as_expr(other))

    def __radd__(self, other):
        return _add(as_expr(other), self)

    def __sub__(self, other):
        return _sub(self, as_expr(other))

    def __rsub__(self, other):
        return _sub(as_expr(other), self)

    def __mul__(self, other):
        return _mul(self, as_expr(other))

    def __rmul__(self, other):
        return _mul(as_expr(other), self)

    def __truediv__(self, other):
        return _div(self, as_expr(other))

    def __rtruediv__(self, other):
        return _div(as_expr(other), self)

    def __neg__(self):
        return _neg(self)

    def __pow__(self, exponent):
        if isinstance(exponent, Const):
            exponent = exponent.value
        if not isinstance(exponent, (int, float)):
            raise TypeError("exponent must be a number")
        return _pow(self, float(exponent))

    def is_zero(self) -> bool:
        return isinstance(self, Const) and self.value == 0.0


class Const(Expr):
    __slots__ = ("value",)
    support = 0

    def __init__(self, value: float):
        self.value = float(value)

    def diff(self, i):
        return ZERO

    def __repr__(self):
        return repr(self.value)


class Coord(Expr):
    __slots__ = ("index", "name", "support")

    def __init__(self, index: int, name: str = ""):
        self.index = index
        self.name = name or f"x{index}"
        self.support = 1 << index

    def diff(self, i):
        return ONE if i == self.index else ZERO

    def __repr__(self):
        return self.name


# shared by every node that has not been differentiated yet
_NO_DIFFS = MappingProxyType({})


class _Operation(Expr):
    """A node with operands.  ``_diffs`` maps a coordinate slot to the
    cached partial derivative; ``_diff`` is the node's differentiation
    rule, which reads its operands' partials from their caches."""

    __slots__ = ("_diffs", "support")

    def diff(self, i):
        hit = self._diffs.get(i)
        return _differentiate(self, i) if hit is None else hit

    def _diff(self, i: int) -> Expr:
        raise NotImplementedError


class _Unary(_Operation):
    __slots__ = ("a",)

    def __init__(self, a: Expr):
        self.a = a
        self._diffs = _NO_DIFFS
        self.support = a.support


class _Binary(_Operation):
    __slots__ = ("a", "b")

    def __init__(self, a: Expr, b: Expr):
        self.a = a
        self.b = b
        self._diffs = _NO_DIFFS
        self.support = a.support | b.support


class Add(_Binary):
    __slots__ = ()

    def _diff(self, i):
        return _add(self.a.diff(i), self.b.diff(i))

    def __repr__(self):
        return f"({self.a!r} + {self.b!r})"


class Sub(_Binary):
    __slots__ = ()

    def _diff(self, i):
        return _sub(self.a.diff(i), self.b.diff(i))

    def __repr__(self):
        return f"({self.a!r} - {self.b!r})"


class Mul(_Binary):
    __slots__ = ()

    def _diff(self, i):
        return _add(_mul(self.a.diff(i), self.b), _mul(self.a, self.b.diff(i)))

    def __repr__(self):
        return f"({self.a!r} * {self.b!r})"


class Div(_Binary):
    __slots__ = ()

    def _diff(self, i):
        num = _sub(_mul(self.a.diff(i), self.b), _mul(self.a, self.b.diff(i)))
        return _div(num, _mul(self.b, self.b))

    def __repr__(self):
        return f"({self.a!r} / {self.b!r})"


class Neg(_Unary):
    __slots__ = ()

    def _diff(self, i):
        return _neg(self.a.diff(i))

    def __repr__(self):
        return f"(-{self.a!r})"


class Pow(_Unary):
    __slots__ = ("exponent",)

    def __init__(self, a: Expr, exponent: float):
        super().__init__(a)
        self.exponent = float(exponent)

    def _diff(self, i):
        n = self.exponent
        return _mul(_mul(Const(n), _pow(self.a, n - 1.0)), self.a.diff(i))

    def __repr__(self):
        return f"({self.a!r} ^ {self.exponent})"


class Exp(_Unary):
    __slots__ = ()

    def _diff(self, i):
        return _mul(self, self.a.diff(i))

    def __repr__(self):
        return f"exp({self.a!r})"


class Sin(_Unary):
    __slots__ = ()

    def _diff(self, i):
        return _mul(cos(self.a), self.a.diff(i))

    def __repr__(self):
        return f"sin({self.a!r})"


class Cos(_Unary):
    __slots__ = ()

    def _diff(self, i):
        return _neg(_mul(sin(self.a), self.a.diff(i)))

    def __repr__(self):
        return f"cos({self.a!r})"


class Sqrt(_Unary):
    __slots__ = ()

    def _diff(self, i):
        return _div(self.a.diff(i), _mul(Const(2.0), self))

    def __repr__(self):
        return f"sqrt({self.a!r})"


ZERO = Const(0.0)
ONE = Const(1.0)


def as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, float)):
        return Const(float(x))
    raise TypeError(f"cannot interpret {x!r} as an expression")


def _add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    return Add(a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    if b.is_zero():
        return a
    if a.is_zero():
        return _neg(b)
    return Sub(a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    if a.is_zero() or b.is_zero():
        return ZERO
    if isinstance(a, Const) and a.value == 1.0:
        return b
    if isinstance(b, Const) and b.value == 1.0:
        return a
    return Mul(a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if b.is_zero():
        raise ZeroDivisionError("division by the zero expression")
    if a.is_zero():
        return ZERO
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value / b.value)
    if isinstance(b, Const) and b.value == 1.0:
        return a
    return Div(a, b)


def _neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.a
    return Neg(a)


def _pow(a: Expr, n: float) -> Expr:
    if n == 0.0:
        return ONE
    if n == 1.0:
        return a
    if isinstance(a, Const):
        return Const(math.pow(a.value, n))  # raises where ** would give a complex
    return Pow(a, n)


def exp(a) -> Expr:
    a = as_expr(a)
    if isinstance(a, Const):
        return Const(math.exp(a.value))
    return Exp(a)


def sin(a) -> Expr:
    a = as_expr(a)
    if isinstance(a, Const):
        return Const(math.sin(a.value))
    return Sin(a)


def cos(a) -> Expr:
    a = as_expr(a)
    if isinstance(a, Const):
        return Const(math.cos(a.value))
    return Cos(a)


def sqrt(a) -> Expr:
    a = as_expr(a)
    if isinstance(a, Const):
        return Const(math.sqrt(a.value))
    return Sqrt(a)


def sum_of_products(terms) -> Expr:
    """The signed sum of two-factor products ``x * y``, in the given order.

    ``terms`` yields ``(sign, x, y)`` with ``sign`` +1 or -1.  The result is
    ``ZERO +- x * y +- ...`` folded left to right by the constructors,
    except that a term with a structurally zero factor is skipped: it
    builds no product and no sum.  Either factor may instead be a
    zero-argument callable that builds it, such as a partial derivative not
    yet taken; it is called only when the other factor is not structurally
    zero.  A zero factor drops its term even against a non-finite constant,
    where the constructors would fold ``0 * inf`` to NaN.
    """
    total = ZERO
    for sign, x, y in terms:
        if (type(x) is Const and x.value == 0.0) or (type(y) is Const and y.value == 0.0):
            continue
        if not isinstance(x, Expr):
            x = x()
            if x.is_zero():
                continue
        if not isinstance(y, Expr):
            y = y()
            if y.is_zero():
                continue
        product = _mul(x, y)
        total = _add(total, product) if sign > 0 else _sub(total, product)
    return total


# ---------------------------------------------------------------------------
# Walks over a DAG of nodes.  Evaluation at orders 0, 1 and 2 and
# substitution are one walk that differs only in what it does at a leaf
# and at an operation; differentiation walks to fill the per-node caches.
# ---------------------------------------------------------------------------


def _operands(node: _Operation) -> tuple[Expr, ...]:
    return (node.a, node.b) if isinstance(node, _Binary) else (node.a,)


def _walk(roots: Sequence[Expr], leaf, rules: dict, lift=None) -> dict:
    """The result at every node under ``roots``, operands first.

    ``leaf(node)`` gives the result at a constant or a coordinate, and
    ``rules[type(node)](node, *operand_results)`` the result at an
    operation.  Nodes compare by identity, so the returned dict is keyed by
    node identity; a node already in it is not visited again, and a node
    shared by several parents or roots is computed once.  The walk keeps
    its own stack: the depth of a tree is not bounded by the recursion
    limit.

    A float result is a constant.  When every operand of an operation is
    one, ``lift`` broadcasts the first to the batch before the rule runs,
    so the rule computes what it would on a full array or jet.
    """
    done: dict = {}
    stack = list(roots)
    push, pop = stack.append, stack.pop
    while stack:
        node = stack[-1]
        if node in done:
            pop()
            continue
        if isinstance(node, _Binary):
            a, b = node.a, node.b
            if a not in done:
                push(a)
                if b not in done:
                    push(b)
                continue
            if b not in done:
                push(b)
                continue
            x, y = done[a], done[b]
            if type(x) is float and type(y) is float:
                x = lift(x)
            done[node] = rules[type(node)](node, x, y)
        elif isinstance(node, _Unary):
            a = node.a
            if a not in done:
                push(a)
                continue
            x = done[a]
            if type(x) is float:
                x = lift(x)
            done[node] = rules[type(node)](node, x)
        else:
            done[node] = leaf(node)
        pop()
    return done


def _differentiate(root: _Operation, i: int) -> Expr:
    """The partial of ``root`` along slot ``i``.

    Caches it on ``root`` and on every operation below that lacks one,
    operands first, so each rule finds its operands' partials cached and
    no rule recurses.  Threads that differentiate the same node may each
    build the partial; they build equal trees, and either may be kept.
    """
    stack = [root]
    while stack:
        node = stack[-1]
        if i in node._diffs:
            stack.pop()
            continue
        pending = [c for c in _operands(node)
                   if isinstance(c, _Operation) and i not in c._diffs]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        partial = node._diff(i)
        if node._diffs is _NO_DIFFS:
            node._diffs = {}
        node._diffs[i] = partial
        if node is root:
            return partial
    return root._diffs[i]


def _value_power(v, n: float):
    """The value part of ``Jet2.power``, operation for operation."""
    if n == 0.0:
        return np.full_like(v, 1.0)
    if n == 1.0:
        return v
    if float(n).is_integer():
        return v ** int(n)
    return v ** n


_RING_RULES = {
    Add: lambda e, a, b: a + b,
    Sub: lambda e, a, b: a - b,
    Mul: lambda e, a, b: a * b,
    Neg: lambda e, a: -a,
}

# Order 0 repeats the value part of the Jet2 arithmetic exactly, so order-0
# values are bit for bit the values of order-2 jets.
_VALUE_RULES = {
    **_RING_RULES,
    Div: lambda e, a, b: a * (1.0 / b),  # Jet2 divides by multiplying by the reciprocal
    Pow: lambda e, a: _value_power(a, e.exponent),
    Exp: lambda e, a: np.exp(a),
    Sin: lambda e, a: np.sin(a),
    Cos: lambda e, a: np.cos(a),
    Sqrt: lambda e, a: np.sqrt(a),
}

# Orders 1 and 2: Jet1 and Jet2 have the same methods.
_JET_RULES = {
    **_RING_RULES,
    Div: lambda e, a, b: a / b,
    Pow: lambda e, a: a.power(e.exponent),
    Exp: lambda e, a: a.exp(),
    Sin: lambda e, a: a.sin(),
    Cos: lambda e, a: a.cos(),
    Sqrt: lambda e, a: a.sqrt(),
}

_SUBS_RULES = {
    Add: lambda e, a, b: _add(a, b),
    Sub: lambda e, a, b: _sub(a, b),
    Mul: lambda e, a, b: _mul(a, b),
    Div: lambda e, a, b: _div(a, b),
    Neg: lambda e, a: _neg(a),
    Pow: lambda e, a: _pow(a, e.exponent),
    Exp: lambda e, a: exp(a),
    Sin: lambda e, a: sin(a),
    Cos: lambda e, a: cos(a),
    Sqrt: lambda e, a: sqrt(a),
}


def _leaf(seeds: Sequence):
    """Coordinate k evaluates to ``seeds[k]``, a constant to its float."""
    return lambda e: seeds[e.index] if isinstance(e, Coord) else e.value


def evaluate(roots: Sequence[Expr], points, order: int = 0) -> list:
    """Evaluate every root on a batch of points, to the order the caller needs.

    ``points`` has shape ``(dim,)`` for one point or ``(n, dim)`` for a
    batch.  Order 0 returns one value array per root (a scalar for one
    point); order 1 returns one :class:`Jet1` and order 2 one
    :class:`Jet2` per root.  The roots are
    walked together, so a node shared within a root or between roots is
    evaluated once.
    """
    pts = np.asarray(points, dtype=float)
    if order == 0:
        seeds = [pts[..., k] for k in range(pts.shape[-1])]
        rules, lift = _VALUE_RULES, lambda c: np.full_like(seeds[0], c)
    elif order in (1, 2):
        seeds = coordinate_jets(pts, order)
        rules, lift = _JET_RULES, seeds[0].constant_like
    else:
        raise ValueError(f"evaluation order must be 0, 1 or 2, not {order!r}")
    done = _walk(roots, _leaf(seeds), rules, lift)
    return [lift(root.value) if isinstance(root, Const) else done[root] for root in roots]


def substitute(roots: Sequence[Expr], replacements: Sequence[Expr]) -> list[Expr]:
    """Substitute ``replacements[k]`` for coordinate ``k`` in every root.

    The roots are rebuilt in one walk, so a node shared within a root or
    between roots is rebuilt once and its image is shared by identity.
    """
    done = _walk(roots, lambda e: replacements[e.index] if isinstance(e, Coord) else e,
                 _SUBS_RULES)
    return [done[root] for root in roots]


# ---------------------------------------------------------------------------
# Parser for the component-expression grammar used in structure files:
# +, -, *, /, ^ (constant exponent), exp, sin, cos, sqrt, numeric literals,
# the named constants pi and e, and coordinate names.  The unicode signs
# "×", "÷" and "−" are accepted as aliases for *, / and -.
# ---------------------------------------------------------------------------


class ExpressionSyntaxError(ValueError):
    """Parse failure, carrying 1-based line and column of the offence."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


_FUNCTIONS = {"exp": exp, "sin": sin, "cos": cos, "sqrt": sqrt}
_NAMED_CONSTANTS = {"pi": math.pi, "e": math.e}


class _Token:
    __slots__ = ("kind", "text", "column")

    def __init__(self, kind: str, text: str, column: int):
        self.kind = kind
        self.text = text
        self.column = column


def _tokenize(text: str, line: int) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        col = i + 1
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^()×÷−":
            canonical = {"×": "*", "÷": "/", "−": "-"}.get(ch, ch)
            tokens.append(_Token("op", canonical, col))
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            seen_e = False
            while j < n and (text[j].isdigit() or text[j] == "." or
                             (text[j] in "eE" and j + 1 < n and
                              (text[j + 1].isdigit() or text[j + 1] in "+-") and not seen_e)):
                if text[j] in "eE":
                    seen_e = True
                    j += 1  # consume the exponent sign or first digit too
                j += 1
            lit = text[i:j]
            try:
                value = float(lit)
            except ValueError:
                raise ExpressionSyntaxError(f"bad numeric literal {lit!r}", line, col)
            if not math.isfinite(value):
                raise ExpressionSyntaxError(f"numeric literal {lit!r} overflows a float",
                                            line, col)
            tokens.append(_Token("number", lit, col))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], col))
            i = j
            continue
        raise ExpressionSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("end", "", n + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], coords: dict[str, int], line: int):
        self.tokens = tokens
        self.pos = 0
        self.coords = coords
        self.line = line

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: _Token):
        raise ExpressionSyntaxError(message, self.line, tok.column)

    def fold(self, tok: _Token, build, *operands) -> Expr:
        """``build(*operands)``, failing at ``tok`` where the constructor
        folds a constant that has no finite real value."""
        try:
            return build(*operands)
        except (OverflowError, ZeroDivisionError, ValueError) as err:
            self.fail(f"no finite real value here ({err})", tok)

    def parse(self) -> Expr:
        e = self.expression()
        tok = self.peek()
        if tok.kind != "end":
            self.fail(f"unexpected trailing input {tok.text!r}", tok)
        return e

    def expression(self) -> Expr:
        e = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.next()
            e = self.fold(op, _add if op.text == "+" else _sub, e, self.term())
        return e

    def term(self) -> Expr:
        e = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.next()
            e = self.fold(op, _mul if op.text == "*" else _div, e, self.unary())
        return e

    def unary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.next()
            return -self.unary()
        if tok.kind == "op" and tok.text == "+":
            self.next()
            return self.unary()
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            op_tok = self.next()
            # right associative, allow a leading sign on the exponent
            exponent = self.unary_power_operand()
            if not isinstance(exponent, Const):
                self.fail("exponent must be a constant", op_tok)
            return self.fold(op_tok, _pow, base, exponent.value)
        return base

    def unary_power_operand(self) -> Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.next()
            inner = self.unary_power_operand()
            return -inner
        return self.power()

    def atom(self) -> Expr:
        tok = self.next()
        if tok.kind == "number":
            return Const(float(tok.text))
        if tok.kind == "name":
            name = tok.text
            if self.peek().kind == "op" and self.peek().text == "(":
                if name not in _FUNCTIONS:
                    self.fail(f"unknown function {name!r}", tok)
                self.next()
                arg = self.expression()
                close = self.next()
                if not (close.kind == "op" and close.text == ")"):
                    self.fail("expected ')'", close)
                return self.fold(tok, _FUNCTIONS[name], arg)
            if name in self.coords:
                return Coord(self.coords[name], name)
            if name in _NAMED_CONSTANTS:
                return Const(_NAMED_CONSTANTS[name])
            self.fail(f"unknown name {name!r}", tok)
        if tok.kind == "op" and tok.text == "(":
            e = self.expression()
            close = self.next()
            if not (close.kind == "op" and close.text == ")"):
                self.fail("expected ')'", close)
            return e
        self.fail(f"unexpected token {tok.text!r}", tok)


def parse_expression(text: str, coord_names: Sequence[str], line: int = 1) -> Expr:
    """Parse one component expression.

    ``coord_names`` fixes the admissible coordinate symbols and their slot
    order.  ``line`` is only used to report error positions.
    """
    coords = {name: i for i, name in enumerate(coord_names)}
    tokens = _tokenize(text, line)
    return _Parser(tokens, coords, line).parse()
