"""Load-balancer policy expressions: parsing, evaluation, server selection.

A policy is a small arithmetic expression that is evaluated once per server
for every incoming request; the request is delegated to the server with the
highest value.  The language has no variables or control flow.  Leaves read
the observable state of one server (queue size, power state, the power and
transition-time constants), or produce numbers: integer literals, a fresh
uniform random draw, and named design parameters via ``dspace("name")``.
Operators are ``+ - * / mod`` plus unary minus and parentheses.

Ties between servers are broken by a non-determinism resolution mode: either
a fresh random fraction per server, or a fixed fraction ``id / numServers``
that always favours the highest server id among equals.
"""

from __future__ import annotations

import enum
import math
import operator
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, NamedTuple, Sequence

__all__ = [
    "PolicyError",
    "PolicySyntaxError",
    "UnknownIdentifierError",
    "EvaluationError",
    "UndefinedDesignParamError",
    "PowerState",
    "NdResolution",
    "ServerSnapshot",
    "PolicyExpr",
    "Leaf",
    "IntLit",
    "DSpace",
    "Neg",
    "BinOp",
    "LEAVES",
    "OPERATORS",
    "parse_policy",
    "pretty_print",
    "format_ast",
    "evaluate",
    "compile_policy",
    "select_server",
]


class PolicyError(Exception):
    """Base class for all policy-language errors."""


class PolicySyntaxError(PolicyError):
    """Raised when policy text cannot be parsed; carries line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class UnknownIdentifierError(PolicySyntaxError):
    """Raised for an identifier that is not part of the policy vocabulary."""


class EvaluationError(PolicyError):
    """Raised when evaluating an expression fails (division or mod by zero)."""


class UndefinedDesignParamError(PolicyError):
    """Raised when ``dspace("name")`` names a parameter the run does not define."""


class PowerState(enum.Enum):
    """The four mutually exclusive power states of a server."""

    ON = "on"
    SUSPEND = "suspend"
    SLEEP = "sleep"
    WAKEUP = "wakeup"


class NdResolution(enum.Enum):
    """How ties between equally preferred servers are resolved."""

    RANDOM_FRACTION = "random"
    FIXED_ORDER = "fixed_order"


@dataclass(frozen=True, slots=True)
class ServerSnapshot:
    """Observable state of one server at the instant a request arrives.

    ``queue_size`` counts queued requests plus the one in service, if any.
    The power and time constants are per-server copies so a policy can be
    evaluated against a snapshot with no other context.
    """

    id: int
    num_servers: int
    queue_size: int
    power_state: PowerState
    power_on: float = 200.0
    power_sleep: float = 14.0
    power_suspend: float = 200.0
    power_wakeup: float = 200.0
    time_wakeup: float = 10.0
    time_suspend: float = 10.0
    timeout_time: float = 10.0
    design_params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not 0 <= self.id < self.num_servers:
            raise ValueError(f"server id {self.id} out of range for {self.num_servers} servers")
        if self.queue_size < 0:
            raise ValueError("queue_size must be non-negative")
        for name in ("power_on", "power_sleep", "power_suspend", "power_wakeup",
                     "time_wakeup", "time_suspend", "timeout_time"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


# --- AST ---------------------------------------------------------------

Evaluator = Callable[[ServerSnapshot, Any], float]


class PolicyExpr:
    """Base class for policy AST nodes. Nodes are immutable and comparable."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Leaf(PolicyExpr):
    """A vocabulary leaf; ``name`` is its canonical policy text, a key of LEAVES."""

    name: str


@dataclass(frozen=True, slots=True)
class IntLit(PolicyExpr):
    value: int


@dataclass(frozen=True, slots=True)
class DSpace(PolicyExpr):
    name: str

    def __post_init__(self):
        if not self.name:
            raise ValueError("dspace parameter name must be non-empty")


@dataclass(frozen=True, slots=True)
class Neg(PolicyExpr):
    operand: PolicyExpr


@dataclass(frozen=True, slots=True)
class BinOp(PolicyExpr):
    """A binary operation; ``op`` is its policy text, a key of OPERATORS."""

    op: str
    left: PolicyExpr
    right: PolicyExpr


class LeafSpec(NamedTuple):
    label: str  # node name in format_ast output
    value: Evaluator  # also the compiled form of the leaf


def _state_is(state: PowerState) -> Evaluator:
    return lambda snap, rng: 1.0 if snap.power_state is state else 0.0


# The policy vocabulary, keyed by canonical text.  The lambdas are the
# compiled leaves themselves, so they read the snapshot directly.
LEAVES: dict[str, LeafSpec] = {
    "ID": LeafSpec("Id", lambda snap, rng: float(snap.id)),
    "numServers": LeafSpec("NumServers", lambda snap, rng: float(snap.num_servers)),
    "queueSize": LeafSpec("QueueSize", lambda snap, rng: float(snap.queue_size)),
    "stateOn": LeafSpec("StateOn", _state_is(PowerState.ON)),
    "stateSleep": LeafSpec("StateSleep", _state_is(PowerState.SLEEP)),
    "stateSuspend": LeafSpec("StateSuspend", _state_is(PowerState.SUSPEND)),
    "stateWakeup": LeafSpec("StateWakeup", _state_is(PowerState.WAKEUP)),
    "powerOn": LeafSpec("PowerOn", lambda snap, rng: snap.power_on),
    "powerSleep": LeafSpec("PowerSleep", lambda snap, rng: snap.power_sleep),
    "powerSuspend": LeafSpec("PowerSuspend", lambda snap, rng: snap.power_suspend),
    "powerWakeup": LeafSpec("PowerWakeup", lambda snap, rng: snap.power_wakeup),
    "timeWakeup": LeafSpec("TimeWakeup", lambda snap, rng: snap.time_wakeup),
    "timeSuspend": LeafSpec("TimeSuspend", lambda snap, rng: snap.time_suspend),
    "timeOutTime": LeafSpec("TimeOutTime", lambda snap, rng: snap.timeout_time),
    "random": LeafSpec("Random", lambda snap, rng: float(rng.random())),
}

_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_ATOM = 1, 2, 3, 4


class OpSpec(NamedTuple):
    label: str  # node name in format_ast output
    prec: int
    apply: Callable[[float, float], float]  # used by the interpreter only


def _div(a: float, b: float) -> float:
    if b == 0.0:
        raise EvaluationError("division by zero")
    return a / b


def _mod(a: float, b: float) -> float:
    if b == 0.0:
        raise EvaluationError("mod by zero")
    return math.fmod(a, b)  # remainder keeps the dividend's sign


OPERATORS: dict[str, OpSpec] = {
    "+": OpSpec("Add", _PREC_ADD, operator.add),
    "-": OpSpec("Sub", _PREC_ADD, operator.sub),
    "*": OpSpec("Mul", _PREC_MUL, operator.mul),
    "/": OpSpec("Div", _PREC_MUL, _div),
    "mod": OpSpec("Mod", _PREC_MUL, _mod),
}


# --- Lexer / parser ----------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t]+)
  | (?P<comment>\#[^\n]*)
  | (?P<newline>\n)
  | (?P<int>[0-9]+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>"[^"\n]*")
  | (?P<op>[-+*/()])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str  # "int" | "ident" | "string" | "op" | "eof"
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start = 1, 0
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise PolicySyntaxError(
                f"unexpected character {text[pos]!r}", line, pos - line_start + 1
            )
        kind = m.lastgroup
        if kind == "newline":
            line += 1
            line_start = m.end()
        elif kind not in ("ws", "comment"):
            tokens.append(_Token(kind, m.group(), line, m.start() - line_start + 1))
        pos = m.end()
    tokens.append(_Token("eof", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    """Recursive-descent parser.

    Precedence, loosest to tightest: (+ -), (* / mod), unary minus.  Binary
    operators are left-associative; parentheses group.
    """

    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._pos = 0

    def _peek(self) -> _Token:
        return self._tokens[self._pos]

    def _next(self) -> _Token:
        tok = self._tokens[self._pos]
        self._pos += 1
        return tok

    def _expect_op(self, op: str) -> None:
        tok = self._next()
        if tok.kind != "op" or tok.text != op:
            raise PolicySyntaxError(
                f"expected {op!r}, found {tok.text!r}" if tok.kind != "eof"
                else f"expected {op!r}, found end of input",
                tok.line,
                tok.column,
            )

    def parse(self) -> PolicyExpr:
        expr = self._binary(_PREC_ADD)
        tok = self._peek()
        if tok.kind != "eof":
            raise PolicySyntaxError(f"unexpected trailing input {tok.text!r}", tok.line, tok.column)
        return expr

    def _binary(self, prec: int) -> PolicyExpr:
        """Left-associative binary operators binding at ``prec`` or tighter."""
        if prec == _PREC_UNARY:
            return self._unary()
        expr = self._binary(prec + 1)
        # Operator texts cannot collide with int, string or eof tokens.
        while (spec := OPERATORS.get(self._peek().text)) is not None and spec.prec == prec:
            op = self._next().text
            expr = BinOp(op, expr, self._binary(prec + 1))
        return expr

    def _unary(self) -> PolicyExpr:
        tok = self._peek()
        if tok.kind == "op" and tok.text == "-":
            self._next()
            return Neg(self._unary())
        return self._atom()

    def _atom(self) -> PolicyExpr:
        tok = self._next()
        if tok.kind == "int":
            return IntLit(int(tok.text))
        if tok.kind == "op" and tok.text == "(":
            expr = self._binary(_PREC_ADD)
            self._expect_op(")")
            return expr
        if tok.kind == "ident":
            if tok.text == "dspace":
                self._expect_op("(")
                name_tok = self._next()
                if name_tok.kind != "string":
                    raise PolicySyntaxError(
                        "dspace expects a quoted parameter name", name_tok.line, name_tok.column
                    )
                name = name_tok.text[1:-1]
                if not name:
                    raise PolicySyntaxError(
                        "dspace parameter name must be non-empty", name_tok.line, name_tok.column
                    )
                self._expect_op(")")
                return DSpace(name)
            name = "ID" if tok.text == "id" else tok.text  # both spellings are accepted
            if name not in LEAVES:
                raise UnknownIdentifierError(
                    f"unknown identifier {tok.text!r}", tok.line, tok.column
                )
            return Leaf(name)
        if tok.kind == "eof":
            raise PolicySyntaxError("unexpected end of input", tok.line, tok.column)
        raise PolicySyntaxError(f"unexpected token {tok.text!r}", tok.line, tok.column)


def parse_policy(text: str) -> PolicyExpr:
    """Parse policy text into an AST.

    ``#`` starts a line comment.  Raises :class:`PolicySyntaxError` (with
    line/column) on malformed input and :class:`UnknownIdentifierError` for
    identifiers outside the vocabulary.
    """
    return _Parser(_tokenize(text)).parse()


# --- Pretty printing ---------------------------------------------------

def _precedence(expr: PolicyExpr) -> int:
    if isinstance(expr, BinOp):
        return OPERATORS[expr.op].prec
    if isinstance(expr, Neg):
        return _PREC_UNARY
    return _PREC_ATOM


def pretty_print(expr: PolicyExpr) -> str:
    """Render an AST back to canonical policy text (minimal parentheses).

    ``parse_policy(pretty_print(e)) == e`` for every AST ``e``.
    """
    if isinstance(expr, Leaf):
        return expr.name
    if isinstance(expr, IntLit):
        return str(expr.value)
    if isinstance(expr, DSpace):
        return f'dspace("{expr.name}")'
    if isinstance(expr, Neg):
        inner = pretty_print(expr.operand)
        if _precedence(expr.operand) < _PREC_UNARY:
            inner = f"({inner})"
        return f"-{inner}"
    prec = _precedence(expr)
    left_s = pretty_print(expr.left)  # type: ignore[attr-defined]
    if _precedence(expr.left) < prec:  # type: ignore[attr-defined]
        left_s = f"({left_s})"
    right_s = pretty_print(expr.right)  # type: ignore[attr-defined]
    # left-associative: an equal-precedence right child needs parentheses
    if _precedence(expr.right) <= prec:  # type: ignore[attr-defined]
        right_s = f"({right_s})"
    return f"{left_s} {expr.op} {right_s}"  # type: ignore[attr-defined]


def format_ast(expr: PolicyExpr, indent: int = 0) -> str:
    """Render an AST as an indented tree, one node per line."""
    pad = "  " * indent
    if isinstance(expr, Leaf):
        return f"{pad}{LEAVES[expr.name].label}"
    if isinstance(expr, IntLit):
        return f"{pad}IntLit {expr.value}"
    if isinstance(expr, DSpace):
        return f'{pad}DSpace "{expr.name}"'
    if isinstance(expr, Neg):
        return f"{pad}Neg\n{format_ast(expr.operand, indent + 1)}"
    return (
        f"{pad}{OPERATORS[expr.op].label}\n"  # type: ignore[attr-defined]
        f"{format_ast(expr.left, indent + 1)}\n"  # type: ignore[attr-defined]
        f"{format_ast(expr.right, indent + 1)}"  # type: ignore[attr-defined]
    )


# --- Evaluation --------------------------------------------------------

def evaluate(expr: PolicyExpr, snap: ServerSnapshot, rng: Any) -> float:
    """Evaluate an expression against one server snapshot.

    Subexpressions are evaluated depth-first, left before right, so every
    ``random`` leaf consumes exactly one draw from ``rng`` in a fixed order.
    The snapshot is never mutated.
    """
    t = type(expr)
    if t is Leaf:
        return LEAVES[expr.name].value(snap, rng)  # type: ignore[attr-defined]
    if t is IntLit:
        return float(expr.value)  # type: ignore[attr-defined]
    if t is DSpace:  # a leaf whose value closure only the compiler builds
        return compile_policy(expr)(snap, rng)
    if t is Neg:
        return -evaluate(expr.operand, snap, rng)  # type: ignore[attr-defined]
    if t is not BinOp or expr.op not in OPERATORS:  # type: ignore[attr-defined]
        raise TypeError(f"not a policy expression: {expr!r}")
    left = evaluate(expr.left, snap, rng)  # type: ignore[attr-defined]
    right = evaluate(expr.right, snap, rng)  # type: ignore[attr-defined]
    return OPERATORS[expr.op].apply(left, right)  # type: ignore[attr-defined]


def compile_policy(expr: PolicyExpr) -> Evaluator:
    """Compile an AST into a closure ``f(snapshot, rng) -> float``.

    Same semantics (and random-draw order) as :func:`evaluate`; used on the
    simulator's hot path where re-walking the tree per request would dominate.
    Every node is one closure with its arithmetic inline: a shared helper
    per node would add a call level to every evaluation.
    """
    t = type(expr)
    if t is Leaf:
        return LEAVES[expr.name].value  # type: ignore[attr-defined]
    if t is IntLit:
        value = float(expr.value)  # type: ignore[attr-defined]
        return lambda snap, rng: value
    if t is DSpace:
        name = expr.name  # type: ignore[attr-defined]

        def dspace_leaf(snap: ServerSnapshot, rng: Any) -> float:
            try:
                return float(snap.design_params[name])
            except KeyError:
                raise UndefinedDesignParamError(
                    f"design parameter {name!r} is not defined for this run"
                ) from None

        return dspace_leaf
    if t is Neg:
        inner = compile_policy(expr.operand)  # type: ignore[attr-defined]
        return lambda snap, rng: -inner(snap, rng)
    if t is not BinOp or expr.op not in OPERATORS:  # type: ignore[attr-defined]
        raise TypeError(f"not a policy expression: {expr!r}")
    left = compile_policy(expr.left)  # type: ignore[attr-defined]
    right = compile_policy(expr.right)  # type: ignore[attr-defined]
    op = expr.op  # type: ignore[attr-defined]
    if op == "+":
        return lambda snap, rng: left(snap, rng) + right(snap, rng)
    if op == "-":
        return lambda snap, rng: left(snap, rng) - right(snap, rng)
    if op == "*":
        return lambda snap, rng: left(snap, rng) * right(snap, rng)
    if op == "/":

        def div(snap: ServerSnapshot, rng: Any) -> float:
            a = left(snap, rng)
            b = right(snap, rng)
            if b == 0.0:
                raise EvaluationError("division by zero")
            return a / b

        return div

    def mod(snap: ServerSnapshot, rng: Any) -> float:
        a = left(snap, rng)
        b = right(snap, rng)
        if b == 0.0:
            raise EvaluationError("mod by zero")
        return math.fmod(a, b)

    return mod


# --- Server selection --------------------------------------------------

def select_server(
    expr: PolicyExpr,
    snaps: Sequence[ServerSnapshot],
    nd: NdResolution,
    rng: Any,
    evaluator: Evaluator | None = None,
) -> int:
    """Pick the target server: argmax of the policy value after tie resolution.

    Servers are evaluated in ascending id order (one pass), then the
    resolution fraction is added per server, again in ascending id order:
    a fresh ``U[0,1)`` draw for ``RANDOM_FRACTION``, or ``id/numServers``
    for ``FIXED_ORDER``.  Fractions live in ``[0,1)`` so they can only break
    ties between integer-valued policies, never overturn a gap of >= 1.
    A residual exact tie goes to the lowest id.

    ``evaluator`` may supply a precompiled closure for ``expr`` (hot path);
    semantics are identical to :func:`evaluate`.
    """
    if not snaps:
        raise ValueError("select_server requires at least one snapshot")
    ordered = sorted(snaps, key=lambda s: s.id)
    n = len(ordered)
    if [s.id for s in ordered] != list(range(n)):
        raise ValueError("snapshots must carry ids 0..n-1, each exactly once")
    ev = evaluator
    if ev is None:
        ev = lambda snap, r: evaluate(expr, snap, r)
    values = [ev(snap, rng) for snap in ordered]
    if nd is NdResolution.RANDOM_FRACTION:
        values = [v + float(rng.random()) for v in values]
    else:
        values = [v + snap.id / n for v, snap in zip(values, ordered)]
    best = 0
    best_value = values[0]
    for i in range(1, n):
        if values[i] > best_value:
            best = i
            best_value = values[i]
    return best
