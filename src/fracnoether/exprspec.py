"""Arithmetic expressions, the plain-text problem spec format, and the
binding of each spec expression to a callable.

The expression grammar is deliberately tiny so spec files stay portable:
+, -, *, /, ^ (right-associative), parentheses, numeric literals, named
variables, and the gamma() function.  Specs are flat `key = value` files;
see docs/formats.md for the full key reference.  `ProblemSpec.compile` is the
one place where a key's variable names are resolved to its call arguments.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .gammafn import gamma

__all__ = ["SpecError", "parse_expression", "ProblemSpec", "parse_spec"]


class SpecError(ValueError):
    """Invalid spec file or expression; carries line information if known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


# --------------------------------------------------------------------------
# expression parsing (recursive descent)
# --------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\^|[+\-*/(),]))\s*"
)

# Where a variable's value sits in the environment tuple: (slot, None) for a
# scalar slot, (slot, i) for component i of an array slot.
_Place = tuple[int, int | None]

_FUNCTIONS: dict[str, Callable] = {"gamma": np.vectorize(gamma, otypes=[float])}

# Compiled expressions are closure trees over an environment tuple; each
# variable is resolved at compile time to its place in that tuple, and a
# function call whose argument reads no variable is evaluated there too.
_OPERATORS: dict[str, Callable[[Callable, Callable], Callable]] = {
    "+": lambda a, b: lambda env: a(env) + b(env),
    "-": lambda a, b: lambda env: a(env) - b(env),
    "*": lambda a, b: lambda env: a(env) * b(env),
    "/": lambda a, b: lambda env: a(env) / b(env),
    "^": lambda a, b: lambda env: a(env) ** b(env),
}


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise SpecError(f"unexpected character {text[pos]!r} in expression {text!r}")
        pos = match.end()
        for kind in ("num", "name", "op"):
            tok = match.group(kind)
            if tok is not None:
                tokens.append((kind, tok))
                break
    tokens.append(("end", ""))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str]], variables: Mapping[str, _Place], text: str):
        self.tokens = tokens
        self.pos = 0
        self.variables = variables
        self.text = text
        self.reads = 0  # variable references parsed so far

    def peek(self) -> tuple[str, str]:
        return self.tokens[self.pos]

    def take(self) -> tuple[str, str]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, value: str) -> None:
        kind, tok = self.take()
        if tok != value:
            raise SpecError(f"expected {value!r}, found {tok or 'end of input'!r} in {self.text!r}")

    def parse(self) -> Callable:
        node = self.expr()
        if self.peek()[0] != "end":
            raise SpecError(f"trailing input {self.peek()[1]!r} in {self.text!r}")
        return node

    def expr(self) -> Callable:
        return self._binary(self.term, ("+", "-"))

    def term(self) -> Callable:
        return self._binary(self.unary, ("*", "/"))

    def _binary(self, operand: Callable[[], Callable], ops: tuple[str, ...]) -> Callable:
        node = operand()
        while self.peek()[1] in ops:
            node = _OPERATORS[self.take()[1]](node, operand())
        return node

    def unary(self) -> Callable:
        if self.peek()[1] == "-":
            self.take()
            inner = self.unary()
            return lambda env: -inner(env)
        if self.peek()[1] == "+":
            self.take()
            return self.unary()
        return self.power()

    def power(self) -> Callable:
        base = self.atom()
        if self.peek()[1] == "^":
            self.take()
            return _OPERATORS["^"](base, self.unary())
        return base

    def atom(self) -> Callable:
        kind, tok = self.take()
        if kind == "num":
            value = float(tok)
            return lambda env: value
        if kind == "name":
            if tok in _FUNCTIONS:
                fn = _FUNCTIONS[tok]
                self.expect("(")
                reads = self.reads
                arg = self.expr()
                self.expect(")")
                call = lambda env: fn(arg(env))
                return call if self.reads > reads else _folded(call)
            if tok not in self.variables:
                raise SpecError(
                    f"unknown variable {tok!r} in {self.text!r} "
                    f"(allowed: {', '.join(sorted(self.variables)) or 'none'})"
                )
            slot, index = self.variables[tok]
            self.reads += 1
            if index is None:
                return lambda env: env[slot]
            return lambda env: env[slot].T[index]
        if tok == "(":
            node = self.expr()
            self.expect(")")
            return node
        raise SpecError(f"unexpected {tok or 'end of input'!r} in {self.text!r}")


def _folded(node: Callable) -> Callable:
    """``node``, which reads no variable, evaluated once now.  If that fails
    or warns, ``node`` itself is kept, so the error surfaces at evaluation."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = node(())
    except (ArithmeticError, ValueError, TypeError, Warning):
        return node
    return lambda env: value


def _compile(text: str, variables: Mapping[str, _Place]) -> Callable:
    return _Parser(_tokenize(text), variables, text).parse()


def parse_expression(text: str, variables: tuple[str, ...] = ()) -> Callable:
    """Compile ``text``; call the result with a mapping from each variable to its value."""
    names = tuple(variables)
    fn = _compile(text, {name: (i, None) for i, name in enumerate(names)})
    return lambda env=None: fn(tuple((env or {})[name] for name in names))


# --------------------------------------------------------------------------
# spec files
# --------------------------------------------------------------------------

BUILTIN_TRAJECTORIES = {
    "example1": "2*t^(2.5)/gamma(3.5)",
}

# The "variables" column of the Keys table in docs/formats.md, as the number
# of leading arguments of (t, q, y) that the callable compiled from each
# expression key (or indexed stem) takes.  q stands for q1..qn, and y for the
# fractional velocity v1..vn, or for the control u1..uk in control specs.
_ARITY = {"L": 3, "g": 3, "phi": 3, "tau": 2, "xi": 2, "trajectory": 1, "control": 1, "costate": 1}

_BINDERS = {
    3: lambda fn: lambda t, q, y: fn((t, q, y)),
    2: lambda fn: lambda t, q: fn((t, q)),
    1: lambda fn: lambda t: fn((t,)),
}


@dataclass
class ProblemSpec:
    """Parsed, validated contents of a problem spec file."""

    alpha: float
    a: float
    b: float
    m: int
    dim: int
    control_dim: int
    lagrangian: str
    constraints: list[str]
    levels: list[float]
    q_a: list[float]
    q_b: list[float] | None
    multipliers: list[float] | None
    trajectory: list[str] | None
    tau: str | None
    xi: list[str] | None
    dynamics: list[str] | None
    control: list[str] | None
    costate: list[str] | None

    @property
    def is_control(self) -> bool:
        return self.dynamics is not None

    @property
    def k(self) -> int:
        return len(self.constraints)

    def variables(self, key: str) -> dict[str, _Place]:
        """The names an expression under `key` (a key or an indexed stem) may
        use, each mapped to its place among the arguments (t, q, y)."""
        names: dict[str, _Place] = {"t": (0, None)}
        if _ARITY[key] > 1:
            names.update({f"q{i + 1}": (1, i) for i in range(self.dim)})
        if _ARITY[key] > 2:
            stem, n = ("u", self.control_dim) if self.is_control else ("v", self.dim)
            names.update({f"{stem}{i + 1}": (2, i) for i in range(n)})
        return names

    def compile(self, key: str, text: str | list[str]) -> Callable:
        """Bind the expression under `key` to a callable of the key's
        arguments: (t, q, y) for L, g and phi; (t, q) for tau and xi; (t) for
        trajectory, control and costate.

        At one point (scalar t, q and y of shape (n,)) it returns a float, or
        for a list of expressions an array of shape (k,).  Over M points at
        once, points first (t of shape (M,), q and y of shape (M, n)), it
        returns an array of shape (M,), or (M, k) for a list; constants
        broadcast to M.  A variable reads its component as ``q.T[i]``, which
        at one point is a numpy scalar, so that ``^`` rounds as the scalar
        ``pow`` does.  The callable carries ``whole_array = True``, which
        tells the library not to wrap it in a per-point loop
        (``fields._pointwise``)."""
        variables = self.variables(key)
        if isinstance(text, str):
            fn = _compile(text, variables)
            value = lambda env: _filled(env[0], fn(env))
        else:
            fns = [_compile(s, variables) for s in text]
            value = lambda env: np.stack([_filled(env[0], f(env)) for f in fns], axis=-1)
        bound = _BINDERS[_ARITY[key]](value)
        bound.whole_array = True
        return bound


def _filled(t, value) -> float | np.ndarray:
    """``value`` as a float at one point, or broadcast to t's shape (M,)."""
    if np.ndim(t) == 0:
        return float(value)
    return np.full(np.shape(t), value, dtype=float)


def _read_pairs(path: str) -> dict[str, tuple[str, int]]:
    pairs: dict[str, tuple[str, int]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise SpecError(f"expected 'key = value', got {line!r}", lineno)
            key, value = (part.strip() for part in line.split("=", 1))
            if not key or not value:
                raise SpecError(f"empty key or value in {line!r}", lineno)
            if key in pairs:
                raise SpecError(f"duplicate key {key!r}", lineno)
            pairs[key] = (value, lineno)
    if not pairs:
        raise SpecError(f"spec file {path!r} is empty")
    return pairs


def _constant(key: str, value: str, lineno: int, integer: bool = False) -> float:
    """The value of a constant expression; failing to parse or to evaluate it
    (division by zero, overflow, a gamma pole, a complex power), a value that
    is not finite, or one that is not an integer where ``integer`` asks for
    one, is a SpecError.  numpy's floating-point warnings raise here, as
    FloatingPointError, so that they become that SpecError too."""
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            number = float(parse_expression(value)())
    except (ArithmeticError, ValueError, TypeError) as exc:
        raise SpecError(f"in {key}: {exc}", lineno) from exc
    if integer and not number.is_integer():
        raise SpecError(f"{key} must be an integer, got {value!r}", lineno)
    if not np.isfinite(number):
        raise SpecError(f"in {key}: {value!r} is not finite", lineno)
    return number


def _const(
    pairs: dict, key: str, default: float | None = None, integer: bool = False
) -> float | int | None:
    if key not in pairs:
        return default
    number = _constant(key, *pairs.pop(key), integer=integer)
    return int(number) if integer else number


def _indexed(pairs: dict, stem: str) -> list[tuple[str, str, int]]:
    """Pop stem1, stem2, ... as (key, value, line) triples."""
    out = []
    i = 1
    while f"{stem}{i}" in pairs:
        out.append((f"{stem}{i}", *pairs.pop(f"{stem}{i}")))
        i += 1
    stray = [k for k in pairs if re.fullmatch(f"{re.escape(stem)}\\d+", k)]
    if stray:
        raise SpecError(
            f"non-contiguous indices for {stem!r}: found {stray[0]} but {stem}{i} is missing",
            pairs[stray[0]][1],
        )
    return out


def parse_spec(path: str) -> ProblemSpec:
    """Read and validate a spec file; raises SpecError with line info."""
    pairs = _read_pairs(path)
    lines = {key: lineno for key, (_, lineno) in pairs.items()}

    alpha = _const(pairs, "alpha")
    if alpha is None:
        raise SpecError("missing required key 'alpha'")
    if not 0.0 < alpha <= 1.0:
        raise SpecError(f"alpha must lie in (0, 1], got {alpha}")
    a = _const(pairs, "a", 0.0)
    b = _const(pairs, "b", 1.0)
    m = _const(pairs, "m", 500, integer=True)
    dim = _const(pairs, "dim", 1, integer=True)
    control_dim = _const(pairs, "controls", 1, integer=True)
    if a >= b:
        raise SpecError(f"need a < b, got [{a}, {b}]")
    if m < 2 or dim < 1 or control_dim < 1:
        raise SpecError("m must be >= 2 and dimensions >= 1")

    if "L" not in pairs:
        raise SpecError("missing required key 'L'")
    lagrangian = pairs.pop("L")[0]

    def entries(stem: str, expected: int | None = None) -> list[tuple[str, str, int]]:
        raw = _indexed(pairs, stem)
        if raw and expected is not None and len(raw) != expected:
            raise SpecError(f"expected {expected} {stem!r} entries, got {len(raw)}", raw[0][2])
        return raw

    def const_list(stem: str, expected: int) -> list[float] | None:
        return [_constant(*entry) for entry in entries(stem, expected)] or None

    def expr_list(stem: str, expected: int) -> list[str] | None:
        return [value for _, value, _ in entries(stem, expected)] or None

    gs = [value for _, value, _ in entries("g")]
    levels_raw = entries("l")
    if len(levels_raw) != len(gs):
        raise SpecError(
            f"{len(gs)} constraint expressions but {len(levels_raw)} levels"
        )
    levels = [_constant(*entry) for entry in levels_raw]

    q_a = const_list("q_a", dim)
    if q_a is None:
        raise SpecError("missing required key(s) 'q_a1..'")
    q_b = const_list("q_b", dim)
    multipliers = const_list("lambda", len(gs)) if gs else None

    trajectory = expr_list("trajectory", dim)
    if trajectory is not None:
        trajectory = [
            BUILTIN_TRAJECTORIES[t.split(":", 1)[1]]
            if t.startswith("builtin:") and t.split(":", 1)[1] in BUILTIN_TRAJECTORIES
            else t
            for t in trajectory
        ]
    tau = pairs.pop("tau", (None, 0))[0]
    xi = expr_list("xi", dim)
    dynamics = expr_list("phi", dim)
    control = expr_list("control", control_dim)
    costate = expr_list("costate", dim)

    if pairs:
        key = next(iter(pairs))
        raise SpecError(f"unknown key {key!r}", pairs[key][1])

    spec = ProblemSpec(
        alpha=alpha,
        a=a,
        b=b,
        m=m,
        dim=dim,
        control_dim=control_dim,
        lagrangian=lagrangian,
        constraints=gs,
        levels=levels,
        q_a=q_a,
        q_b=q_b,
        multipliers=multipliers,
        trajectory=trajectory,
        tau=tau,
        xi=xi,
        dynamics=dynamics,
        control=control,
        costate=costate,
    )

    # compile every expression once, so that bad syntax or an unknown
    # variable is a parse-time diagnostic with its line
    groups = {"L": [lagrangian], "g": gs, "phi": dynamics, "tau": [tau] if tau else None,
              "xi": xi, "trajectory": trajectory, "control": control, "costate": costate}
    for stem, texts in groups.items():
        for i, text in enumerate(texts or (), start=1):
            key = stem if stem in ("L", "tau") else f"{stem}{i}"
            try:
                spec.compile(stem, text)
            except SpecError as exc:
                raise SpecError(f"in {key}: {exc}", lines[key]) from exc
    return spec
