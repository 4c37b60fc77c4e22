"""Arithmetic expressions, the plain-text problem spec format, and the
binding of each spec expression to a callable.

The expression grammar is deliberately tiny so spec files stay portable:
+, -, *, /, ^ (right-associative), parentheses, numeric literals, named
variables, and the gamma() function.  The standard library's ``ast`` parses
it, and one walk of the tree builds closures for its value and for its
exact first partials, each construct's two rules side by side, and decides
which subtrees read no variable.  Specs are flat `key = value` files; see
docs/formats.md for the full key reference.
`ProblemSpec.compile` and `ProblemSpec.partials` are the one place where a
key's variable names are resolved to its call arguments.
"""

from __future__ import annotations

import ast
import re
import warnings
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .fields import _differences
from .gammafn import gamma
from .problems import DEFAULT_BAND

__all__ = ["SpecError", "parse_expression", "ProblemSpec", "parse_spec"]


class SpecError(ValueError):
    """Invalid spec file or expression; carries line information if known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


# --------------------------------------------------------------------------
# expression parsing (the standard library's ast, over a whitelist)
# --------------------------------------------------------------------------

# With ^ written **, the spec grammar is a subset of Python's expressions, so
# ast parses it.  What Python accepts beyond it is shut out by the characters
# allowed (no ',', ':', '[', quotes, non-ASCII), by the number pattern each
# literal's text must match (no 1_0, 0x10, 1j or True), and by the node types
# that _Expression._build walks.  Offsets into the ASCII source are character
# offsets.
_FOREIGN = re.compile(r"[^A-Za-z0-9_.^+\-*/() ]")
_NUMBER = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
# Python rejects leading zeros in an integer literal, such as 05
_LEADING_ZEROS = re.compile(r"(?<![\w.])0+(?=\d)")

# Where a variable's value sits in the environment tuple: (slot, None) for a
# scalar slot, (slot, i) for component i of an array slot.
_Place = tuple[int, int | None]

_FUNCTIONS: dict[str, Callable] = {"gamma": np.vectorize(gamma, otypes=[float])}

# Compiled expressions are closure trees over an environment tuple; each
# variable is resolved at compile time to its place in that tuple, and a
# power or function call that reads no variable is evaluated there too.
_OPERATORS: dict[type, Callable[[Callable, Callable], Callable]] = {
    ast.Add: lambda a, b: lambda env: a(env) + b(env),
    ast.Sub: lambda a, b: lambda env: a(env) - b(env),
    ast.Mult: lambda a, b: lambda env: a(env) * b(env),
    ast.Div: lambda a, b: lambda env: a(env) / b(env),
}


def _power(base: Callable, exponent: Callable, written: str, text: str) -> Callable:
    """``base ^ exponent``, ``written`` so in ``text``.  A power of two
    Python floats can be complex (``(-1.0) ** 0.5``), where numpy's array
    power gives NaN; that value is a SpecError."""

    def power(env):
        value = base(env) ** exponent(env)
        if isinstance(value, complex):
            raise SpecError(f"complex value {value} of {written} in {text!r}")
        return value

    return power


def _folded(node: Callable) -> Callable:
    """``node``, which reads no variable, evaluated once now.  If that fails
    or warns, ``node`` itself is kept, so the error surfaces at evaluation;
    a SpecError, such as a complex power, is raised now."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = node(())
    except SpecError:
        raise
    except (ArithmeticError, ValueError, TypeError, Warning):
        return node
    return lambda env: value


def _evaluated(node: Callable) -> float | None:
    """The value of ``node``, which reads no variable, or None where
    ``_folded`` keeps it."""
    folded = _folded(node)
    return None if folded is node else folded(())


def _one(env) -> float:
    """The partial of a variable in itself."""
    return 1.0


def _zero(env) -> float:
    """A partial that is structurally zero."""
    return 0.0


def _times(a: Callable, b: Callable) -> Callable:
    """``a * b``, or the other factor where one is ``_one``."""
    return b if a is _one else a if b is _one else _OPERATORS[ast.Mult](a, b)


def _negated(a: Callable) -> Callable:
    return lambda env: -a(env)


def _led(lead: Callable, rest: Callable) -> Callable:
    """``lead * rest``, and 0 wherever ``lead`` is 0: a power's derivative
    terms there, where ``rest`` may be infinite (``0 * 0^-1``).  When
    ``lead`` is 0 at some point, numpy's floating-point warnings of ``rest``
    and of the product are silenced, at all points; otherwise they stand."""

    def led(env):
        a = lead(env)
        zero = a == 0
        if not np.any(zero):
            return a * rest(env)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return np.where(zero, 0.0, a * rest(env))

    return led


def _slope(fn: Callable, inner: Callable) -> Callable:
    """fn' at ``inner``'s value, by the central differences that fields
    take (``fields._differences``, with its step)."""

    def slope(env):
        u = np.asarray(inner(env), float)[..., None]
        return _differences(lambda x: fn(x[..., 0]), u)[..., 0]

    return slope


# An expression's exact first partials by place: the q and y components it
# reads.  A partial that is structurally zero is absent.
_Gradient = dict[_Place, Callable]


class _Expression:
    """A spec expression's text and its source, parsed by ``_compile`` over
    the whitelist.  ``value``, a function of the environment tuple,
    evaluates the text, and ``gradient`` holds its exact first partials:
    one walk of the tree builds both when it is compiled."""

    def __init__(self, text: str, variables: Mapping[str, _Place], source: str):
        self.text, self.variables, self.source = text, variables, source
        self.value: Callable | None = None
        self.gradient: _Gradient | None = None

    def _piece(self, node: ast.expr) -> str:
        return self.source[node.col_offset : node.end_col_offset].replace("**", "^")

    def _build(self, node: ast.expr) -> tuple[Callable, _Gradient, bool]:
        """The value of ``node``, its exact first partials in the q and y
        components, and whether it reads any variable, ``t`` included: a
        ``^`` or gamma call that reads none is evaluated here, once.  The
        partials follow forward-mode rules (``+ - * /``, unary signs, ``^``,
        gamma) that read the operands' values; a subtree that reads no q or
        y component has partial zero, so its terms drop out.  ``b^e`` has
        the terms ``e b^(e-1) b'`` and ``b^e log(b) e'``, each 0 wherever
        its leading factor ``e`` or ``b^e`` is; a constant exponent of 0
        drops the first.  ``gamma(u)`` has ``gamma'(u) u'``, with
        ``gamma'`` by central differences (``_slope``).  The rules next to
        the leaves loop, as a comprehension takes a level of the recursion
        limit in the interpreter, so that the partials reach no deeper than
        the values."""
        match node:
            case ast.BinOp(left, ast.Pow(), right):
                base, db, base_reads = self._build(left)
                exponent, de, exponent_reads = self._build(right)
                power = _power(base, exponent, self._piece(node), self.text)
                if not (base_reads or exponent_reads):
                    return _folded(power), {}, False
                out = {}
                # an exponent that reads t has no value here to compare with 0
                if db and (exponent_reads or _evaluated(exponent) != 0.0):
                    lowered = _power(base, lambda env: exponent(env) - 1.0, self._piece(node), self.text)
                    slope = _led(exponent, lowered)
                    out = {place: _times(slope, d) for place, d in db.items()}
                growth = _led(power, lambda env: np.log(base(env)))
                for place, d in de.items():
                    term = _times(growth, d)
                    out[place] = _OPERATORS[ast.Add](out[place], term) if place in out else term
                return power, out, True
            case ast.BinOp(left, op, right) if type(op) in _OPERATORS:
                (a, da, reads_a), (b, db, reads_b) = self._build(left), self._build(right)
                value = _OPERATORS[type(op)](a, b)
                match op:
                    case ast.Add() | ast.Sub():
                        out = dict(da)
                        for place, d in db.items():
                            if place in da:
                                out[place] = _OPERATORS[type(op)](da[place], d)
                            else:
                                out[place] = d if isinstance(op, ast.Add) else _negated(d)
                    case ast.Mult():
                        out = {}
                        for place, d in da.items():
                            out[place] = _times(d, b)
                        for place, d in db.items():
                            term = _times(a, d)
                            out[place] = _OPERATORS[ast.Add](out[place], term) if place in out else term
                    case ast.Div():  # (a / b)' = (a' - (a / b) b') / b
                        out = {}
                        for place in da.keys() | db.keys():
                            if place not in db:
                                numerator = da[place]
                            else:
                                term = _times(value, db[place])
                                numerator = (_OPERATORS[ast.Sub](da[place], term) if place in da
                                             else _negated(term))
                            out[place] = _OPERATORS[ast.Div](numerator, b)
                return value, out, reads_a or reads_b
            case ast.UnaryOp(ast.USub(), operand):
                value, out, reads = self._build(operand)
                # negated in place: each walk returns a dict of its own
                for place, d in out.items():
                    out[place] = _negated(d)
                return _negated(value), out, reads
            case ast.UnaryOp(ast.UAdd(), operand):
                return self._build(operand)
            case ast.Constant() if _NUMBER.fullmatch(literal := self._piece(node)):
                number = float(literal)
                return (lambda env: number), {}, False
            case ast.Name(name) if name not in _FUNCTIONS:
                if name not in self.variables:
                    raise SpecError(
                        f"unknown variable {name!r} in {self.text!r} "
                        f"(allowed: {', '.join(sorted(self.variables)) or 'none'})"
                    )
                slot, index = place = self.variables[name]
                gradient = {place: _one} if slot > 0 else {}  # q or y, not t
                if index is None:
                    return (lambda env: env[slot]), gradient, True
                return (lambda env: env[slot].T[index]), gradient, True
            # gamma(x) written by name: not (gamma)(x), whose tree is the same
            case ast.Call(ast.Name(name), [arg], []) if (
                name in _FUNCTIONS and node.col_offset == node.func.col_offset
            ):
                fn, (inner, d_inner, reads) = _FUNCTIONS[name], self._build(arg)
                call = lambda env: fn(inner(env))
                if not reads:
                    return _folded(call), {}, False
                slope = _slope(fn, inner)
                return call, {place: _times(slope, d) for place, d in d_inner.items()}, True
        raise SpecError(f"unexpected {self._piece(node)!r} in {self.text!r}")


def _compile(text: str, variables: Mapping[str, _Place]) -> _Expression:
    """``text`` compiled with each variable name read from its place."""
    source = " ".join(text.split())
    foreign = _FOREIGN.search(source)
    if foreign:
        raise SpecError(f"unexpected character {foreign.group()!r} in expression {text!r}")
    if "**" in source:
        raise SpecError(f"unexpected '**' in {text!r} (a power is written ^)")
    source = _LEADING_ZEROS.sub("", source.replace("^", "**"))
    try:
        expression = _Expression(text, variables, source)
        # built here, not in __init__: constructing a class takes a level of
        # the recursion limit in the interpreter, which a deep tree needs
        expression.value, expression.gradient, _ = expression._build(
            ast.parse(source, mode="eval").body
        )
    except SyntaxError as exc:  # among them "too many nested parentheses", past 200
        raise SpecError(f"{exc.msg} in {text!r}") from exc
    # ast raises RecursionError or MemoryError for a tree too deep to build,
    # and _build raises RecursionError for one too deep to walk
    except (RecursionError, MemoryError):
        raise SpecError(f"expression nested too deeply: {text!r}") from None
    return expression


# Compiled expressions by (text, the variables' places), for _compile_once
_Compiled = dict[tuple[str, tuple[tuple[str, _Place], ...]], _Expression]


def _compile_once(compiled: _Compiled, text: str, variables: Mapping[str, _Place]) -> _Expression:
    """``_compile(text, variables)``, kept in ``compiled`` and returned from
    there for the same text and variable places: the expression's value and
    partials are functions of those alone.  A text that fails to compile is
    not kept."""
    key = (text, tuple(variables.items()))
    if key not in compiled:
        compiled[key] = _compile(text, variables)
    return compiled[key]


def parse_expression(text: str, variables: tuple[str, ...] = ()) -> Callable:
    """Compile ``text``; call the result with a mapping from each variable to its value."""
    names = tuple(variables)
    fn = _compile(text, {name: (i, None) for i, name in enumerate(names)}).value
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

@dataclass(frozen=True)
class ProblemSpec:
    """Parsed, validated contents of a problem spec file.

    The value rules are checked on construction, so that a spec made by
    ``dataclasses.replace`` meets them too.  ``compiled`` keeps each
    expression's closures, those that ``parse_spec`` built to validate it
    among them, so that a command compiles no text twice; ``replace`` shares
    it."""

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
    compiled: _Compiled = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise SpecError(f"alpha must lie in (0, 1], got {self.alpha}")
        if self.a >= self.b:
            raise SpecError(f"need a < b, got [{self.a}, {self.b}]")
        for name, value in (("m", self.m), ("dim", self.dim), ("controls", self.control_dim)):
            _check_size(name, value)

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
        (``fields._pointwise``).  A RecursionError from a tree that compiled
        but is too deep to evaluate where it is called is a SpecError."""
        texts = [text] if isinstance(text, str) else text
        return _bound(key, text, [_compile_once(self.compiled, s, self.variables(key)).value
                                  for s in texts])

    def partials(self, key: str, text: str | list[str]) -> tuple[Callable, Callable]:
        """The exact first partials of the expression under `key` (L, g or
        phi) in q and in y, as callables of (t, q, y): the ``grad_x`` and
        ``grad_y`` of a ``PointField``, or for a list of expressions the
        ``jac_x`` and ``jac_y`` of a ``VectorField``.  gamma of an argument
        that reads a q or y component takes its own derivative by central
        differences (``_Expression._build``).

        At one point they return shape (n,), or (k, n) for a list of k
        expressions, n being the dimension of q or of y; over M points,
        points first, (M, n) or (M, k, n).  A partial that is structurally
        zero broadcasts to M.  The callables are marked ``whole_array``, as
        ``compile``'s are."""
        places = self.variables(key)
        texts = [text] if isinstance(text, str) else text
        gradients = [_compile_once(self.compiled, s, places).gradient for s in texts]
        return tuple(
            _bound(key, text, [[g.get(p, _zero) for p in places.values() if p[0] == slot]
                               for g in gradients])
            for slot in (1, 2)
        )


# The least value of each size, by its key.  A residual report leaves out
# DEFAULT_BAND nodes at each end, so m >= 2 * DEFAULT_BAND keeps a node to
# fold its norms over.
_LEAST_SIZE = {"m": 2 * DEFAULT_BAND, "dim": 1, "controls": 1}


def _check_size(name: str, value: int) -> None:
    if value < _LEAST_SIZE[name]:
        raise SpecError(f"{name} must be >= {_LEAST_SIZE[name]}, got {value}")


def _bound(key: str, text: str | list[str], table: list) -> Callable:
    """A callable of the key's arguments, marked ``whole_array``, that
    evaluates ``table`` with those arguments as the environment tuple: for
    each text of ``text``, a function of that tuple, or a row of them.  Each
    result is a float at one point, or filled to t's shape (M,).  A row's
    results stack, and then the entries of a list of texts, on axis 0 at one
    point and on axis 1 at M points.  A RecursionError inside, from a tree
    that compiled but is too deep to evaluate where it is called, is a
    SpecError naming ``key``."""

    def value(env):
        t = env[0]
        try:
            entries = [
                np.stack([_filled(t, f(env)) for f in entry], np.ndim(t))
                if isinstance(entry, list) else _filled(t, entry(env))
                for entry in table
            ]
        except RecursionError:
            raise SpecError(f"in {key}: expression nested too deeply to evaluate: {text!r}") from None
        return entries[0] if isinstance(text, str) else np.stack(entries, np.ndim(t))

    def bound(*args):
        return value(args)

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


def _constant(
    compiled: _Compiled, key: str, value: str, lineno: int, integer: bool = False
) -> float:
    """The value of a constant expression, compiled through ``compiled``;
    failing to parse or to evaluate it (division by zero, overflow, a gamma
    pole, a complex power), a value that is not finite, or one that is not
    an integer where ``integer`` asks for one, is a SpecError.  numpy's
    floating-point warnings raise here, as FloatingPointError, so that they
    become that SpecError too."""
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            number = float(_compile_once(compiled, value, {}).value(()))
    except (ArithmeticError, ValueError, TypeError) as exc:
        raise SpecError(f"in {key}: {exc}", lineno) from exc
    if integer and not number.is_integer():
        raise SpecError(f"{key} must be an integer, got {value!r}", lineno)
    if not np.isfinite(number):
        raise SpecError(f"in {key}: {value!r} is not finite", lineno)
    return number


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
    compiled: _Compiled = {}

    def const(key: str, default: float | None = None, integer: bool = False) -> float | int | None:
        if key not in pairs:
            return default
        number = _constant(compiled, key, *pairs.pop(key), integer=integer)
        return int(number) if integer else number

    alpha = const("alpha")
    if alpha is None:
        raise SpecError("missing required key 'alpha'")
    a = const("a", 0.0)
    b = const("b", 1.0)
    m = const("m", 500, integer=True)
    dim = const("dim", 1, integer=True)
    control_dim = const("controls", 1, integer=True)
    # the sizes count the indexed keys read below
    _check_size("dim", dim)
    _check_size("controls", control_dim)

    if "L" not in pairs:
        raise SpecError("missing required key 'L'")
    lagrangian = pairs.pop("L")[0]

    def entries(stem: str, expected: int | None = None) -> list[tuple[str, str, int]]:
        raw = _indexed(pairs, stem)
        if raw and expected is not None and len(raw) != expected:
            raise SpecError(f"expected {expected} {stem!r} entries, got {len(raw)}", raw[0][2])
        return raw

    def const_list(stem: str, expected: int) -> list[float] | None:
        return [_constant(compiled, *entry) for entry in entries(stem, expected)] or None

    def expr_list(stem: str, expected: int) -> list[str] | None:
        return [value for _, value, _ in entries(stem, expected)] or None

    gs = [value for _, value, _ in entries("g")]
    levels_raw = entries("l")
    if len(levels_raw) != len(gs):
        raise SpecError(
            f"{len(gs)} constraint expressions but {len(levels_raw)} levels"
        )
    levels = [_constant(compiled, *entry) for entry in levels_raw]

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
        compiled=compiled,
    )

    # compile every expression, so that bad syntax or an unknown variable is
    # a parse-time diagnostic with its line; the closures are kept for use
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
