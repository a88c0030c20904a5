"""Syntax of LCVM, the untyped Scheme-like target of §4 and §5 (Fig. 6, Fig. 12).

``e ::= () | n | ℓ | x | (e,e) | fst e | snd e | inl e | inr e
      | if e {e} {e} | match e x {e} y {e} | let x = e in e
      | λx{e} | e e | ref e | !e | e := e | fail c
      | alloc e | free e | gcmov e | callgc``          (§5 additions, Fig. 12)

Values are ``() | n | ℓ | (v, v) | λx.e`` plus injected values ``inl v`` /
``inr v`` (needed because MiniML sums compile to LCVM injections).

Branch selection follows the compilers of the paper: ``if`` scrutinizes an
integer and takes the *first* branch when it is ``0`` (the encoding of
``true``), the second otherwise; this matches the ``thunk``/``guard`` macros
of Fig. 8/Fig. 10 and the boolean conversions of Fig. 9.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union, get_args

from repro.core.errors import ErrorCode
from repro.core.snapshots import share_by_reference

# ---------------------------------------------------------------------------
# Expressions (values are a subset of expressions)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Unit:
    def __str__(self) -> str:
        return "()"


@dataclass(frozen=True)
class Int:
    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Loc:
    address: int

    def __str__(self) -> str:
        return f"ℓ{self.address}"


@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Pair:
    first: "Expr"
    second: "Expr"

    def __str__(self) -> str:
        return f"({self.first}, {self.second})"


@dataclass(frozen=True)
class Fst:
    body: "Expr"

    def __str__(self) -> str:
        return f"(fst {self.body})"


@dataclass(frozen=True)
class Snd:
    body: "Expr"

    def __str__(self) -> str:
        return f"(snd {self.body})"


@dataclass(frozen=True)
class Inl:
    body: "Expr"

    def __str__(self) -> str:
        return f"(inl {self.body})"


@dataclass(frozen=True)
class Inr:
    body: "Expr"

    def __str__(self) -> str:
        return f"(inr {self.body})"


@dataclass(frozen=True)
class If:
    condition: "Expr"
    then_branch: "Expr"
    else_branch: "Expr"

    def __str__(self) -> str:
        return f"(if {self.condition} {{{self.then_branch}}} {{{self.else_branch}}})"


@dataclass(frozen=True)
class Match:
    scrutinee: "Expr"
    left_name: str
    left_branch: "Expr"
    right_name: str
    right_branch: "Expr"

    def __str__(self) -> str:
        return (
            f"(match {self.scrutinee} {self.left_name}{{{self.left_branch}}} "
            f"{self.right_name}{{{self.right_branch}}})"
        )


@dataclass(frozen=True)
class Let:
    name: str
    bound: "Expr"
    body: "Expr"

    def __str__(self) -> str:
        return f"(let {self.name} = {self.bound} in {self.body})"


@dataclass(frozen=True)
class Lam:
    parameter: str
    body: "Expr"

    def __str__(self) -> str:
        return f"(λ{self.parameter}. {self.body})"


@dataclass(frozen=True)
class App:
    function: "Expr"
    argument: "Expr"

    def __str__(self) -> str:
        return f"({self.function} {self.argument})"


@dataclass(frozen=True)
class NewRef:
    """``ref e`` — allocate a *garbage-collected* cell."""

    initial: "Expr"

    def __str__(self) -> str:
        return f"(ref {self.initial})"


@dataclass(frozen=True)
class Deref:
    reference: "Expr"

    def __str__(self) -> str:
        return f"(! {self.reference})"


@dataclass(frozen=True)
class Assign:
    reference: "Expr"
    value: "Expr"

    def __str__(self) -> str:
        return f"({self.reference} := {self.value})"


@dataclass(frozen=True)
class Fail:
    code: ErrorCode

    def __str__(self) -> str:
        return f"(fail {self.code})"


# -- arithmetic helpers (used by the Affi/MiniML compilers for +) -------------


@dataclass(frozen=True)
class BinOp:
    """Primitive integer operation; ``op`` is one of ``+``, ``-``, ``*``, ``<``."""

    op: str
    left: "Expr"
    right: "Expr"

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


# -- Fig. 12 extension ---------------------------------------------------------


@dataclass(frozen=True)
class Alloc:
    """``alloc e`` — allocate a *manually managed* cell."""

    initial: "Expr"

    def __str__(self) -> str:
        return f"(alloc {self.initial})"


@dataclass(frozen=True)
class Free:
    """``free e`` — free a manually managed cell (``Ptr`` error on GC'd cells)."""

    reference: "Expr"

    def __str__(self) -> str:
        return f"(free {self.reference})"


@dataclass(frozen=True)
class GcMov:
    """``gcmov e`` — hand a manually managed cell over to the garbage collector."""

    reference: "Expr"

    def __str__(self) -> str:
        return f"(gcmov {self.reference})"


@dataclass(frozen=True)
class CallGc:
    """``callgc`` — explicitly invoke the garbage collector."""

    def __str__(self) -> str:
        return "callgc"


@dataclass(frozen=True)
class Protect:
    """``protect(e, f)`` — §4's *augmented-semantics-only* form (Fig. 10).

    It never appears in compiled programs; the phantom-flag machine introduces
    it when a static affine binder is instantiated, and reducing it consumes
    the phantom flag ``flag``.  The standard machine treats it as stuck, and
    erasure (``repro.interop_affine.phantom.erase``) removes it.
    """

    body: "Expr"
    flag: str

    def __str__(self) -> str:
        return f"protect({self.body}, {self.flag})"


Expr = Union[
    Unit,
    Int,
    Loc,
    Var,
    Pair,
    Fst,
    Snd,
    Inl,
    Inr,
    If,
    Match,
    Let,
    Lam,
    App,
    NewRef,
    Deref,
    Assign,
    Fail,
    BinOp,
    Alloc,
    Free,
    GcMov,
    CallGc,
    Protect,
]

# Expressions are immutable, so machine snapshots share them with the live
# machine instead of copying the program at every slice boundary.
share_by_reference(*get_args(Expr))

UNIT = Unit()


def let_sequence(*steps: Expr) -> Expr:
    """``let _ = e₁ in … in e_n`` — run the steps for effect, return the last."""
    if not steps:
        return UNIT
    result = steps[-1]
    for step_expr in reversed(steps[:-1]):
        result = Let("_", step_expr, result)
    return result


def is_value(expr: Expr) -> bool:
    """Return True when ``expr`` is an LCVM value."""
    if isinstance(expr, (Unit, Int, Loc, Lam)):
        return True
    if isinstance(expr, Pair):
        return is_value(expr.first) and is_value(expr.second)
    if isinstance(expr, (Inl, Inr)):
        return is_value(expr.body)
    return False


def substitute(expr: Expr, name: str, value: Expr) -> Expr:
    """Capture-avoiding substitution ``[x ↦ v]e`` (values are closed)."""
    if isinstance(expr, Var):
        return value if expr.name == name else expr
    if isinstance(expr, (Unit, Int, Loc, Fail, CallGc)):
        return expr
    if isinstance(expr, Pair):
        return Pair(substitute(expr.first, name, value), substitute(expr.second, name, value))
    if isinstance(expr, Fst):
        return Fst(substitute(expr.body, name, value))
    if isinstance(expr, Snd):
        return Snd(substitute(expr.body, name, value))
    if isinstance(expr, Inl):
        return Inl(substitute(expr.body, name, value))
    if isinstance(expr, Inr):
        return Inr(substitute(expr.body, name, value))
    if isinstance(expr, If):
        return If(
            substitute(expr.condition, name, value),
            substitute(expr.then_branch, name, value),
            substitute(expr.else_branch, name, value),
        )
    if isinstance(expr, Match):
        left = expr.left_branch if expr.left_name == name else substitute(expr.left_branch, name, value)
        right = expr.right_branch if expr.right_name == name else substitute(expr.right_branch, name, value)
        return Match(substitute(expr.scrutinee, name, value), expr.left_name, left, expr.right_name, right)
    if isinstance(expr, Let):
        bound = substitute(expr.bound, name, value)
        body = expr.body if expr.name == name else substitute(expr.body, name, value)
        return Let(expr.name, bound, body)
    if isinstance(expr, Lam):
        if expr.parameter == name:
            return expr
        return Lam(expr.parameter, substitute(expr.body, name, value))
    if isinstance(expr, App):
        return App(substitute(expr.function, name, value), substitute(expr.argument, name, value))
    if isinstance(expr, NewRef):
        return NewRef(substitute(expr.initial, name, value))
    if isinstance(expr, Deref):
        return Deref(substitute(expr.reference, name, value))
    if isinstance(expr, Assign):
        return Assign(substitute(expr.reference, name, value), substitute(expr.value, name, value))
    if isinstance(expr, BinOp):
        return BinOp(expr.op, substitute(expr.left, name, value), substitute(expr.right, name, value))
    if isinstance(expr, Alloc):
        return Alloc(substitute(expr.initial, name, value))
    if isinstance(expr, Free):
        return Free(substitute(expr.reference, name, value))
    if isinstance(expr, GcMov):
        return GcMov(substitute(expr.reference, name, value))
    if isinstance(expr, Protect):
        return Protect(substitute(expr.body, name, value), expr.flag)
    raise TypeError(f"unknown LCVM expression {expr!r}")


def substitute_many(expr: Expr, bindings) -> Expr:
    """Apply several substitutions in sequence."""
    for name, value in bindings:
        expr = substitute(expr, name, value)
    return expr


def free_variables(expr: Expr) -> frozenset:
    """Free variables of an LCVM expression."""
    if isinstance(expr, Var):
        return frozenset({expr.name})
    if isinstance(expr, (Unit, Int, Loc, Fail, CallGc)):
        return frozenset()
    if isinstance(expr, Pair):
        return free_variables(expr.first) | free_variables(expr.second)
    if isinstance(expr, (Fst, Snd, Inl, Inr, NewRef, Deref, Alloc, Free, GcMov, Protect)):
        inner = getattr(expr, "body", None) or getattr(expr, "initial", None) or getattr(expr, "reference", None)
        return free_variables(inner)
    if isinstance(expr, If):
        return free_variables(expr.condition) | free_variables(expr.then_branch) | free_variables(expr.else_branch)
    if isinstance(expr, Match):
        return (
            free_variables(expr.scrutinee)
            | (free_variables(expr.left_branch) - {expr.left_name})
            | (free_variables(expr.right_branch) - {expr.right_name})
        )
    if isinstance(expr, Let):
        return free_variables(expr.bound) | (free_variables(expr.body) - {expr.name})
    if isinstance(expr, Lam):
        return free_variables(expr.body) - {expr.parameter}
    if isinstance(expr, App):
        return free_variables(expr.function) | free_variables(expr.argument)
    if isinstance(expr, Assign):
        return free_variables(expr.reference) | free_variables(expr.value)
    if isinstance(expr, BinOp):
        return free_variables(expr.left) | free_variables(expr.right)
    raise TypeError(f"unknown LCVM expression {expr!r}")


def mentioned_locations(expr: Expr) -> frozenset:
    """All heap locations syntactically mentioned by ``expr`` (GC roots)."""
    if isinstance(expr, Loc):
        return frozenset({expr.address})
    if isinstance(expr, (Unit, Int, Var, Fail, CallGc)):
        return frozenset()
    locations: set = set()
    for attribute in ("first", "second", "body", "condition", "then_branch", "else_branch",
                      "scrutinee", "left_branch", "right_branch", "bound", "function",
                      "argument", "initial", "reference", "value", "left", "right"):
        child = getattr(expr, attribute, None)
        if child is not None and not isinstance(child, (str, int)):
            locations |= mentioned_locations(child)
    return frozenset(locations)
