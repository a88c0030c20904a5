"""Syntax of StackLang, the untyped stack-machine target of §3 (Fig. 2).

A *program* is a sequence of instructions executed against a configuration
``⟨H; S; P⟩`` of a heap, a stack, and the remaining program.  Values are
numbers, suspended computations (thunks), heap locations, and arrays of
values.  ``lam x. P`` is an *instruction* (not a value) responsible solely for
substitution, following call-by-push-value; ``thunk P`` is the corresponding
suspended computation.

Programs are represented as tuples of instructions so they are hashable and
can be compared structurally (the test suite checks compiler output against
expected programs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union, get_args

from repro.core.errors import ErrorCode
from repro.core.snapshots import share_by_reference

# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    """An integer value ``n``."""

    number: int

    def __str__(self) -> str:
        return str(self.number)


@dataclass(frozen=True)
class Loc:
    """A heap location ``ℓ``."""

    address: int

    def __str__(self) -> str:
        return f"ℓ{self.address}"


@dataclass(frozen=True)
class Thunk:
    """A suspended computation ``thunk P``."""

    program: "Program"

    def __str__(self) -> str:
        return f"thunk({program_to_str(self.program)})"


@dataclass(frozen=True)
class Arr:
    """An array of values ``[v, ...]``."""

    items: Tuple["Value", ...]

    def __str__(self) -> str:
        return "[" + ", ".join(str(item) for item in self.items) + "]"

    def __len__(self) -> int:
        return len(self.items)


Value = Union[Num, Loc, Thunk, Arr]


def is_value(candidate: object) -> bool:
    """Return True if ``candidate`` is a StackLang value."""
    return isinstance(candidate, (Num, Loc, Thunk, Arr))


# ---------------------------------------------------------------------------
# Instructions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    """An occurrence of a ``lam``-bound variable inside a program.

    ``push x`` pushes the value substituted for ``x``; executing it before
    substitution is a dynamic type error.
    """

    name: str

    def __str__(self) -> str:
        return self.name


Operand = Union[Value, Var]


@dataclass(frozen=True)
class Push:
    """``push v`` — push a value (or a substituted variable) onto the stack."""

    operand: Operand

    def __str__(self) -> str:
        return f"push {self.operand}"


@dataclass(frozen=True)
class Add:
    """``add`` — pop two numbers, push their sum."""

    def __str__(self) -> str:
        return "add"


@dataclass(frozen=True)
class Less:
    """``less?`` — pop ``n`` then ``n'``; push 0 if ``n < n'`` else 1."""

    def __str__(self) -> str:
        return "less?"


@dataclass(frozen=True)
class If0:
    """``if0 P1 P2`` — pop a number; run ``P1`` if it is 0, else ``P2``."""

    then_program: "Program"
    else_program: "Program"

    def __str__(self) -> str:
        return f"if0 ({program_to_str(self.then_program)}) ({program_to_str(self.else_program)})"


@dataclass(frozen=True)
class Lam:
    """``lam xn, ..., x1. P`` — pop one value per binder and substitute into ``P``.

    Binders are popped left to right, i.e. the first binder receives the top
    of the stack (this matches the multi-binder uses in Fig. 3, e.g.
    ``lam x2, x1. (push [x1, x2])``).
    """

    binders: Tuple[str, ...]
    body: "Program"

    def __str__(self) -> str:
        return f"lam {', '.join(self.binders)}. ({program_to_str(self.body)})"


@dataclass(frozen=True)
class Call:
    """``call`` — pop a thunk and run its program."""

    def __str__(self) -> str:
        return "call"


@dataclass(frozen=True)
class Idx:
    """``idx`` — pop an index and an array; push the element (or fail Idx)."""

    def __str__(self) -> str:
        return "idx"


@dataclass(frozen=True)
class Len:
    """``len`` — pop an array; push its length."""

    def __str__(self) -> str:
        return "len"


@dataclass(frozen=True)
class Alloc:
    """``alloc`` — pop a value, allocate a fresh location holding it, push ℓ."""

    def __str__(self) -> str:
        return "alloc"


@dataclass(frozen=True)
class Read:
    """``read`` — pop a location, push its contents."""

    def __str__(self) -> str:
        return "read"


@dataclass(frozen=True)
class Write:
    """``write`` — pop a value and a location, store the value at the location."""

    def __str__(self) -> str:
        return "write"


@dataclass(frozen=True)
class Fail:
    """``fail c`` — abort execution with error code ``c``."""

    code: ErrorCode

    def __str__(self) -> str:
        return f"fail {self.code}"


Instruction = Union[Push, Add, Less, If0, Lam, Call, Idx, Len, Alloc, Read, Write, Fail]

#: A program is a (possibly empty) sequence of instructions.
Program = Tuple[Instruction, ...]

# Operands and instructions are immutable, so machine snapshots share them
# (and programs, tuples of them) with the live machine instead of copying.
share_by_reference(*get_args(Operand), *get_args(Instruction))


def program(*instructions: Instruction) -> Program:
    """Build a program from instructions (flattening nested tuples)."""
    flat = []
    for instruction in instructions:
        if isinstance(instruction, tuple):
            flat.extend(instruction)
        else:
            flat.append(instruction)
    return tuple(flat)


def program_to_str(prog: Program) -> str:
    """Render a program as a comma-separated instruction listing."""
    return ", ".join(str(instruction) for instruction in prog)


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------


def substitute_program(prog: Program, name: str, value: Value) -> Program:
    """Capture-avoiding substitution ``[x ↦ v]P`` over a program."""
    return tuple(_substitute_instruction(instruction, name, value) for instruction in prog)


def _substitute_instruction(instruction: Instruction, name: str, value: Value) -> Instruction:
    if isinstance(instruction, Push):
        return Push(_substitute_operand(instruction.operand, name, value))
    if isinstance(instruction, If0):
        return If0(
            substitute_program(instruction.then_program, name, value),
            substitute_program(instruction.else_program, name, value),
        )
    if isinstance(instruction, Lam):
        if name in instruction.binders:
            return instruction
        return Lam(instruction.binders, substitute_program(instruction.body, name, value))
    return instruction


def _substitute_operand(operand: Operand, name: str, value: Value) -> Operand:
    if isinstance(operand, Var):
        return value if operand.name == name else operand
    if isinstance(operand, Thunk):
        return Thunk(substitute_program(operand.program, name, value))
    if isinstance(operand, Arr):
        return Arr(tuple(_substitute_operand(item, name, value) for item in operand.items))
    return operand


def free_variables(prog: Program) -> frozenset:
    """Return the free ``lam``-variables of a program."""
    free: set = set()
    _collect_free_program(prog, frozenset(), free)
    return frozenset(free)


def _collect_free_program(prog: Program, bound: frozenset, accumulator: set) -> None:
    for instruction in prog:
        _collect_free_instruction(instruction, bound, accumulator)


def _collect_free_instruction(instruction: Instruction, bound: frozenset, accumulator: set) -> None:
    if isinstance(instruction, Push):
        _collect_free_operand(instruction.operand, bound, accumulator)
    elif isinstance(instruction, If0):
        _collect_free_program(instruction.then_program, bound, accumulator)
        _collect_free_program(instruction.else_program, bound, accumulator)
    elif isinstance(instruction, Lam):
        _collect_free_program(instruction.body, bound | frozenset(instruction.binders), accumulator)


def _collect_free_operand(operand: Operand, bound: frozenset, accumulator: set) -> None:
    if isinstance(operand, Var):
        if operand.name not in bound:
            accumulator.add(operand.name)
    elif isinstance(operand, Thunk):
        _collect_free_program(operand.program, bound, accumulator)
    elif isinstance(operand, Arr):
        for item in operand.items:
            _collect_free_operand(item, bound, accumulator)
