"""An environment/closure-based StackLang machine (no substitution).

The reference machine (:mod:`repro.stacklang.machine`) follows Fig. 2
literally: ``lam`` *substitutes* the popped values into the body, copying the
program text on every binding.  This machine is the fast, observably
equivalent engine in the style of the LCVM CEK machine: variables are looked
up in a shared immutable environment, thunks capture the environment they
close over, and control is a stack of ``(program, pc, env)`` segments, so
each instruction costs O(1) amortized regardless of program size.

Observable behaviour matches the reference machine: the same statuses, the
same error codes (``fail Type`` for unmet stack preconditions, ``fail Idx``
for out-of-bounds indexing), the same heap addresses (both allocators hand
out ``max + 1``), and the same final stack — runtime thunks and arrays are
reified back to syntax on exit.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.errors import ErrorCode
from repro.core.snapshots import check_snapshot, make_snapshot
from repro.stacklang import syntax as s
from repro.stacklang.machine import Config, FailStack, MachineResult, Status

__all__ = [
    "ArrV",
    "CThunkV",
    "CompiledExecution",
    "SegmentExecution",
    "ThunkV",
    "compile_program",
    "compiled_cache_stats",
    "run",
    "run_compiled",
]


#: Environments are immutable cons cells ``(name, value, parent)``; ``None``
#: is the empty environment.
Env = Optional[Tuple[str, object, "Env"]]


@dataclass(frozen=True)
class ThunkV:
    """A suspended program together with the environment it closes over."""

    program: s.Program
    environment: Env

    def __str__(self) -> str:
        return f"<thunk/{len(self.program)}>"


@dataclass(frozen=True)
class ArrV:
    """An array of runtime values."""

    items: Tuple[object, ...]

    def __len__(self) -> int:
        return len(self.items)

    def __str__(self) -> str:
        return "[" + ", ".join(str(item) for item in self.items) + "]"


_MISSING = object()


def _lookup(env: Env, name: str) -> object:
    while env is not None:
        if env[0] == name:
            return env[1]
        env = env[2]
    return _MISSING


def _resolve(operand: object, env: Env) -> object:
    """Resolve a push operand to a runtime value (``_MISSING`` for unbound vars)."""
    if isinstance(operand, (s.Num, s.Loc)):
        return operand
    if isinstance(operand, s.Var):
        return _lookup(env, operand.name)
    if isinstance(operand, s.Thunk):
        return ThunkV(operand.program, env)
    if isinstance(operand, s.Arr):
        items = []
        for item in operand.items:
            resolved = _resolve(item, env)
            # The reference machine leaves unbound variables inside arrays
            # untouched (substitution simply does not fire); mirror that.
            items.append(item if resolved is _MISSING else resolved)
        return ArrV(tuple(items))
    return operand


def _reify(value: object) -> s.Value:
    """Convert a runtime value back to the syntax value it denotes."""
    if isinstance(value, (ThunkV, CThunkV)):
        program = value.program
        remaining = set(s.free_variables(program))
        cell = value.environment
        while cell is not None and remaining:
            name, bound, cell = cell
            if name in remaining:
                program = s.substitute_program(program, name, _reify(bound))
                remaining.discard(name)
        return s.Thunk(program)
    if isinstance(value, ArrV):
        return s.Arr(tuple(_reify(item) for item in value.items))
    return value


@dataclass(frozen=True)
class _Segment:
    """One region of program text executing under one environment."""

    program: s.Program
    env: Env


def run(
    program: s.Program,
    heap: Optional[Dict[int, s.Value]] = None,
    stack: Optional[List[s.Value]] = None,
    fuel: int = 100_000,
) -> MachineResult:
    """Run ``program`` on the closure machine; mirrors ``machine.run``.

    One maximal slice of :class:`SegmentExecution`; serving code holding
    several programs uses the execution object directly and slices the
    instruction stream itself.
    """
    return SegmentExecution(program, heap=heap, stack=stack, fuel=fuel).run()


class SegmentExecution:
    """A resumable segment machine: run in bounded slices.

    ``step_n(limit)`` advances the machine by at most ``limit`` instructions
    and returns the final :class:`~repro.stacklang.machine.MachineResult`
    once the machine halts (or its *per-execution* fuel budget runs out), or
    ``None`` while there is work and fuel left.  The whole machine state
    (value stack, control segments, heap, step count) lives on the execution
    object between slices; the observable result is identical to an
    uninterrupted :func:`run` regardless of slicing.
    """

    __slots__ = ("fuel", "steps", "result", "_heap_cells", "_next_address", "_values", "_control")

    #: The snapshot tag this machine writes and restores (see
    #: :mod:`repro.core.snapshots` for the format contract).
    SNAPSHOT_KIND = "stacklang/cek"

    def __init__(
        self,
        program: s.Program,
        heap: Optional[Dict[int, s.Value]] = None,
        stack: Optional[List[s.Value]] = None,
        fuel: int = 100_000,
    ):
        self._heap_cells: Dict[int, object] = dict(heap or {})
        self._next_address = max(self._heap_cells.keys(), default=-1) + 1
        self._values: List[object] = list(stack if stack is not None else [])
        # Control: a stack of (program, pc, env) entries; the top is executing.
        self._control: List[List[object]] = [[tuple(program), 0, None]]
        self.fuel = fuel
        self.steps = 0
        self.result: Optional[MachineResult] = None

    def snapshot(self) -> dict:
        """Reify the paused machine as a versioned, process-portable dict.

        The segment machine's whole state — value stack, control segments
        (program text, pc, environment cons cells), heap cells — is plain
        data; the state pickles as-is.
        """
        if self.result is not None:
            raise ValueError("cannot snapshot a finished execution")
        return make_snapshot(
            self.SNAPSHOT_KIND,
            {
                "fuel": self.fuel,
                "steps": self.steps,
                "heap_cells": self._heap_cells,
                "next_address": self._next_address,
                "values": self._values,
                "control": [list(segment) for segment in self._control],
            },
        )

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "SegmentExecution":
        """Rebuild a paused machine from :meth:`snapshot` output."""
        state = check_snapshot(snapshot, cls.SNAPSHOT_KIND)
        execution = cls.__new__(cls)
        execution._heap_cells = state["heap_cells"]
        execution._next_address = state["next_address"]
        execution._values = state["values"]
        execution._control = [list(segment) for segment in state["control"]]
        execution.fuel = state["fuel"]
        execution.steps = state["steps"]
        execution.result = None
        return execution

    def step_n(self, limit: int) -> Optional[MachineResult]:
        """Run at most ``limit`` instructions; the result when halted, else None."""
        if limit < 1:
            raise ValueError(f"step_n limit must be >= 1, got {limit}")
        if self.result is not None:
            return self.result
        heap_cells = self._heap_cells
        values = self._values
        control = self._control
        steps = self.steps
        fuel = self.fuel
        budget = fuel if fuel - steps <= limit else steps + limit
        failure: Optional[ErrorCode] = None

        def fail(code: ErrorCode) -> None:
            nonlocal failure
            failure = code

        while failure is None:
            while control and control[-1][1] >= len(control[-1][0]):
                control.pop()
            if not control:
                break
            if steps >= budget:
                self.steps = steps
                if steps < fuel:
                    return None
                final = Config(dict(heap_cells), [_reify(v) for v in values], ())
                self.result = MachineResult(Status.OUT_OF_FUEL, final, steps)
                return self.result
            steps += 1

            segment = control[-1]
            instruction = segment[0][segment[1]]
            segment[1] += 1
            env: Env = segment[2]

            if isinstance(instruction, s.Push):
                value = _resolve(instruction.operand, env)
                if value is _MISSING:
                    fail(ErrorCode.TYPE)
                else:
                    values.append(value)
            elif isinstance(instruction, s.Add):
                if len(values) < 2 or not isinstance(values[-1], s.Num) or not isinstance(values[-2], s.Num):
                    fail(ErrorCode.TYPE)
                else:
                    top, second = values.pop(), values.pop()
                    values.append(s.Num(top.number + second.number))
            elif isinstance(instruction, s.Less):
                if len(values) < 2 or not isinstance(values[-1], s.Num) or not isinstance(values[-2], s.Num):
                    fail(ErrorCode.TYPE)
                else:
                    top, second = values.pop(), values.pop()
                    values.append(s.Num(0) if top.number < second.number else s.Num(1))
            elif isinstance(instruction, s.If0):
                if not values or not isinstance(values[-1], s.Num):
                    fail(ErrorCode.TYPE)
                else:
                    scrutinee = values.pop()
                    branch = instruction.then_program if scrutinee.number == 0 else instruction.else_program
                    control.append([branch, 0, env])
            elif isinstance(instruction, s.Lam):
                if len(values) < len(instruction.binders):
                    fail(ErrorCode.TYPE)
                else:
                    extended = env
                    for binder in instruction.binders:
                        extended = (binder, values.pop(), extended)
                    control.append([instruction.body, 0, extended])
            elif isinstance(instruction, s.Call):
                if not values or not isinstance(values[-1], ThunkV):
                    fail(ErrorCode.TYPE)
                else:
                    thunk = values.pop()
                    control.append([thunk.program, 0, thunk.environment])
            elif isinstance(instruction, s.Idx):
                if len(values) < 2 or not isinstance(values[-1], s.Num) or not isinstance(values[-2], ArrV):
                    fail(ErrorCode.TYPE)
                else:
                    index, array = values.pop(), values.pop()
                    if not 0 <= index.number < len(array.items):
                        fail(ErrorCode.IDX)
                    else:
                        values.append(array.items[index.number])
            elif isinstance(instruction, s.Len):
                if not values or not isinstance(values[-1], ArrV):
                    fail(ErrorCode.TYPE)
                else:
                    values.append(s.Num(len(values.pop().items)))
            elif isinstance(instruction, s.Alloc):
                if not values:
                    fail(ErrorCode.TYPE)
                else:
                    address = self._next_address
                    heap_cells[address] = values.pop()
                    values.append(s.Loc(address))
                    self._next_address = address + 1
            elif isinstance(instruction, s.Read):
                if not values or not isinstance(values[-1], s.Loc) or values[-1].address not in heap_cells:
                    fail(ErrorCode.TYPE)
                else:
                    values.append(heap_cells[values.pop().address])
            elif isinstance(instruction, s.Write):
                if len(values) < 2 or not isinstance(values[-2], s.Loc) or values[-2].address not in heap_cells:
                    fail(ErrorCode.TYPE)
                else:
                    value, location = values.pop(), values.pop()
                    heap_cells[location.address] = value
            elif isinstance(instruction, s.Fail):
                fail(instruction.code)
            else:
                self.steps = steps
                final = Config(dict(heap_cells), [_reify(v) for v in values], ())
                self.result = MachineResult(Status.STUCK, final, steps)
                return self.result

        self.steps = steps
        reified_heap = {address: _reify(value) for address, value in heap_cells.items()}
        if failure is not None:
            self.result = MachineResult(Status.FAIL, Config(reified_heap, FailStack(failure), ()), steps)
            return self.result
        reified_stack = [_reify(v) for v in values]
        final = Config(reified_heap, reified_stack, ())
        status = Status.VALUE if reified_stack else Status.EMPTY
        self.result = MachineResult(status, final, steps)
        return self.result

    def run(self) -> MachineResult:
        """Drive the machine to completion in one maximal slice."""
        result = self.result
        while result is None:
            result = self.step_n(max(1, self.fuel))
        return result


# ===========================================================================
# PC-threaded machine (the ``cek-compiled`` backend)
# ===========================================================================
#
# The segment machine above still interprets: every instruction goes through
# an isinstance ladder, every ``If0``/``Lam``/``Call`` pushes a segment that
# the loop pops back off, and ``Push`` re-resolves its operand shape each
# time.  The pc-threaded machine compiles a program once into a flat array of
# handler closures with *resolved branch targets*:
#
# * ``if0`` becomes a conditional jump into inlined branch code (no
#   ``branch + rest`` splicing, no segment bookkeeping),
# * ``lam`` becomes an env-extend entry/exit bracket around its inlined body,
# * thunk programs compile into dedicated regions of the same array ended by
#   a return op; ``call`` jumps to the thunk's entry pc and a return stack
#   brings control (and the caller's environment) back,
# * ``push`` operands are pre-resolved: constants are pushed as-is, and a
#   thunk capture prunes the environment to the thunk's free variables.
#
# The steady-state loop is ``pc = code[pc](pc + 1, state)`` — one list index
# and one call per instruction.  Observable behaviour matches :func:`run`.

_OpState = list  # [values, rstack, estack, env, heap, next_address, failure, stuck]
_V, _RSTACK, _ESTACK, _ENV, _HEAP, _NEXT, _FAILURE, _STUCK = range(8)

Op = Callable[[int, _OpState], int]


class CThunkV:
    """A suspended program compiled to an entry pc, with its pruned environment."""

    __slots__ = ("entry", "environment", "program")

    def __init__(self, entry: int, environment: Env, program: s.Program):
        self.entry = entry
        self.environment = environment
        self.program = program  # syntax, so reification works unchanged

    def __str__(self) -> str:
        return f"<thunk/{len(self.program)}>"


def _prune(env: Env, needed: frozenset) -> Env:
    """Restrict ``env`` to the innermost binding of each name in ``needed``."""
    if env is None or not needed:
        return None
    kept = []
    remaining = set(needed)
    cell = env
    while cell is not None:
        if cell[0] in remaining:
            remaining.discard(cell[0])
            kept.append(cell)
            if not remaining:
                break
        cell = cell[2]
    pruned: Env = None
    for cell in reversed(kept):
        pruned = (cell[0], cell[1], pruned)
    return pruned


# -- fixed ops ----------------------------------------------------------------


def _op_halt(pc: int, st: _OpState) -> int:
    return -1


def _op_return(pc: int, st: _OpState) -> int:
    pc, st[_ENV] = st[_RSTACK].pop()
    return pc


def _op_env_exit(pc: int, st: _OpState) -> int:
    st[_ENV] = st[_ESTACK].pop()
    return pc


def _op_call(pc: int, st: _OpState) -> int:
    values = st[_V]
    if not values or type(values[-1]) is not CThunkV:
        st[_FAILURE] = ErrorCode.TYPE
        return -1
    thunk = values.pop()
    st[_RSTACK].append((pc, st[_ENV]))
    st[_ENV] = thunk.environment
    return thunk.entry


def _op_add(pc: int, st: _OpState) -> int:
    values = st[_V]
    if len(values) < 2 or type(values[-1]) is not s.Num or type(values[-2]) is not s.Num:
        st[_FAILURE] = ErrorCode.TYPE
        return -1
    top = values.pop()
    second = values.pop()
    values.append(s.Num(top.number + second.number))
    return pc


def _op_less(pc: int, st: _OpState) -> int:
    values = st[_V]
    if len(values) < 2 or type(values[-1]) is not s.Num or type(values[-2]) is not s.Num:
        st[_FAILURE] = ErrorCode.TYPE
        return -1
    top = values.pop()
    second = values.pop()
    values.append(s.Num(0) if top.number < second.number else s.Num(1))
    return pc


def _op_idx(pc: int, st: _OpState) -> int:
    values = st[_V]
    if len(values) < 2 or type(values[-1]) is not s.Num or type(values[-2]) is not ArrV:
        st[_FAILURE] = ErrorCode.TYPE
        return -1
    index = values.pop()
    array = values.pop()
    if not 0 <= index.number < len(array.items):
        st[_FAILURE] = ErrorCode.IDX
        return -1
    values.append(array.items[index.number])
    return pc


def _op_len(pc: int, st: _OpState) -> int:
    values = st[_V]
    if not values or type(values[-1]) is not ArrV:
        st[_FAILURE] = ErrorCode.TYPE
        return -1
    values.append(s.Num(len(values.pop().items)))
    return pc


def _op_alloc(pc: int, st: _OpState) -> int:
    values = st[_V]
    if not values:
        st[_FAILURE] = ErrorCode.TYPE
        return -1
    address = st[_NEXT]
    st[_HEAP][address] = values.pop()
    values.append(s.Loc(address))
    st[_NEXT] = address + 1
    return pc


def _op_read(pc: int, st: _OpState) -> int:
    values = st[_V]
    heap = st[_HEAP]
    if not values or type(values[-1]) is not s.Loc or values[-1].address not in heap:
        st[_FAILURE] = ErrorCode.TYPE
        return -1
    values.append(heap[values.pop().address])
    return pc


def _op_write(pc: int, st: _OpState) -> int:
    values = st[_V]
    heap = st[_HEAP]
    if len(values) < 2 or type(values[-2]) is not s.Loc or values[-2].address not in heap:
        st[_FAILURE] = ErrorCode.TYPE
        return -1
    value = values.pop()
    location = values.pop()
    heap[location.address] = value
    return pc


# -- op factories -------------------------------------------------------------


def _make_push_const(value: object) -> Op:
    def op(pc: int, st: _OpState) -> int:
        st[_V].append(value)
        return pc

    return op


def _make_push_var(name: str) -> Op:
    def op(pc: int, st: _OpState) -> int:
        cell = st[_ENV]
        while cell is not None:
            if cell[0] == name:
                st[_V].append(cell[1])
                return pc
            cell = cell[2]
        st[_FAILURE] = ErrorCode.TYPE
        return -1

    return op


def _make_push_resolved(resolve: Callable[[Env], object]) -> Op:
    def op(pc: int, st: _OpState) -> int:
        st[_V].append(resolve(st[_ENV]))
        return pc

    return op


def _make_if0(else_entry: int) -> Op:
    def op(pc: int, st: _OpState) -> int:
        values = st[_V]
        if not values or type(values[-1]) is not s.Num:
            st[_FAILURE] = ErrorCode.TYPE
            return -1
        return pc if values.pop().number == 0 else else_entry

    return op


def _make_jump(target: int) -> Op:
    def op(pc: int, st: _OpState) -> int:
        return target

    return op


def _make_lam_enter(binders: Tuple[str, ...]) -> Op:
    count = len(binders)

    def op(pc: int, st: _OpState) -> int:
        values = st[_V]
        if len(values) < count:
            st[_FAILURE] = ErrorCode.TYPE
            return -1
        st[_ESTACK].append(st[_ENV])
        env = st[_ENV]
        for binder in binders:
            env = (binder, values.pop(), env)
        st[_ENV] = env
        return pc

    return op


def _make_fail(code: ErrorCode) -> Op:
    def op(pc: int, st: _OpState) -> int:
        st[_FAILURE] = code
        return -1

    return op


def _make_stuck() -> Op:
    def op(pc: int, st: _OpState) -> int:
        st[_STUCK] = True
        return -1

    return op


# -- fused superinstructions (the cek-opt backend) -----------------------------
#
# Each fused op implements the exact semantics of TWO consecutive ops and
# returns ``pc + 1``, skipping its successor.  Fusion is length-preserving:
# the successor op stays in the array untouched, so every branch/jump/thunk
# entry that targets it directly still lands on correct code.  Failure
# behavior is bit-identical to the unfused pair — the machine discards the
# value stack on failure (``FailStack``), so the only observables are the
# failure code, the heap, and the non-failure stack, all of which the fused
# forms reproduce.  Only the step *count* differs: one transition where the
# unfused machine takes two (fuel granularity is backend-specific throughout
# this codebase, like segment- vs. pc-threaded machines).


def _make_add_const(number: int) -> Op:
    """``push n; add`` — pop one number, push ``n + it``."""

    def op(pc: int, st: _OpState) -> int:
        values = st[_V]
        if not values or type(values[-1]) is not s.Num:
            st[_FAILURE] = ErrorCode.TYPE
            return -1
        values.append(s.Num(number + values.pop().number))
        return pc + 1

    return op


def _make_less_const(number: int) -> Op:
    """``push n; less?`` — pop one number ``m``, push 0 if ``n < m`` else 1."""

    def op(pc: int, st: _OpState) -> int:
        values = st[_V]
        if not values or type(values[-1]) is not s.Num:
            st[_FAILURE] = ErrorCode.TYPE
            return -1
        values.append(s.Num(0) if number < values.pop().number else s.Num(1))
        return pc + 1

    return op


def _make_const_branch(number: int, else_entry: int) -> Op:
    """``push n; if0`` — branch statically on ``n``, no stack traffic at all."""

    def op(pc: int, st: _OpState) -> int:
        return pc + 1 if number == 0 else else_entry

    return op


def _make_var_branch(name: str, else_entry: int) -> Op:
    """``push x; if0`` — one environment lookup feeding the branch directly."""

    def op(pc: int, st: _OpState) -> int:
        cell = st[_ENV]
        while cell is not None:
            if cell[0] == name:
                value = cell[1]
                if type(value) is not s.Num:
                    st[_FAILURE] = ErrorCode.TYPE
                    return -1
                return pc + 1 if value.number == 0 else else_entry
            cell = cell[2]
        st[_FAILURE] = ErrorCode.TYPE
        return -1

    return op


def _make_var_call(name: str) -> Op:
    """``push x; call`` — lookup and apply without staging through the stack.

    The return address is ``pc + 1`` — the op *after* the skipped ``call`` —
    exactly where the unfused pair would resume.
    """

    def op(pc: int, st: _OpState) -> int:
        cell = st[_ENV]
        while cell is not None:
            if cell[0] == name:
                thunk = cell[1]
                if type(thunk) is not CThunkV:
                    st[_FAILURE] = ErrorCode.TYPE
                    return -1
                st[_RSTACK].append((pc + 1, st[_ENV]))
                st[_ENV] = thunk.environment
                return thunk.entry
            cell = cell[2]
        st[_FAILURE] = ErrorCode.TYPE
        return -1

    return op


def _fuse(ops: List[Op], trace: List[Tuple]) -> int:
    """Rewrite hot op pairs into superinstructions; returns the pair count.

    Pattern starts (``push_const``/``push_var``) and pattern seconds
    (``add``/``less``/``if0``/``call``) are disjoint sets, so a single
    left-to-right pass cannot double-consume an index; and because each
    fused op bakes its semantics from the *trace* (not from neighboring op
    objects), overlapping rewrites compose correctly.
    """
    fused = 0
    for index in range(len(ops) - 1):
        first = trace[index]
        second = trace[index + 1]
        if first[0] == "push_const":
            value = first[1]
            if type(value) is not s.Num:
                continue
            if second[0] == "add":
                ops[index] = _make_add_const(value.number)
                fused += 1
            elif second[0] == "less":
                ops[index] = _make_less_const(value.number)
                fused += 1
            elif second[0] == "if0":
                ops[index] = _make_const_branch(value.number, second[1])
                fused += 1
        elif first[0] == "push_var":
            if second[0] == "if0":
                ops[index] = _make_var_branch(first[1], second[1])
                fused += 1
            elif second[0] == "call":
                ops[index] = _make_var_call(first[1])
                fused += 1
    return fused


# -- the compiler -------------------------------------------------------------


def _operand_resolver(operand: object, pending: List[Tuple[s.Program, List[int]]]):
    """Pre-resolve a push operand to a closure ``env -> runtime value``."""
    if isinstance(operand, s.Var):
        name = operand.name
        unbound = operand  # unbound vars inside arrays stay as syntax (see _resolve)

        def resolve(env: Env) -> object:
            cell = env
            while cell is not None:
                if cell[0] == name:
                    return cell[1]
                cell = cell[2]
            return unbound

        return resolve
    if isinstance(operand, s.Thunk):
        entry_cell = [0]
        pending.append((operand.program, entry_cell))
        capture = s.free_variables(operand.program)
        program = operand.program

        def resolve(env: Env) -> object:
            return CThunkV(entry_cell[0], _prune(env, capture), program)

        return resolve
    if isinstance(operand, s.Arr):
        resolvers = [_operand_resolver(item, pending) for item in operand.items]

        def resolve(env: Env) -> object:
            return ArrV(tuple(r(env) for r in resolvers))

        return resolve
    value = operand
    return lambda env: value


def _env_dependent(operand: object) -> bool:
    if isinstance(operand, (s.Var, s.Thunk)):
        return True
    if isinstance(operand, s.Arr):
        return any(_env_dependent(item) for item in operand.items)
    return False


def _emit(
    program: s.Program,
    ops: List[Op],
    pending: List[Tuple[s.Program, List[int]]],
    trace: List[Tuple],
) -> None:
    """Append ops for ``program``, mirroring each into ``trace``.

    ``trace`` records one descriptor per emitted op — what the op *is*, in
    plain data — which is what the superinstruction fuser pattern-matches
    over (closures are opaque).  It stays aligned with ``ops`` index for
    index, including the backpatched ``if0``/``jump`` slots.
    """
    for instruction in program:
        kind = type(instruction)
        if kind is s.Push:
            operand = instruction.operand
            if isinstance(operand, s.Var):
                ops.append(_make_push_var(operand.name))
                trace.append(("push_var", operand.name))
            elif not _env_dependent(operand):
                # Constants (numbers, locations, var/thunk-free arrays) are
                # resolved once at compile time.
                resolver = _operand_resolver(operand, pending)
                value = resolver(None)
                ops.append(_make_push_const(value))
                trace.append(("push_const", value))
            else:
                ops.append(_make_push_resolved(_operand_resolver(operand, pending)))
                trace.append(("push_resolved",))
        elif kind is s.Add:
            ops.append(_op_add)
            trace.append(("add",))
        elif kind is s.Less:
            ops.append(_op_less)
            trace.append(("less",))
        elif kind is s.If0:
            if0_index = len(ops)
            ops.append(_op_halt)  # placeholder
            trace.append(("halt",))  # placeholder, rewritten below
            _emit(instruction.then_program, ops, pending, trace)
            jump_index = len(ops)
            ops.append(_op_halt)  # placeholder
            trace.append(("halt",))  # placeholder, rewritten below
            else_entry = len(ops)
            _emit(instruction.else_program, ops, pending, trace)
            ops[if0_index] = _make_if0(else_entry)
            trace[if0_index] = ("if0", else_entry)
            ops[jump_index] = _make_jump(len(ops))
            trace[jump_index] = ("jump", len(ops))
        elif kind is s.Lam:
            ops.append(_make_lam_enter(instruction.binders))
            trace.append(("lam", instruction.binders))
            _emit(instruction.body, ops, pending, trace)
            ops.append(_op_env_exit)
            trace.append(("env_exit",))
        elif kind is s.Call:
            ops.append(_op_call)
            trace.append(("call",))
        elif kind is s.Idx:
            ops.append(_op_idx)
            trace.append(("idx",))
        elif kind is s.Len:
            ops.append(_op_len)
            trace.append(("len",))
        elif kind is s.Alloc:
            ops.append(_op_alloc)
            trace.append(("alloc",))
        elif kind is s.Read:
            ops.append(_op_read)
            trace.append(("read",))
        elif kind is s.Write:
            ops.append(_op_write)
            trace.append(("write",))
        elif kind is s.Fail:
            ops.append(_make_fail(instruction.code))
            trace.append(("fail", instruction.code))
        else:
            # Unknown instructions are stuck at runtime, like the oracle.
            ops.append(_make_stuck())
            trace.append(("stuck",))


_COMPILED_CACHE: "OrderedDict[int, Tuple[s.Program, List[Op]]]" = OrderedDict()
_FUSED_CACHE: "OrderedDict[int, Tuple[s.Program, List[Op]]]" = OrderedDict()
_COMPILED_CACHE_CAPACITY = 512
_compiled_hits = 0
_compiled_misses = 0
_fused_hits = 0
_fused_misses = 0
_fused_pairs = 0


def _compile(program: s.Program, fuse: bool = False) -> List[Op]:
    ops: List[Op] = []
    trace: List[Tuple] = []
    pending: List[Tuple[s.Program, List[int]]] = []
    _emit(tuple(program), ops, pending, trace)
    ops.append(_op_halt)
    trace.append(("halt",))
    while pending:
        thunk_program, entry_cell = pending.pop()
        entry_cell[0] = len(ops)
        _emit(thunk_program, ops, pending, trace)
        ops.append(_op_return)
        trace.append(("return",))
    if fuse:
        global _fused_pairs
        _fused_pairs += _fuse(ops, trace)
    return ops


def _compile_fused(program: s.Program) -> List[Op]:
    """Compile with superinstruction fusion (the ``cek-opt`` op array)."""
    return _compile(program, fuse=True)


def _memoized_compile(program: s.Program, cache, fuse: bool) -> Tuple[List[Op], bool]:
    """Shared id-keyed LRU lookup; returns ``(ops, was_hit)``."""
    key = id(program)
    entry = cache.get(key)
    if entry is not None and entry[0] is program:
        cache.move_to_end(key)
        return entry[1], True
    ops = _compile(program, fuse=fuse)
    cache[key] = (program, ops)
    cache.move_to_end(key)
    while len(cache) > _COMPILED_CACHE_CAPACITY:
        cache.popitem(last=False)
    return ops, False


def compile_program(program: s.Program) -> List[Op]:
    """Compile ``program`` to a flat op array, memoized per compiled unit.

    Keyed on object identity (entries retain the program tuple, keeping the
    key valid while cached), so the frontend pipeline cache's hits line up
    with ours: a program is compiled once per cache generation.
    """
    global _compiled_hits, _compiled_misses
    ops, hit = _memoized_compile(program, _COMPILED_CACHE, fuse=False)
    if hit:
        _compiled_hits += 1
    else:
        _compiled_misses += 1
    return ops


def compile_program_fused(program: s.Program) -> List[Op]:
    """Like :func:`compile_program` with superinstruction fusion (own memo).

    Separate memo, same keying discipline: the fused and unfused arrays of
    one program coexist, so a request served by ``cek-opt`` never degrades
    the ``cek-compiled`` cache and vice versa.
    """
    global _fused_hits, _fused_misses
    ops, hit = _memoized_compile(program, _FUSED_CACHE, fuse=True)
    if hit:
        _fused_hits += 1
    else:
        _fused_misses += 1
    return ops


def compiled_cache_stats() -> Dict[str, int]:
    return {
        "entries": len(_COMPILED_CACHE),
        "hits": _compiled_hits,
        "misses": _compiled_misses,
        "capacity": _COMPILED_CACHE_CAPACITY,
    }


def fused_cache_stats() -> Dict[str, int]:
    """Fused-compile memo counters plus the total superinstructions formed."""
    return {
        "entries": len(_FUSED_CACHE),
        "hits": _fused_hits,
        "misses": _fused_misses,
        "capacity": _COMPILED_CACHE_CAPACITY,
        "fused_pairs": _fused_pairs,
    }


class CompiledExecution:
    """A resumable pc-threaded machine: run in bounded slices.

    ``step_n(limit)`` advances the machine by at most ``limit`` instructions
    and returns the final :class:`~repro.stacklang.machine.MachineResult`
    once the machine halts (or its *per-execution* fuel budget runs out), or
    ``None`` while there is work and fuel left.  The state between slices
    is just ``(pc, op-state, steps)``, so a scheduler can interleave many
    executions on one loop; the observable result is identical to an
    uninterrupted :func:`run_compiled` regardless of slicing.

    The compiled op array is a graph of process-local closures and never
    leaves the process.  ``__getstate__`` is the plain op-state without it:
    ``program`` (the syntax handle) plus the pc, stacks, environment and
    heap.  That dict is both the pickled form of a live execution and the
    body of a :meth:`snapshot`; ``__setstate__`` rebuilds the op array by
    compiling the program once.  Compilation is deterministic, so the
    restored op array has the same layout and the saved ``pc`` (and every
    :class:`CThunkV` entry pc in the state) stays valid; the resumed run is
    observably identical.
    """

    __slots__ = ("fuel", "steps", "result", "program", "_code", "_heap_cells", "_st", "_pc")

    #: The snapshot tag this machine writes and restores (see
    #: :mod:`repro.core.snapshots` for the format contract).
    SNAPSHOT_KIND = "stacklang/cek-compiled"

    #: The compile paths (memoized / fresh).  :class:`OptimizedExecution`
    #: overrides both with the fusing compiler; everything else — slicing,
    #: snapshots, pickling — is inherited unchanged, because the fused op
    #: array is length-preserving (every pc and thunk entry stays valid).
    _COMPILE_CACHED = staticmethod(compile_program)
    _COMPILE_FRESH = staticmethod(_compile)

    def __init__(
        self,
        program: s.Program,
        heap: Optional[Dict[int, s.Value]] = None,
        stack: Optional[List[s.Value]] = None,
        fuel: int = 100_000,
    ):
        # Programs are tuples (repro.stacklang.syntax.Program); only those hit
        # the id-keyed memo.  Other sequences compile uncached — caching a
        # per-call ``tuple(...)`` copy would just churn the LRU with dead keys.
        self.program = program if isinstance(program, tuple) else tuple(program)
        self._code = (
            self._COMPILE_CACHED(program) if isinstance(program, tuple) else self._COMPILE_FRESH(self.program)
        )
        heap_cells: Dict[int, object] = dict(heap or {})
        self._heap_cells = heap_cells
        self._st: _OpState = [
            list(stack if stack is not None else []),  # values
            [],  # return stack
            [],  # env-restore stack
            None,  # environment
            heap_cells,
            max(heap_cells.keys(), default=-1) + 1,  # next address
            None,  # failure code
            False,  # stuck flag
        ]
        self._pc = 0
        self.fuel = fuel
        self.steps = 0
        self.result: Optional[MachineResult] = None

    # -- pickling (cross-process migration of a possibly-mid-run machine) -----

    def __getstate__(self) -> dict:
        # The op array is process-local closures; the program is the handle.
        return {
            "program": self.program,
            "st": self._st,
            "pc": self._pc,
            "fuel": self.fuel,
            "steps": self.steps,
            "result": self.result,
        }

    def __setstate__(self, state: dict) -> None:
        self.program = state["program"]
        # A restored program may be a fresh tuple unpickled in another
        # process, whose id can never be looked up again; compile uncached
        # rather than churn the id-keyed memo.
        self._code = self._COMPILE_FRESH(self.program)
        self._st = state["st"]
        self._heap_cells = self._st[_HEAP]  # preserve the __init__ aliasing
        self._pc = state["pc"]
        self.fuel = state["fuel"]
        self.steps = state["steps"]
        self.result = state["result"]

    def snapshot(self) -> dict:
        """Reify the paused machine as a versioned, process-portable dict.

        The snapshot holds the plain op-state of :meth:`__getstate__`, copied
        out of the live machine by :func:`repro.core.snapshots.make_snapshot`
        (the program syntax is shared, everything mutable is copied).  Taking
        it never compiles; :meth:`from_snapshot` compiles once per restore.
        """
        if self.result is not None:
            raise ValueError("cannot snapshot a finished execution")
        return make_snapshot(self.SNAPSHOT_KIND, self.__getstate__())

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "CompiledExecution":
        """Rebuild a paused machine from :meth:`snapshot` output."""
        execution = cls.__new__(cls)
        execution.__setstate__(check_snapshot(snapshot, cls.SNAPSHOT_KIND))
        return execution

    def step_n(self, limit: int) -> Optional[MachineResult]:
        """Run at most ``limit`` instructions; the result when halted, else None."""
        if limit < 1:
            raise ValueError(f"step_n limit must be >= 1, got {limit}")
        if self.result is not None:
            return self.result
        code = self._code
        st = self._st
        pc = self._pc
        steps = self.steps
        fuel = self.fuel
        budget = fuel if fuel - steps <= limit else steps + limit
        while pc >= 0:
            if steps >= budget:
                self._pc, self.steps = pc, steps
                if steps < fuel:
                    return None
                final = Config(dict(self._heap_cells), [_reify(v) for v in st[_V]], ())
                self.result = MachineResult(Status.OUT_OF_FUEL, final, steps)
                return self.result
            steps += 1
            pc = code[pc](pc + 1, st)
        self._pc, self.steps = pc, steps
        self.result = self._halt()
        return self.result

    def _halt(self) -> MachineResult:
        st = self._st
        heap_cells = self._heap_cells
        if st[_STUCK]:
            # Mirror run(): stuck configurations keep the raw heap.
            final = Config(dict(heap_cells), [_reify(v) for v in st[_V]], ())
            return MachineResult(Status.STUCK, final, self.steps)
        reified_heap = {address: _reify(value) for address, value in heap_cells.items()}
        if st[_FAILURE] is not None:
            return MachineResult(Status.FAIL, Config(reified_heap, FailStack(st[_FAILURE]), ()), self.steps)
        reified_stack = [_reify(v) for v in st[_V]]
        final = Config(reified_heap, reified_stack, ())
        status = Status.VALUE if reified_stack else Status.EMPTY
        return MachineResult(status, final, self.steps)

    def run(self) -> MachineResult:
        """Drive the machine to completion in one maximal slice."""
        result = self.result
        while result is None:
            result = self.step_n(max(1, self.fuel))
        return result


class OptimizedExecution(CompiledExecution):
    """The ``cek-opt`` machine: pc-threaded execution of *fused* op arrays.

    Identical to :class:`CompiledExecution` except both compile paths run the
    superinstruction fuser (:func:`_fuse`), so hot pairs — constant feeding
    an ``add``/``less?``/``if0``, a variable lookup feeding an ``if0`` or a
    ``call`` — dispatch once instead of twice.  Fusion never changes the op
    array's length, so snapshots interoperate freely with the base machine's
    layout assumptions; the distinct ``SNAPSHOT_KIND`` routes a snapshot back
    to this class (and its fusing recompile) on restore.
    """

    __slots__ = ()

    SNAPSHOT_KIND = "stacklang/cek-opt"

    _COMPILE_CACHED = staticmethod(compile_program_fused)
    _COMPILE_FRESH = staticmethod(_compile_fused)


def run_optimized(
    program: s.Program,
    heap: Optional[Dict[int, s.Value]] = None,
    stack: Optional[List[s.Value]] = None,
    fuel: int = 100_000,
) -> MachineResult:
    """Run ``program`` on the superinstruction-fused machine (``cek-opt``).

    Observables (status, error code, stack, heap) match every other backend;
    each fused pair consumes one fuel step instead of two.
    """
    return OptimizedExecution(program, heap=heap, stack=stack, fuel=fuel).run()


def run_compiled(
    program: s.Program,
    heap: Optional[Dict[int, s.Value]] = None,
    stack: Optional[List[s.Value]] = None,
    fuel: int = 100_000,
) -> MachineResult:
    """Run ``program`` on the pc-threaded machine; mirrors :func:`run`.

    Observable results (statuses, error codes, stacks, heaps) match the
    segment machine; *fuel granularity* does not — synthetic ops (jumps,
    env-exit brackets, thunk returns, the final halt) each consume a step,
    just as the environment machines take more, finer-grained steps than
    the substitution oracle.  Fuel comparisons near the budget boundary are
    backend-specific everywhere in this codebase; give the compiled machine
    the same headroom the differential tests give the interpreted one.

    One maximal slice of :class:`CompiledExecution`; serving code holding
    several programs uses the execution object directly and slices the
    instruction stream itself.
    """
    return CompiledExecution(program, heap=heap, stack=stack, fuel=fuel).run()
