"""Functional execution semantics for every opcode.

The engine computes real 32-bit lane values; the WIR machinery hashes and
compares these exact values, so value-signature collisions, verify-read
mismatches, and load-reuse results are grounded in genuine data rather than
being statistically modelled.

Engines do not talk to the SM core directly: the pipeline's execute stage
(:class:`repro.pipeline.stages.ExecuteStage`) owns the engine instance and
binds :meth:`execute` as the stage's functional kernel, so the scalar
oracle and the fast engine plug into the same declarative stage
interface (DESIGN.md §13).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.isa.instruction import Instruction, Operand, OperandKind
from repro.isa.opcodes import CmpOp, Opcode
from repro.sim.grid import WARP_SIZE
from repro.sim.warp import Warp


def _as_f32(bits: np.ndarray) -> np.ndarray:
    return bits.view(np.float32)


def _from_f32(values: np.ndarray) -> np.ndarray:
    return np.asarray(values, dtype=np.float32).view(np.uint32)


def _as_i32(bits: np.ndarray) -> np.ndarray:
    return bits.view(np.int32)


def _from_i32(values: np.ndarray) -> np.ndarray:
    return np.asarray(values, dtype=np.int32).view(np.uint32)


_INT_BINOPS: Dict[Opcode, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    Opcode.ADD: lambda a, b: _from_i32(_as_i32(a) + _as_i32(b)),
    Opcode.SUB: lambda a, b: _from_i32(_as_i32(a) - _as_i32(b)),
    Opcode.MUL: lambda a, b: _from_i32(_as_i32(a) * _as_i32(b)),
    Opcode.MULHI: lambda a, b: (
        (a.astype(np.uint64) * b.astype(np.uint64)) >> np.uint64(32)
    ).astype(np.uint32),
    Opcode.MIN: lambda a, b: _from_i32(np.minimum(_as_i32(a), _as_i32(b))),
    Opcode.MAX: lambda a, b: _from_i32(np.maximum(_as_i32(a), _as_i32(b))),
    Opcode.AND: lambda a, b: a & b,
    Opcode.OR: lambda a, b: a | b,
    Opcode.XOR: lambda a, b: a ^ b,
    Opcode.SHL: lambda a, b: a << (b & np.uint32(31)),
    Opcode.SHR: lambda a, b: a >> (b & np.uint32(31)),
}

_FP_BINOPS: Dict[Opcode, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    Opcode.FADD: lambda a, b: _from_f32(_as_f32(a) + _as_f32(b)),
    Opcode.FSUB: lambda a, b: _from_f32(_as_f32(a) - _as_f32(b)),
    Opcode.FMUL: lambda a, b: _from_f32(_as_f32(a) * _as_f32(b)),
    Opcode.FMIN: lambda a, b: _from_f32(np.minimum(_as_f32(a), _as_f32(b))),
    Opcode.FMAX: lambda a, b: _from_f32(np.maximum(_as_f32(a), _as_f32(b))),
}

_SFU_UNOPS: Dict[Opcode, Callable[[np.ndarray], np.ndarray]] = {
    Opcode.RCP: lambda a: _from_f32(np.float32(1.0) / _as_f32(a)),
    Opcode.SQRT: lambda a: _from_f32(np.sqrt(np.abs(_as_f32(a)))),
    Opcode.RSQRT: lambda a: _from_f32(
        np.float32(1.0) / np.sqrt(np.abs(_as_f32(a)) + np.float32(1e-30))
    ),
    Opcode.SIN: lambda a: _from_f32(np.sin(_as_f32(a))),
    Opcode.COS: lambda a: _from_f32(np.cos(_as_f32(a))),
    Opcode.EX2: lambda a: _from_f32(np.exp2(np.clip(_as_f32(a), -126, 127))),
    Opcode.LG2: lambda a: _from_f32(np.log2(np.abs(_as_f32(a)) + np.float32(1e-30))),
}

_CMP_INT: Dict[CmpOp, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    CmpOp.EQ: lambda a, b: _as_i32(a) == _as_i32(b),
    CmpOp.NE: lambda a, b: _as_i32(a) != _as_i32(b),
    CmpOp.LT: lambda a, b: _as_i32(a) < _as_i32(b),
    CmpOp.LE: lambda a, b: _as_i32(a) <= _as_i32(b),
    CmpOp.GT: lambda a, b: _as_i32(a) > _as_i32(b),
    CmpOp.GE: lambda a, b: _as_i32(a) >= _as_i32(b),
}

_CMP_FP: Dict[CmpOp, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    CmpOp.EQ: lambda a, b: _as_f32(a) == _as_f32(b),
    CmpOp.NE: lambda a, b: _as_f32(a) != _as_f32(b),
    CmpOp.LT: lambda a, b: _as_f32(a) < _as_f32(b),
    CmpOp.LE: lambda a, b: _as_f32(a) <= _as_f32(b),
    CmpOp.GT: lambda a, b: _as_f32(a) > _as_f32(b),
    CmpOp.GE: lambda a, b: _as_f32(a) >= _as_f32(b),
}


@dataclass
class ExecResult:
    """Functional outcome of one warp instruction.

    ``result`` is the destination register value (None for instructions
    without a register destination); ``pred_result`` is a setp outcome;
    ``taken_mask`` is a branch outcome; ``addresses``/``store_values`` carry
    memory operands for the memory pipeline.
    """

    mask: np.ndarray
    sources: Tuple[np.ndarray, ...] = ()
    result: Optional[np.ndarray] = None
    pred_result: Optional[np.ndarray] = None
    taken_mask: Optional[np.ndarray] = None
    addresses: Optional[np.ndarray] = None
    store_values: Optional[np.ndarray] = None


def resolve_operand(warp: Warp, operand: Operand) -> np.ndarray:
    """Per-lane uint32 values of one source operand."""
    if operand.kind is OperandKind.REG:
        return warp.read_reg(operand.value)
    if operand.kind is OperandKind.IMM:
        return np.full(WARP_SIZE, operand.value, dtype=np.uint32)
    if operand.kind is OperandKind.SREG:
        return warp.special_value(operand.sreg_name)
    if operand.kind is OperandKind.ADDR:
        # Address arithmetic is unsigned 32-bit plus a signed byte offset.
        addr = warp.read_reg(operand.value).astype(np.int64) + operand.offset
        return (addr & 0xFFFFFFFF).astype(np.uint32)
    raise ValueError(f"cannot resolve operand {operand}")


def execute(inst: Instruction, warp: Warp) -> ExecResult:
    """Compute the functional result of *inst* on *warp*.

    The caller is responsible for committing the result (writing the
    destination register / predicate, performing the memory operation,
    resolving the branch) so the timing model controls *when* state changes.
    """
    mask = warp.guard_mask(inst.guard)
    opcode = inst.opcode

    if opcode is Opcode.BRA:
        return ExecResult(mask=mask, taken_mask=mask & warp.active_mask)

    if opcode in (Opcode.EXIT, Opcode.BAR, Opcode.MEMBAR, Opcode.NOP):
        return ExecResult(mask=mask)

    sources = tuple(resolve_operand(warp, src) for src in inst.srcs)

    if opcode in _INT_BINOPS:
        return ExecResult(mask=mask, sources=sources,
                          result=_INT_BINOPS[opcode](sources[0], sources[1]))
    if opcode in _FP_BINOPS:
        return ExecResult(mask=mask, sources=sources,
                          result=_FP_BINOPS[opcode](sources[0], sources[1]))
    if opcode in _SFU_UNOPS:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            result = _SFU_UNOPS[opcode](sources[0])
        return ExecResult(mask=mask, sources=sources, result=result)

    if opcode is Opcode.MOV:
        return ExecResult(mask=mask, sources=sources, result=sources[0].copy())
    if opcode is Opcode.ABS:
        return ExecResult(mask=mask, sources=sources,
                          result=_from_i32(np.abs(_as_i32(sources[0]))))
    if opcode is Opcode.NEG:
        return ExecResult(mask=mask, sources=sources,
                          result=_from_i32(-_as_i32(sources[0])))
    if opcode is Opcode.NOT:
        return ExecResult(mask=mask, sources=sources, result=~sources[0])
    if opcode is Opcode.FABS:
        return ExecResult(mask=mask, sources=sources,
                          result=sources[0] & np.uint32(0x7FFFFFFF))
    if opcode is Opcode.FNEG:
        return ExecResult(mask=mask, sources=sources,
                          result=sources[0] ^ np.uint32(0x80000000))
    if opcode in (Opcode.DIV, Opcode.REM):
        a, b = _as_i32(sources[0]), _as_i32(sources[1])
        safe = np.where(b == 0, np.int32(1), b)
        with np.errstate(divide="ignore"):
            if opcode is Opcode.DIV:
                out = a // safe
            else:
                out = a % safe
        out = np.where(b == 0, np.int32(-1), out)
        return ExecResult(mask=mask, sources=sources, result=_from_i32(out))
    if opcode is Opcode.FDIV:
        with np.errstate(divide="ignore", invalid="ignore"):
            result = _from_f32(_as_f32(sources[0]) / _as_f32(sources[1]))
        return ExecResult(mask=mask, sources=sources, result=result)
    if opcode is Opcode.MAD:
        a, b, c = (_as_i32(s) for s in sources)
        return ExecResult(mask=mask, sources=sources, result=_from_i32(a * b + c))
    if opcode is Opcode.FMAD:
        a, b, c = (_as_f32(s) for s in sources)
        return ExecResult(mask=mask, sources=sources, result=_from_f32(a * b + c))
    if opcode is Opcode.CVT_I2F:
        return ExecResult(mask=mask, sources=sources,
                          result=_from_f32(_as_i32(sources[0]).astype(np.float32)))
    if opcode is Opcode.CVT_F2I:
        with np.errstate(invalid="ignore"):
            # Widen to float64 first: int32 saturation bounds are not
            # representable in float32 and would round past the limit.
            vals = np.nan_to_num(_as_f32(sources[0]).astype(np.float64),
                                 nan=0.0, posinf=2**31 - 1, neginf=-(2**31))
            clipped = np.clip(vals, -(2.0**31), 2.0**31 - 1)
        return ExecResult(mask=mask, sources=sources,
                          result=_from_i32(clipped.astype(np.int64).astype(np.int32)))
    if opcode is Opcode.SELP:
        pred = warp.read_pred(inst.pred_src)
        return ExecResult(mask=mask, sources=sources,
                          result=np.where(pred, sources[0], sources[1]))
    if opcode in (Opcode.SETP, Opcode.FSETP):
        table = _CMP_INT if opcode is Opcode.SETP else _CMP_FP
        return ExecResult(mask=mask, sources=sources,
                          pred_result=table[inst.cmp](sources[0], sources[1]))
    if opcode.value.startswith("ld."):
        return ExecResult(mask=mask, sources=sources, addresses=sources[0])
    if opcode.value.startswith("st."):
        return ExecResult(mask=mask, sources=sources,
                          addresses=sources[0], store_values=sources[1])

    raise NotImplementedError(f"no semantics for {opcode}")


# ---------------------------------------------------------------------------
# Execution engines
#
# ``ScalarExecEngine`` is the seed interpreter above, untouched: every issue
# re-dispatches on the opcode and re-resolves each operand.  It is the
# correctness oracle.
#
# ``FastExecEngine`` (the default) compiles each static instruction once, the
# first time it issues, into a closure with the opcode dispatch, guard,
# comparison table, and operand resolvers already bound — all 32 lanes still
# evaluate as single numpy array ops, but the per-issue Python
# interpretation (frozenset chains, operand-kind branching, ``np.full``
# immediates) is hoisted out of the hot loop.  Instructions whose opcode has
# no compiled kernel fall back to the scalar interpreter, so the two engines
# are value-identical by construction: every kernel reuses the exact
# arithmetic lambdas of the scalar tables.  On top of these kernels the
# superblock runtime (:mod:`repro.sim.superblock`) issues whole compiled
# straight-line runs whenever no observer or live WIR probe needs to see
# each instruction.
# ---------------------------------------------------------------------------


def _sfu_wrap(fn: Callable[[np.ndarray], np.ndarray]) -> Callable:
    def compute(sources: Tuple[np.ndarray, ...]) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return fn(sources[0])
    return compute


def _div_rem(opcode: Opcode) -> Callable:
    def compute(sources: Tuple[np.ndarray, ...]) -> np.ndarray:
        a, b = _as_i32(sources[0]), _as_i32(sources[1])
        safe = np.where(b == 0, np.int32(1), b)
        with np.errstate(divide="ignore"):
            out = a // safe if opcode is Opcode.DIV else a % safe
        return _from_i32(np.where(b == 0, np.int32(-1), out))
    return compute


def _fdiv(sources: Tuple[np.ndarray, ...]) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return _from_f32(_as_f32(sources[0]) / _as_f32(sources[1]))


def _cvt_f2i(sources: Tuple[np.ndarray, ...]) -> np.ndarray:
    with np.errstate(invalid="ignore"):
        vals = np.nan_to_num(_as_f32(sources[0]).astype(np.float64),
                             nan=0.0, posinf=2**31 - 1, neginf=-(2**31))
        clipped = np.clip(vals, -(2.0**31), 2.0**31 - 1)
    return _from_i32(clipped.astype(np.int64).astype(np.int32))


#: Register-result opcodes: opcode -> fn(sources) -> uint32 lane values.
#: Every entry reuses the scalar tables' arithmetic, so results are
#: bit-identical between engines.
_RESULT_OPS: Dict[Opcode, Callable[[Tuple[np.ndarray, ...]], np.ndarray]] = {}
for _op, _fn in _INT_BINOPS.items():
    _RESULT_OPS[_op] = (lambda f: lambda s: f(s[0], s[1]))(_fn)
for _op, _fn in _FP_BINOPS.items():
    _RESULT_OPS[_op] = (lambda f: lambda s: f(s[0], s[1]))(_fn)
for _op, _fn in _SFU_UNOPS.items():
    _RESULT_OPS[_op] = _sfu_wrap(_fn)
_RESULT_OPS.update({
    Opcode.MOV: lambda s: s[0].copy(),
    Opcode.ABS: lambda s: _from_i32(np.abs(_as_i32(s[0]))),
    Opcode.NEG: lambda s: _from_i32(-_as_i32(s[0])),
    Opcode.NOT: lambda s: ~s[0],
    Opcode.FABS: lambda s: s[0] & np.uint32(0x7FFFFFFF),
    Opcode.FNEG: lambda s: s[0] ^ np.uint32(0x80000000),
    Opcode.DIV: _div_rem(Opcode.DIV),
    Opcode.REM: _div_rem(Opcode.REM),
    Opcode.FDIV: _fdiv,
    Opcode.MAD: lambda s: _from_i32(
        _as_i32(s[0]) * _as_i32(s[1]) + _as_i32(s[2])),
    Opcode.FMAD: lambda s: _from_f32(
        _as_f32(s[0]) * _as_f32(s[1]) + _as_f32(s[2])),
    Opcode.CVT_I2F: lambda s: _from_f32(_as_i32(s[0]).astype(np.float32)),
    Opcode.CVT_F2I: _cvt_f2i,
})
del _op, _fn


def _compile_operand(operand: Operand) -> Callable[[Warp], np.ndarray]:
    """Bind one source operand to a resolver closure.

    Register reads return views (exactly like :func:`resolve_operand`);
    immediates are materialized once and shared — the simulator treats
    source arrays as read-only, the same contract special registers
    already rely on.
    """
    kind = operand.kind
    if kind is OperandKind.REG:
        index = operand.value
        return lambda warp: warp.registers[index]
    if kind is OperandKind.IMM:
        shared = np.full(WARP_SIZE, operand.value, dtype=np.uint32)
        shared.flags.writeable = False
        return lambda warp: shared
    if kind is OperandKind.SREG:
        name = operand.sreg_name
        return lambda warp: warp.special_value(name)
    if kind is OperandKind.ADDR:
        index, offset = operand.value, operand.offset
        def resolve_addr(warp: Warp) -> np.ndarray:
            addr = warp.registers[index].astype(np.int64) + offset
            return (addr & 0xFFFFFFFF).astype(np.uint32)
        return resolve_addr
    raise ValueError(f"cannot resolve operand {operand}")


def _compile_kernel(inst: Instruction) -> Optional[Callable[[Warp], ExecResult]]:
    """Compile one instruction to a ``kernel(warp) -> ExecResult`` closure.

    Returns ``None`` when the opcode has no vector kernel; the engine then
    falls back to the scalar interpreter for that instruction.
    """
    guard = inst.guard
    opcode = inst.opcode

    if opcode is Opcode.BRA:
        def bra_kernel(warp: Warp) -> ExecResult:
            mask = warp.guard_mask(guard)
            return ExecResult(mask=mask, taken_mask=mask & warp.active_mask)
        return bra_kernel

    if opcode in (Opcode.EXIT, Opcode.BAR, Opcode.MEMBAR, Opcode.NOP):
        return lambda warp: ExecResult(mask=warp.guard_mask(guard))

    resolvers = tuple(_compile_operand(src) for src in inst.srcs)

    # Mask resolver specialised on the (static) guard: the unguarded case —
    # the vast majority — skips the guard_mask call and predicate blend.
    if guard is None:
        def mask_of(warp: Warp) -> np.ndarray:
            return warp.active_mask.copy()
    else:
        def mask_of(warp: Warp) -> np.ndarray:
            return warp.guard_mask(guard)

    compute = _RESULT_OPS.get(opcode)
    if compute is not None:
        # Arity-specialised source gathering (saves a generator + tuple()
        # round trip per issue on the hottest kernel shape).
        if len(resolvers) == 2:
            resolve_a, resolve_b = resolvers

            def alu_kernel(warp: Warp) -> ExecResult:
                sources = (resolve_a(warp), resolve_b(warp))
                return ExecResult(mask=mask_of(warp), sources=sources,
                                  result=compute(sources))
        elif len(resolvers) == 1:
            resolve_a, = resolvers

            def alu_kernel(warp: Warp) -> ExecResult:
                sources = (resolve_a(warp),)
                return ExecResult(mask=mask_of(warp), sources=sources,
                                  result=compute(sources))
        else:
            def alu_kernel(warp: Warp) -> ExecResult:
                sources = tuple(resolve(warp) for resolve in resolvers)
                return ExecResult(mask=mask_of(warp), sources=sources,
                                  result=compute(sources))
        return alu_kernel

    if opcode is Opcode.SELP:
        pred_src = inst.pred_src
        resolve_a, resolve_b = resolvers

        def selp_kernel(warp: Warp) -> ExecResult:
            sources = (resolve_a(warp), resolve_b(warp))
            pred = warp.read_pred(pred_src)
            return ExecResult(mask=mask_of(warp), sources=sources,
                              result=np.where(pred, sources[0], sources[1]))
        return selp_kernel

    if opcode in (Opcode.SETP, Opcode.FSETP):
        table = _CMP_INT if opcode is Opcode.SETP else _CMP_FP
        cmp_fn = table[inst.cmp]
        resolve_a, resolve_b = resolvers

        def setp_kernel(warp: Warp) -> ExecResult:
            sources = (resolve_a(warp), resolve_b(warp))
            return ExecResult(mask=mask_of(warp), sources=sources,
                              pred_result=cmp_fn(sources[0], sources[1]))
        return setp_kernel

    if opcode.value.startswith("ld."):
        resolve_addr = resolvers[0]

        def load_kernel(warp: Warp) -> ExecResult:
            addresses = resolve_addr(warp)
            return ExecResult(mask=mask_of(warp), sources=(addresses,),
                              addresses=addresses)
        return load_kernel

    if opcode.value.startswith("st."):
        resolve_addr, resolve_values = resolvers

        def store_kernel(warp: Warp) -> ExecResult:
            addresses = resolve_addr(warp)
            values = resolve_values(warp)
            return ExecResult(mask=mask_of(warp), sources=(addresses, values),
                              addresses=addresses, store_values=values)
        return store_kernel

    return None


class ScalarExecEngine:
    """The seed per-issue interpreter — the correctness oracle."""

    name = "scalar"

    def execute(self, inst: Instruction, warp: Warp) -> ExecResult:
        return execute(inst, warp)


class FastExecEngine:
    """Per-instruction compiled kernels with a scalar fallback.

    Kernels are compiled lazily on first issue and cached per static
    instruction; the cache keeps a reference to the instruction so its
    ``id`` can never be recycled while the kernel is live.  Instructions
    outside a compiled superblock (or issued while an observer or a live
    WIR probe switches block dispatch off) execute here.
    """

    name = "fast"

    def __init__(self) -> None:
        self._kernels: Dict[int, Tuple[Instruction, Optional[Callable]]] = {}

    def execute(self, inst: Instruction, warp: Warp) -> ExecResult:
        entry = self._kernels.get(id(inst))
        if entry is None:
            entry = self._kernels[id(inst)] = (inst, _compile_kernel(inst))
        kernel = entry[1]
        if kernel is None:
            return execute(inst, warp)
        return kernel(warp)


_ENGINES = {"scalar": ScalarExecEngine, "fast": FastExecEngine}


def make_engine(name: str):
    """Instantiate the execution engine selected by ``GPUConfig.exec_engine``."""
    try:
        cls = _ENGINES[name]
    except KeyError:
        raise ValueError(
            f"unknown exec engine {name!r}; expected one of {sorted(_ENGINES)}"
        ) from None
    return cls()
