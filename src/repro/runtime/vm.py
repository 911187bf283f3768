"""The register-machine interpreter (our stand-in for the DVM).

The VM executes mini-DEX bytecode against the simulated framework:

- **app classes** live in the class space (populated at install from
  ``classes.dex`` and extended at runtime by the class loaders -- that *is*
  dynamic code loading);
- **framework calls** dispatch through an API registry populated by
  :mod:`repro.runtime.frameworkapi`; instance methods resolve along a
  framework inheritance table (e.g. ``HttpURLConnection`` -> ``URLConnection``)
  just as virtual dispatch would;
- a **call stack** of :class:`StackTraceElement` is maintained so hooked
  framework methods can capture the Java stack trace DyDroid uses for
  call-site / entity attribution;
- an **instruction budget** and **depth limit** bound every entry-point
  invocation, so fuzzing 46K apps terminates.

Exceptions propagate as :class:`VMException`; the App Execution Engine maps
an uncaught one to the "Crash" row of Table II.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.android.bytecode import Cmp, FieldRef, Instruction, MethodRef, Op
from repro.android.dex import DexClass, DexFile, DexMethod
from repro.android.manifest import WRITE_EXTERNAL_STORAGE, AndroidManifest
from repro.android.apk import Apk
from repro.runtime.device import Device
from repro.runtime.instrumentation import Instrumentation
from repro.runtime.objects import VMException, VMObject, as_bool
from repro.runtime.stacktrace import StackTraceElement
from repro.runtime.vfs import internal_dir

ApiFn = Callable[["DalvikVM", List[Any]], Any]

DEFAULT_INSTRUCTION_BUDGET = 200_000
MAX_CALL_DEPTH = 64


class ExecutionError(RuntimeError):
    """Wraps fatal interpreter conditions (budget/depth exhaustion)."""


class BudgetExceededError(ExecutionError):
    """The per-entry instruction budget ran out (looping app)."""


class _FrameReturn(Exception):
    """Internal control flow: a frame returned a value."""

    def __init__(self, value: Any) -> None:
        self.value = value


#: catch-all exception classes (we do not model the full Throwable tree).
_CATCH_ALL = ("java.lang.Throwable", "java.lang.Exception")


def _exception_matches(thrown_class: str, caught_class: str) -> bool:
    if caught_class in _CATCH_ALL:
        return True
    if thrown_class == caught_class:
        return True
    # coarse family matching: java.io.IOException catches its subclasses by
    # name convention (FileNotFoundException is registered as java.io.*).
    if caught_class == "java.io.IOException" and thrown_class.startswith("java.io."):
        return True
    if caught_class == "java.lang.RuntimeException" and thrown_class.startswith("java.lang."):
        return True
    return False


@dataclass
class ExecutionContext:
    """Identity of the app currently executing on this VM."""

    package: str
    apk: Apk
    manifest: AndroidManifest
    release_time_ms: int = 0

    @property
    def data_dir(self) -> str:
        return internal_dir(self.package)

    @property
    def has_external_write(self) -> bool:
        return self.manifest.has_permission(WRITE_EXTERNAL_STORAGE)


@dataclass
class _Frame:
    method: DexMethod
    registers: Dict[int, Any] = field(default_factory=dict)
    pending_result: Any = None
    caught_exception: Any = None


class DalvikVM:
    """One interpreter instance, bound to a device and an instrumentation bus."""

    def __init__(
        self,
        device: Device,
        instrumentation: Optional[Instrumentation] = None,
        instruction_budget: int = DEFAULT_INSTRUCTION_BUDGET,
    ) -> None:
        self.device = device
        self.instrumentation = instrumentation or Instrumentation()
        self.instruction_budget = instruction_budget
        self.context: Optional[ExecutionContext] = None

        self.class_space: Dict[str, DexClass] = {}
        self.statics: Dict[Tuple[str, str], Any] = {}
        self.call_stack: List[StackTraceElement] = []
        #: app methods that actually executed -- the numerator of the
        #: fuzzing code-coverage question the paper's discussion raises.
        self.executed_methods: set = set()

        self._api: Dict[Tuple[str, str], ApiFn] = {}
        self._framework_supers: Dict[str, str] = {}
        self._static_fields: Dict[Tuple[str, str], Any] = {}
        self._budget_left = instruction_budget

        # Registered lazily to avoid an import cycle: frameworkapi needs the
        # VM types, the VM needs the registry contents.
        from repro.runtime import frameworkapi

        frameworkapi.install(self)

    # -- registry wiring (used by frameworkapi, classloader, jni) -----------------

    def register_api(self, class_name: str, method_name: str, fn: ApiFn) -> None:
        self._api[(class_name, method_name)] = fn

    def register_framework_super(self, class_name: str, superclass: str) -> None:
        self._framework_supers[class_name] = superclass

    def register_static_field(self, class_name: str, field_name: str, value: Any) -> None:
        self._static_fields[(class_name, field_name)] = value

    def is_framework_class(self, class_name: str) -> bool:
        if class_name in self._framework_supers:
            return True
        return any(key[0] == class_name for key in self._api)

    # -- class space ----------------------------------------------------------------

    def load_dex(self, dex: DexFile) -> List[str]:
        """Define a DEX file's classes into the class space.

        Later definitions do not clobber earlier ones (parent-first class
        loader delegation).  Returns the names actually defined.
        """
        defined = []
        for cls in dex.classes:
            if cls.name not in self.class_space:
                self.class_space[cls.name] = cls
                defined.append(cls.name)
        return defined

    def install_app(self, apk: Apk, release_time_ms: int = 0) -> ExecutionContext:
        """Install the app's primary bytecode and make it the current context."""
        self.device.install(apk)
        for dex in apk.dex_files():
            self.load_dex(dex)
        self.context = ExecutionContext(
            package=apk.package,
            apk=apk,
            manifest=apk.manifest,
            release_time_ms=release_time_ms,
        )
        return self.context

    def resolve_app_method(self, class_name: str, method_name: str) -> Optional[DexMethod]:
        """Find a method on a class or its app-space superclasses."""
        seen = set()
        current: Optional[str] = class_name
        while current and current not in seen:
            seen.add(current)
            cls = self.class_space.get(current)
            if cls is None:
                return None
            method = cls.method(method_name)
            if method is not None:
                return method
            current = cls.superclass
        return None

    # -- stack traces -----------------------------------------------------------------

    def stack_trace(self) -> Tuple[StackTraceElement, ...]:
        """Innermost-first, matching ``Throwable.getStackTrace()``."""
        return tuple(reversed(self.call_stack))

    # -- invocation --------------------------------------------------------------------

    def run_entry(self, class_name: str, method_name: str, args: Optional[List[Any]] = None) -> Any:
        """Invoke an entry point with a fresh instruction budget."""
        self._budget_left = self.instruction_budget
        ref = MethodRef(class_name, method_name, len(args or []))
        return self.invoke(ref, list(args or []))

    def invoke(self, ref: MethodRef, args: List[Any]) -> Any:
        """Dispatch one INVOKE: app bytecode, or framework API, or default."""
        if len(self.call_stack) >= MAX_CALL_DEPTH:
            raise VMException("java.lang.StackOverflowError", str(ref))

        target_class = ref.class_name
        receiver = args[0] if args else None
        if isinstance(receiver, VMObject):
            # Virtual dispatch: the receiver's dynamic type wins when it
            # subclasses the static target.
            if self._is_subclass(receiver.class_name, target_class):
                target_class = receiver.class_name

        method = self.resolve_app_method(target_class, ref.name)
        if method is not None:
            return self._interpret(method, args)

        api_fn = self._resolve_api(target_class, ref.name)
        if api_fn is not None:
            self.call_stack.append(StackTraceElement(ref.class_name, ref.name))
            try:
                return api_fn(self, args)
            finally:
                self.call_stack.pop()

        # Unmodeled framework surface: tolerate like a no-op stub.  Unknown
        # *app* classes are real linkage errors.
        if self._looks_framework(target_class) or self._has_framework_ancestor(target_class):
            return None
        if target_class in self.class_space:
            raise VMException("java.lang.NoSuchMethodError", str(ref))
        raise VMException("java.lang.ClassNotFoundException", target_class)

    def _has_framework_ancestor(self, class_name: str) -> bool:
        """True when an app class ultimately extends framework code, in which
        case unmodeled inherited methods degrade to no-ops instead of
        linkage errors."""
        seen = set()
        current: Optional[str] = class_name
        while current and current not in seen:
            seen.add(current)
            if self._looks_framework(current) or current in self._framework_supers:
                return True
            cls = self.class_space.get(current)
            if cls is None:
                return False
            current = cls.superclass
        return False

    def _is_subclass(self, class_name: str, ancestor: str) -> bool:
        if class_name == ancestor:
            return True
        seen = set()
        current: Optional[str] = class_name
        while current and current not in seen:
            seen.add(current)
            cls = self.class_space.get(current)
            current = cls.superclass if cls else self._framework_supers.get(current)
            if current == ancestor:
                return True
        return False

    def _resolve_api(self, class_name: str, method_name: str) -> Optional[ApiFn]:
        """Walk the merged app+framework superclass chain for an API impl.

        App classes extending framework classes (an Activity subclass, say)
        must resolve inherited framework methods across the boundary.
        """
        seen = set()
        current: Optional[str] = class_name
        while current and current not in seen:
            seen.add(current)
            fn = self._api.get((current, method_name))
            if fn is not None:
                return fn
            app_cls = self.class_space.get(current)
            if app_cls is not None:
                current = app_cls.superclass
            else:
                current = self._framework_supers.get(current)
        return None

    @staticmethod
    def _looks_framework(class_name: str) -> bool:
        return class_name.startswith(
            ("java.", "javax.", "android.", "dalvik.", "libcore.")
        )

    # -- the interpreter loop ---------------------------------------------------------------

    def _interpret(self, method: DexMethod, args: List[Any]) -> Any:
        frame = _Frame(method=method)
        for index, value in enumerate(args):
            frame.registers[index] = value
        labels = method.labels()
        self.executed_methods.add((method.class_name, method.name))
        self.call_stack.append(StackTraceElement(method.class_name, method.name))
        try:
            return self._run_frame(frame, labels)
        finally:
            self.call_stack.pop()

    def _run_frame(self, frame: _Frame, labels: Dict[str, int]) -> Any:
        insns = frame.method.instructions
        regs = frame.registers
        pc = 0
        #: active try regions, innermost last: (handler label, caught class).
        handlers: List[Tuple[str, str]] = []
        while pc < len(insns):
            if self._budget_left <= 0:
                raise BudgetExceededError(
                    "instruction budget exhausted in {}".format(frame.method.ref)
                )
            self._budget_left -= 1
            insn = insns[pc]
            op = insn.op

            try:
                pc = self._step(insn, op, pc, frame, regs, labels, handlers)
            except _FrameReturn as result:
                return result.value
            except VMException as exc:
                handler_pc = self._find_handler(handlers, labels, exc, frame)
                if handler_pc is None:
                    raise
                pc = handler_pc
        return None

    def _step(
        self,
        insn: Instruction,
        op: Op,
        pc: int,
        frame: _Frame,
        regs: Dict[int, Any],
        labels: Dict[str, int],
        handlers: "List[Tuple[str, str]]",
    ) -> int:
        """Execute one instruction; returns the next pc."""
        if op is Op.LABEL or op is Op.NOP:
            pc += 1
        elif op is Op.CONST:
            regs[insn.args[0]] = insn.args[1]
            pc += 1
        elif op is Op.MOVE:
            regs[insn.args[0]] = regs.get(insn.args[1])
            pc += 1
        elif op is Op.NEW_INSTANCE:
            regs[insn.args[0]] = VMObject(insn.args[1])
            pc += 1
        elif op is Op.NEW_ARRAY:
            size = regs.get(insn.args[1], 0)
            regs[insn.args[0]] = VMObject("byte[]", payload=bytearray(int(size or 0)))
            pc += 1
        elif op is Op.INVOKE:
            ref, arg_regs = insn.args
            call_args = [regs.get(r) for r in arg_regs]
            frame.pending_result = self.invoke(ref, call_args)
            pc += 1
        elif op is Op.MOVE_RESULT:
            regs[insn.args[0]] = frame.pending_result
            pc += 1
        elif op is Op.IGET:
            dst, obj_reg, ref = insn.args
            regs[dst] = self._iget(regs.get(obj_reg), ref)
            pc += 1
        elif op is Op.IPUT:
            src, obj_reg, ref = insn.args
            self._iput(regs.get(src), regs.get(obj_reg), ref)
            pc += 1
        elif op is Op.SGET:
            dst, ref = insn.args
            regs[dst] = self._sget(ref)
            pc += 1
        elif op is Op.SPUT:
            src, ref = insn.args
            self.statics[(ref.class_name, ref.name)] = regs.get(src)
            pc += 1
        elif op is Op.AGET:
            dst, arr_reg, idx_reg = insn.args
            regs[dst] = self._aget(regs.get(arr_reg), regs.get(idx_reg))
            pc += 1
        elif op is Op.APUT:
            src, arr_reg, idx_reg = insn.args
            self._aput(regs.get(src), regs.get(arr_reg), regs.get(idx_reg))
            pc += 1
        elif op is Op.IF:
            cmp, a_reg, b_reg, target = insn.args
            if self._compare(cmp, regs.get(a_reg), None if b_reg is None else regs.get(b_reg)):
                pc = self._jump(labels, target, frame)
            else:
                pc += 1
        elif op is Op.GOTO:
            pc = self._jump(labels, insn.args[0], frame)
        elif op is Op.RETURN:
            raise _FrameReturn(regs.get(insn.args[0]))
        elif op is Op.RETURN_VOID:
            raise _FrameReturn(None)
        elif op is Op.THROW:
            thrown = regs.get(insn.args[0])
            name = thrown.class_name if isinstance(thrown, VMObject) else "java.lang.RuntimeException"
            raise VMException(name, "thrown by {}".format(frame.method.ref))
        elif op is Op.BINOP:
            name, dst, a_reg, b_reg = insn.args
            regs[dst] = self._binop(name, regs.get(a_reg), regs.get(b_reg))
            pc += 1
        elif op is Op.TRY_START:
            handler_label = insn.args[0]
            caught_class = insn.args[1] if len(insn.args) > 1 else "java.lang.Throwable"
            handlers.append((handler_label, caught_class))
            pc += 1
        elif op is Op.TRY_END:
            if handlers:
                handlers.pop()
            pc += 1
        elif op is Op.MOVE_EXCEPTION:
            regs[insn.args[0]] = frame.caught_exception
            pc += 1
        else:  # pragma: no cover - the Op enum is closed
            raise ExecutionError("unhandled opcode {}".format(op))
        return pc

    def _find_handler(
        self,
        handlers: "List[Tuple[str, str]]",
        labels: Dict[str, int],
        exc: VMException,
        frame: _Frame,
    ) -> Optional[int]:
        """Unwind to the innermost matching try handler, if any."""
        while handlers:
            handler_label, caught_class = handlers.pop()
            if not _exception_matches(exc.class_name, caught_class):
                continue
            index = labels.get(handler_label)
            if index is None:
                raise VMException(
                    "java.lang.VerifyError",
                    "missing handler label {} in {}".format(handler_label, frame.method.ref),
                )
            thrown = VMObject(exc.class_name, payload=exc.message)
            thrown.fields["message"] = exc.message
            frame.caught_exception = thrown
            return index
        return None

    @staticmethod
    def _jump(labels: Dict[str, int], target: str, frame: _Frame) -> int:
        index = labels.get(target)
        if index is None:
            raise VMException(
                "java.lang.VerifyError",
                "missing label {} in {}".format(target, frame.method.ref),
            )
        return index

    # -- operand helpers -----------------------------------------------------------

    def _iget(self, obj: Any, ref: FieldRef) -> Any:
        if not isinstance(obj, VMObject):
            raise VMException("java.lang.NullPointerException", str(ref))
        return obj.fields.get(ref.name)

    def _iput(self, value: Any, obj: Any, ref: FieldRef) -> None:
        if not isinstance(obj, VMObject):
            raise VMException("java.lang.NullPointerException", str(ref))
        obj.fields[ref.name] = value

    def _sget(self, ref: FieldRef) -> Any:
        key = (ref.class_name, ref.name)
        if key in self.statics:
            return self.statics[key]
        if key in self._static_fields:
            value = self._static_fields[key]
            return value(self) if callable(value) else value
        return None

    def _aget(self, array: Any, index: Any) -> Any:
        payload = array.payload if isinstance(array, VMObject) else None
        if payload is None:
            raise VMException("java.lang.NullPointerException", "aget")
        try:
            return payload[int(index or 0)]
        except IndexError:
            raise VMException("java.lang.ArrayIndexOutOfBoundsException", str(index))

    def _aput(self, value: Any, array: Any, index: Any) -> None:
        payload = array.payload if isinstance(array, VMObject) else None
        if payload is None:
            raise VMException("java.lang.NullPointerException", "aput")
        try:
            payload[int(index or 0)] = value
        except IndexError:
            raise VMException("java.lang.ArrayIndexOutOfBoundsException", str(index))

    @staticmethod
    def _compare(cmp: Cmp, a: Any, b: Any) -> bool:
        if cmp is Cmp.EQZ:
            return not as_bool(a) or a == 0
        if cmp is Cmp.NEZ:
            return as_bool(a) and a != 0
        if cmp is Cmp.EQ:
            return a == b
        if cmp is Cmp.NE:
            return a != b
        a_num = a if isinstance(a, (int, float)) else 0
        b_num = b if isinstance(b, (int, float)) else 0
        if cmp is Cmp.LT:
            return a_num < b_num
        if cmp is Cmp.LE:
            return a_num <= b_num
        if cmp is Cmp.GT:
            return a_num > b_num
        if cmp is Cmp.GE:
            return a_num >= b_num
        raise ExecutionError("unhandled comparison {}".format(cmp))

    @staticmethod
    def _binop(name: str, a: Any, b: Any) -> Any:
        a_num = a if isinstance(a, (int, float)) else 0
        b_num = b if isinstance(b, (int, float)) else 0
        if name == "add":
            return a_num + b_num
        if name == "sub":
            return a_num - b_num
        if name == "mul":
            return a_num * b_num
        if name == "div":
            if b_num == 0:
                raise VMException("java.lang.ArithmeticException", "divide by zero")
            return a_num // b_num
        if name == "rem":
            if b_num == 0:
                raise VMException("java.lang.ArithmeticException", "divide by zero")
            return a_num % b_num
        if name == "and":
            return int(a_num) & int(b_num)
        if name == "or":
            return int(a_num) | int(b_num)
        if name == "xor":
            return int(a_num) ^ int(b_num)
        raise ExecutionError("unhandled binop {}".format(name))
