"""Fluent construction of mini-DEX bytecode.

The corpus generator, the behavior templates, and many tests need to emit
bytecode.  :class:`MethodBuilder` handles register allocation and label
bookkeeping so call sites read like the Java they stand in for::

    b = MethodBuilder("onCreate", "com.example.app.MainActivity", arity=1)
    url = b.new_string("http://cdn.example.com/payload.jar")
    conn = b.call_virtual("java.net.URL", "openConnection", url)
    ...
    b.ret_void()
    method = b.build()
"""

from __future__ import annotations

import itertools
from typing import List, Optional

from repro.android import bytecode as bc
from repro.android.bytecode import Cmp, FieldRef, Instruction, MethodRef
from repro.android.dex import DexClass, DexFile, DexMethod


class MethodBuilder:
    """Accumulates instructions for one method, allocating registers."""

    def __init__(
        self,
        name: str,
        class_name: str,
        arity: int = 0,
        is_static: bool = False,
        is_public: bool = True,
    ) -> None:
        self.name = name
        self.class_name = class_name
        self.arity = arity
        self.is_static = is_static
        self.is_public = is_public
        self._insns: List[Instruction] = []
        # parameter registers occupy 0..arity-1 (plus `this` in register 0
        # for instance methods; we keep the flat convention: args first).
        self._next_reg = arity
        self._label_counter = itertools.count()

    # -- registers and labels --------------------------------------------------

    def reg(self) -> int:
        """Allocate a fresh register."""
        register = self._next_reg
        self._next_reg += 1
        return register

    def arg(self, index: int) -> int:
        """Register holding the index-th parameter."""
        if index >= self.arity:
            raise IndexError("method has arity {}".format(self.arity))
        return index

    def fresh_label(self, hint: str = "L") -> str:
        return "{}{}".format(hint, next(self._label_counter))

    # -- raw emission ------------------------------------------------------------

    def emit(self, insn: Instruction) -> None:
        self._insns.append(insn)

    # -- constants and moves -------------------------------------------------------

    def new_string(self, value: str) -> int:
        register = self.reg()
        self.emit(bc.const(register, value))
        return register

    def new_int(self, value: int) -> int:
        register = self.reg()
        self.emit(bc.const(register, value))
        return register

    def new_null(self) -> int:
        register = self.reg()
        self.emit(bc.const(register, None))
        return register

    def move(self, dst: int, src: int) -> None:
        self.emit(bc.move(dst, src))

    def new_instance_of(self, class_name: str, *ctor_args: int) -> int:
        """NEW_INSTANCE + constructor invoke; returns the object register."""
        register = self.reg()
        self.emit(bc.new_instance(register, class_name))
        self.emit(
            bc.invoke(
                MethodRef(class_name, "<init>", 1 + len(ctor_args)),
                register,
                *ctor_args,
            )
        )
        return register

    # -- calls ---------------------------------------------------------------------

    def call_static(self, class_name: str, method: str, *args: int) -> int:
        """Invoke a static method and capture its result register."""
        self.emit(bc.invoke(MethodRef(class_name, method, len(args)), *args))
        result = self.reg()
        self.emit(bc.move_result(result))
        return result

    def call_virtual(self, class_name: str, method: str, receiver: int, *args: int) -> int:
        """Invoke an instance method (receiver first) and capture the result."""
        self.emit(
            bc.invoke(MethodRef(class_name, method, 1 + len(args)), receiver, *args)
        )
        result = self.reg()
        self.emit(bc.move_result(result))
        return result

    def call_void(self, class_name: str, method: str, *args: int) -> None:
        """Invoke without capturing a result."""
        self.emit(bc.invoke(MethodRef(class_name, method, len(args)), *args))

    # -- fields ----------------------------------------------------------------------

    def get_field(self, obj: int, class_name: str, name: str) -> int:
        register = self.reg()
        self.emit(bc.iget(register, obj, FieldRef(class_name, name)))
        return register

    def put_field(self, src: int, obj: int, class_name: str, name: str) -> None:
        self.emit(bc.iput(src, obj, FieldRef(class_name, name)))

    def get_static(self, class_name: str, name: str) -> int:
        register = self.reg()
        self.emit(bc.sget(register, FieldRef(class_name, name)))
        return register

    def put_static(self, src: int, class_name: str, name: str) -> None:
        self.emit(bc.sput(src, FieldRef(class_name, name)))

    # -- control flow ------------------------------------------------------------------

    def if_cmp(self, cmp: Cmp, a: int, b: Optional[int], target: str) -> None:
        self.emit(bc.if_cmp(cmp, a, b, target))

    def if_eqz(self, register: int, target: str) -> None:
        self.emit(bc.if_cmp(Cmp.EQZ, register, None, target))

    def if_nez(self, register: int, target: str) -> None:
        self.emit(bc.if_cmp(Cmp.NEZ, register, None, target))

    def goto(self, target: str) -> None:
        self.emit(bc.goto(target))

    def label(self, name: str) -> None:
        self.emit(bc.label(name))

    def ret(self, register: int) -> None:
        self.emit(bc.ret(register))

    def ret_void(self) -> None:
        self.emit(bc.ret_void())

    def throw_new(self, exception_class: str = "java.lang.RuntimeException") -> None:
        register = self.reg()
        self.emit(bc.new_instance(register, exception_class))
        self.emit(bc.throw(register))

    def binop(self, op_name: str, a: int, b: int) -> int:
        register = self.reg()
        self.emit(bc.binop(op_name, register, a, b))
        return register

    # -- exception handling ------------------------------------------------------

    def try_start(self, handler_label: str, exception_class: str = "java.lang.Throwable") -> None:
        self.emit(bc.try_start(handler_label, exception_class))

    def try_end(self) -> None:
        self.emit(bc.try_end())

    def move_exception(self) -> int:
        register = self.reg()
        self.emit(bc.move_exception(register))
        return register

    # -- finish ----------------------------------------------------------------------

    def build(self) -> DexMethod:
        insns = list(self._insns)
        if not insns or not insns[-1].is_terminator:
            insns.append(bc.ret_void())
        return DexMethod(
            name=self.name,
            class_name=self.class_name,
            arity=self.arity,
            registers=max(self._next_reg, self.arity, 1),
            is_public=self.is_public,
            is_static=self.is_static,
            instructions=insns,
        )


def class_builder(name: str, superclass: str = "java.lang.Object") -> DexClass:
    """Create an empty class; add methods with :meth:`DexClass.add_method`."""
    return DexClass(name=name, superclass=superclass)


def empty_method(
    name: str, class_name: str, arity: int = 0, is_static: bool = False
) -> DexMethod:
    """A method whose body immediately returns -- filler for realistic classes."""
    builder = MethodBuilder(name, class_name, arity=arity, is_static=is_static)
    builder.ret_void()
    return builder.build()


def build_secondary_dex(classes: List[DexClass], index: int = 2) -> DexFile:
    """A ``classesN.dex`` member for a multi-dex APK (``index`` >= 2)."""
    if index < 2:
        raise ValueError("secondary dex index starts at 2, got {}".format(index))
    return DexFile(classes=list(classes), source_name="classes{}.dex".format(index))


def build_split_apk(
    package: str,
    split_name: str,
    classes: List[DexClass],
    version_code: int = 1,
    min_sdk: int = 14,
) -> "Apk":
    """A feature/config split APK: split-stamped manifest + one dex.

    Splits declare no components of their own (the base APK's manifest
    owns the component table); they only contribute code and resources.
    """
    from repro.android.apk import Apk
    from repro.android.manifest import AndroidManifest

    manifest = AndroidManifest(
        package=package,
        version_code=version_code,
        min_sdk=min_sdk,
        split=split_name,
    )
    return Apk.build(manifest, dex_files=[DexFile(classes=list(classes))])
