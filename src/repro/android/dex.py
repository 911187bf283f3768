"""DEX files: classes, methods, serialization, optimization, and packing.

A :class:`DexFile` is the unit of executable bytecode in the simulated
ecosystem, mirroring ``classes.dex`` in a real APK.  DEX files serialize to
bytes (with the real format's magic ``dex\\n035``) so they can live in the
virtual filesystem, travel over the simulated network, be intercepted by
DyDroid, and be hashed/compared.  The byte encoding is a deterministic JSON
body behind the magic header -- the *structure* (magic, class defs, method
tables, string pool) matches what DyDroid's analyses need, not the exact
binary layout of libdex.

Three derived artifact forms are provided, matching the paper:

- :func:`DexFile.to_odex` -- the "optimized" form the class loader writes to
  the ``optimizedDirectory`` (magic ``dey\\n036``).
- :func:`DexFile.encrypt` / :func:`DexFile.decrypt` -- the XOR packing used
  by DEX-encryption app-hardening services (Bangcle/Ijiami-style); encrypted
  payloads are *not* parseable as DEX, which is exactly why packers defeat
  static analysis.

Inside a :func:`decode_scope` (``DyDroid.analyze_app`` enters one per app),
:meth:`DexFile.from_bytes` decodes each distinct byte string once and
hands every later caller the same frozen object: its containers are
tuples and its attributes refuse assignment.  Outside a scope every call
returns a fresh, mutable :class:`DexFile`.
"""

from __future__ import annotations

import contextvars
import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.android.bytecode import (
    Cmp,
    FieldRef,
    Instruction,
    MethodRef,
    Op,
    Operand,
)

DEX_MAGIC = b"dex\n035\x00"
ODEX_MAGIC = b"dey\n036\x00"
ENCRYPTED_MAGIC = b"enc\n001\x00"


class DexFormatError(ValueError):
    """Raised when bytes do not decode to a valid DEX file."""


@dataclass
class DexField:
    """A field definition inside a class."""

    name: str
    type_name: str = "java.lang.Object"
    is_static: bool = False


@dataclass
class DexMethod:
    """A method definition: name, registers, and a flat instruction list."""

    name: str
    class_name: str
    arity: int = 0
    registers: int = 8
    is_public: bool = True
    is_static: bool = False
    instructions: List[Instruction] = field(default_factory=list)

    @property
    def ref(self) -> MethodRef:
        return MethodRef(self.class_name, self.name, self.arity)

    def labels(self) -> Dict[str, int]:
        """Map label name -> index of the LABEL pseudo-instruction."""
        return {
            insn.args[0]: index
            for index, insn in enumerate(self.instructions)
            if insn.op is Op.LABEL
        }

    def invoked_refs(self) -> Iterator[MethodRef]:
        """Yield every method reference this method invokes."""
        for insn in self.instructions:
            ref = insn.invoked
            if ref is not None:
                yield ref


@dataclass
class DexClass:
    """A class definition: dotted Java name, superclass, members."""

    name: str
    superclass: str = "java.lang.Object"
    methods: List[DexMethod] = field(default_factory=list)
    fields: List[DexField] = field(default_factory=list)

    @property
    def package(self) -> str:
        head, _, _ = self.name.rpartition(".")
        return head

    @property
    def simple_name(self) -> str:
        _, _, tail = self.name.rpartition(".")
        return tail

    def method(self, name: str) -> Optional[DexMethod]:
        """Look up a method by name (first match)."""
        for method in self.methods:
            if method.name == name:
                return method
        return None

    def add_method(self, method: DexMethod) -> DexMethod:
        self.methods.append(method)
        return method


@dataclass
class DexFile:
    """A container of classes -- the unit of dynamic code loading."""

    classes: List[DexClass] = field(default_factory=list)
    source_name: str = "classes.dex"

    # -- queries -------------------------------------------------------------

    def class_named(self, name: str) -> Optional[DexClass]:
        for cls in self.classes:
            if cls.name == name:
                return cls
        return None

    def iter_methods(self) -> Iterator[DexMethod]:
        for cls in self.classes:
            yield from cls.methods

    def invoked_refs(self) -> Iterator[MethodRef]:
        for method in self.iter_methods():
            yield from method.invoked_refs()

    def packages(self) -> List[str]:
        """Distinct packages of the classes defined here, sorted."""
        return sorted({cls.package for cls in self.classes})

    def merge(self, other: "DexFile") -> None:
        """Append another DEX file's classes (multidex-style merge)."""
        self.classes.extend(other.classes)

    # -- serialization -------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize to the on-disk DEX byte format."""
        body = json.dumps(_encode_dex(self), sort_keys=True).encode("utf-8")
        return DEX_MAGIC + body

    @classmethod
    def from_bytes(cls, data: bytes) -> "DexFile":
        """Parse DEX or ODEX bytes back into a DexFile.

        Raises :class:`DexFormatError` for foreign or encrypted payloads --
        the same failure a real disassembler hits on a packed resource.
        Inside a :func:`decode_scope` the result is shared and frozen.
        """
        scope = _SCOPE.get()
        if scope is None:
            return _parse_dex(data)
        dex = scope.decoded.get(data)
        if dex is None:
            dex = scope.decoded[data] = _freeze(_parse_dex(data))
            scope.decodes += 1
        else:
            scope.hits += 1
        return dex

    def to_odex(self) -> bytes:
        """The optimized form the class loader emits into optimizedDirectory."""
        body = json.dumps(_encode_dex(self), sort_keys=True).encode("utf-8")
        return ODEX_MAGIC + body

    def sha256(self) -> str:
        return hashlib.sha256(self.to_bytes()).hexdigest()

    # -- packing -------------------------------------------------------------

    def encrypt(self, key: bytes) -> bytes:
        """XOR-pack this DEX the way DEX-encryption hardening services do."""
        if not key:
            raise ValueError("encryption key must be non-empty")
        return ENCRYPTED_MAGIC + _xor(self.to_bytes(), key)

    @classmethod
    def decrypt(cls, data: bytes, key: bytes) -> "DexFile":
        """Reverse :meth:`encrypt`; this is what the packer's native stub does."""
        if not data.startswith(ENCRYPTED_MAGIC):
            raise DexFormatError("payload is not an encrypted DEX")
        return cls.from_bytes(_xor(data[len(ENCRYPTED_MAGIC):], key))


def _parse_dex(data: bytes) -> DexFile:
    if data.startswith(DEX_MAGIC):
        body = data[len(DEX_MAGIC):]
    elif data.startswith(ODEX_MAGIC):
        body = data[len(ODEX_MAGIC):]
    elif data.startswith(ENCRYPTED_MAGIC):
        raise DexFormatError("payload is encrypted; not valid DEX")
    else:
        raise DexFormatError("bad magic; not a DEX file")
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise DexFormatError("corrupt DEX body") from exc
    return _decode_dex(payload)


# -- the per-app decode scope --------------------------------------------------


class DecodeScope:
    """One scope's decoded DEX files, keyed by the bytes they came from."""

    def __init__(self) -> None:
        self.decoded: Dict[bytes, DexFile] = {}
        #: real decodes and cache hits since the last :meth:`drain`.
        self.decodes = 0
        self.hits = 0

    def drain(self) -> Tuple[int, int]:
        """``(decodes, hits)`` since the last drain; resets both."""
        counts = (self.decodes, self.hits)
        self.decodes = self.hits = 0
        return counts


#: per thread (and per process): worker threads never see each other's IR.
_SCOPE: "contextvars.ContextVar[Optional[DecodeScope]]" = contextvars.ContextVar(
    "dex_decode_scope", default=None
)


@contextmanager
def decode_scope() -> Iterator[DecodeScope]:
    """Share one frozen decode of each DEX byte string until the block exits.

    A nested entry reuses the enclosing scope; the outermost exit drops
    the decoded IR, so nothing outlives the block that decoded it.
    """
    scope = _SCOPE.get()
    if scope is not None:
        yield scope
        return
    scope = DecodeScope()
    token = _SCOPE.set(scope)
    try:
        yield scope
    finally:
        _SCOPE.reset(token)


def _immutable(obj: object, name: str) -> AttributeError:
    base = type(obj).__mro__[2].__name__  # (_FrozenX, _Frozen, X, ...)
    return AttributeError(
        "{}.{}: DEX IR decoded in a decode scope is shared and immutable"
        .format(base, name)
    )


class _Frozen:
    """Refuses attribute sets and deletes on IR shared through a scope."""

    def __setattr__(self, name: str, value: object) -> None:
        raise _immutable(self, name)

    def __delattr__(self, name: str) -> None:
        raise _immutable(self, name)


class _FrozenDexField(_Frozen, DexField):
    pass


class _FrozenDexMethod(_Frozen, DexMethod):
    pass


class _FrozenDexClass(_Frozen, DexClass):
    pass


class _FrozenDexFile(_Frozen, DexFile):
    pass


def _freeze(dex: DexFile) -> DexFile:
    """Make freshly decoded IR immutable in place: tuples for every
    container, then a class swap to the attribute-refusing subclasses."""
    for cls in dex.classes:
        for method in cls.methods:
            method.instructions = tuple(method.instructions)
            method.__class__ = _FrozenDexMethod
        for dex_field in cls.fields:
            dex_field.__class__ = _FrozenDexField
        cls.methods = tuple(cls.methods)
        cls.fields = tuple(cls.fields)
        cls.__class__ = _FrozenDexClass
    dex.classes = tuple(dex.classes)
    dex.__class__ = _FrozenDexFile
    return dex


def is_dex_bytes(data: bytes) -> bool:
    """True when the payload carries DEX or ODEX magic."""
    return data.startswith(DEX_MAGIC) or data.startswith(ODEX_MAGIC)


def is_encrypted_dex_bytes(data: bytes) -> bool:
    """True when the payload is a packed (encrypted) DEX."""
    return data.startswith(ENCRYPTED_MAGIC)


def _xor(data: bytes, key: bytes) -> bytes:
    return bytes(b ^ key[i % len(key)] for i, b in enumerate(data))


# -- JSON (de)serialization helpers ------------------------------------------


def _encode_operand(value: Operand) -> object:
    if isinstance(value, MethodRef):
        return {"$m": [value.class_name, value.name, value.arity]}
    if isinstance(value, FieldRef):
        return {"$f": [value.class_name, value.name]}
    if isinstance(value, Cmp):
        return {"$c": value.value}
    if isinstance(value, tuple):
        return {"$t": list(value)}
    return value


def _decode_operand(value: object) -> Operand:
    if isinstance(value, dict):
        if "$m" in value:
            cls_name, name, arity = value["$m"]
            return MethodRef(cls_name, name, arity)
        if "$f" in value:
            cls_name, name = value["$f"]
            return FieldRef(cls_name, name)
        if "$c" in value:
            return Cmp(value["$c"])
        if "$t" in value:
            return tuple(value["$t"])
        raise DexFormatError("unknown operand tag: {}".format(sorted(value)))
    return value  # type: ignore[return-value]


def _encode_insn(insn: Instruction) -> list:
    return [insn.op.value, [_encode_operand(a) for a in insn.args]]


def _decode_insn(raw: Sequence) -> Instruction:
    op_value, args = raw
    return Instruction(Op(op_value), tuple(_decode_operand(a) for a in args))


def _encode_dex(dex: DexFile) -> dict:
    return {
        "source": dex.source_name,
        "classes": [
            {
                "name": cls.name,
                "super": cls.superclass,
                "fields": [
                    [f.name, f.type_name, f.is_static] for f in cls.fields
                ],
                "methods": [
                    {
                        "name": m.name,
                        "arity": m.arity,
                        "registers": m.registers,
                        "public": m.is_public,
                        "static": m.is_static,
                        "code": [_encode_insn(i) for i in m.instructions],
                    }
                    for m in cls.methods
                ],
            }
            for cls in dex.classes
        ],
    }


def _decode_dex(payload: dict) -> DexFile:
    try:
        classes = []
        for raw_cls in payload["classes"]:
            cls = DexClass(name=raw_cls["name"], superclass=raw_cls["super"])
            cls.fields = [
                DexField(name=n, type_name=t, is_static=s)
                for n, t, s in raw_cls["fields"]
            ]
            for raw_method in raw_cls["methods"]:
                cls.methods.append(
                    DexMethod(
                        name=raw_method["name"],
                        class_name=cls.name,
                        arity=raw_method["arity"],
                        registers=raw_method["registers"],
                        is_public=raw_method["public"],
                        is_static=raw_method["static"],
                        instructions=[
                            _decode_insn(i) for i in raw_method["code"]
                        ],
                    )
                )
            classes.append(cls)
    except (KeyError, TypeError, ValueError) as exc:
        raise DexFormatError("malformed DEX payload") from exc
    return DexFile(classes=classes, source_name=payload.get("source", "classes.dex"))
