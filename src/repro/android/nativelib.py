"""Pseudo-native shared libraries (``.so``).

Android apps can dynamically load native code through the JNI
(``System.loadLibrary`` / ``Runtime.load``).  This module models native
libraries with two complementary faces:

- an **analyzable face**: every exported function is a control-flow graph of
  :class:`NativeBlock` basic blocks over a small ARM-like pseudo-ISA.  This
  is what DroidNative lifts to MAIL and matches as an annotated CFG, and it
  is deliberately platform-tagged (``arch``) because DroidNative's pitch is
  platform-independent analysis of ARM/x86 binaries.

- an **executable face**: an optional *intrinsic* per exported function -- a
  declarative description of the high-level effect the function has when the
  simulated JNI executes it (decrypt-and-load a packed DEX, attach ptrace to
  chat apps and exfiltrate history, plain no-op...).  The paper's DyDroid
  never interprets native instructions either; it intercepts the binary and
  analyzes it statically, while the behaviour happens on the device.  The
  intrinsic is how our device exhibits that behaviour.

Libraries serialize to bytes behind the real ELF magic so they can live in
the virtual filesystem and be intercepted like any other file.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

ELF_MAGIC = b"\x7fELF\x02\x01\x01\x00"


class NativeFormatError(ValueError):
    """Raised when bytes do not decode to a valid native library."""


class NativeOp(enum.Enum):
    """Pseudo-native opcodes (a coarse ARM-like subset)."""

    MOV = "mov"        # MOV dst, src
    LDR = "ldr"        # LDR dst, [addr]
    STR = "str"        # STR src, [addr]
    ADD = "add"
    SUB = "sub"
    XOR = "xor"
    CMP = "cmp"        # CMP a, b
    B = "b"            # unconditional branch (block terminator)
    BNE = "bne"        # conditional branches (block terminators)
    BEQ = "beq"
    BL = "bl"          # call; arg 0 names the target symbol, e.g. "libc!ptrace"
    SVC = "svc"        # syscall; arg 0 names the syscall
    RET = "ret"


@dataclass(frozen=True)
class NativeInsn:
    """One pseudo-native instruction; operands are strings or ints."""

    op: NativeOp
    args: Tuple[object, ...] = ()

    def __str__(self) -> str:
        return "{} {}".format(self.op.value, ", ".join(map(str, self.args))).strip()

    @property
    def call_target(self) -> Optional[str]:
        """The called symbol for BL, the syscall name for SVC, else None."""
        if self.op in (NativeOp.BL, NativeOp.SVC) and self.args:
            return str(self.args[0])
        return None


@dataclass
class NativeBlock:
    """A basic block: label, instructions, successor labels."""

    label: str
    insns: List[NativeInsn] = field(default_factory=list)
    successors: List[str] = field(default_factory=list)

    def call_targets(self) -> List[str]:
        targets = [i.call_target for i in self.insns]
        return [t for t in targets if t is not None]


@dataclass
class NativeFunction:
    """An exported function: a CFG of blocks, entry at ``blocks[0]``."""

    name: str
    blocks: List[NativeBlock] = field(default_factory=list)

    def block(self, label: str) -> Optional[NativeBlock]:
        for blk in self.blocks:
            if blk.label == label:
                return blk
        return None

    def iter_insns(self) -> Iterator[NativeInsn]:
        for blk in self.blocks:
            yield from blk.insns


# Intrinsic kinds the simulated JNI knows how to execute.  Parameters live in
# NativeLibrary.intrinsics[fn_name]["..."] next to "kind".
INTRINSIC_NOOP = "noop"
INTRINSIC_DECRYPT_AND_LOAD = "decrypt_and_load_dex"
INTRINSIC_PTRACE_HOOK = "ptrace_hook"
INTRINSIC_ANTI_DEBUG = "anti_debug_ptrace_loop"
INTRINSIC_EXFILTRATE = "exfiltrate"

KNOWN_INTRINSICS = frozenset(
    {
        INTRINSIC_NOOP,
        INTRINSIC_DECRYPT_AND_LOAD,
        INTRINSIC_PTRACE_HOOK,
        INTRINSIC_ANTI_DEBUG,
        INTRINSIC_EXFILTRATE,
    }
)


@dataclass
class NativeLibrary:
    """A pseudo-native ``.so``: exported functions plus runtime intrinsics."""

    name: str                       # e.g. "libpayload.so"
    arch: str = "arm"               # "arm" or "x86" -- DroidNative handles both
    functions: List[NativeFunction] = field(default_factory=list)
    intrinsics: Dict[str, dict] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for fn_name, spec in self.intrinsics.items():
            kind = spec.get("kind")
            if kind not in KNOWN_INTRINSICS:
                raise ValueError(
                    "unknown intrinsic kind {!r} on {}".format(kind, fn_name)
                )

    def function(self, name: str) -> Optional[NativeFunction]:
        for fn in self.functions:
            if fn.name == name:
                return fn
        return None

    def exported_names(self) -> List[str]:
        return [fn.name for fn in self.functions]

    def call_targets(self) -> List[str]:
        """All symbols/syscalls referenced anywhere in the library."""
        targets: List[str] = []
        for fn in self.functions:
            for blk in fn.blocks:
                targets.extend(blk.call_targets())
        return targets

    # -- serialization -------------------------------------------------------

    def to_bytes(self) -> bytes:
        body = json.dumps(_encode_library(self), sort_keys=True).encode("utf-8")
        return ELF_MAGIC + body

    @classmethod
    def from_bytes(cls, data: bytes) -> "NativeLibrary":
        if not data.startswith(ELF_MAGIC):
            raise NativeFormatError("bad magic; not a native library")
        try:
            payload = json.loads(data[len(ELF_MAGIC):].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise NativeFormatError("corrupt native library body") from exc
        return _decode_library(payload)

    def sha256(self) -> str:
        return hashlib.sha256(self.to_bytes()).hexdigest()


def is_native_bytes(data: bytes) -> bool:
    """True when the payload carries ELF magic."""
    return data.startswith(ELF_MAGIC)


def _encode_library(lib: NativeLibrary) -> dict:
    return {
        "name": lib.name,
        "arch": lib.arch,
        "intrinsics": lib.intrinsics,
        "functions": [
            {
                "name": fn.name,
                "blocks": [
                    {
                        "label": blk.label,
                        "succ": blk.successors,
                        "insns": [
                            [i.op.value, list(i.args)] for i in blk.insns
                        ],
                    }
                    for blk in fn.blocks
                ],
            }
            for fn in lib.functions
        ],
    }


def _decode_library(payload: dict) -> NativeLibrary:
    try:
        functions = []
        for raw_fn in payload["functions"]:
            blocks = [
                NativeBlock(
                    label=raw_blk["label"],
                    successors=list(raw_blk["succ"]),
                    insns=[
                        NativeInsn(NativeOp(op), tuple(args))
                        for op, args in raw_blk["insns"]
                    ],
                )
                for raw_blk in raw_fn["blocks"]
            ]
            functions.append(NativeFunction(name=raw_fn["name"], blocks=blocks))
        return NativeLibrary(
            name=payload["name"],
            arch=payload.get("arch", "arm"),
            functions=functions,
            intrinsics=dict(payload.get("intrinsics", {})),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise NativeFormatError("malformed native library payload") from exc
