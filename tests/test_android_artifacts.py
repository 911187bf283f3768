"""Unit tests for repro.android: bytecode, DEX, native libs, manifest, APK."""

import pytest

from repro.android import bytecode as bc
from repro.android.apk import (
    ANTI_DECOMPILATION_ENTRY,
    ANTI_REPACKAGING_ENTRY,
    Apk,
    ApkFormatError,
)
from repro.android.builders import MethodBuilder, class_builder, empty_method
from repro.android.bytecode import Cmp, FieldRef, MethodRef, Op
from repro.android.dex import (
    DexClass,
    DexFile,
    DexFormatError,
    is_dex_bytes,
    is_encrypted_dex_bytes,
)
from repro.android.manifest import (
    AndroidManifest,
    Component,
    ComponentKind,
    ManifestError,
    WRITE_EXTERNAL_STORAGE,
)
from repro.android.nativelib import (
    NativeBlock,
    NativeFormatError,
    NativeFunction,
    NativeInsn,
    NativeLibrary,
    NativeOp,
    is_native_bytes,
)

from tests.helpers import build_manifest, simple_payload_dex


class TestBytecode:
    def test_method_ref_str_and_package(self):
        ref = MethodRef("com.example.app.Main", "onCreate", 1)
        assert str(ref) == "com.example.app.Main.onCreate/1"
        assert ref.package == "com.example.app"

    def test_instruction_invoked_accessor(self):
        ref = MethodRef("a.B", "m", 0)
        insn = bc.invoke(ref)
        assert insn.is_invoke and insn.invoked == ref
        assert bc.const(0, 1).invoked is None

    def test_terminators(self):
        assert bc.ret_void().is_terminator
        assert bc.goto("L0").is_terminator
        assert bc.if_cmp(Cmp.EQ, 0, 1, "L0").is_terminator
        assert not bc.const(0, 5).is_terminator

    def test_instruction_render(self):
        insn = bc.invoke(MethodRef("a.B", "m", 2), 1, 2)
        assert "a.B.m/2" in str(insn)


class TestBuilders:
    def test_register_allocation_is_fresh(self):
        builder = MethodBuilder("m", "a.B", arity=2)
        r1, r2 = builder.reg(), builder.reg()
        assert r1 == 2 and r2 == 3  # params occupy 0..arity-1

    def test_arg_bounds(self):
        builder = MethodBuilder("m", "a.B", arity=1)
        assert builder.arg(0) == 0
        with pytest.raises(IndexError):
            builder.arg(1)

    def test_build_appends_terminator(self):
        builder = MethodBuilder("m", "a.B")
        builder.new_string("x")
        method = builder.build()
        assert method.instructions[-1].op is Op.RETURN_VOID

    def test_build_keeps_existing_terminator(self):
        builder = MethodBuilder("m", "a.B")
        builder.ret_void()
        method = builder.build()
        assert sum(1 for i in method.instructions if i.op is Op.RETURN_VOID) == 1

    def test_call_virtual_captures_result(self):
        builder = MethodBuilder("m", "a.B", arity=1)
        result = builder.call_virtual("java.lang.Object", "hashCode", builder.arg(0))
        method = builder.build()
        ops = [i.op for i in method.instructions]
        assert Op.INVOKE in ops and Op.MOVE_RESULT in ops
        assert isinstance(result, int)

    def test_empty_method(self):
        method = empty_method("noop", "a.B", arity=2)
        assert method.arity == 2
        assert method.instructions[-1].op is Op.RETURN_VOID


class TestDexSerialization:
    def test_roundtrip_preserves_structure(self):
        dex = simple_payload_dex()
        parsed = DexFile.from_bytes(dex.to_bytes())
        assert parsed.class_named("com.sdk.payload.Entry") is not None
        method = parsed.class_named("com.sdk.payload.Entry").method("run")
        assert method is not None
        assert [i.op for i in method.instructions] == [
            i.op for i in dex.classes[0].method("run").instructions
        ]

    def test_roundtrip_preserves_operands(self):
        cls = class_builder("x.Y")
        builder = MethodBuilder("m", "x.Y")
        builder.emit(bc.sget(0, FieldRef("a.B", "F")))
        builder.if_eqz(0, "end")
        builder.label("end")
        builder.ret_void()
        cls.add_method(builder.build())
        parsed = DexFile.from_bytes(DexFile(classes=[cls]).to_bytes())
        insns = parsed.classes[0].methods[0].instructions
        assert insns[0].args[1] == FieldRef("a.B", "F")
        assert insns[1].args[0] is Cmp.EQZ

    def test_magic_detection(self):
        dex = simple_payload_dex()
        assert is_dex_bytes(dex.to_bytes())
        assert is_dex_bytes(dex.to_odex())
        assert not is_dex_bytes(b"garbage")

    def test_bad_magic_raises(self):
        with pytest.raises(DexFormatError):
            DexFile.from_bytes(b"not a dex at all")

    def test_corrupt_body_raises(self):
        data = simple_payload_dex().to_bytes()[:-10]
        with pytest.raises(DexFormatError):
            DexFile.from_bytes(data)

    def test_odex_roundtrip(self):
        dex = simple_payload_dex()
        assert DexFile.from_bytes(dex.to_odex()).class_named("com.sdk.payload.Entry")

    def test_sha256_stable(self):
        assert simple_payload_dex().sha256() == simple_payload_dex().sha256()

    def test_merge(self):
        a = simple_payload_dex("com.a.A")
        b = simple_payload_dex("com.b.B")
        a.merge(b)
        assert a.class_named("com.b.B") is not None

    def test_packages_sorted_unique(self):
        dex = DexFile(classes=[DexClass("b.x.C"), DexClass("a.y.D"), DexClass("b.x.E")])
        assert dex.packages() == ["a.y", "b.x"]


class TestDexEncryption:
    def test_encrypt_decrypt_roundtrip(self):
        dex = simple_payload_dex()
        blob = dex.encrypt(b"secret")
        assert is_encrypted_dex_bytes(blob)
        assert not is_dex_bytes(blob)
        restored = DexFile.decrypt(blob, b"secret")
        assert restored.class_named("com.sdk.payload.Entry") is not None

    def test_encrypted_payload_not_parseable(self):
        blob = simple_payload_dex().encrypt(b"k")
        with pytest.raises(DexFormatError):
            DexFile.from_bytes(blob)

    def test_wrong_key_fails(self):
        blob = simple_payload_dex().encrypt(b"right")
        with pytest.raises(DexFormatError):
            DexFile.decrypt(blob, b"wrong")

    def test_empty_key_rejected(self):
        with pytest.raises(ValueError):
            simple_payload_dex().encrypt(b"")

    def test_decrypt_requires_encrypted_magic(self):
        with pytest.raises(DexFormatError):
            DexFile.decrypt(simple_payload_dex().to_bytes(), b"k")


class TestNativeLibrary:
    def _library(self):
        fn = NativeFunction(
            name="JNI_OnLoad",
            blocks=[
                NativeBlock(
                    label="entry",
                    insns=[
                        NativeInsn(NativeOp.MOV, ("r0", 1)),
                        NativeInsn(NativeOp.BL, ("libc!ptrace",)),
                        NativeInsn(NativeOp.BNE, ("loop",)),
                    ],
                    successors=["loop", "exit"],
                ),
                NativeBlock(label="loop", insns=[NativeInsn(NativeOp.B, ("entry",))], successors=["entry"]),
                NativeBlock(label="exit", insns=[NativeInsn(NativeOp.RET)]),
            ],
        )
        return NativeLibrary(name="libhook.so", functions=[fn])

    def test_roundtrip(self):
        lib = self._library()
        parsed = NativeLibrary.from_bytes(lib.to_bytes())
        assert parsed.name == "libhook.so"
        assert parsed.function("JNI_OnLoad").block("loop") is not None
        assert parsed.call_targets() == ["libc!ptrace"]

    def test_magic(self):
        assert is_native_bytes(self._library().to_bytes())
        assert not is_native_bytes(b"PK\x03\x04")

    def test_bad_bytes(self):
        with pytest.raises(NativeFormatError):
            NativeLibrary.from_bytes(b"\x7fELF\x02\x01\x01\x00{broken")
        with pytest.raises(NativeFormatError):
            NativeLibrary.from_bytes(b"nope")

    def test_unknown_intrinsic_rejected(self):
        with pytest.raises(ValueError):
            NativeLibrary(name="l.so", intrinsics={"f": {"kind": "nonsense"}})

    def test_call_target_accessor(self):
        insn = NativeInsn(NativeOp.SVC, ("ptrace",))
        assert insn.call_target == "ptrace"
        assert NativeInsn(NativeOp.MOV, ("r0", 0)).call_target is None


class TestManifest:
    def test_roundtrip(self):
        manifest = build_manifest(application_name="com.example.demo.App")
        parsed = AndroidManifest.from_bytes(manifest.to_bytes())
        assert parsed.package == manifest.package
        assert parsed.application_name == "com.example.demo.App"
        assert parsed.launcher_activity().name.endswith("MainActivity")

    def test_pre_kitkat(self):
        assert build_manifest(min_sdk=14).supports_pre_kitkat()
        assert not build_manifest(min_sdk=19).supports_pre_kitkat()

    def test_add_permission(self):
        manifest = build_manifest(permissions=set())
        assert not manifest.has_permission(WRITE_EXTERNAL_STORAGE)
        manifest.add_permission(WRITE_EXTERNAL_STORAGE)
        assert manifest.has_permission(WRITE_EXTERNAL_STORAGE)

    def test_launcher_fallback_is_first_activity(self):
        manifest = AndroidManifest(
            package="p",
            components=[
                Component(ComponentKind.SERVICE, "p.S"),
                Component(ComponentKind.ACTIVITY, "p.A"),
            ],
        )
        assert manifest.launcher_activity().name == "p.A"

    def test_no_activities(self):
        manifest = AndroidManifest(package="p")
        assert manifest.launcher_activity() is None

    def test_malformed(self):
        with pytest.raises(ManifestError):
            AndroidManifest.from_bytes(b"{}")


class TestApk:
    def test_build_and_accessors(self):
        payload = simple_payload_dex()
        apk = Apk.build(
            build_manifest(),
            dex_files=[payload],
            native_libs=[NativeLibrary(name="libx.so")],
            assets={"assets/data.bin": b"blob"},
        )
        assert apk.package == "com.example.demo"
        assert len(apk.dex_files()) == 1
        assert [lib.name for lib in apk.native_libs()] == ["libx.so"]
        assert apk.asset_entries() == [("assets/data.bin", b"blob")]

    def test_serialization_roundtrip(self):
        apk = Apk.build(build_manifest(), dex_files=[simple_payload_dex()])
        parsed = Apk.from_bytes(apk.to_bytes())
        assert parsed.package == apk.package
        assert parsed.sha256() == apk.sha256()

    def test_bad_bytes(self):
        with pytest.raises(ApkFormatError):
            Apk.from_bytes(b"ELF nope")

    def test_missing_manifest(self):
        with pytest.raises(ApkFormatError):
            Apk().manifest

    def test_anti_flags(self):
        apk = Apk.build(build_manifest())
        assert not apk.is_anti_decompilation and not apk.is_anti_repackaging
        apk.enable_anti_decompilation()
        apk.enable_anti_repackaging()
        assert apk.is_anti_decompilation and apk.is_anti_repackaging
        assert ANTI_DECOMPILATION_ENTRY in apk.entries
        assert ANTI_REPACKAGING_ENTRY in apk.entries

    def test_packed_payload_entries(self):
        blob = simple_payload_dex().encrypt(b"k")
        apk = Apk.build(build_manifest(), assets={"assets/enc.dat": blob})
        assert apk.packed_payload_entries() == [("assets/enc.dat", blob)]
        assert apk.has_local_bytecode_store()

    def test_multidex_ordering(self):
        apk = Apk.build(
            build_manifest(),
            dex_files=[simple_payload_dex("a.A"), simple_payload_dex("b.B")],
        )
        names = [path for path, _ in apk.dex_entries()]
        assert names == ["classes.dex", "classes2.dex"]

    def test_clone_is_independent(self):
        apk = Apk.build(build_manifest())
        copy = apk.clone()
        copy.add_asset("assets/x", b"1")
        assert "assets/x" not in apk.entries
