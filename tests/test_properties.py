"""Property-based tests (hypothesis) over the core data structures."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.android import bytecode as bc
from repro.android.builders import MethodBuilder, class_builder
from repro.android.bytecode import FieldRef, Instruction, MethodRef, Op
from repro.android.dex import DexClass, DexFile, DexMethod
from repro.android.manifest import AndroidManifest, Component, ComponentKind
from repro.android.nativelib import NativeBlock, NativeFunction, NativeInsn, NativeLibrary, NativeOp
from repro.corpus.names import obfuscated_identifier, readable_identifier
from repro.runtime.device import Device
from repro.runtime.vfs import VirtualFilesystem, internal_owner, is_external, normalize
from repro.runtime.vm import DalvikVM
from repro.static_analysis.malware.acfg import acfg_for_dex_method, acfg_signature, binary_signatures
from repro.static_analysis.obfuscation.lexical import lexical_obfuscation_ratio


# -- strategies ---------------------------------------------------------------

identifiers = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu"), max_codepoint=127),
    min_size=1,
    max_size=12,
)

class_names = st.builds(
    lambda a, b: "com.{}.{}".format(a.lower(), b.capitalize()), identifiers, identifiers
)

literals = st.one_of(st.integers(-1000, 1000), st.text(max_size=8), st.none())


@st.composite
def straightline_methods(draw):
    """Random straight-line methods: consts, moves, field ops, invokes."""
    name = draw(identifiers)
    cls = draw(class_names)
    n = draw(st.integers(1, 25))
    insns = []
    for _ in range(n):
        kind = draw(st.integers(0, 4))
        if kind == 0:
            insns.append(bc.const(draw(st.integers(0, 15)), draw(literals)))
        elif kind == 1:
            insns.append(bc.move(draw(st.integers(0, 15)), draw(st.integers(0, 15))))
        elif kind == 2:
            insns.append(
                bc.invoke(
                    MethodRef(draw(class_names), draw(identifiers), draw(st.integers(0, 3)))
                )
            )
        elif kind == 3:
            insns.append(
                bc.sput(draw(st.integers(0, 15)), FieldRef(draw(class_names), draw(identifiers)))
            )
        else:
            insns.append(bc.binop("add", draw(st.integers(0, 15)), draw(st.integers(0, 15)), draw(st.integers(0, 15))))
    insns.append(bc.ret_void())
    return DexMethod(name=name, class_name=cls, arity=draw(st.integers(0, 3)), instructions=insns)


@st.composite
def dex_files(draw):
    methods = draw(st.lists(straightline_methods(), min_size=1, max_size=5))
    cls = DexClass(name=draw(class_names))
    cls.methods = [
        DexMethod(
            name="m{}".format(index),
            class_name=cls.name,
            arity=m.arity,
            instructions=m.instructions,
        )
        for index, m in enumerate(methods)
    ]
    return DexFile(classes=[cls])


# -- DEX serialization properties ------------------------------------------------


@given(dex_files())
@settings(max_examples=60, deadline=None)
def test_dex_roundtrip_identity(dex):
    parsed = DexFile.from_bytes(dex.to_bytes())
    assert parsed.to_bytes() == dex.to_bytes()
    assert [m.name for m in parsed.iter_methods()] == [m.name for m in dex.iter_methods()]
    for original, restored in zip(dex.iter_methods(), parsed.iter_methods()):
        assert original.instructions == restored.instructions


@given(dex_files(), st.binary(min_size=1, max_size=16))
@settings(max_examples=40, deadline=None)
def test_encrypt_decrypt_roundtrip(dex, key):
    assert DexFile.decrypt(dex.encrypt(key), key).to_bytes() == dex.to_bytes()


@given(dex_files())
@settings(max_examples=40, deadline=None)
def test_signatures_stable_under_serialization(dex):
    parsed = DexFile.from_bytes(dex.to_bytes())
    assert binary_signatures(parsed) == binary_signatures(dex)


@given(straightline_methods())
@settings(max_examples=60, deadline=None)
def test_acfg_signature_ignores_registers_and_literals(method):
    """Renumbering registers / changing literals never changes the ACFG."""
    remapped = []
    for insn in method.instructions:
        args = []
        for arg in insn.args:
            if isinstance(arg, int):
                args.append(arg + 1)           # shift every register number
            elif isinstance(arg, str) and insn.op is Op.CONST:
                args.append(arg + "_suffix")   # perturb string literals
            else:
                args.append(arg)
        remapped.append(Instruction(insn.op, tuple(args)))
    clone = DexMethod(
        name=method.name,
        class_name=method.class_name,
        arity=method.arity,
        instructions=remapped,
    )
    assert acfg_signature(acfg_for_dex_method(method)) == acfg_signature(
        acfg_for_dex_method(clone)
    )


# -- manifest properties ----------------------------------------------------------


@given(
    st.text(alphabet="abcdefghij.", min_size=3, max_size=20).filter(
        lambda s: s and not s.startswith(".") and not s.endswith(".")
    ),
    st.integers(1, 30),
    st.sets(st.sampled_from(["android.permission.INTERNET", "android.permission.CAMERA"])),
)
@settings(max_examples=40, deadline=None)
def test_manifest_roundtrip(package, min_sdk, permissions):
    manifest = AndroidManifest(
        package=package,
        min_sdk=min_sdk,
        permissions=set(permissions),
        components=[Component(ComponentKind.ACTIVITY, package + ".Main", True)],
    )
    parsed = AndroidManifest.from_bytes(manifest.to_bytes())
    assert parsed.package == package
    assert parsed.permissions == permissions
    assert parsed.supports_pre_kitkat() == (min_sdk < 19)


# -- VFS properties -----------------------------------------------------------------


@given(st.lists(st.tuples(st.sampled_from(["/a/x", "/a/y", "/b/z", "/mnt/sdcard/f"]), st.binary(max_size=64)), max_size=20))
@settings(max_examples=40, deadline=None)
def test_vfs_used_bytes_consistent(operations):
    vfs = VirtualFilesystem()
    for path, data in operations:
        vfs.write(path, data)
    assert vfs.used_bytes() == sum(record.size for record in vfs)
    assert vfs.used_bytes() <= vfs.quota_bytes


@given(st.text(alphabet="abc/.", min_size=1, max_size=24))
@settings(max_examples=60, deadline=None)
def test_normalize_idempotent(path):
    once = normalize(path)
    assert normalize(once) == once
    assert once.startswith("/")


@given(st.sampled_from(["com.a", "com.b.c", "org.x"]), st.text(alphabet="abc/", max_size=10))
@settings(max_examples=40, deadline=None)
def test_internal_owner_of_internal_paths(package, suffix):
    path = "/data/data/{}/{}".format(package, suffix)
    owner = internal_owner(path)
    assert owner == package or (owner is None and not suffix)
    assert not is_external(path)


# -- interpreter determinism ------------------------------------------------------------


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_interpreter_arithmetic_matches_python(seed):
    rng = random.Random(seed)
    a, b = rng.randint(-10_000, 10_000), rng.randint(1, 10_000)
    cls = class_builder("t.P")
    builder = MethodBuilder("f", "t.P", arity=2, is_static=True)
    total = builder.binop("add", builder.arg(0), builder.arg(1))
    product = builder.binop("mul", total, builder.arg(0))
    remainder = builder.binop("rem", product, builder.arg(1))
    builder.ret(remainder)
    cls.add_method(builder.build())
    vm = DalvikVM(Device())
    vm.load_dex(DexFile(classes=[cls]))
    assert vm.run_entry("t.P", "f", [a, b]) == ((a + b) * a) % b


# -- lexical detector properties ------------------------------------------------------------


@given(st.integers(0, 2**31 - 1), st.integers(10, 60))
@settings(max_examples=20, deadline=None)
def test_lexical_ratio_separates_generated_styles(seed, count):
    rng = random.Random(seed)
    readable = [readable_identifier(rng, 2) for _ in range(count)]
    obfuscated = [obfuscated_identifier(rng, index) for index in range(count)]
    assert lexical_obfuscation_ratio(readable) > lexical_obfuscation_ratio(obfuscated)


# -- native library properties -----------------------------------------------------------------


@given(
    st.lists(
        st.tuples(identifiers, st.integers(1, 4)),
        min_size=1,
        max_size=4,
        unique_by=lambda t: t[0],
    )
)
@settings(max_examples=40, deadline=None)
def test_native_library_roundtrip(function_specs):
    functions = []
    for name, n_blocks in function_specs:
        blocks = [
            NativeBlock(
                label="b{}".format(index),
                insns=[NativeInsn(NativeOp.MOV, ("r0", index)), NativeInsn(NativeOp.RET)],
                successors=["b{}".format(index + 1)] if index + 1 < n_blocks else [],
            )
            for index in range(n_blocks)
        ]
        functions.append(NativeFunction(name=name, blocks=blocks))
    library = NativeLibrary(name="libp.so", functions=functions)
    parsed = NativeLibrary.from_bytes(library.to_bytes())
    assert parsed.exported_names() == library.exported_names()
    assert binary_signatures(parsed) == binary_signatures(library)


# -- evolution differ / warehouse properties ---------------------------------------------------

import json

from repro.core.report import AppAnalysis, PayloadVerdict
from repro.corpus.metadata import AppMetadata
from repro.dynamic.interceptor import PayloadKind
from repro.dynamic.provenance import Entity, Provenance
from repro.evolution import DriftSeverity, SnapshotWarehouse, diff_analyses
from repro.static_analysis.malware.droidnative import Detection
from repro.static_analysis.prefilter import PrefilterResult

hex_digests = st.text(alphabet="0123456789abcdef", min_size=64, max_size=64)

payload_paths = st.builds(
    "/data/data/com.example/files/{}.jar".format, identifiers
)


@st.composite
def payload_verdicts(draw):
    malicious = draw(st.booleans())
    return PayloadVerdict(
        path=draw(payload_paths),
        kind=draw(st.sampled_from(list(PayloadKind))),
        entity=draw(st.sampled_from(list(Entity))),
        provenance=draw(st.sampled_from(list(Provenance))),
        remote_sources=tuple(draw(st.lists(identifiers, max_size=2))),
        detection=Detection(
            family=draw(identifiers),
            score=0.9,
            matched_sample_id="s",
            matched_functions=1,
            total_functions=1,
        )
        if malicious
        else None,
        digest=draw(hex_digests),
    )


@st.composite
def app_analyses(draw):
    return AppAnalysis(
        package="com.example.app",
        metadata=AppMetadata(
            category="Tools",
            downloads=draw(st.integers(0, 10**7)),
            n_ratings=draw(st.integers(0, 10**5)),
            avg_rating=4.0,
            release_time_ms=draw(st.integers(10**12, 2 * 10**12)),
            version_code=draw(st.integers(1, 50)),
        ),
        decompile_failed=draw(st.booleans()),
        prefilter=PrefilterResult(
            has_dex_dcl=draw(st.booleans()),
            has_native_dcl=draw(st.booleans()),
            dex_call_site_classes=draw(st.lists(class_names, max_size=3)),
            native_call_site_classes=draw(st.lists(class_names, max_size=2)),
        ),
        payloads=draw(
            st.lists(payload_verdicts(), max_size=4, unique_by=lambda p: p.path)
        ),
    )


@given(app_analyses())
@settings(max_examples=60, deadline=None)
def test_diff_of_identical_snapshots_is_empty(app):
    diff = diff_analyses(app, app)
    assert diff.is_empty
    assert diff.severity is DriftSeverity.NONE


@given(app_analyses(), app_analyses(), payload_paths, hex_digests)
@settings(max_examples=60, deadline=None)
def test_adding_a_malicious_flip_never_lowers_severity(old, new, path, digest):
    # strip malicious payloads from both sides so the flip is the delta
    old.payloads = [p for p in old.payloads if p.detection is None]
    new.payloads = [p for p in new.payloads if p.detection is None]
    baseline = diff_analyses(old, new).severity
    new.payloads = new.payloads + [
        PayloadVerdict(
            path=path,
            kind=PayloadKind.DEX,
            entity=Entity.THIRD_PARTY,
            provenance=Provenance.LOCAL,
            detection=Detection("evil", 0.9, "s", 1, 1),
            digest=digest,
        )
    ]
    escalated = diff_analyses(old, new).severity
    assert escalated >= baseline
    assert escalated is DriftSeverity.CRITICAL


@given(app_analyses())
@settings(max_examples=25, deadline=None)
def test_warehouse_round_trip_is_byte_identical(app):
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        path = "{}/w.jsonl".format(tmp)
        with SnapshotWarehouse(path) as warehouse:
            assert warehouse.append(app)
        with SnapshotWarehouse(path) as warehouse:
            stored = warehouse.get(app.package, app.version_code)
        assert json.dumps(stored, sort_keys=True) == json.dumps(
            app.to_dict(), sort_keys=True
        )
