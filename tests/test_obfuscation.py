"""Tests for obfuscation analysis: lexical, packing rules, reflection."""

import random


from repro.android.apk import Apk
from repro.android.builders import MethodBuilder, class_builder
from repro.android.dex import DexFile
from repro.corpus.generator import CorpusGenerator
from repro.corpus.names import (
    allatori_identifier,
    obfuscated_identifier,
    proguard_identifier,
    readable_identifier,
)
from repro.static_analysis.decompiler import Decompiler
from repro.static_analysis.obfuscation.detector import (
    analyze_obfuscation,
    detect_dex_encryption,
    detect_reflection,
)
from repro.static_analysis.obfuscation.lexical import (
    identifier_is_meaningful,
    is_lexically_obfuscated,
    lexical_obfuscation_ratio,
    split_identifier,
)

from tests.helpers import build_manifest, downloads_and_loads_app


class TestIdentifierSplitting:
    def test_camel_case(self):
        assert split_identifier("loadBannerCache") == ("load", "banner", "cache")

    def test_snake_and_digits(self):
        assert split_identifier("get_user_2_id") == ("get", "user", "2", "id")

    def test_allcaps_run(self):
        assert split_identifier("HTTPClient") == ("http", "client")


class TestMeaningfulness:
    def test_dictionary_words(self):
        assert identifier_is_meaningful("downloadManager")
        assert identifier_is_meaningful("onClickListener")
        assert identifier_is_meaningful("UserProfileView")

    def test_proguard_names(self):
        assert not identifier_is_meaningful("a")
        assert not identifier_is_meaningful("ab")
        assert not identifier_is_meaningful("aaa")

    def test_allatori_names(self):
        assert not identifier_is_meaningful("xkqjw")
        assert not identifier_is_meaningful("bzrtk")

    def test_empty(self):
        assert not identifier_is_meaningful("")

    def test_ratio_and_verdict(self):
        readable = ["loadImage", "cacheManager", "updateView", "parseConfig"]
        obfuscated = ["a", "b", "aa", "qzx"]
        assert lexical_obfuscation_ratio(readable) == 1.0
        assert lexical_obfuscation_ratio(obfuscated) == 0.0
        assert not is_lexically_obfuscated(readable)
        assert is_lexically_obfuscated(obfuscated)
        assert lexical_obfuscation_ratio([]) == 1.0

    def test_generated_identifiers_match_detector(self):
        rng = random.Random(0)
        readable = [readable_identifier(rng, 2) for _ in range(100)]
        obfuscated = [obfuscated_identifier(rng, i) for i in range(100)]
        assert lexical_obfuscation_ratio(readable) > 0.9
        assert lexical_obfuscation_ratio(obfuscated) < 0.1

    def test_proguard_sequence(self):
        assert proguard_identifier(0) == "a"
        assert proguard_identifier(25) == "z"
        assert proguard_identifier(26) == "aa"

    def test_allatori_consonants_only(self):
        rng = random.Random(1)
        name = allatori_identifier(rng)
        assert all(c in "bcdfghjklmnpqrstvwxz" for c in name)


def _packed_record():
    generator = CorpusGenerator(seed=11)
    blueprints = generator.sample_blueprints(400)
    packed = [b for b in blueprints if b.is_packed]
    assert packed, "corpus too small to contain a packed app"
    return generator.build_record(packed[0])


class TestPackingDetector:
    def test_generated_packed_app_detected(self):
        record = _packed_record()
        program = Decompiler().decompile(record.apk)
        assert detect_dex_encryption(program)
        profile = analyze_obfuscation(record.apk, program)
        assert profile.dex_encryption

    def test_regular_dcl_app_not_packed(self):
        program = Decompiler().decompile(downloads_and_loads_app())
        assert not detect_dex_encryption(program)

    def test_rule1_requires_container_with_loader(self):
        record = _packed_record()
        apk = record.apk.clone()
        manifest = apk.manifest
        manifest.application_name = None  # rule 1 broken
        apk.put_manifest(manifest)
        assert not detect_dex_encryption(Decompiler().decompile(apk))

    def test_rule2_requires_missing_components(self):
        # An app whose container loads code but ships all its components in
        # plain sight is not "packed".
        record = _packed_record()
        apk = record.apk.clone()
        manifest = apk.manifest
        container = manifest.application_name
        Decompiler().decompile(apk)
        # declare only components that are actually present:
        from repro.android.manifest import Component, ComponentKind

        manifest.components = [Component(ComponentKind.ACTIVITY, container, True)]
        apk.put_manifest(manifest)
        assert not detect_dex_encryption(Decompiler().decompile(apk))

    def test_rule3_requires_native_decryptor(self):
        record = _packed_record()
        apk = record.apk.clone()
        program = Decompiler().decompile(apk)
        container_name = apk.manifest.application_name
        container = program.class_named(container_name)
        # strip the JNI load from the container body.
        for method in container.methods:
            method.instructions = [
                insn
                for insn in method.instructions
                if not (
                    insn.invoked is not None
                    and insn.invoked.name in ("loadLibrary", "load", "load0")
                )
            ]
        rebuilt = Apk.build(
            apk.manifest,
            dex_files=program.dex_files,
            assets={p: d for p, d in apk.asset_entries()},
        )
        assert not detect_dex_encryption(Decompiler().decompile(rebuilt))


class TestReflectionAndProfiles:
    def test_reflection_detected(self):
        cls = class_builder("t.R")
        b = MethodBuilder("m", "t.R", arity=1)
        method = b.call_virtual(
            "java.lang.Class", "getMethod", b.arg(0), b.new_string("x")
        )
        b.call_void("java.lang.reflect.Method", "invoke", method, b.new_null())
        b.ret_void()
        cls.add_method(b.build())
        apk = Apk.build(build_manifest("t"), dex_files=[DexFile(classes=[cls])])
        assert detect_reflection(Decompiler().decompile(apk))

    def test_no_reflection(self):
        assert not detect_reflection(Decompiler().decompile(downloads_and_loads_app()))

    def test_decompile_failure_profile(self):
        profile = analyze_obfuscation(downloads_and_loads_app(), None)
        assert profile.anti_decompilation
        assert not profile.lexical and not profile.dex_encryption

    def test_native_prefers_dynamic_confirmation(self):
        apk = downloads_and_loads_app()
        program = Decompiler().decompile(apk)
        profile = analyze_obfuscation(apk, program, dynamic_native_confirmed=True)
        assert profile.native
        profile = analyze_obfuscation(apk, program, dynamic_native_confirmed=False)
        assert not profile.native

    def test_techniques_listing(self):
        profile = analyze_obfuscation(
            downloads_and_loads_app(), Decompiler().decompile(downloads_and_loads_app())
        )
        assert "DEX encryption" not in profile.techniques()
