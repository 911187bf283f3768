"""The per-app decode scope: one frozen decode per distinct DEX byte string."""

import gc
import threading
import weakref
from collections import Counter, defaultdict
from types import SimpleNamespace

import pytest

from repro.android import dex as dex_module
from repro.android.apk import Apk, loadable_dex
from repro.android.dex import DexClass, DexField, DexFile, DexMethod, decode_scope
from repro.core import pipeline as pipeline_module
from repro.core.config import DyDroidConfig
from repro.core.pipeline import DyDroid
from repro.corpus.generator import generate_corpus
from repro.runtime import classloader

from tests.helpers import build_manifest, simple_payload_dex


def payload_bytes() -> bytes:
    dex = simple_payload_dex()
    dex.classes[0].fields.append(DexField("counter", "int", is_static=True))
    return dex.to_bytes()


class TestScopedDecodes:
    def test_equal_bytes_return_the_identical_object(self):
        data = payload_bytes()
        with decode_scope() as scope:
            first = DexFile.from_bytes(data)
            # an equal byte string that is a different object hits too
            second = DexFile.from_bytes(bytes(bytearray(data)))
            assert first is second
            assert scope.drain() == (1, 1)
            assert scope.drain() == (0, 0)
        assert first.to_bytes() == data

    def test_nested_scope_reuses_the_outer_dict(self):
        data = payload_bytes()
        with decode_scope() as outer:
            dex = DexFile.from_bytes(data)
            with decode_scope() as inner:
                assert inner is outer
                assert DexFile.from_bytes(data) is dex
            assert DexFile.from_bytes(data) is dex

    def test_format_errors_still_raise_inside_a_scope(self):
        with decode_scope() as scope:
            for junk in (b"not dex", dex_module.DEX_MAGIC + b"{broken"):
                for _ in range(2):
                    with pytest.raises(dex_module.DexFormatError):
                        DexFile.from_bytes(junk)
            assert scope.decoded == {}

    def test_outside_a_scope_decodes_are_fresh_and_mutable(self):
        data = payload_bytes()
        first, second = DexFile.from_bytes(data), DexFile.from_bytes(data)
        assert first is not second
        assert type(first) is DexFile and type(first.classes[0]) is DexClass
        first.source_name = "renamed.dex"
        first.classes[0].methods.append(DexMethod("extra", first.classes[0].name))
        first.merge(second)
        assert len(first.classes) == 2
        assert second.source_name != "renamed.dex"


class TestFrozenIR:
    @pytest.fixture
    def frozen(self):
        with decode_scope():
            yield DexFile.from_bytes(payload_bytes())

    def test_readers_and_isinstance_keep_working(self, frozen):
        cls = frozen.classes[0]
        method = cls.method("run")
        assert isinstance(frozen, DexFile) and isinstance(cls, DexClass)
        assert isinstance(method, DexMethod) and isinstance(cls.fields[0], DexField)
        assert frozen.class_named(cls.name) is cls
        assert list(frozen.iter_methods()) == list(cls.methods)
        assert frozen.packages() == [cls.package]
        assert any(ref.name == "d" for ref in method.invoked_refs())
        assert frozen.to_bytes() == payload_bytes()

    def test_attribute_sets_and_deletes_are_refused(self, frozen):
        cls = frozen.classes[0]
        targets = [
            (frozen, "source_name"),
            (cls, "name"),
            (cls, "methods"),
            (cls.methods[0], "instructions"),
            (cls.methods[0], "registers"),
            (cls.fields[0], "type_name"),
        ]
        for target, name in targets:
            with pytest.raises(AttributeError):
                setattr(target, name, getattr(target, name))
            with pytest.raises(AttributeError):
                delattr(target, name)
        with pytest.raises(AttributeError):
            cls.cached = True

    def test_containers_are_tuples(self, frozen):
        cls = frozen.classes[0]
        method = cls.methods[0]
        for container in (frozen.classes, cls.methods, cls.fields, method.instructions):
            assert isinstance(container, tuple)
        with pytest.raises(AttributeError):
            frozen.classes.append(cls)
        with pytest.raises(AttributeError):
            cls.add_method(method)
        with pytest.raises(AttributeError):
            frozen.merge(frozen)
        with pytest.raises(TypeError):
            method.instructions[0] = method.instructions[-1]

    def test_a_fresh_merge_of_frozen_members_stays_mutable(self):
        with decode_scope():
            container = Apk.build(build_manifest(), [simple_payload_dex()])
            merged = loadable_dex(container.to_bytes(), "/data/plugins/pack.apk")
            assert type(merged) is DexFile
            assert merged.source_name == "pack.apk"
            merged.classes.append(DexClass("com.extra.Cls"))


class TestScopeLifetime:
    def test_two_threads_get_disjoint_scopes(self):
        data = payload_bytes()
        barrier = threading.Barrier(2)
        seen = {}

        def decode(slot):
            with decode_scope() as scope:
                first = DexFile.from_bytes(data)
                barrier.wait(timeout=10)
                seen[slot] = (scope, first, DexFile.from_bytes(data))
                barrier.wait(timeout=10)

        threads = [threading.Thread(target=decode, args=(slot,)) for slot in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        (scope_a, dex_a, again_a), (scope_b, dex_b, again_b) = seen[0], seen[1]
        assert again_a is dex_a and again_b is dex_b
        assert scope_a is not scope_b and dex_a is not dex_b
        assert dex_module._SCOPE.get() is None

    def test_scope_is_released_when_analyze_app_returns(self, monkeypatch):
        record = generate_corpus(24, seed=7)[1]
        dydroid = DyDroid(DyDroidConfig(train_samples_per_family=2, run_replays=False))
        refs = []
        real_prefilter = pipeline_module.prefilter

        def spy(program):
            host = program.dex_files[0]
            assert DexFile.from_bytes(record.apk.dex_entries()[0][1]) is host
            refs.append(weakref.ref(host))
            return real_prefilter(program)

        monkeypatch.setattr(pipeline_module, "prefilter", spy)
        dydroid.analyze_app(record)
        assert len(refs) == 1
        assert dex_module._SCOPE.get() is None
        gc.collect()
        assert refs[0]() is None

    def test_one_real_decode_per_distinct_dex_per_app(self, monkeypatch):
        corpus = generate_corpus(60, seed=42)
        dydroid = DyDroid(DyDroidConfig(train_samples_per_family=2))
        decoded = defaultdict(list)
        current = []
        real_parse = dex_module._parse_dex

        def counting_parse(data):
            decoded[current[-1]].append(data)
            return real_parse(data)

        monkeypatch.setattr(dex_module, "_parse_dex", counting_parse)
        for record in corpus:
            current.append(record.package)
            dydroid.analyze_app(record)
        for package, byte_strings in decoded.items():
            repeats = [n for n in Counter(byte_strings).values() if n > 1]
            assert not repeats, "{} decoded one DEX {} times".format(package, repeats)
        counters = dydroid.metrics.to_dict()["counters"]
        real = sum(len(byte_strings) for byte_strings in decoded.values())
        assert counters["dex.decodes"] == real
        assert counters["dex.decode_hits"] > real
        assert dex_module._SCOPE.get() is None


class TestClassloaderErrors:
    def vm_reading(self, data):
        vfs = SimpleNamespace(read=lambda path: data)
        return SimpleNamespace(device=SimpleNamespace(vfs=vfs))

    def test_classless_and_encrypted_containers_define_nothing(self):
        dex = simple_payload_dex()
        for data in (
            dex.encrypt(b"k"),
            Apk.build(build_manifest()).to_bytes(),
            b'PK\x03\x04{"classes.dex": null}',
        ):
            assert classloader._read_dex(self.vm_reading(data), "/data/x.jar") is None

    def test_non_format_errors_propagate(self, monkeypatch):
        def broken(*args):
            raise RuntimeError("decoder bug")

        container = Apk.build(build_manifest(), [simple_payload_dex()]).to_bytes()
        monkeypatch.setattr(Apk, "dex_files", broken)
        with pytest.raises(RuntimeError, match="decoder bug"):
            classloader._read_dex(self.vm_reading(container), "/data/x.apk")
        monkeypatch.setattr(dex_module, "_decode_dex", broken)
        with pytest.raises(RuntimeError, match="decoder bug"):
            classloader._read_dex(
                self.vm_reading(simple_payload_dex().to_bytes()), "/data/x.dex"
            )
