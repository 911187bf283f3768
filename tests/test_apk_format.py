"""``Apk.from_bytes`` on hostile bodies: only ``ApkFormatError`` escapes."""

import base64
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.android.apk import APK_MAGIC, Apk, ApkFormatError, loadable_dex
from repro.android.dex import DEX_MAGIC, DexFile, DexFormatError
from repro.android.manifest import AndroidManifest, ManifestError
from repro.android.nativelib import ELF_MAGIC, NativeFormatError, NativeLibrary
from repro.dynamic.interceptor import InterceptedPayload, classify_payload
from repro.ecosystems.hazards import container_package, payload_class_names
from repro.service import JobSpec, SpecError

from tests.helpers import build_manifest, simple_payload_dex

#: valid JSON, wrong shape: each leaked TypeError/AttributeError before.
WRONG_SHAPES = [
    b'PK\x03\x04{"classes.dex": null}',
    b'PK\x03\x04{"a": 5}',
    b"PK\x03\x04[1,2]",
    b'PK\x03\x04"x"',
]


@pytest.mark.parametrize("data", WRONG_SHAPES)
def test_wrong_shape_body_is_a_format_error(data):
    with pytest.raises(ApkFormatError):
        Apk.from_bytes(data)


@pytest.mark.parametrize("data", WRONG_SHAPES)
def test_wrong_shape_container_loads_nothing(data):
    payload = InterceptedPayload(
        path="/data/data/app/plugin.apk", data=data, kind=classify_payload(data),
        app_package="app", call_site=None, loader="DexClassLoader", timestamp_ms=0,
    )
    assert payload.as_dex() is None
    assert loadable_dex(data) is None
    assert payload_class_names(data) == set()
    assert container_package(data) is None


@pytest.mark.parametrize("data", WRONG_SHAPES)
def test_wrong_shape_upload_is_a_spec_error(data):
    encoded = base64.b64encode(data).decode("ascii")
    with pytest.raises(SpecError):
        JobSpec.from_payload({"kind": "apk", "apk_b64": encoded})


def test_container_with_a_malformed_manifest_has_no_package():
    container = Apk(entries={"AndroidManifest.xml": b"garbage"})
    assert container_package(container.to_bytes()) is None


def test_deeply_nested_body_is_a_format_error():
    with pytest.raises(ApkFormatError):
        Apk.from_bytes(APK_MAGIC + b"[" * 100_000)
    with pytest.raises(DexFormatError):
        DexFile.from_bytes(DEX_MAGIC + b"[" * 100_000)
    # a container whose DEX member nests too deeply defines nothing
    member = Apk(entries={"classes.dex": DEX_MAGIC + b"[" * 100_000})
    assert loadable_dex(member.to_bytes(), "/data/plugin.apk") is None


def test_deeply_nested_manifest_is_a_manifest_error():
    with pytest.raises(ManifestError):
        AndroidManifest.from_bytes(b"[" * 100_000)


@pytest.mark.parametrize("component", ["[]", '["activity"]', '["activity", "p.A"]'])
def test_short_component_entry_is_a_manifest_error(component):
    body = (
        '{"package": "p", "version_code": 1, "min_sdk": 1, "target_sdk": 1,'
        ' "permissions": [], "application_name": null, "components": [%s]}' % component
    )
    with pytest.raises(ManifestError):
        AndroidManifest.from_bytes(body.encode())


def test_deeply_nested_native_body_is_a_native_format_error():
    with pytest.raises(NativeFormatError):
        NativeLibrary.from_bytes(ELF_MAGIC + b"[" * 100_000)


def test_well_formed_archive_still_round_trips():
    apk = Apk.build(build_manifest(), [simple_payload_dex()], assets={"assets/a.bin": b"\x00"})
    assert Apk.from_bytes(apk.to_bytes()).entries == apk.entries


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=8) | st.text(alphabet="0123456789abcdef", max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


@given(json_values)
@settings(max_examples=200, deadline=None)
def test_structural_fuzz_only_format_errors_escape(value):
    data = APK_MAGIC + json.dumps(value).encode("utf-8")
    try:
        apk = Apk.from_bytes(data)
    except ApkFormatError:
        return
    assert isinstance(value, dict)
    assert apk.entries == {path: bytes.fromhex(hex_data) for path, hex_data in value.items()}


@given(st.binary(max_size=64))
@settings(max_examples=200, deadline=None)
def test_byte_fuzz_only_format_errors_escape(body):
    try:
        Apk.from_bytes(APK_MAGIC + body)
    except ApkFormatError:
        pass
