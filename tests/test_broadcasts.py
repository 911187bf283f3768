"""Tests for ordered broadcasts and the SMS-blocking malware behaviour."""

import pytest

from repro.android.apk import Apk
from repro.android.builders import MethodBuilder, class_builder
from repro.android.dex import DexFile
from repro.android.manifest import AndroidManifest, Component, ComponentKind, INTERNET
from repro.runtime.broadcasts import SMS_RECEIVED_ACTION, BroadcastManager
from repro.runtime.device import Device
from repro.runtime.instrumentation import Instrumentation
from repro.runtime.objects import VMException, VMObject
from repro.runtime.vm import DalvikVM
from repro.static_analysis.malware.families import swiss_code_monkeys_dex



def receiver_class(name, body=None, superclass="android.content.BroadcastReceiver"):
    cls = class_builder(name, superclass=superclass)
    init = MethodBuilder("<init>", name, arity=1)
    init.ret_void()
    cls.add_method(init.build())
    b = MethodBuilder("onReceive", name, arity=3)
    if body is not None:
        body(b)
    b.ret_void()
    cls.add_method(b.build())
    return cls


def logging_receiver(name, tag):
    def body(b):
        sender = b.call_virtual(
            "android.content.Intent", "getStringExtra", b.arg(2), b.new_string("sender")
        )
        b.call_void("android.util.Log", "d", b.new_string(tag), sender)

    return receiver_class(name, body)


def aborting_receiver(name):
    def body(b):
        b.call_void("android.content.BroadcastReceiver", "abortBroadcast", b.arg(0))

    return receiver_class(name, body)


def make_vm(classes, package="com.b.app", components=()):
    manifest = AndroidManifest(
        package=package, permissions={INTERNET}, components=list(components)
    )
    apk = Apk.build(manifest, dex_files=[DexFile(classes=list(classes))])
    device = Device()
    vm = DalvikVM(device, Instrumentation())
    vm.install_app(apk)
    return vm


class TestBroadcastManager:
    def test_priority_ordering(self):
        manager = BroadcastManager()
        manager.register("p", "a.Low", "X", priority=1)
        manager.register("p", "a.High", "X", priority=100)
        manager.register("p", "a.Other", "Y", priority=999)
        assert [r.class_name for r in manager.receivers_for("X")] == ["a.High", "a.Low"]

    def test_runtime_registration_via_context(self):
        cls = logging_receiver("com.b.app.R1", "r1")
        vm = make_vm([cls])
        receiver = VMObject("com.b.app.R1")
        from repro.android.bytecode import MethodRef

        vm.invoke(
            MethodRef("android.content.Context", "registerReceiver", 4),
            [VMObject("android.content.Context"), receiver, SMS_RECEIVED_ACTION, 10],
        )
        assert vm.device.broadcasts.receivers_for(SMS_RECEIVED_ACTION)

    def test_manifest_receivers_registered_at_install(self):
        cls = logging_receiver("com.b.app.BootWatcher", "boot")
        component = Component(
            ComponentKind.RECEIVER,
            "com.b.app.BootWatcher",
            intent_action="android.intent.action.BOOT_COMPLETED",
            priority=5,
        )
        vm = make_vm([cls], components=[component])
        registrations = vm.device.broadcasts.receivers_for(
            "android.intent.action.BOOT_COMPLETED"
        )
        assert [r.class_name for r in registrations] == ["com.b.app.BootWatcher"]


class TestSmsDelivery:
    def test_sms_reaches_inbox_without_blockers(self):
        cls = logging_receiver("com.b.app.Reader", "seen")
        vm = make_vm([cls])
        vm.device.broadcasts.register(
            "com.b.app", "com.b.app.Reader", SMS_RECEIVED_ACTION
        )
        before = len(vm.device.provider_data["sms"])
        record = vm.device.receive_sms(vm, "+15550000", "carrier balance: 5 EUR")
        assert not record.aborted
        assert record.receivers_run == ["com.b.app.Reader"]
        assert len(vm.device.provider_data["sms"]) == before + 1
        assert vm.device.logcat == ["seen: +15550000"]

    def test_high_priority_blocker_aborts_chain(self):
        blocker = aborting_receiver("com.b.app.Blocker")
        reader = logging_receiver("com.b.app.Reader", "seen")
        vm = make_vm([blocker, reader])
        vm.device.broadcasts.register(
            "com.b.app", "com.b.app.Blocker", SMS_RECEIVED_ACTION, priority=999
        )
        vm.device.broadcasts.register(
            "com.b.app", "com.b.app.Reader", SMS_RECEIVED_ACTION, priority=0
        )
        before = len(vm.device.provider_data["sms"])
        record = vm.device.receive_sms(vm, "+15550000", "you sent a premium SMS")
        assert record.aborted_by == "com.b.app.Blocker"
        assert record.receivers_run == ["com.b.app.Blocker"]
        assert len(vm.device.provider_data["sms"]) == before  # never hits the inbox
        assert vm.device.logcat == []

    def test_abort_outside_ordered_broadcast_raises(self):
        cls = aborting_receiver("com.b.app.Rogue")
        vm = make_vm([cls])
        from repro.android.bytecode import MethodRef

        with pytest.raises(VMException) as excinfo:
            vm.invoke(
                MethodRef("android.content.BroadcastReceiver", "abortBroadcast", 1),
                [VMObject("com.b.app.Rogue")],
            )
        assert excinfo.value.class_name == "java.lang.IllegalStateException"


class TestSwissCodeMonkeysBlocksSms:
    def test_loaded_malware_swallows_carrier_replies(self):
        """End to end: the loaded Swiss-code-monkeys service registers its
        blocker, and subsequent incoming SMS never reach the inbox."""
        payload = swiss_code_monkeys_dex(seed=9)
        service = payload.classes[0].name
        vm = make_vm([], package="com.host.app")
        vm.load_dex(payload)  # as if just loaded via DCL
        # host every URL the payload touches so onStart survives.
        from repro.corpus.behaviors import extract_url_constants

        for url in extract_url_constants(payload):
            vm.device.network.host_resource(url, b"\x00")
        vm.run_entry(service, "onStart", [VMObject(service)])
        record = vm.device.receive_sms(vm, "+CARRIER", "premium service activated")
        assert record.aborted
        assert record.aborted_by.endswith(".SmsBlocker")
        assert "premium service activated" not in " ".join(vm.device.provider_data["sms"])
