"""The AndroidManifest model.

DyDroid's obfuscation rules hinge on manifest facts: the ``android:name``
attribute of the ``<application>`` tag (the container class packers inject),
the set of declared components (packers declare components whose bytecode is
not in ``classes.dex``), declared permissions (the rewriter adds
``WRITE_EXTERNAL_STORAGE`` when missing), and the supported SDK range (the
external-storage code-injection vulnerability applies below Android 4.4,
i.e. ``min_sdk < 19``).
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import List, Optional, Set

WRITE_EXTERNAL_STORAGE = "android.permission.WRITE_EXTERNAL_STORAGE"
INTERNET = "android.permission.INTERNET"
READ_PHONE_STATE = "android.permission.READ_PHONE_STATE"
ACCESS_FINE_LOCATION = "android.permission.ACCESS_FINE_LOCATION"
GET_ACCOUNTS = "android.permission.GET_ACCOUNTS"
READ_CONTACTS = "android.permission.READ_CONTACTS"

#: API level at which external storage stopped being world-writable.
KITKAT_API_LEVEL = 19


class ManifestError(ValueError):
    """Raised on malformed manifest payloads."""


class ComponentKind(enum.Enum):
    ACTIVITY = "activity"
    SERVICE = "service"
    RECEIVER = "receiver"
    PROVIDER = "provider"


@dataclass(frozen=True)
class Component:
    """A declared application component."""

    kind: ComponentKind
    name: str
    is_launcher: bool = False
    #: for receivers: the intent action filtered and the ordered-broadcast
    #: priority (high priorities run first and may abort the chain).
    intent_action: Optional[str] = None
    priority: int = 0


@dataclass
class AndroidManifest:
    """AndroidManifest.xml contents relevant to DyDroid."""

    package: str
    version_code: int = 1
    min_sdk: int = 14
    target_sdk: int = 18
    permissions: Set[str] = field(default_factory=set)
    components: List[Component] = field(default_factory=list)
    #: the android:name attribute on <application>, or None when absent.
    application_name: Optional[str] = None
    #: split name for feature/config APKs (``split="..."`` on <manifest>);
    #: ``None`` for a base APK.  Serialized only when set so base-APK
    #: manifests stay byte-identical to pre-split corpora.
    split: Optional[str] = None

    def has_permission(self, permission: str) -> bool:
        return permission in self.permissions

    def add_permission(self, permission: str) -> None:
        self.permissions.add(permission)

    def activities(self) -> List[Component]:
        return [c for c in self.components if c.kind is ComponentKind.ACTIVITY]

    def component_names(self) -> Set[str]:
        return {c.name for c in self.components}

    def launcher_activity(self) -> Optional[Component]:
        for component in self.components:
            if component.kind is ComponentKind.ACTIVITY and component.is_launcher:
                return component
        activities = self.activities()
        return activities[0] if activities else None

    def supports_pre_kitkat(self) -> bool:
        """True when the app runs on OS versions below Android 4.4."""
        return self.min_sdk < KITKAT_API_LEVEL

    # -- serialization (stored as an APK entry) -------------------------------

    def to_bytes(self) -> bytes:
        payload = {
            "package": self.package,
            "version_code": self.version_code,
            "min_sdk": self.min_sdk,
            "target_sdk": self.target_sdk,
            "permissions": sorted(self.permissions),
            "application_name": self.application_name,
            "components": [
                [c.kind.value, c.name, c.is_launcher, c.intent_action, c.priority]
                for c in self.components
            ],
        }
        if self.split:
            payload["split"] = self.split
        return json.dumps(payload, sort_keys=True).encode("utf-8")

    @classmethod
    def from_bytes(cls, data: bytes) -> "AndroidManifest":
        try:
            payload = json.loads(data.decode("utf-8"))
            return cls(
                package=payload["package"],
                version_code=payload["version_code"],
                min_sdk=payload["min_sdk"],
                target_sdk=payload["target_sdk"],
                permissions=set(payload["permissions"]),
                application_name=payload["application_name"],
                components=[
                    Component(ComponentKind(raw[0]), raw[1], raw[2], *raw[3:5])
                    for raw in payload["components"]
                ],
                split=payload.get("split"),
            )
        except (KeyError, TypeError, ValueError, IndexError, RecursionError) as exc:
            raise ManifestError("malformed manifest payload") from exc
