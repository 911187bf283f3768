"""Hazard classification for the modern-DCL ecosystem scenario pack.

The paper's taxonomy (remote code, known malware, code injection) predates
app-as-host plugin frameworks, split APK delivery, dropper chains, and
self-debloating apps.  This module names the four hazard classes those
ecosystems introduce and classifies an intercepted payload against them
from facts the pipeline already has: the payload bytes, its provenance
chain, and the host app's component table / packaged class set.
"""

from __future__ import annotations

from typing import Optional, Sequence, Set, Tuple

from repro.android.apk import APK_MAGIC, Apk, ApkFormatError, loadable_dex
from repro.android.manifest import ManifestError
from repro.dynamic.provenance import Entity, Provenance

#: a foreign sub-app (an APK container whose own manifest names a package
#: other than the host's) defines a class matching a component declared by
#: the host manifest -- the classic plugin-framework component hijack.
#: The container test matters: a packer's decrypted payload legitimately
#: carries the host's real components and must not match.
HAZARD_PLUGIN_HIJACK = "plugin-hijack"
#: a loaded payload redefines a class already packaged in the host's own
#: dex files (plugin packs and feature splits shadowing host code).
HAZARD_NAMESPACE_COLLISION = "namespace-collision"
#: a payload whose remote ancestry spans two or more distinct origins --
#: a payload-fetches-payload dropper chain.
HAZARD_DROPPER_CHAIN = "dropper-chain"
#: the app re-loading its own shelved (debloated) code from its private
#: ``shelf/`` store -- high-churn lineage material, not third-party code.
HAZARD_SHELF_RELOAD = "shelf-reload"

ALL_HAZARD_CLASSES: Tuple[str, ...] = (
    HAZARD_PLUGIN_HIJACK,
    HAZARD_NAMESPACE_COLLISION,
    HAZARD_DROPPER_CHAIN,
    HAZARD_SHELF_RELOAD,
)


def payload_class_names(data: bytes) -> Set[str]:
    """Class names defined by a payload: bare DEX or APK/split container."""
    dex = loadable_dex(data)
    return {cls.name for cls in dex.classes} if dex is not None else set()


def container_package(data: bytes) -> Optional[str]:
    """The embedded manifest package of an APK-container payload.

    ``None`` for anything that is not a parseable APK/split container --
    bare DEX payloads have no package identity of their own.
    """
    if not data.startswith(APK_MAGIC):
        return None
    try:
        return Apk.from_bytes(data).manifest.package
    except (ApkFormatError, ManifestError):
        return None


def classify_hazards(
    path: str,
    data: bytes,
    entity: Entity,
    provenance: Provenance,
    remote_sources: Sequence[str],
    component_names: Set[str],
    host_classes: Set[str],
    app_package: str = "",
) -> Tuple[str, ...]:
    """The ecosystem hazard classes one intercepted payload triggers.

    ``component_names`` is the host manifest's component table and
    ``host_classes`` the set of classes packaged in the host's own dex
    files; both come from the APK under analysis, not from the runtime.
    Returned in :data:`ALL_HAZARD_CLASSES` order, deterministic.
    """
    hazards = []
    defined = payload_class_names(data)
    sub_app = container_package(data)
    if (
        sub_app is not None
        and sub_app != app_package
        and defined & component_names
    ):
        hazards.append(HAZARD_PLUGIN_HIJACK)
    if defined & host_classes:
        hazards.append(HAZARD_NAMESPACE_COLLISION)
    if len(set(remote_sources)) >= 2:
        hazards.append(HAZARD_DROPPER_CHAIN)
    if (
        provenance is Provenance.LOCAL
        and entity is Entity.OWN
        and "/shelf/" in path
    ):
        hazards.append(HAZARD_SHELF_RELOAD)
    return tuple(hazards)
