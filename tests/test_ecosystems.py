"""The modern-DCL ecosystem scenario pack: generation, detection, defense.

Four planted ecosystems (plugin hosts, split-APK payloads, staged
downloaders, self-debloating apps), each of which must generate
deterministically, trigger its hazard class with a full provenance chain,
mutate across lineages, and fall under firewall reach.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.android.apk import Apk
from repro.core.config import DyDroidConfig
from repro.core.pipeline import DyDroid
from repro.corpus.generator import CorpusGenerator
from repro.ecosystems import (
    ALL_HAZARD_CLASSES,
    ECOSYSTEMS,
    HAZARD_DROPPER_CHAIN,
    HAZARD_NAMESPACE_COLLISION,
    HAZARD_PLUGIN_HIJACK,
    HAZARD_SHELF_RELOAD,
    container_package,
    ecosystems_profile,
    payload_class_names,
)
from repro.observe.metrics import MetricsRegistry
from repro.runtime.classloader import _split_load_order

SEED = 42
N_APPS = 40

ROLE_FLAGS = {
    "plugin-host": "is_plugin_host",
    "split-apk": "is_split_apk",
    "staged-downloader": "is_staged_downloader",
    "self-debloating": "is_self_debloating",
}


def _config(**overrides) -> DyDroidConfig:
    base = dict(train_samples_per_family=2, run_replays=False)
    base.update(overrides)
    return DyDroidConfig(**base)


@pytest.fixture(scope="module")
def generator():
    return CorpusGenerator(profile=ecosystems_profile(), seed=SEED)


@pytest.fixture(scope="module")
def blueprints(generator):
    return generator.sample_blueprints(N_APPS)


@pytest.fixture(scope="module")
def planted(blueprints):
    """key -> first planted blueprint of each ecosystem."""
    table = {}
    for key, flag in ROLE_FLAGS.items():
        matches = [bp for bp in blueprints if getattr(bp, flag)]
        assert matches, "profile planted no {} app in {} apps".format(key, N_APPS)
        table[key] = matches[0]
    return table


@pytest.fixture(scope="module")
def analyses(generator, planted):
    """key -> AppAnalysis of each ecosystem's planted app (no firewall)."""
    pipeline = DyDroid(_config())
    return {
        key: pipeline.analyze_app(generator.build_record(bp))
        for key, bp in planted.items()
    }


class TestRegistry:
    def test_every_ecosystem_is_registered(self):
        assert set(ECOSYSTEMS) == set(ROLE_FLAGS)
        for spec in ECOSYSTEMS.values():
            assert spec.paper_count > 0
            assert spec.hazard_classes
            assert all(h in ALL_HAZARD_CLASSES for h in spec.hazard_classes)

    def test_profile_enables_all_four_roles(self):
        profile = ecosystems_profile(staged_depth=4)
        assert profile.n_plugin_host_apps > 0
        assert profile.n_split_apk_apps > 0
        assert profile.n_staged_downloader_apps > 0
        assert profile.n_self_debloating_apps > 0
        assert profile.staged_downloader_depth == 4


class TestGenerationDeterminism:
    def test_each_ecosystem_builds_byte_identical_twice(self, generator, planted):
        for key, blueprint in planted.items():
            first = generator.build_record(blueprint).apk.to_bytes()
            second = generator.build_record(blueprint).apk.to_bytes()
            assert first == second, key

    def test_knobs_off_leaves_paper_corpus_untouched(self):
        """Unplanted apps are byte-identical with the pack on or off."""
        plain = CorpusGenerator(seed=SEED)
        packed = CorpusGenerator(profile=ecosystems_profile(), seed=SEED)
        plain_bps = {bp.index: bp for bp in plain.sample_blueprints(N_APPS)}
        for bp in packed.sample_blueprints(N_APPS):
            if any(getattr(bp, flag) for flag in ROLE_FLAGS.values()):
                continue
            baseline = plain_bps[bp.index]
            assert bp.package == baseline.package
            assert (
                packed.build_record(bp).apk.to_bytes()
                == plain.build_record(baseline).apk.to_bytes()
            )


class TestHazardDetection:
    def test_plugin_host_hijacks_a_component(self, analyses):
        hazards = {h for p in analyses["plugin-host"].payloads for h in p.hazards}
        assert HAZARD_PLUGIN_HIJACK in hazards
        assert HAZARD_NAMESPACE_COLLISION in hazards

    def test_plugin_pack_is_a_foreign_sub_app(self, generator, planted, analyses):
        record = generator.build_record(planted["plugin-host"])
        assert any(
            HAZARD_PLUGIN_HIJACK in p.hazards
            for p in analyses["plugin-host"].payloads
        )
        # the pack defines the host's launcher activity under its own
        # (different) package identity -- re-derive from the asset bytes.
        asset = dict(record.apk.asset_entries())["assets/plugin_pack.apk"]
        assert container_package(asset) is not None
        assert container_package(asset) != record.package
        assert payload_class_names(asset) & record.apk.manifest.component_names()

    def test_deeply_nested_plugin_manifest_still_analyzes(self, generator, planted):
        record = generator.build_record(planted["plugin-host"])
        pack = Apk.from_bytes(dict(record.apk.asset_entries())["assets/plugin_pack.apk"])
        pack.entries["AndroidManifest.xml"] = b"[" * 100_000
        apk = Apk(entries=dict(record.apk.entries))
        apk.entries["assets/plugin_pack.apk"] = pack.to_bytes()
        analysis = DyDroid(_config()).analyze_app(dataclasses.replace(record, apk=apk))
        # the pack still loads, but without a package identity it hijacks
        # nothing; the nesting no longer escapes as a RecursionError.
        plugin = [p for p in analysis.payloads if p.path.endswith("plugin_pack.apk")]
        assert plugin
        assert all(HAZARD_PLUGIN_HIJACK not in p.hazards for p in plugin)

    def test_split_apk_collides_namespace_not_components(self, analyses):
        split_payloads = [
            p
            for p in analyses["split-apk"].payloads
            if p.path.rsplit("/", 1)[-1].startswith("split_")
        ]
        assert split_payloads
        for payload in split_payloads:
            assert HAZARD_NAMESPACE_COLLISION in payload.hazards
            assert HAZARD_PLUGIN_HIJACK not in payload.hazards

    def test_self_debloating_reloads_from_shelf(self, analyses):
        shelf = [
            p
            for p in analyses["self-debloating"].payloads
            if HAZARD_SHELF_RELOAD in p.hazards
        ]
        assert len(shelf) >= 2
        for payload in shelf:
            assert "/shelf/" in payload.path
            assert payload.provenance.value == "local"

    def test_table11_reports_every_hazard_class(self, generator, blueprints):
        pipeline = DyDroid(_config())
        corpus = [
            generator.build_record(bp)
            for bp in blueprints
            if any(getattr(bp, flag) for flag in ROLE_FLAGS.values())
        ]
        report = pipeline.measure(corpus)
        table = report.ecosystems_table()
        assert set(table["classes"]) == set(ALL_HAZARD_CLASSES)
        for row in table["classes"].values():
            assert row["n_apps"] >= 1
            assert row["n_payloads"] >= 1
        rendered = report.render_ecosystems_table()
        for hazard in ALL_HAZARD_CLASSES:
            assert hazard in rendered
        assert "TABLE 11" in report.render_all()

    def test_hazards_survive_serialization(self, analyses):
        from repro.core.report import AppAnalysis

        for analysis in analyses.values():
            restored = AppAnalysis.from_dict(analysis.to_dict())
            assert [p.hazards for p in restored.payloads] == [
                p.hazards for p in analysis.payloads
            ]


class TestStagedProvenance:
    """Satellite (c): depth-3 remote ancestry and torn-chain consistency."""

    def _staged_payloads(self, analysis):
        stages = [
            p for p in analysis.payloads if "/files/stage" in p.path
        ]
        return sorted(stages, key=lambda p: p.path)

    def test_depth3_chain_carries_full_remote_ancestry(self, analyses):
        stages = self._staged_payloads(analyses["staged-downloader"])
        assert len(stages) == 3
        seen_origins = []
        for hop, payload in enumerate(stages, start=1):
            assert payload.provenance.value == "remote"
            origins = set(payload.remote_sources)
            assert len(origins) == hop
            # every upstream hop's origin is in this hop's ancestry
            for earlier in seen_origins:
                assert earlier <= origins
            seen_origins.append(origins)
        assert HAZARD_DROPPER_CHAIN in stages[-1].hazards

    def test_torn_mid_chain_leaves_consistent_provenance(self, generator, planted):
        record = generator.build_record(planted["staged-downloader"])
        torn = {
            url: data
            for url, data in record.remote_resources.items()
            if "stage2" not in url
        }
        assert len(torn) == len(record.remote_resources) - 1
        record.remote_resources = torn
        analysis = DyDroid(_config()).analyze_app(record)
        stages = self._staged_payloads(analysis)
        # stage 1 landed; the dead hop (and everything past it) did not.
        assert [p.path.rsplit("/", 1)[-1] for p in stages] == ["stage1.jar"]
        assert stages[0].provenance.value == "remote"
        assert len(stages[0].remote_sources) == 1
        assert HAZARD_DROPPER_CHAIN not in stages[0].hazards
        # the app survived the torn download (IOException caught in-app)
        assert analysis.outcome is not None


class TestSplitLoadOrder:
    def test_base_first_then_splits_sorted(self):
        paths = [
            "/app/split_zeta.apk",
            "/app/base.apk",
            "/app/config.xhdpi.apk",
            "/app/split_alpha.apk",
        ]
        assert _split_load_order(paths) == [
            "/app/base.apk",
            "/app/config.xhdpi.apk",
            "/app/split_alpha.apk",
            "/app/split_zeta.apk",
        ]

    def test_split_free_paths_come_back_unchanged(self):
        paths = ["/app/b.jar", "/app/a.jar"]
        assert _split_load_order(paths) == paths
        assert _split_load_order(["/app/split_a.apk"]) == ["/app/split_a.apk"]

    def test_runtime_reorders_the_apps_unordered_dex_path(self, analyses):
        dynamic = analyses["split-apk"].dynamic
        split_events = [
            e
            for e in dynamic.dcl.dex_events
            if any("splits/" in p for p in e.dex_paths)
        ]
        assert split_events
        paths = list(split_events[0].dex_paths)
        basenames = [p.rsplit("/", 1)[-1] for p in paths]
        # the app passes feature:config; the loader defines config.* first
        assert basenames == sorted(basenames)
        assert basenames[0].startswith("config.")


class TestFirewallReach:
    def test_default_policy_denies_plugin_hijack(self, generator, planted):
        record = generator.build_record(planted["plugin-host"])
        analysis = DyDroid(_config(firewall_policy="default")).analyze_app(record)
        blocked = {
            (d.verdict, d.rule)
            for d in analysis.dynamic.firewall_decisions
            if d.verdict != "allow"
        }
        assert ("deny", "plugin-component-hijack") in blocked

    def test_enforcement_stops_chain_at_the_root(self, generator, planted):
        record = generator.build_record(planted["staged-downloader"])
        analysis = DyDroid(_config(firewall_policy="default")).analyze_app(record)
        blocked = [
            d for d in analysis.dynamic.firewall_decisions if d.verdict != "allow"
        ]
        assert blocked and blocked[0].path.endswith("stage1.jar")
        # stage 1 was denied before it could run, so no later hop loaded
        assert not any(
            "stage2" in d.path or "stage3" in d.path
            for d in analysis.dynamic.firewall_decisions
        )

    def test_observe_mode_quarantines_the_dropper_chain(self, generator, planted):
        record = generator.build_record(planted["staged-downloader"])
        analysis = DyDroid(_config(firewall_policy="observe")).analyze_app(record)
        by_rule = {}
        for d in analysis.dynamic.firewall_decisions:
            if d.verdict != "allow":
                by_rule.setdefault(d.rule, []).append(d)
        chain = by_rule.get("dropper-chain", [])
        assert len(chain) == 2  # stages 2 and 3; stage 1 is plain remote-code
        assert all(d.verdict == "quarantine" for d in chain)

    def test_splits_and_shelves_load_clean_under_default_policy(
        self, generator, planted
    ):
        for key in ("split-apk", "self-debloating"):
            record = generator.build_record(planted[key])
            analysis = DyDroid(_config(firewall_policy="default")).analyze_app(
                record
            )
            assert all(
                d.verdict == "allow"
                for d in analysis.dynamic.firewall_decisions
            ), key

    def test_defend_eval_scores_the_new_hazard_classes(self, tmp_path):
        from repro.defense.evaluation import evaluate_defense

        evaluation = evaluate_defense(
            N_APPS,
            seed=SEED,
            policy="default",
            verdict_store=str(tmp_path / "verdicts.jsonl"),
            config=_config(),
            profile=ecosystems_profile(),
        )
        by_kind = evaluation.hazards_by_kind()
        assert by_kind["plugin-hijack"]["blocked"] >= 1
        assert by_kind["dropper-chain"]["blocked"] >= 1


class TestLineageChurn:
    def test_each_ecosystem_mutates_across_versions(self):
        from repro.evolution.lineage import plan_lineages

        lineages = plan_lineages(
            N_APPS, n_versions=8, seed=SEED, profile=ecosystems_profile()
        )
        by_index = {l.index: l for l in lineages}
        generator = CorpusGenerator(profile=ecosystems_profile(), seed=SEED)
        for key, flag in ROLE_FLAGS.items():
            expected = ECOSYSTEMS[key].lineage_mutation
            planted = [
                bp
                for bp in generator.sample_blueprints(N_APPS)
                if getattr(bp, flag)
            ]
            fleet_mutations = {
                m
                for bp in planted
                for v in by_index[bp.index].versions
                for m in v.mutations
            }
            assert expected in fleet_mutations, key

    def test_generation_bump_churns_payload_bytes(self, generator, planted):
        import copy

        for key, blueprint in planted.items():
            bumped = copy.deepcopy(blueprint)
            for field in (
                "plugin_generation",
                "split_generation",
                "stage_generation",
                "shelf_generation",
            ):
                setattr(bumped, field, getattr(bumped, field) + 1)
            assert (
                generator.build_record(blueprint).apk.to_bytes()
                != generator.build_record(bumped).apk.to_bytes()
            ), key

    def test_paper_profile_lineages_are_undisturbed(self):
        from repro.evolution.lineage import plan_lineages

        plain = plan_lineages(N_APPS, n_versions=5, seed=SEED)
        packed = plan_lineages(
            N_APPS, n_versions=5, seed=SEED, profile=ecosystems_profile()
        )
        planted_indices = {
            bp.index
            for bp in CorpusGenerator(
                profile=ecosystems_profile(), seed=SEED
            ).sample_blueprints(N_APPS)
            if any(getattr(bp, flag) for flag in ROLE_FLAGS.values())
        }
        for before, after in zip(plain, packed):
            if before.index in planted_indices:
                continue
            assert [v.mutations for v in before.versions] == [
                v.mutations for v in after.versions
            ]


class TestWarmStoreRerun:
    def test_warm_rerun_of_mixed_corpus_invokes_zero_analyzers(self, tmp_path):
        generator = CorpusGenerator(profile=ecosystems_profile(), seed=SEED)
        corpus = generator.generate(N_APPS)
        store = str(tmp_path / "verdicts.jsonl")

        cold = MetricsRegistry()
        pipeline = DyDroid(_config(), metrics=cold, verdict_store=store)
        first = pipeline.measure(corpus)
        pipeline.close()
        assert cold.counter_value("analyzer.droidnative.invocations") > 0

        warm = MetricsRegistry()
        pipeline = DyDroid(_config(), metrics=warm, verdict_store=store)
        second = pipeline.measure(corpus)
        pipeline.close()
        assert warm.counter_value("analyzer.droidnative.invocations") == 0
        assert warm.counter_value("analyzer.flowdroid.invocations") == 0
        assert second.ecosystems_table() == first.ecosystems_table()
