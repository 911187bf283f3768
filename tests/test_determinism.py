"""Determinism guarantees: same seed, same everything.

The measurement is only reproducible if every layer is deterministic end
to end -- corpus synthesis, fuzzing schedules, dynamic execution, and the
aggregated tables.  These tests pin that contract.
"""


from repro.core.config import DyDroidConfig
from repro.core.pipeline import DyDroid
from repro.corpus.generator import generate_corpus
from repro.dynamic.engine import AppExecutionEngine, EngineOptions
from repro.static_analysis.malware.acfg import binary_signatures
from repro.static_analysis.malware.families import training_corpus


class TestEndToEndDeterminism:
    def test_measurement_reports_identical(self):
        corpus_a = generate_corpus(150, seed=99)
        corpus_b = generate_corpus(150, seed=99)
        config = DyDroidConfig(train_samples_per_family=2, run_replays=True)
        report_a = DyDroid(config).measure(corpus_a)
        report_b = DyDroid(config).measure(corpus_b)
        assert report_a.to_dict() == report_b.to_dict()

    def test_dynamic_run_identical(self):
        corpus = generate_corpus(200, seed=98)
        record = next(
            r for r in corpus if r.blueprint.dex_dcl_reachable and r.blueprint.uses_google_ads
        )
        options = EngineOptions(
            remote_resources=record.remote_resources,
            companions=record.companions,
            release_time_ms=record.release_time_ms,
        )
        run_a = AppExecutionEngine(options).run(record.apk)
        run_b = AppExecutionEngine(options).run(record.apk)
        assert run_a.outcome == run_b.outcome
        assert [p.path for p in run_a.intercepted] == [p.path for p in run_b.intercepted]
        assert [p.data for p in run_a.intercepted] == [p.data for p in run_b.intercepted]
        assert run_a.logcat == run_b.logcat

    def test_monkey_schedule_is_seeded_not_global(self):
        """Two engines with different seeds diverge; same seed agrees --
        and neither depends on the global random module state."""
        import random

        from repro.dynamic.monkey import Monkey

        handlers = {"a.A": ["onTap", "onSwipe", "onHold"]}
        random.seed(1)
        plan_a = Monkey(seed=5, event_budget=20).plan(["a.A"], handlers)
        random.seed(2)
        plan_b = Monkey(seed=5, event_budget=20).plan(["a.A"], handlers)
        assert plan_a == plan_b

    def test_training_corpus_deterministic(self):
        corpus_a = training_corpus(samples_per_family=2, seed=4)
        corpus_b = training_corpus(samples_per_family=2, seed=4)
        signatures_a = [binary_signatures(binary) for _, binary in corpus_a]
        signatures_b = [binary_signatures(binary) for _, binary in corpus_b]
        assert signatures_a == signatures_b

    def test_different_seeds_differ_somewhere(self):
        report_a = DyDroid(
            DyDroidConfig(train_samples_per_family=2, run_replays=False)
        ).measure(generate_corpus(120, seed=1))
        report_b = DyDroid(
            DyDroidConfig(train_samples_per_family=2, run_replays=False)
        ).measure(generate_corpus(120, seed=2))
        assert report_a.to_dict() != report_b.to_dict()
