"""Command-line interface: ``python -m repro <command>`` (or ``dydroid``).

Commands:

- ``measure``  -- generate a market, run the full pipeline, print tables;
- ``farm run`` -- the same measurement through the sharded, fault-tolerant
  analysis farm (checkpoint/resume, worker pool, metrics);
- ``serve``    -- run the analysis daemon (job queue, admission control,
  content-addressed result cache; drains cleanly on SIGTERM);
- ``submit``   -- send one job to a running daemon, optionally wait for it;
- ``status``   -- daemon stats, or one job's lifecycle record;
- ``evolve``   -- longitudinal measurement: ``run`` analyzes every version
  of a seeded lineage fleet (shared verdict store dedups unchanged
  payloads), ``diff`` prints behavior drift between adjacent snapshots,
  ``report`` prints fleet evolution timelines;
- ``defend``   -- active defense: ``eval`` scores the enforced DCL firewall
  on a seeded corpus (blocked-hazard rate vs. benign breakage), ``replay``
  re-detonates quarantined payloads in a sandbox VM, ``debloat`` shelves
  statically unreachable DCL call sites, ``policies`` lists the named
  enforcement policies;
- ``triage``   -- tier-0 behavioral prefilter: ``train`` fits the stdlib
  classifier on the train half of a seeded corpus split, ``eval`` scores
  it against the full pipeline on the held-out half, ``inspect`` prints a
  model file's provenance and heaviest weights;
- ``top``      -- live dashboard over a running daemon (``/v1/stats`` +
  ``/metrics?format=prom``) or a farm's ``status.json``; ``--once`` emits
  one machine-readable JSON snapshot;
- ``metrics``  -- ``export`` converts a ``--metrics-out`` JSON registry to
  Prometheus text exposition;
- ``corpus``   -- generate blueprints only and print ground-truth statistics;
- ``ecosystems`` -- list/describe the modern-DCL scenario pack (plugin
  hosts, split APKs, staged downloaders, self-debloating apps) that
  ``--ecosystems`` plants into generated corpora;
- ``analyze``  -- deep-dive one generated app (static + dynamic + verdicts);
- ``families`` -- list the malware family corpus DroidNative trains on;
- ``trace``    -- inspect a trace file written with ``--trace-out``.

A flag that several verbs accept is declared once, in an ``_add_*_flags``
group; every leaf verb names its handler with ``set_defaults``; and one
error exit, ``_exit_on``, turns the project's named errors into a
``"<verb>: <message>"`` line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict
from typing import List, Optional

# Everything imported here is already loaded by the pipeline import below;
# handlers import lazily only what it does not load (farm, service,
# evolution, corpus storage), which keeps the daemon's start-up cheap.
from repro.core.config import DyDroidConfig
from repro.core.pipeline import DyDroid
from repro.corpus.generator import CorpusGenerator, generate_corpus
from repro.defense.debloat import debloat_corpus
from repro.defense.evaluation import evaluate_defense
from repro.defense.firewall import POLICIES, QuarantineStore, get_policy, replay_quarantined
from repro.ecosystems import ECOSYSTEMS, ecosystems_profile
from repro.observe import (
    MetricsRegistry,
    Tracer,
    digest_line,
    load_spans,
    render_summary,
    write_trace,
)
from repro.observe.prom import PromParseError, to_prometheus
from repro.observe.top import build_daemon_snapshot, build_farm_snapshot, render_top
from repro.static_analysis.malware.families import TABLE_VII_FAMILIES, all_families
from repro.triage import TriageModel
from repro.triage.harness import (
    DEFAULT_AUX_CORPORA,
    DEFAULT_SPLIT_RATIO,
    evaluate_triage,
    train_triage_model,
)
from repro.triage.model import DEFAULT_EPOCHS, DEFAULT_L2, DEFAULT_LEARNING_RATE
from repro.triage.tier import DEFAULT_THRESHOLD

TABLE_RENDERERS = {
    "2": "render_dynamic_summary",
    "3": "render_popularity",
    "4": "render_entity_table",
    "5": "render_remote_fetch",
    "6": "render_obfuscation_table",
    "fig3": "render_fig3",
    "7": "render_malware_table",
    "8": "render_runtime_config_table",
    "9": "render_vulnerability_table",
    "10": "render_privacy_table",
    "11": "render_ecosystems_table",
}

#: The project's named user-error types, as (defining module, class name).
#: ``_exit_on`` looks them up in ``sys.modules`` instead of importing them:
#: a handler can only raise one whose module it has loaded, and
#: ``import repro.cli`` stays as cheap as the daemon's start-up needs.
#: Builtin ``ValueError``/``OSError`` are not here: a handler names them
#: only around the calls that raise them, so a bug elsewhere still shows
#: its traceback.
USER_ERRORS = (
    ("repro.corpus.generator", "CorpusTooSmallError"),
    ("repro.corpus.storage", "CorpusFormatError"),
    ("repro.evolution.warehouse", "WarehouseError"),
    ("repro.farm.checkpoint", "CheckpointError"),
    ("repro.farm.networker", "FarmJoinError"),
    ("repro.service.client", "ServiceClientError"),
    ("repro.service.persist", "ServicePersistError"),
    ("repro.service.slo", "SloError"),
    ("repro.store.verdicts", "StoreError"),
    ("repro.triage.model", "TriageError"),
)


def _user_errors() -> tuple:
    return tuple(
        getattr(sys.modules[module], name)
        for module, name in USER_ERRORS
        if module in sys.modules
    )


@contextmanager
def _exit_on(args: argparse.Namespace, *builtins):
    """The one error exit: the project's named errors, and the ``builtins``
    a caller lists, raised in the block end the run as ``"<verb>: <message>"``."""
    try:
        yield
    except builtins + _user_errors() as exc:
        raise SystemExit("{}: {}".format(args.verb, exc))


def _add_corpus_flags(parser: argparse.ArgumentParser, apps: int) -> None:
    parser.add_argument("--apps", type=int, default=apps,
                        help="corpus size (paper: 58,739)")
    parser.add_argument("--seed", type=int, default=7, help="corpus seed")


def _add_pipeline_flags(parser: argparse.ArgumentParser, replays: bool = True) -> None:
    parser.add_argument("--train", type=int, default=3,
                        help="DroidNative samples per family")
    if replays:
        parser.add_argument("--no-replays", action="store_true",
                            help="skip Table VIII replays")


def _add_triage_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--triage-model", metavar="FILE", default="",
                        help="enable the tier-0 triage gate with this "
                             "trained model (see `triage train`)")
    parser.add_argument("--triage-threshold", type=float, default=0.0,
                        help="confidence bar for tier-0 short-circuits "
                             "(default: {})".format(DEFAULT_THRESHOLD))


def _add_json_flag(parser: argparse.ArgumentParser, what: str) -> None:
    parser.add_argument("--json", action="store_true",
                        help="emit {} as JSON".format(what))


def _add_report_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--table", default="all",
                        choices=["all"] + sorted(TABLE_RENDERERS),
                        help="which table to print")
    _add_json_flag(parser, "the full serialized report")


def _add_store_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--verdict-store", metavar="FILE",
                        help="shared verdict store: payload verdicts are "
                             "reused from (and published to) this file "
                             "across runs, farms, and services")


def _add_observe_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-out", metavar="FILE",
        help="write the stage-level span trace here",
    )
    parser.add_argument(
        "--trace-format", default="jsonl", choices=["jsonl", "chrome"],
        help="trace format: jsonl (grep-able) or chrome "
             "(chrome://tracing / Perfetto loadable)",
    )
    parser.add_argument(
        "--metrics-out", metavar="FILE",
        help="write the JSON metrics registry (stage histograms, cache counters) here",
    )


def _add_endpoint_flags(parser: argparse.ArgumentParser, port: int) -> None:
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=port,
                        help="TCP port (0 picks an ephemeral port when listening)")


def _add_farm_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--shards", type=int, default=None,
                        help="shard count (default: 4x --workers; 8 without it)")
    parser.add_argument("--shard-strategy", default="contiguous",
                        choices=["contiguous", "round-robin"])
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-app analysis deadline in seconds")
    parser.add_argument("--max-retries", type=int, default=2,
                        help="per-app retries before quarantine")
    parser.add_argument("--checkpoint", metavar="FILE",
                        help="append-only JSONL journal of settled apps")
    parser.add_argument("--resume", action="store_true",
                        help="skip apps already settled in --checkpoint")


def _add_split_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ratio", type=float, default=DEFAULT_SPLIT_RATIO,
                        help="train fraction of the seeded split")
    parser.add_argument("--split-seed", type=int, default=0,
                        help="split shuffle seed (`triage train` and "
                             "`triage eval` must agree)")


def _add_ecosystem_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--ecosystems", action="store_true",
        help="plant the modern-DCL scenario pack (plugin hosts, split APKs, "
             "staged downloaders, self-debloating apps) at its calibrated "
             "rates; see `ecosystems list`",
    )
    parser.add_argument(
        "--staged-depth", type=int, default=3, metavar="N",
        help="hops in each staged-downloader delivery chain (default: 3)",
    )


def _leaf(sub, name: str, handler, **kwargs) -> argparse.ArgumentParser:
    """Add the leaf verb ``name``; ``main`` dispatches it to ``handler``."""
    parser = sub.add_parser(name, **kwargs)
    parser.set_defaults(handler=handler, verb=parser.prog.split(" ", 1)[1])
    return parser


def _verb_group(sub, name: str, help: str):
    """Add the verb ``name``, which takes a leaf verb (``args.<name>_command``)."""
    return sub.add_parser(name, help=help).add_subparsers(
        dest=name + "_command", required=True
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dydroid",
        description="DyDroid reproduction: measure dynamic code loading in a simulated app market.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    measure = _leaf(sub, "measure", cmd_measure,
                    help="run the full pipeline and print tables")
    _add_corpus_flags(measure, apps=600)
    _add_report_flags(measure)
    _add_pipeline_flags(measure)
    measure.add_argument(
        "--corpus-dir",
        help="measure a corpus previously saved with `corpus --export` instead of generating one",
    )
    _add_observe_flags(measure)
    _add_store_flag(measure)
    _add_triage_flags(measure)
    _add_ecosystem_flags(measure)

    farm_sub = _verb_group(sub, "farm", help="sharded, fault-tolerant analysis farm")
    farm_run = _leaf(farm_sub, "run", cmd_farm_run,
                     help="measure a seeded corpus across a worker pool")
    _add_corpus_flags(farm_run, apps=600)
    farm_run.add_argument("--workers", type=int, default=2,
                          help="worker processes; 1 runs in-process")
    _add_farm_flags(farm_run)
    _add_store_flag(farm_run)
    _add_triage_flags(farm_run)
    _add_pipeline_flags(farm_run)
    _add_report_flags(farm_run)
    farm_run.add_argument("--telemetry-dir", metavar="DIR",
                          help="live telemetry directory: per-shard flight "
                               "recordings, heartbeats, and status.json "
                               "(default: the --checkpoint directory)")
    _add_observe_flags(farm_run)

    farm_serve = _leaf(
        farm_sub, "serve", cmd_farm_serve,
        help="coordinate the same run over HTTP: `farm join` nodes lease "
             "shards, renew from heartbeats, and ship results back",
    )
    _add_endpoint_flags(farm_serve, port=8788)
    farm_serve.add_argument("--lease", type=float, default=15.0,
                            help="shard lease seconds; a worker that stops "
                                 "renewing for this long loses its shard")
    _add_corpus_flags(farm_serve, apps=600)
    _add_farm_flags(farm_serve)
    _add_store_flag(farm_serve)
    _add_triage_flags(farm_serve)
    _add_pipeline_flags(farm_serve)
    _add_report_flags(farm_serve)
    _add_observe_flags(farm_serve)

    farm_join = _leaf(
        farm_sub, "join", cmd_farm_join,
        help="lease and analyze shards from a `farm serve` coordinator "
             "until its run drains",
    )
    _add_endpoint_flags(farm_join, port=8788)
    farm_join.add_argument("--workers", type=int, default=1,
                           help="local worker processes (= concurrent leases); "
                                "1 runs in-process")
    farm_join.add_argument("--name", default=None,
                           help="worker id shown in the coordinator's status "
                                "(default: hostname:pid)")
    farm_join.add_argument("--telemetry-dir", metavar="DIR",
                           help="node-local flight recordings and heartbeats; "
                                "renewals report per-app progress from here")
    farm_join.add_argument("--poll", type=float, default=0.5,
                           help="seconds between lease attempts while the "
                                "queue is empty")
    _add_json_flag(farm_join, "the join summary")

    evolve_sub = _verb_group(sub, "evolve", help="longitudinal (multi-version) measurement")
    evolve_run = _leaf(evolve_sub, "run", cmd_evolve_run,
                       help="analyze every version of a seeded lineage fleet")
    _add_corpus_flags(evolve_run, apps=120)
    evolve_run.add_argument("--versions", type=int, default=3,
                            help="versions per lineage")
    evolve_run.add_argument("--workers", type=int, default=2,
                            help="worker processes; 1 runs in-process")
    evolve_run.add_argument("--shards", type=int, default=None,
                            help="shards per version (default: 4x workers)")
    evolve_run.add_argument("--hazard", type=float, default=0.05,
                            help="per-version probability a benign app turns malicious")
    evolve_run.add_argument("--warehouse", metavar="FILE",
                            help="append-only snapshot warehouse; evolve "
                                 "diff/report read from it")
    _add_store_flag(evolve_run)
    _add_pipeline_flags(evolve_run)
    _add_json_flag(evolve_run, "diffs + timeline")
    _add_observe_flags(evolve_run)
    evolve_diff = _leaf(
        evolve_sub, "diff", cmd_evolve_diff,
        help="print behavior drift between adjacent warehouse snapshots",
    )
    evolve_diff.add_argument("--warehouse", metavar="FILE", required=True)
    evolve_diff.add_argument("--package", default=None,
                             help="restrict to one package")
    _add_json_flag(evolve_diff, "structured diffs")
    evolve_report = _leaf(
        evolve_sub, "report", cmd_evolve_report,
        help="print fleet evolution timelines from a warehouse",
    )
    evolve_report.add_argument("--warehouse", metavar="FILE", required=True)
    _add_json_flag(evolve_report, "the timeline")

    defend_sub = _verb_group(sub, "defend", help="active defense: firewall, quarantine, debloat")
    defend_eval = _leaf(
        defend_sub, "eval", cmd_defend_eval,
        help="score enforcement on a seeded corpus (baseline vs. defended)",
    )
    _add_corpus_flags(defend_eval, apps=120)
    defend_eval.add_argument("--policy", default="default",
                             help="enforcement policy (see `defend policies`)")
    _add_store_flag(defend_eval)
    defend_eval.add_argument("--quarantine-dir", metavar="DIR",
                             help="preserve quarantined payload bytes here")
    defend_eval.add_argument("--workers", type=int, default=1,
                             help="worker processes; >1 runs both phases on the farm")
    _add_pipeline_flags(defend_eval, replays=False)
    _add_json_flag(defend_eval, "the full scorecard")
    _add_ecosystem_flags(defend_eval)
    defend_replay = _leaf(
        defend_sub, "replay", cmd_defend_replay,
        help="re-detonate quarantined payloads in a sandbox VM",
    )
    defend_replay.add_argument("--quarantine-dir", metavar="DIR", required=True)
    defend_replay.add_argument("--digest", default=None,
                               help="replay only this payload (default: all)")
    _add_json_flag(defend_replay, "the replay results")
    defend_debloat = _leaf(
        defend_sub, "debloat", cmd_defend_debloat,
        help="shelve statically unreachable DCL call sites",
    )
    _add_corpus_flags(defend_debloat, apps=120)
    defend_debloat.add_argument("--index", type=int, default=None,
                                help="debloat only this corpus index")
    _add_json_flag(defend_debloat, "the debloat manifests")
    _leaf(defend_sub, "policies", cmd_defend_policies,
          help="list the named enforcement policies")

    triage_sub = _verb_group(
        sub, "triage", help="tier-0 behavioral prefilter: train, evaluate, inspect"
    )
    triage_train = _leaf(
        triage_sub, "train", cmd_triage_train,
        help="train a model on the train half of a seeded corpus split",
    )
    _add_corpus_flags(triage_train, apps=120)
    triage_train.add_argument("--out", metavar="FILE", required=True,
                              help="write the versioned JSON model here")
    _add_split_flags(triage_train)
    triage_train.add_argument("--aux-corpora", type=int, default=DEFAULT_AUX_CORPORA,
                              help="extra whole training corpora from derived "
                                   "seeds (rare hazard roles are planted ~once "
                                   "per corpus)")
    triage_train.add_argument("--epochs", type=int, default=DEFAULT_EPOCHS)
    triage_train.add_argument("--learning-rate", type=float,
                              default=DEFAULT_LEARNING_RATE)
    triage_train.add_argument("--l2", type=float, default=DEFAULT_L2)
    triage_train.add_argument("--train-seed", type=int, default=0,
                              help="SGD shuffle seed")
    triage_train.add_argument("--harvest", metavar="FILE", default="",
                              help="fold in hard examples a gated run harvested "
                                   "to <model>.harvest.jsonl")
    _add_json_flag(triage_train, "the training summary")
    triage_eval = _leaf(
        triage_sub, "eval", cmd_triage_eval,
        help="score a model on the held-out half (full pipeline = truth)",
    )
    triage_eval.add_argument("--model", metavar="FILE", required=True)
    _add_corpus_flags(triage_eval, apps=120)
    triage_eval.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                             help="confidence bar for would-be short-circuits")
    _add_split_flags(triage_eval)
    _add_pipeline_flags(triage_eval, replays=False)
    _add_json_flag(triage_eval, "the scorecard")
    triage_inspect = _leaf(
        triage_sub, "inspect", cmd_triage_inspect,
        help="print a model file's provenance and heaviest weights",
    )
    triage_inspect.add_argument("--model", metavar="FILE", required=True)
    _add_json_flag(triage_inspect, "the full model document")

    serve = _leaf(sub, "serve", cmd_serve, help="run the analysis-as-a-service daemon")
    _add_endpoint_flags(serve, port=8787)
    serve.add_argument("--workers", type=int, default=2,
                       help="background scheduler threads")
    serve.add_argument("--queue-depth", type=int, default=64,
                       help="max queued jobs before 429 + Retry-After")
    serve.add_argument("--rate", type=float, default=0.0,
                       help="per-client submissions/s (0 disables rate limiting)")
    serve.add_argument("--burst", type=int, default=10,
                       help="per-client token-bucket burst")
    serve.add_argument("--persist", metavar="FILE",
                       help="JSONL result journal; reloaded on restart")
    _add_store_flag(serve)
    serve.add_argument("--cache-capacity", type=int, default=65536,
                       help="distinct APK digests held in the result cache")
    _add_pipeline_flags(serve)
    serve.add_argument("--policy", default="",
                       help="default firewall policy for jobs that do not "
                            "name one (see `defend policies`)")
    serve.add_argument("--quarantine-dir", metavar="DIR", default="",
                       help="preserve payloads the firewall quarantines here")
    _add_triage_flags(serve)
    serve.add_argument("--slo", metavar="SPEC", default="",
                       help="per-tenant SLO objectives, e.g. "
                            "'p95=30s,error_rate=1%%' (reported in "
                            "/v1/stats and as slo.* gauges)")
    serve.add_argument("--slo-window", type=int, default=256,
                       help="jobs per client considered by the rolling "
                            "error budgets")
    serve.add_argument("--event-log", metavar="FILE",
                       help="append structured JSONL events (job lifecycle, "
                            "firewall enforcement, store publishes) here")
    _add_observe_flags(serve)

    submit = _leaf(sub, "submit", cmd_submit, help="submit one job to a running daemon")
    _add_endpoint_flags(submit, port=8787)
    _add_corpus_flags(submit, apps=600)
    submit.add_argument("--index", type=int, required=True,
                        help="app index in the (seed, apps) corpus")
    submit.add_argument("--priority", type=int, default=0,
                        help="higher dequeues earlier")
    submit.add_argument("--client", default=None,
                        help="client id for rate limiting (default: peer address)")
    submit.add_argument("--wait", action="store_true",
                        help="poll until the job settles and print the final job")
    submit.add_argument("--result", action="store_true",
                        help="with --wait: also print the full analysis JSON")
    submit.add_argument("--timeout", type=float, default=120.0,
                        help="--wait deadline in seconds")
    submit.add_argument("--policy", default="",
                        help="analyze under this firewall policy "
                             "(per-tenant submit-time setting)")
    submit.add_argument("--triage", default="", choices=["on", "off"],
                        help="per-tenant tier-0 override: 'on' requires the "
                             "daemon's gate, 'off' forces full analyzers")
    submit.add_argument("--triage-threshold", type=float, default=0.0,
                        help="per-tenant confidence bar (requires --triage on)")

    status = _leaf(sub, "status", cmd_status, help="daemon stats, or one job's record")
    _add_endpoint_flags(status, port=8787)
    status.add_argument("--job", metavar="ID", help="show this job instead of stats")

    top = _leaf(sub, "top", cmd_top, help="live dashboard over a daemon or farm run")
    _add_endpoint_flags(top, port=8787)
    top.add_argument("--status", metavar="FILE", default=None,
                     help="watch a farm's status.json instead of a daemon")
    top.add_argument("--once", action="store_true",
                     help="print one JSON snapshot and exit (for scripts/CI)")
    top.add_argument("--interval", type=float, default=2.0,
                     help="refresh interval in seconds")
    top.add_argument("--iterations", type=int, default=0,
                     help="stop after N refreshes (0: until interrupted)")

    metrics_sub = _verb_group(sub, "metrics", help="metrics tooling")
    metrics_export = _leaf(
        metrics_sub, "export", cmd_metrics,
        help="convert a --metrics-out JSON registry to Prometheus text",
    )
    metrics_export.add_argument("metrics_file",
                                help="JSON written by --metrics-out (plain "
                                     "registry or farm summary)")
    metrics_export.add_argument("--out", metavar="FILE", default=None,
                                help="write here instead of stdout")

    store_sub = _verb_group(sub, "store", help="verdict-store / warehouse tooling")
    store_compact = _leaf(
        store_sub, "compact", cmd_store,
        help="garbage-collect a verdict store or snapshot warehouse in "
             "place (drop duplicates, corrupt debris, stale index lines) "
             "and rebuild its sqlite sidecar index",
    )
    store_compact.add_argument("store_file",
                               help="verdict store or warehouse JSONL "
                                    "(auto-detected from the header)")
    _add_json_flag(store_compact, "the compaction stats")

    corpus = _leaf(sub, "corpus", cmd_corpus, help="print ground-truth corpus statistics")
    _add_corpus_flags(corpus, apps=1000)
    corpus.add_argument("--export", metavar="DIR", help="also save the built corpus to DIR")
    _add_ecosystem_flags(corpus)

    ecosystems_sub = _verb_group(
        sub, "ecosystems",
        help="the modern-DCL scenario pack: list or describe its ecosystems",
    )
    _leaf(ecosystems_sub, "list", cmd_ecosystems_list, help="one line per ecosystem")
    ecosystems_describe = _leaf(
        ecosystems_sub, "describe", cmd_ecosystems_describe,
        help="full detail for one ecosystem",
    )
    ecosystems_describe.add_argument(
        "key", help="ecosystem key (see `ecosystems list`)"
    )

    analyze = _leaf(sub, "analyze", cmd_analyze, help="deep-dive one generated app")
    _add_corpus_flags(analyze, apps=600)
    group = analyze.add_mutually_exclusive_group(required=True)
    group.add_argument("--index", type=int, help="app index in the corpus")
    group.add_argument(
        "--role",
        choices=["baidu", "malware", "packed", "vuln", "ads"],
        help="pick the first app with this planted role",
    )

    _leaf(sub, "families", cmd_families, help="list the trained malware families")

    trace_sub = _verb_group(sub, "trace", help="inspect a trace written with --trace-out")
    trace_summary = _leaf(
        trace_sub, "summary", cmd_trace,
        help="per-stage count/total/p50/p95/max table",
    )
    trace_summary.add_argument("trace_file", help="jsonl or chrome trace file")
    return parser


def _corpus_profile(args: argparse.Namespace):
    """The corpus profile a command's knobs select (None = paper profile)."""
    if not getattr(args, "ecosystems", False):
        return None
    return ecosystems_profile(staged_depth=getattr(args, "staged_depth", 3))


def _pipeline_config(args: argparse.Namespace, **extra) -> DyDroidConfig:
    """The pipeline config a verb's pipeline and triage groups select.

    Fields of a group the verb does not declare keep their config
    defaults; ``extra`` sets the fields no shared flag covers.
    """
    fields = {}
    if hasattr(args, "train"):
        fields["train_samples_per_family"] = args.train
    if hasattr(args, "no_replays"):
        fields["run_replays"] = not args.no_replays
    if hasattr(args, "triage_model"):
        fields["triage_model"] = args.triage_model
        fields["triage_threshold"] = args.triage_threshold
    return DyDroidConfig(**fields, **extra)


def _farm_config(args: argparse.Namespace, **extra):
    """The ``FarmConfig`` of ``farm run`` / ``farm serve``; ``extra`` holds
    the knobs only one of them has."""
    from repro.farm import FarmConfig

    return FarmConfig(
        n_apps=args.apps,
        corpus_seed=args.seed,
        n_shards=args.shards,
        shard_strategy=args.shard_strategy,
        timeout_s=args.timeout,
        max_retries=args.max_retries,
        checkpoint=args.checkpoint,
        resume=args.resume,
        pipeline=_pipeline_config(args),
        trace=bool(args.trace_out),
        verdict_store=args.verdict_store,
        **extra,
    )


def _fail_fast(args: argparse.Namespace) -> None:
    """Check up front what farm workers and daemon threads would each trip
    over on their own -- a broken ``--triage-model``, or a farm corpus too
    small to plant every rare role -- so it ends the run instead of
    surfacing as one quarantine or failed job per app."""
    if args.triage_model:
        TriageModel.load(args.triage_model)
    if hasattr(args, "apps"):
        CorpusGenerator(seed=args.seed).sample_blueprints(args.apps)


def _print_report(report, args: argparse.Namespace) -> None:
    if args.json:
        print(report.to_json(include_apps=True))
    elif args.table == "all":
        print(report.render_all())
    else:
        print(getattr(report, TABLE_RENDERERS[args.table])())


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=1, sort_keys=True))


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


def _write_observations(args: argparse.Namespace, spans, metrics) -> None:
    """Write what the observe group's ``--metrics-out``/``--trace-out`` ask for."""
    if args.metrics_out:
        _write_json(args.metrics_out, metrics)
    if args.trace_out:
        write_trace(spans, args.trace_out, fmt=args.trace_format)


def _service_client(args: argparse.Namespace):
    from repro.service import ServiceClient

    return ServiceClient(args.host, args.port)


def _corpus_blueprints(args: argparse.Namespace):
    """The seeded corpus's generator and blueprints, narrowed to ``--index``
    when one is given."""
    generator = CorpusGenerator(seed=args.seed)
    blueprints = generator.sample_blueprints(args.apps)
    if args.index is not None:
        if not 0 <= args.index < len(blueprints):
            raise SystemExit("index out of range (corpus has {} apps)".format(len(blueprints)))
        blueprints = [blueprints[args.index]]
    return generator, blueprints


def cmd_measure(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    if args.corpus_dir:
        from repro.corpus.storage import load_corpus

        corpus = load_corpus(args.corpus_dir)
    else:
        corpus = generate_corpus(
            args.apps, seed=args.seed, profile=_corpus_profile(args)
        )
    # Observability is on by default: the trace powers the one-line
    # digest below even when no --trace-out was requested.
    tracer, registry = Tracer(), MetricsRegistry()
    pipeline = DyDroid(
        _pipeline_config(args), tracer=tracer, metrics=registry,
        verdict_store=args.verdict_store,
    )
    try:
        report = pipeline.measure(corpus)
    finally:
        pipeline.close()
    _print_report(report, args)
    spans = tracer.to_dicts()
    _write_observations(args, spans, registry.to_dict())
    print()
    print(
        "[{} apps measured in {:.1f}s]".format(
            report.n_total, time.perf_counter() - started
        ),
        file=sys.stderr,
    )
    print(digest_line(spans, registry), file=sys.stderr)
    return 0


def _print_farm_result(result, args: argparse.Namespace, label: str) -> None:
    """The shared tail of ``farm run`` and ``farm serve``: tables, quarantine
    lines, metrics/trace files, one summary line."""
    _print_report(result.report, args)
    for record in result.quarantined:
        print(
            "[quarantined: {} (index {}) after {} attempt(s): {}]".format(
                record.package, record.index, record.attempts, record.error
            ),
            file=sys.stderr,
        )
    _write_observations(args, result.spans, result.metrics)
    print()
    print(
        "[{}: {} apps ({} resumed) in {:.1f}s ({:.1f} apps/s), "
        "{} retries, {} quarantined]".format(
            label,
            result.report.n_total,
            result.resumed_apps,
            result.metrics["wall_s"],
            result.metrics["apps_per_second"],
            result.metrics["retries"],
            result.metrics["apps_quarantined"],
        ),
        file=sys.stderr,
    )


def cmd_farm_run(args: argparse.Namespace) -> int:
    from repro.farm import run_farm

    config = _farm_config(args, workers=args.workers, telemetry_dir=args.telemetry_dir)
    _fail_fast(args)
    with _exit_on(args, ValueError):
        result = run_farm(config)
    _print_farm_result(result, args, "farm")
    return 0


def cmd_farm_serve(args: argparse.Namespace) -> int:
    from repro.farm import FarmCoordinator

    config = _farm_config(args)
    _fail_fast(args)
    with _exit_on(args, ValueError, OSError):
        coordinator = FarmCoordinator(
            config, host=args.host, port=args.port, lease_s=args.lease
        ).start()
    snapshot = coordinator.ledger.snapshot()
    print(
        "[farm coordinator on {}:{}: {} apps, {} shards pending "
        "({} resumed apps), lease {:.1f}s]".format(
            coordinator.host,
            coordinator.port,
            args.apps,
            snapshot["pending"],
            coordinator._resumed_apps,
            args.lease,
        ),
        file=sys.stderr,
        flush=True,
    )
    try:
        result = coordinator.wait()
    finally:
        coordinator.stop()
    _print_farm_result(result, args, "farm serve")
    leases = result.metrics.get("leases", {})
    print(
        "[leases: {} granted, {} renewed, {} expired, {} stolen, "
        "{} stale; workers: {}]".format(
            leases.get("granted", 0),
            leases.get("renewed", 0),
            leases.get("expired", 0),
            leases.get("stolen", 0),
            leases.get("stale", 0),
            result.metrics.get("workers", 0),
        ),
        file=sys.stderr,
    )
    return 0


def cmd_farm_join(args: argparse.Namespace) -> int:
    from repro.farm import join_farm

    summary = join_farm(
        args.host,
        args.port,
        workers=args.workers,
        worker_id=args.name,
        telemetry_dir=args.telemetry_dir,
        poll_s=args.poll,
    )
    if args.json:
        _print_json(asdict(summary))
    else:
        print(
            "[{}: {} shards completed ({} stale, {} failed), {} apps "
            "analyzed, {} quarantined, {} leases lost, {:.1f}s]".format(
                summary.worker,
                summary.shards_completed,
                summary.shards_stale,
                summary.shards_failed,
                summary.apps_analyzed,
                summary.apps_quarantined,
                summary.lost_leases,
                summary.wall_s,
            )
        )
        for error in summary.errors:
            print("[shard failed: {}]".format(error), file=sys.stderr)
    return 0


def cmd_store(args: argparse.Namespace) -> int:
    with _exit_on(args, OSError):
        with open(args.store_file, "rb") as handle:
            first = handle.readline()
    try:
        header = json.loads(first.decode("utf-8", "replace") or "{}")
    except ValueError:
        header = {}
    # Both files start with a {"kind": "header", ...} line; the warehouse's
    # carries "serialization", the verdict store's a config "fingerprint".
    if isinstance(header, dict) and "serialization" in header:
        from repro.evolution import compact_warehouse as compact

        kept_key, flavor = "snapshots", "warehouse"
    else:
        from repro.store import compact_store as compact

        kept_key, flavor = "entries", "verdict store"
    with _exit_on(args, OSError):
        stats = compact(args.store_file)
    if args.json:
        payload = dict(stats)
        payload["kind"] = flavor
        _print_json(payload)
    else:
        print(
            "[compacted {} {}: {} kept, {} duplicates + {} corrupt{} "
            "dropped, {} -> {} bytes]".format(
                flavor,
                args.store_file,
                stats[kept_key],
                stats["dropped_duplicates"],
                stats["dropped_corrupt"],
                " + {} stale index lines".format(stats["dropped_index_lines"])
                if "dropped_index_lines" in stats
                else "",
                stats["bytes_before"],
                stats["bytes_after"],
            )
        )
    return 0


def _print_diffs(args: argparse.Namespace, diffs, digest: str, timeline=None) -> None:
    """Drift diffs, the run's timeline when there is one, and the diff digest."""
    if args.json:
        payload = {"diffs": [diff.to_dict() for diff in diffs], "diff_digest": digest}
        if timeline is not None:
            payload["timeline"] = timeline.to_dict()
        _print_json(payload)
        return
    for diff in diffs:
        print(diff.render())
    if timeline is not None:
        print(timeline.render())
    print("[diff digest: {}]".format(digest))


def cmd_evolve_run(args: argparse.Namespace) -> int:
    from repro.evolution import EvolveConfig, LineageSpec, run_evolution

    config = EvolveConfig(
        n_apps=args.apps,
        n_versions=args.versions,
        seed=args.seed,
        workers=args.workers,
        n_shards=args.shards,
        spec=LineageSpec(malicious_hazard=args.hazard),
        pipeline=_pipeline_config(args),
        warehouse=args.warehouse,
        verdict_store=args.verdict_store,
        trace=bool(args.trace_out),
    )
    with _exit_on(args, ValueError):
        result = run_evolution(config)
    _print_diffs(args, result.diffs, result.diff_fingerprint, result.timeline)
    _write_observations(args, result.spans, result.metrics)
    print(
        "[evolve: {} snapshots ({} apps x {} versions) in {:.1f}s, "
        "{} drifted]".format(
            result.metrics["snapshots_analyzed"],
            config.n_apps,
            config.n_versions,
            result.metrics["wall_s"],
            len(result.diffs),
        ),
        file=sys.stderr,
    )
    return 0


def _open_warehouse(args: argparse.Namespace):
    from repro.evolution import SnapshotWarehouse


    if not os.path.exists(args.warehouse):
        # read verbs must not conjure an empty warehouse into existence
        raise SystemExit("{}: no warehouse at {}".format(args.verb, args.warehouse))
    return SnapshotWarehouse(args.warehouse)


def _warehouse_diffs(warehouse, package: Optional[str] = None):
    """Adjacent-version diffs from a warehouse, deterministic order."""
    from repro.evolution import diff_analyses

    packages = [package] if package else warehouse.packages()
    diffs = []
    for name in packages:
        versions = warehouse.versions(name)
        if not versions and package:
            raise SystemExit("evolve diff: no snapshots for {!r}".format(package))
        snapshots = [warehouse.get_analysis(name, code) for code in versions]
        for old, new in zip(snapshots, snapshots[1:]):
            diff = diff_analyses(old, new)
            if not diff.is_empty:
                diffs.append(diff)
    return diffs


def cmd_evolve_diff(args: argparse.Namespace) -> int:
    from repro.evolution import diff_digest

    with _open_warehouse(args) as warehouse:
        diffs = _warehouse_diffs(warehouse, args.package)
    _print_diffs(args, diffs, diff_digest(diffs))
    return 0


def cmd_evolve_report(args: argparse.Namespace) -> int:
    from repro.evolution import load_warehouse_timeline

    with _open_warehouse(args) as warehouse:
        timeline = load_warehouse_timeline(warehouse)
    if args.json:
        _print_json(timeline.to_dict())
    else:
        print(timeline.render())
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.service import AnalysisService, ServiceConfig, make_server
    from repro.service.slo import parse_slo

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_depth=args.queue_depth,
        rate_per_s=args.rate,
        rate_burst=args.burst,
        persist=args.persist,
        verdict_store=args.verdict_store,
        cache_capacity=args.cache_capacity,
        slo=parse_slo(args.slo) if args.slo else None,
        slo_window=args.slo_window,
        event_log=args.event_log,
        pipeline=_pipeline_config(
            args, firewall_policy=args.policy, quarantine_dir=args.quarantine_dir
        ),
    )
    if args.policy:
        with _exit_on(args, ValueError):
            get_policy(args.policy)
    _fail_fast(args)
    service = AnalysisService(config)
    service.start()
    server = make_server(service)
    print(
        "[serve] listening on {}:{} ({} workers, queue depth {})".format(
            args.host, server.server_port, args.workers, args.queue_depth
        ),
        flush=True,
    )

    def on_signal(signum, frame):
        # shutdown() blocks until serve_forever() exits, and the handler
        # runs on the thread *inside* serve_forever -- hand it off.
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous = {
        sig: signal.signal(sig, on_signal) for sig in (signal.SIGTERM, signal.SIGINT)
    }
    try:
        server.serve_forever()
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    drained = service.drain(timeout=300.0)
    server.server_close()
    _write_observations(args, service.trace_dicts(), service.registry.to_dict())
    print(
        "[serve] drained: {} completed, {} failed, {} cache hits, "
        "{} pipeline runs, {} rejected".format(
            service.counter_value("service.jobs.completed"),
            service.counter_value("service.jobs.failed"),
            service.counter_value("service.cache.hit"),
            service.counter_value("service.pipeline.runs"),
            service.counter_value("service.rejected.queue_full")
            + service.counter_value("service.rejected.rate_limited"),
        ),
        file=sys.stderr,
    )
    return 0 if drained else 1


def cmd_submit(args: argparse.Namespace) -> int:
    client = _service_client(args)
    spec = {
        "kind": "corpus",
        "seed": args.seed,
        "n_apps": args.apps,
        "index": args.index,
    }
    if args.policy:
        spec["policy"] = args.policy
    if args.triage:
        spec["triage"] = args.triage
    if args.triage_threshold:
        spec["triage_threshold"] = args.triage_threshold
    response = client.submit(spec, client=args.client, priority=args.priority)
    if args.wait and response["state"] != "done":
        response = client.wait(response["job_id"], timeout=args.timeout)
    elif args.wait:
        response = client.job(response["job_id"])
    _print_json(response)
    if args.wait and args.result:
        _print_json(client.result(response["digest"]))
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    client = _service_client(args)
    _print_json(client.job(args.job) if args.job else client.stats())
    return 0


def cmd_corpus(args: argparse.Namespace) -> int:
    generator = CorpusGenerator(profile=_corpus_profile(args), seed=args.seed)
    blueprints = generator.sample_blueprints(args.apps)
    n = len(blueprints)

    def pct(count: int) -> str:
        return "{} ({:.2%})".format(count, count / n)

    print("corpus ground truth: {} apps, seed {}".format(n, args.seed))
    print("  DEX DCL code:        ", pct(sum(b.has_dex_dcl_code for b in blueprints)))
    print("  native code:         ", pct(sum(b.has_native_code for b in blueprints)))
    print("  DEX DCL reachable:   ", pct(sum(b.dex_dcl_reachable for b in blueprints)))
    print("  native reachable:    ", pct(sum(b.native_dcl_reachable for b in blueprints)))
    print("  lexical obfuscation: ", pct(sum(b.lexical_obfuscated for b in blueprints)))
    print("  reflection:          ", pct(sum(b.reflection for b in blueprints)))
    print("  packed (DEX enc.):   ", pct(sum(b.is_packed for b in blueprints)))
    print("  anti-decompilation:  ", pct(sum(b.anti_decompilation for b in blueprints)))
    print("  remote fetch (Baidu):", pct(sum(b.is_baidu_remote for b in blueprints)))
    print("  vulnerable:          ", pct(sum(1 for b in blueprints if b.vuln_kind)))
    families = Counter(b.malware_family for b in blueprints if b.malware_family)
    print("  malware carriers:    ", dict(families))
    entities = Counter(b.dex_entity for b in blueprints if b.dex_entity)
    print("  DEX entity mix:      ", dict(entities))
    if getattr(args, "ecosystems", False):
        print("  plugin hosts:        ", pct(sum(b.is_plugin_host for b in blueprints)))
        print("  split-APK apps:      ", pct(sum(b.is_split_apk for b in blueprints)))
        print("  staged downloaders:  ", pct(sum(b.is_staged_downloader for b in blueprints)))
        print("  self-debloating:     ", pct(sum(b.is_self_debloating for b in blueprints)))
    if args.export:
        from repro.corpus.storage import save_corpus

        records = [generator.build_record(blueprint) for blueprint in blueprints]
        index = save_corpus(records, args.export)
        print("  exported to:         ", index.parent)
    return 0


def _pick_record(args: argparse.Namespace):
    generator, blueprints = _corpus_blueprints(args)
    if args.index is not None:
        return generator.build_record(blueprints[0])
    predicates = {
        "baidu": lambda b: b.is_baidu_remote,
        "malware": lambda b: b.malware_family is not None,
        "packed": lambda b: b.is_packed,
        "vuln": lambda b: b.vuln_kind is not None,
        "ads": lambda b: b.uses_google_ads,
    }
    predicate = predicates[args.role]
    for blueprint in blueprints:
        if predicate(blueprint):
            return generator.build_record(blueprint)
    raise SystemExit("no app with role {!r} in this corpus".format(args.role))


def cmd_analyze(args: argparse.Namespace) -> int:
    record = _pick_record(args)
    dydroid = DyDroid(_pipeline_config(args, train_samples_per_family=3))
    analysis = dydroid.analyze_app(record)

    print("package:   ", analysis.package)
    print("category:  ", analysis.metadata.category)
    print("downloads: ", "{:,}".format(analysis.metadata.downloads))
    if analysis.decompile_failed:
        print("decompilation FAILED (anti-decompilation sample)")
        return 0
    print("prefilter:  dex={} native={}".format(
        analysis.prefilter.has_dex_dcl, analysis.prefilter.has_native_dcl))
    print("obfuscation:", ", ".join(analysis.obfuscation.techniques()) or "none")
    if analysis.dynamic is None:
        print("dynamic analysis: skipped (no DCL-related code)")
        return 0
    print("dynamic:    outcome={} events_run={}".format(
        analysis.dynamic.outcome.value, analysis.dynamic.events_run))
    for payload in analysis.payloads:
        print("  payload", payload.path)
        print("    kind={} entity={} provenance={}".format(
            payload.kind.value, payload.entity.value, payload.provenance.value))
        if payload.remote_sources:
            print("    remote sources:", ", ".join(payload.remote_sources))
        if payload.detection:
            print("    MALWARE:", payload.detection)
        for leak in payload.leaks:
            print("    leak:", leak)
    for finding in analysis.vulnerabilities:
        print("  VULNERABLE: {} via {} ({})".format(
            finding.category.value, finding.path, finding.code_kind))
    for config, loaded in sorted(analysis.replay_loaded.items()):
        print("  replay[{}]: {} file(s) loaded".format(config, len(loaded)))
    return 0


def cmd_defend_eval(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    with _exit_on(args, ValueError):
        evaluation = evaluate_defense(
            args.apps,
            seed=args.seed,
            policy=args.policy,
            verdict_store=args.verdict_store or "",
            quarantine_dir=args.quarantine_dir or "",
            config=_pipeline_config(args),
            workers=args.workers,
            profile=_corpus_profile(args),
        )
    if args.json:
        _print_json(evaluation.to_dict())
    else:
        print(evaluation.render())
        print()
        print(evaluation.defended_report.render_defense_table())
    print(
        "[defend eval: {} apps x2 phases in {:.1f}s; {}/{} hazards blocked, "
        "{} benign broken]".format(
            args.apps,
            time.perf_counter() - started,
            len(evaluation.blocked_hazards),
            len(evaluation.exposed_hazards),
            len(evaluation.broken_benign),
        ),
        file=sys.stderr,
    )
    return 0


def cmd_defend_replay(args: argparse.Namespace) -> int:
    if not os.path.isdir(args.quarantine_dir):
        raise SystemExit(
            "defend replay: no quarantine directory at {}".format(args.quarantine_dir)
        )
    store = QuarantineStore(args.quarantine_dir)
    digests = [args.digest] if args.digest else store.digests()
    if args.digest and args.digest not in store.digests():
        raise SystemExit(
            "defend replay: no quarantined payload {}".format(args.digest)
        )
    results = [replay_quarantined(store, digest) for digest in digests]
    if args.json:
        _print_json(results)
        return 0
    for result in results:
        print("payload {} ({}, rule {})".format(
            result["digest"][:16], result["kind"], result["rule"]))
        print("  original path:", result["source_path"])
        print("  sandbox load: ", "error: " + result["error"]
              if result["error"] else "ok")
        print("  events:        dex={} native={}".format(
            result["dex_events"], result["native_events"]))
        for line in result["logcat"]:
            print("  logcat:", line)
        for exfil in result["exfiltrated"]:
            print("  EXFIL: {} ({} bytes)".format(exfil["url"], exfil["n_bytes"]))
    return 0


def cmd_defend_debloat(args: argparse.Namespace) -> int:
    generator, blueprints = _corpus_blueprints(args)
    records = [generator.build_record(blueprint) for blueprint in blueprints]
    manifests = [manifest for _, manifest in debloat_corpus(records)]
    if args.json:
        _print_json([manifest.to_dict() for manifest in manifests])
        return 0
    for manifest in manifests:
        if not manifest.rewritten:
            continue
        print("{}: shelved {} site(s), kept {} reachable".format(
            manifest.package, len(manifest.shelved),
            manifest.reachable_loader_sites))
        for site in manifest.shelved:
            print("  - {}.{} [{}] in {}".format(
                site.class_name, site.method_name,
                site.mechanism, site.dex_entry))
    print("[debloat: {}/{} apps rewritten, {} site(s) shelved]".format(
        sum(1 for m in manifests if m.rewritten), len(manifests),
        sum(len(m.shelved) for m in manifests)))
    return 0


def cmd_defend_policies(_: argparse.Namespace) -> int:
    for name in sorted(POLICIES):
        policy = POLICIES[name]
        mode = "enforce" if policy.enforce else "observe"
        print("{:<10} [{}] {}".format(name, mode, policy.description))
    return 0


def cmd_triage_train(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    with _exit_on(args, ValueError):
        model, summary = train_triage_model(
            args.apps,
            seed=args.seed,
            ratio=args.ratio,
            split_seed=args.split_seed,
            epochs=args.epochs,
            learning_rate=args.learning_rate,
            l2=args.l2,
            train_seed=args.train_seed,
            harvest=args.harvest,
            aux_corpora=args.aux_corpora,
        )
    model.save(args.out)
    if args.json:
        _print_json(dict(summary, model=args.out))
    else:
        print("model:              ", args.out)
        print("config fingerprint: ", summary["config_fingerprint"][:16])
        print("training sessions:  ", "{} ({} hazard)".format(
            summary["n_samples"], summary["n_hazard"]))
        print("  corpus split:     ", "{} sessions".format(
            summary["train_sessions"] - summary["aux_sessions"]))
        print("  aux corpora:      ", "{} sessions from {} corpora".format(
            summary["aux_sessions"], args.aux_corpora))
        print("  harvested:        ", summary["harvested"])
    print(
        "[triage train: {} sessions ({} hazard) in {:.1f}s -> {}]".format(
            summary["n_samples"], summary["n_hazard"],
            time.perf_counter() - started, args.out,
        ),
        file=sys.stderr,
    )
    return 0


def cmd_triage_eval(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    with _exit_on(args, ValueError):
        evaluation = evaluate_triage(
            TriageModel.load(args.model),
            args.apps,
            seed=args.seed,
            threshold=args.threshold,
            ratio=args.ratio,
            split_seed=args.split_seed,
            config=_pipeline_config(args),
        )
    if args.json:
        _print_json(evaluation.to_dict())
    else:
        print(evaluation.render())
    print(
        "[triage eval: {} held-out sessions in {:.1f}s; recall {:.1%}, "
        "short-circuit {:.1%}]".format(
            evaluation.n_sessions, time.perf_counter() - started,
            evaluation.recall, evaluation.short_circuit_rate,
        ),
        file=sys.stderr,
    )
    return 0


def cmd_triage_inspect(args: argparse.Namespace) -> int:
    model = TriageModel.load(args.model)
    if args.json:
        _print_json(model.to_dict())
        return 0
    nonzero = sum(1 for w in model.weights if w)
    print("model:              ", args.model)
    print("config fingerprint: ", model.config_fingerprint[:16])
    print("fingerprint version:", model.fingerprint_version)
    print("features:           ", "{} ({} nonzero weights)".format(
        model.n_features, nonzero))
    print("bias:               ", round(model.bias, 4))
    for key in sorted(model.train_config):
        print("  {:<18}{}".format(key + ":", model.train_config[key]))
    heaviest = sorted(
        enumerate(model.weights), key=lambda kv: -abs(kv[1])
    )[:8]
    print("heaviest buckets:   ", ", ".join(
        "#{}={:+.3f}".format(index, weight) for index, weight in heaviest))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    # A missing or empty trace is a normal outcome (tracing disabled, run
    # produced nothing), not an error: say so plainly and exit 0 so
    # pipelines like `repro ... && repro trace summary` do not break.
    if not os.path.exists(args.trace_file):
        print("no spans recorded ({} does not exist)".format(args.trace_file))
        return 0
    with _exit_on(args, OSError, ValueError):
        spans = load_spans(args.trace_file)
    if not spans:
        print("no spans recorded ({} is empty)".format(args.trace_file))
        return 0
    print(render_summary(spans))
    return 0


def _top_snapshot(args: argparse.Namespace):
    if args.status:
        with _exit_on(args, OSError, ValueError):
            with open(args.status, "r", encoding="utf-8") as handle:
                return build_farm_snapshot(json.load(handle))
    client = _service_client(args)
    try:
        return build_daemon_snapshot(client.stats(), client.metrics_prom())
    except PromParseError as exc:
        raise SystemExit("top: daemon served invalid Prometheus text: {}".format(exc))


def cmd_top(args: argparse.Namespace) -> int:
    if args.once:
        _print_json(_top_snapshot(args))
        return 0
    refreshed = 0
    while True:
        snapshot = _top_snapshot(args)
        # clear + home, like watch(1); harmless when piped to a file.
        sys.stdout.write("\x1b[2J\x1b[H")
        print(render_top(snapshot))
        sys.stdout.flush()
        refreshed += 1
        if args.iterations and refreshed >= args.iterations:
            return 0
        time.sleep(max(0.1, args.interval))


def cmd_metrics(args: argparse.Namespace) -> int:
    with _exit_on(args, OSError, ValueError):
        with open(args.metrics_file, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    if not isinstance(payload, dict):
        raise SystemExit("metrics export: {} is not a JSON object".format(args.metrics_file))
    # farm/evolve --metrics-out wraps the registry in a summary document.
    if isinstance(payload.get("registry"), dict):
        payload = payload["registry"]
    text = to_prometheus(payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_families(_: argparse.Namespace) -> int:
    for family in all_families():
        marker = "  (Table VII)" if family in TABLE_VII_FAMILIES else ""
        print(family + marker)
    return 0


def cmd_ecosystems_list(_: argparse.Namespace) -> int:
    width = max(len(key) for key in ECOSYSTEMS)
    for key in sorted(ECOSYSTEMS):
        spec = ECOSYSTEMS[key]
        print("{:<{w}}  {}".format(key, spec.title, w=width))
    return 0


def cmd_ecosystems_describe(args: argparse.Namespace) -> int:
    spec = ECOSYSTEMS.get(args.key)
    if spec is None:
        raise SystemExit(
            "ecosystems describe: unknown ecosystem {!r} (known: {})".format(
                args.key, ", ".join(sorted(ECOSYSTEMS))
            )
        )
    print("key:             ", spec.key)
    print("title:           ", spec.title)
    print("profile field:   ", spec.profile_field)
    print("calibrated count:", "{:,} of the paper corpus".format(spec.paper_count))
    print("hazard classes:  ", ", ".join(spec.hazard_classes))
    print("lineage mutation:", spec.lineage_mutation)
    print()
    print(spec.description)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with _exit_on(args):
            return args.handler(args)
    except KeyboardInterrupt:
        # ctrl-C on a long farm run / serve session: one line, conventional
        # 128+SIGINT exit status, no traceback wall.
        print("\n{}: interrupted".format(args.command), file=sys.stderr)
        return 130
    except BrokenPipeError:
        # output piped into head/less that exited early -- not an error.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
