"""The CLI surface, its config wiring and its error exit.

``cli_surface.json`` is every leaf verb's option table and
``cli_configs.json`` the config objects each pipeline verb hands to its
entry point, both recorded from the parser that declared every flag per
verb.  The flag groups must reproduce them exactly.
"""

import argparse
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.cli as cli
import repro.evolution as evolution
import repro.farm as farm
import repro.service as service
from repro.cli import build_parser, main
from repro.triage import TriageModel

HERE = Path(__file__).resolve().parent
SURFACE = json.loads((HERE / "cli_surface.json").read_text())
CONFIGS = json.loads((HERE / "cli_configs.json").read_text())


def _leaves(parser, path=()):
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(path), parser
        return
    for name, child in subs[0].choices.items():
        yield from _leaves(child, path + (name,))


def _row(action, parser):
    groups = [g for g in parser._mutually_exclusive_groups if action in g._group_actions]
    return {
        "option_strings": list(action.option_strings),
        "dest": action.dest,
        "action": type(action).__name__,
        "type": getattr(action.type, "__name__", action.type),
        "default": action.default,
        "choices": list(action.choices) if action.choices is not None else None,
        "required": action.required,
        "metavar": action.metavar,
        "nargs": action.nargs,
        "const": action.const,
        "exclusive_group": (
            {"required": groups[0].required,
             "members": [a.dest for a in groups[0]._group_actions]}
            if groups else None
        ),
    }


def _by_option(rows):
    return sorted(rows, key=lambda row: (row["option_strings"], row["dest"]))


class TestSurface:
    def test_every_leaf_verb_keeps_its_option_table(self):
        tables = {
            verb: [_row(a, p) for a in p._actions if not isinstance(a, argparse._HelpAction)]
            for verb, p in _leaves(build_parser())
        }
        assert sorted(tables) == sorted(SURFACE)
        assert len(tables) == 26
        for verb, rows in SURFACE.items():
            assert _by_option(tables[verb]) == _by_option(rows), verb

    def test_every_leaf_verb_names_its_handler_and_verb_path(self):
        for verb, parser in _leaves(build_parser()):
            defaults = parser._defaults
            assert defaults["verb"] == verb
            assert callable(defaults["handler"])

    def test_import_stays_lazy(self):
        """``import repro.cli`` must not load the farm, service or
        evolution stacks: the daemon starts through ``cli.main``."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(HERE.parent / "src") + os.pathsep + env.get("PYTHONPATH", "")
        loaded = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.cli; print(' '.join(sorted(sys.modules)))"],
            check=True, capture_output=True, text=True, env=env,
        ).stdout.split()
        for heavy in ("repro.farm", "repro.service", "repro.evolution",
                      "repro.corpus.storage"):
            assert heavy not in loaded, heavy


class _Captured(Exception):
    pass


#: The argv behind each ``"<verb> | <variant>"`` entry of cli_configs.json.
VERB_ARGV = {
    "measure": ["measure", "--apps", "12"],
    "farm run": ["farm", "run", "--apps", "12"],
    "farm serve": ["farm", "serve", "--apps", "12"],
    "serve": ["serve"],
    "evolve run": ["evolve", "run", "--apps", "12"],
}
VARIANT_ARGV = {
    "defaults": [],
    "fast": ["--train", "2", "--no-replays"],
    "triage": ["--triage-model", "model.json", "--triage-threshold", "0.8"],
}


@pytest.mark.parametrize("case", sorted(CONFIGS))
def test_pipeline_verbs_build_the_recorded_config(case, monkeypatch):
    """Each verb hands its entry point the config the per-verb flags built."""
    verb, variant = case.split(" | ")
    argv = VERB_ARGV[verb] + VARIANT_ARGV[variant]
    seen = {}

    def grab(name):
        def stub(config, *args, **kwargs):
            seen[name] = json.loads(json.dumps(dataclasses.asdict(config), default=str))
            raise _Captured
        return stub

    monkeypatch.setattr(cli, "DyDroid", grab("DyDroid"))
    monkeypatch.setattr(farm, "run_farm", grab("run_farm"))
    monkeypatch.setattr(farm, "FarmCoordinator", grab("FarmCoordinator"))
    monkeypatch.setattr(service, "AnalysisService", grab("AnalysisService"))
    monkeypatch.setattr(evolution, "run_evolution", grab("run_evolution"))
    monkeypatch.setattr(TriageModel, "load", staticmethod(lambda path: None))
    with pytest.raises(_Captured):
        main(argv)
    assert seen == CONFIGS[case]


class TestErrorExit:
    @pytest.mark.parametrize("argv", [
        ["measure"],
        ["corpus"],
        ["analyze", "--index", "0"],
        ["defend", "eval"],
        ["defend", "debloat"],
        ["evolve", "run", "--workers", "1", "--train", "2", "--no-replays"],
        ["triage", "train", "--out", "unused.json"],
        # each farm shard used to die on it, so every app was quarantined
        # as "worker process died" and the run exited 0.
        ["farm", "run", "--workers", "1", "--train", "2", "--no-replays"],
        ["farm", "run", "--workers", "2", "--train", "2", "--no-replays"],
        ["farm", "serve", "--port", "0"],
    ])
    def test_too_small_corpus_is_one_line(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        verb = " ".join(a for a in argv[:2] if not a.startswith("-"))
        with pytest.raises(SystemExit) as raised:
            main(argv + ["--apps", "5"])
        assert str(raised.value.code) == (
            "{}: corpus too small to plant all rare roles".format(verb)
        )

    def test_bad_corpus_dir_is_one_line(self, tmp_path):
        with pytest.raises(SystemExit) as raised:
            main(["measure", "--corpus-dir", str(tmp_path)])
        assert str(raised.value.code).startswith("measure: no market.json in ")

    def test_named_error_keeps_the_leaf_verb_path(self, tmp_path):
        with pytest.raises(SystemExit) as raised:
            main(["triage", "inspect", "--model", str(tmp_path / "missing.json")])
        assert str(raised.value.code).startswith("triage inspect: ")

    def test_builtin_error_outside_a_named_call_keeps_its_traceback(self, monkeypatch):
        def buggy(args):
            raise ValueError("a bug, not a user error")

        monkeypatch.setattr(cli, "cmd_families", buggy)
        with pytest.raises(ValueError, match="a bug"):
            main(["families"])
