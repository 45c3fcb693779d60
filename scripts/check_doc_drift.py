"""CI doc-drift check: the CLI surface and docs/cli.md must agree.

Walks the ``repro-experiments`` argument parser and asserts that every
registered subcommand (experiment name) and every option flag appears
somewhere in ``docs/cli.md``, and that every ``--flag`` the document names
is one the parser registers.  CLI surface therefore cannot land without its
documentation, and a removed flag cannot linger in it — the docs can drift
in prose, but never in entry points.  It also renders ``--help`` for the root parser and every
subparser, so a help string argparse cannot format (a stray ``%``) fails
here rather than in a user's terminal, and checks that the Targets table of
``docs/ablation.md`` lists exactly the experiments an ablation spec can sweep.
Finally, every ``REPRO_*`` environment variable that ``README.md`` or
``docs/*.md`` names must be read somewhere in ``src/repro``, so the docs
cannot advertise a knob the library has dropped.

Run from the repository root (CI does)::

    PYTHONPATH=src python scripts/check_doc_drift.py
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cli import build_parser  # noqa: E402

#: Subsystem documents that must exist and be linked from docs/index.md.
#: Growing a documented subsystem?  Add its page here so the index and the
#: page itself cannot silently disappear.
REQUIRED_DOCS = (
    "ablation.md",
    "architecture.md",
    "channels.md",
    "cli.md",
    "experiments.md",
    "kernels.md",
    "network.md",
    "parallel.md",
    "qos.md",
    "scenarios.md",
    "serving.md",
    "telemetry.md",
)


def _parsers() -> list:
    """The root parser and every subparser beneath it."""
    parsers = []
    stack = [build_parser()]
    while stack:  # argparse has no public introspection API
        parser = stack.pop()
        parsers.append(parser)
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                stack.extend(action.choices.values())
    return parsers


def cli_surface() -> list:
    """Every subcommand and option flag the parser tree registers."""
    flags = set()
    subcommands = set()
    for parser in _parsers():
        for action in parser._actions:
            for option in action.option_strings:
                if option.startswith("--") and option != "--help":
                    flags.add(option)  # --help is argparse's, not ours
            if isinstance(action, argparse._SubParsersAction):
                subcommands.update(action.choices)
    return sorted(flags) + sorted(subcommands)


def stale_flags(document: str) -> list:
    """Every ``--flag`` named in ``document`` that no parser registers."""
    registered = {option for parser in _parsers() for option in parser._option_string_actions}
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", document))
    return sorted(named - registered)


def check_help_renders() -> list:
    """Every parser's ``--help`` must format without raising."""
    problems = []
    for parser in _parsers():
        try:
            parser.format_help()
        except (TypeError, ValueError, KeyError) as error:
            problems.append(f"'{parser.prog} --help' fails: {error}")
    return problems


def check_required_docs() -> list:
    """Every registered subsystem page must exist and be indexed."""
    problems = []
    index_path = REPO_ROOT / "docs" / "index.md"
    index = index_path.read_text(encoding="utf-8") if index_path.exists() else ""
    if not index:
        problems.append("docs/index.md is missing")
    for name in REQUIRED_DOCS:
        if not (REPO_ROOT / "docs" / name).exists():
            problems.append(f"docs/{name} is missing")
        elif f"({name})" not in index:
            problems.append(f"docs/index.md does not link docs/{name}")
    return problems


def check_ablation_targets() -> list:
    """The Targets table of docs/ablation.md must list exactly the sweepable experiments."""
    from repro.ablation.targets import sweepable_drivers

    doc_path = REPO_ROOT / "docs" / "ablation.md"
    if not doc_path.exists():
        return []  # check_required_docs reports the missing page
    _, _, section = doc_path.read_text(encoding="utf-8").partition("\n## Targets\n")
    section = section.split("\n## ", 1)[0]
    listed = set(re.findall(r"^\| `([^`]+)` \|", section, flags=re.MULTILINE))
    sweepable = set(sweepable_drivers())
    problems = []
    if sweepable - listed:
        problems.append(
            "docs/ablation.md Targets table is missing sweepable experiments: "
            + ", ".join(sorted(sweepable - listed))
        )
    if listed - sweepable:
        problems.append(
            "docs/ablation.md Targets table lists experiments that cannot be swept: "
            + ", ".join(sorted(listed - sweepable))
        )
    return problems


def check_env_vars() -> list:
    """Every ``REPRO_*`` variable the README or docs name must be read in src/repro.

    A variable counts as read when a module under ``src/repro`` spells its
    name as a string literal and also touches ``os.environ`` or
    ``os.getenv`` (directly, or through a module constant holding the name).
    """
    documents = [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]
    named = set()
    for path in documents:
        if path.exists():
            named.update(re.findall(r"\bREPRO_[A-Z_]+", path.read_text(encoding="utf-8")))
    read = set()
    for source in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        text = source.read_text(encoding="utf-8")
        if re.search(r"\bos\.(environ|getenv)\b", text):
            read.update(re.findall(r"[\"'](REPRO_[A-Z_]+)[\"']", text))
    return [
        f"docs name environment variable {name}, which src/repro never reads"
        for name in sorted(named - read)
    ]


def main() -> int:
    problems = (
        check_required_docs()
        + check_help_renders()
        + check_ablation_targets()
        + check_env_vars()
    )
    if problems:
        print("FAIL: " + "; ".join(problems), file=sys.stderr)
        return 1

    doc_path = REPO_ROOT / "docs" / "cli.md"
    if not doc_path.exists():
        print(f"FAIL: {doc_path} does not exist", file=sys.stderr)
        return 1
    document = doc_path.read_text(encoding="utf-8")

    missing = [token for token in cli_surface() if token not in document]
    if missing:
        print(
            "FAIL: CLI surface missing from docs/cli.md: " + ", ".join(missing),
            file=sys.stderr,
        )
        print(
            "document every subcommand and flag in docs/cli.md (the doc-drift "
            "check matches plain substrings)",
            file=sys.stderr,
        )
        return 1
    stale = stale_flags(document)
    if stale:
        print(
            "FAIL: docs/cli.md names flags the CLI does not have: " + ", ".join(stale),
            file=sys.stderr,
        )
        return 1
    print(
        f"doc-drift check: {len(cli_surface())} CLI tokens all present in "
        f"docs/cli.md; {len(REQUIRED_DOCS)} subsystem docs present and indexed"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
