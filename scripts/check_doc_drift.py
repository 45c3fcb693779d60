"""CI doc-drift check: the CLI surface and docs/cli.md must agree.

Walks the ``repro-experiments`` argument parser and asserts that every
registered subcommand (experiment name) and every option flag appears
somewhere in ``docs/cli.md``, and that every ``--flag`` the document names
is one the parser registers.  CLI surface therefore cannot land without its
documentation, and a removed flag cannot linger in it — the docs can drift
in prose, but never in entry points.  It also renders ``--help`` for the root parser and every
subparser, so a help string argparse cannot format (a stray ``%``) fails
here rather than in a user's terminal, and checks that the Targets table of
``docs/ablation.md`` lists exactly the experiments an ablation spec can sweep
and that the shard table of ``docs/parallel.md`` lists exactly the CLI studies.
Every ``REPRO_*`` environment variable that ``README.md`` or ``docs/*.md``
names must be read somewhere in ``src/repro``, so the docs cannot advertise a
knob the library has dropped.  Finally, every keyword of a call code span
such as ``generate_serving_jobs(..., scenario=...)`` in those documents must
be a parameter of the ``repro`` callable it names (callables taking
``**kwargs`` are skipped), so the docs cannot advertise a removed keyword.

Run from the repository root (CI does)::

    PYTHONPATH=src python scripts/check_doc_drift.py
"""

from __future__ import annotations

import argparse
import ast
import importlib
import inspect
import pathlib
import pkgutil
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


def check_shard_table() -> list:
    """The shard table of docs/parallel.md must list exactly the studies of ``DRIVERS``."""
    from repro.experiments.registry import DRIVERS

    doc_path = REPO_ROOT / "docs" / "parallel.md"
    if not doc_path.exists():
        return []  # check_required_docs reports the missing page
    _, _, section = doc_path.read_text(encoding="utf-8").partition("\n## Work units")
    section = section.split("\n## ", 1)[0]
    listed = set()
    for cell in re.findall(r"^\| ([^|]+) \|", section, flags=re.MULTILINE):
        listed.update(re.findall(r"`([^`]+)`", cell))
    studies = {driver.name for driver in DRIVERS}
    problems = []
    if studies - listed:
        problems.append(
            "docs/parallel.md shard table is missing studies: "
            + ", ".join(sorted(studies - listed))
        )
    if listed - studies:
        problems.append(
            "docs/parallel.md shard table lists unknown studies: "
            + ", ".join(sorted(listed - studies))
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


def _repro_callables() -> dict:
    """Every class and function defined in a ``repro`` module, by name."""
    import repro

    found: dict = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if callable(value) and getattr(value, "__module__", None) == info.name:
                found.setdefault(name, []).append(value)
    return found


def _call_keywords(span: str):
    """``(callee, keywords)`` of a call code span such as ``f(..., kw=...)``.

    ``...`` is Python's Ellipsis, so most spans parse; nested calls are
    walked too.  A span that does not parse falls back to a regex reading.
    """
    try:
        tree = ast.parse(span, mode="eval")
    except SyntaxError:
        match = re.match(r"([A-Za-z_][\w.]*)\(", span)
        if match:
            yield match.group(1), re.findall(r"(?<![\w=!<>])([A-Za-z_]\w*)=(?!=)", span)
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and node.keywords:
            callee = ast.unparse(node.func)
            yield callee, [keyword.arg for keyword in node.keywords if keyword.arg]


def _accepts(target, keyword: str) -> bool:
    """Whether ``target`` takes ``keyword`` (always true with ``**kwargs``)."""
    try:
        parameters = inspect.signature(target).parameters.values()
    except (TypeError, ValueError):
        return True
    return any(
        parameter.kind is parameter.VAR_KEYWORD or parameter.name == keyword
        for parameter in parameters
    )


def check_call_keywords() -> tuple:
    """Every ``kw=`` of a ``name(..., kw=...)`` code span must be a parameter of ``name``.

    ``name`` (or ``Class.method``) is resolved among the classes and
    functions defined in ``repro``; a span naming anything else is skipped.
    Returns the problems and the number of keywords checked.
    """
    callables = _repro_callables()
    documents = [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]
    problems = []
    checked = 0
    for path in documents:
        text = re.sub(r"```.*?```", "", path.read_text(encoding="utf-8"), flags=re.DOTALL)
        for span in re.findall(r"`([A-Za-z_][\w.]*\([^`]*=[^`]*\))`", text):
            span = " ".join(span.split())
            for callee, keywords in _call_keywords(span):
                head, _, attribute = callee.partition(".")
                targets = [
                    getattr(owner, attribute, None) if attribute else owner
                    for owner in callables.get(head, ())
                ]
                targets = [target for target in targets if target is not None]
                if not targets:
                    continue
                for keyword in keywords:
                    checked += 1
                    if not any(_accepts(target, keyword) for target in targets):
                        problems.append(
                            f"{path.relative_to(REPO_ROOT)} names `{callee}(..., "
                            f"{keyword}=...)`, but {callee} has no parameter {keyword!r}"
                        )
    return problems, checked


def main() -> int:
    keyword_problems, keywords_checked = check_call_keywords()
    problems = (
        check_required_docs()
        + check_help_renders()
        + check_ablation_targets()
        + check_shard_table()
        + check_env_vars()
        + keyword_problems
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
        f"docs/cli.md; {len(REQUIRED_DOCS)} subsystem docs present and indexed; "
        f"{keywords_checked} documented call keywords exist"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
