"""CI public-surface check: public names, defaulted parameters and dataclass fields need callers.

A public top-level ``def``, ``class`` or assignment in ``src/repro``, and a
public method or property of a public top-level class, stays only while
``src/repro``, ``benchmarks``, ``scripts``, ``examples`` or ``perfbench``
refers to it outside its own definition.  A reference is a
``Name`` or ``Attribute`` node with that identifier, or a ``from ... import``
of it in a file other than an ``__init__.py``; a package re-export is not a
caller, and neither is a test.  Names are matched by identifier, not by
module, so the check can miss a dead name that shares an identifier with a
live one but never flags a live name.

A defaulted parameter of an explicit ``def`` in ``src/repro`` (private
functions and methods included; dataclass-generated fields are not
``def``s) stays only while a call in those directories passes it: by
keyword, by position, or through ``*args`` / ``**kwargs``.  A call is
matched to its callee by identifier, and ``__init__`` answers to its class
name.  A call that forwards the caller's own same-named parameter passes it
only while that parameter is itself live, which is settled by iterating to
a fixpoint; so a chain of defaults that only tests turn is dead end to end.

A field of any ``@dataclass`` in ``src/repro`` stays only while something
outside tests sets it: a ``cls(...)`` call in one of the class's own
methods (its presets); a call to the class by name in those directories,
by keyword, by position or through ``**`` unpacking; a keyword of any
``replace(...)`` call (matched by identifier, like names); an attribute
write (``obj.field = ...`` or ``+=``), matched by identifier, where a
``self.field`` write counts only inside the dataclass's own body; or, for
a study config (a class some ``src/repro`` class body assigns to
``config_class``), a ``base=`` / ``axes=`` key of an ``AblationSpec(...)``
call or a ``[base]`` / ``[axes]`` key of an ``examples/specs/*.toml`` file
whose ``experiment`` runs it.  Positions count the class's own fields (no
package dataclass subclasses another).  The seeds (``SEED_FIELDS``),
leading-underscore fields and ``field(init=False)`` fields are exempt.

A name, parameter or field that has to stay without a caller goes in
``ALLOWLIST``, ``PARAMETER_ALLOWLIST`` or ``FIELD_ALLOWLIST`` with
the reason in a comment.  An entry of any of them that names nothing in
the tree, or names something the check would pass anyway, fails the check
too, so a typo or a left-over entry cannot sit there unnoticed.  Run from
the repository root (CI does)::

    python scripts/check_public_surface.py [ROOT]

``ROOT`` defaults to the repository this script lives in.  The check exits
1 and names every unreferenced definition, uncalled parameter, unset
dataclass field and stale allowlist entry.
"""

from __future__ import annotations

import ast
import pathlib
import sys
import tomllib
from collections import defaultdict

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: The package whose public names are checked.
PACKAGE = pathlib.Path("src/repro")

#: Directories whose references count as callers, the package included.
CALLER_ROOTS = (
    PACKAGE,
    pathlib.Path("benchmarks"),
    pathlib.Path("scripts"),
    pathlib.Path("examples"),
    pathlib.Path("perfbench"),
)

#: ``module.path:name`` / ``module.path:Class.method`` entries exempt from
#: the check, each with the reason it stays.
ALLOWLIST: frozenset = frozenset(
    {
        # The single-instance Ising entry: perfbench/layertrace.py traces it
        # by name (a string, not a reference), and only tests call it.
        "repro.annealing.sampler:QuantumAnnealerSimulator.sample_ising",
        # Per-shard registry snapshots are how pool workers will return
        # telemetry under --workers (ROADMAP, observability).
        "repro.telemetry.registry:MetricsRegistry.snapshot",
    }
)


#: ``module.path:qualname(parameter)`` entries exempt from the parameter
#: check, each with the reason it stays.
PARAMETER_ALLOWLIST: frozenset = frozenset(
    {
        # Lets a test substitute a fake sampler.
        "repro.hybrid.parameters:sweep_switch_point(sampler)",
        # perfbench/layertrace.py traces sample_ising by name, so its
        # signature is the traced entry point's, callers or not.
        "repro.annealing.sampler:QuantumAnnealerSimulator.sample_ising(num_reads)",
        "repro.annealing.sampler:QuantumAnnealerSimulator.sample_ising(initial_spins)",
        "repro.annealing.sampler:QuantumAnnealerSimulator.sample_ising(rng)",
        # Lets tests reach the multi-block path with small N.
        "repro.qubo.energy:enumerate_assignments(block_bits)",
        # Lets a test fill the span buffer and see records dropped.
        "repro.telemetry.tracing:Tracer(max_records)",
        # The test fixture's way to build a channel use around a transmission.
        "repro.wireless.traffic:ChannelUse(transmission)",
    }
)

#: Ablation spec files whose ``[base]`` / ``[axes]`` keys set config fields.
SPEC_FILES = "examples/specs/*.toml"

#: Study-config fields every study keeps whether or not anything sets them.
SEED_FIELDS = frozenset({"base_seed", "instance_seed"})

#: ``module.path:Class.field`` entries exempt from the field check, each
#: with the reason it stays.
FIELD_ALLOWLIST: frozenset = frozenset(
    {
        # The qos_stress and scenarios_stress goldens overload the plant
        # through these fields.
        "repro.experiments.qos_study:QoSStudyConfig.base_symbol_period_us",
        "repro.experiments.scenario_study:ScenarioStudyConfig.base_symbol_period_us",
        "repro.experiments.scenario_study:ScenarioStudyConfig.warmup_us",
        # The harness property tests sweep them.
        "repro.ablation.targets:AnnealHPOConfig.density",
        "repro.ablation.targets:AnnealHPOConfig.final_temperature",
    }
)


def _python_files(directory: pathlib.Path) -> list:
    return sorted(directory.rglob("*.py")) if directory.is_dir() else []


def _assigned_names(node: ast.stmt) -> list:
    """The plain names a top-level assignment binds."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    names = []
    for target in targets:
        elements = target.elts if isinstance(target, ast.Tuple) else [target]
        names.extend(e.id for e in elements if isinstance(e, ast.Name))
    return names


def _public_methods(node: ast.ClassDef) -> list:
    """``(qualified name, name, first_line, last_line)`` of a class's public methods.

    Properties are methods here; a definition's lines include its decorators.
    """
    return [
        (
            f"{node.name}.{item.name}",
            item.name,
            min([item.lineno] + [decorator.lineno for decorator in item.decorator_list]),
            item.end_lineno,
        )
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not item.name.startswith("_")
    ]


def public_definitions(root: pathlib.Path) -> list:
    """``(path, qualified name, name, first_line, last_line)`` of every checked name."""
    definitions = []
    for path in _python_files(root / PACKAGE):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            else:
                names = _assigned_names(node)
            public = [name for name in names if not name.startswith("_")]
            definitions.extend(
                (path, name, name, node.lineno, node.end_lineno) for name in public
            )
            if isinstance(node, ast.ClassDef) and public:
                definitions.extend((path, *method) for method in _public_methods(node))
    return definitions


def references(root: pathlib.Path) -> dict:
    """Map each referenced identifier to the ``(path, line)`` places it occurs."""
    places = defaultdict(list)
    for directory in CALLER_ROOTS:
        for path in _python_files(root / directory):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            is_init = path.name == "__init__.py"
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    places[node.id].append((path, node.lineno))
                elif isinstance(node, ast.Attribute):
                    places[node.attr].append((path, node.lineno))
                elif isinstance(node, ast.ImportFrom) and not is_init:
                    for alias in node.names:
                        places[alias.name].append((path, node.lineno))
    return places


def unreferenced(root: pathlib.Path) -> tuple:
    """``(defined, missing)``: every public definition's ``module:name``, and
    those with no caller outside themselves, ``ALLOWLIST`` not applied."""
    places = references(root)
    defined, missing = [], []
    for path, qualified, name, first, last in public_definitions(root):
        key = f"{_module(root, path)}:{qualified}"
        defined.append(key)
        if not any(p != path or not first <= line <= last for p, line in places.get(name, ())):
            missing.append(key)
    return defined, missing


def _defaulted(function: ast.AST, is_method: bool) -> list:
    """``(name, position)`` of a ``def``'s defaulted parameters.

    ``position`` indexes the positional arguments a call writes (after
    ``self`` / ``cls`` for a method); it is ``None`` for keyword-only ones.
    """
    arguments = function.args
    positional = arguments.posonlyargs + arguments.args
    static = any(
        isinstance(d, ast.Name) and d.id == "staticmethod" for d in function.decorator_list
    )
    if is_method and not static:
        positional = positional[1:]
    first = len(positional) - len(arguments.defaults)
    defaulted = [(arg.arg, index) for index, arg in enumerate(positional) if index >= first]
    defaulted.extend(
        (arg.arg, None)
        for arg, default in zip(arguments.kwonlyargs, arguments.kw_defaults)
        if default is not None
    )
    return defaulted


def _functions(body: list, prefix: str = "", owner: str = "") -> list:
    """``(qualified name, callee identifier, node, is_method)`` of every ``def``.

    Functions nested in functions are included under their outer function's
    qualified name; ``__init__`` answers to its class name.
    """
    found = []
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            identifier = owner if owner and node.name == "__init__" else node.name
            qualified = prefix + node.name
            found.append((qualified, identifier, node, bool(owner)))
            found.extend(_functions(node.body, qualified + ".", ""))
        elif isinstance(node, ast.ClassDef):
            found.extend(_functions(node.body, prefix + node.name + ".", node.name))
    return found


def _identifier(node: ast.AST) -> str:
    """The name a ``Name`` or ``Attribute`` node ends in, else ``""``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def _callee(call: ast.Call) -> str:
    return _identifier(call.func)


def _passes(call: ast.Call, name: str, position) -> tuple:
    """``(passed, value)``: whether ``call`` writes the parameter, and the node it writes.

    ``value`` is ``None`` when the parameter arrives through ``*args`` or
    ``**kwargs``.
    """
    for keyword in call.keywords:
        if keyword.arg == name:
            return True, keyword.value
    if position is not None:
        for index, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                if index <= position:
                    return True, None
            elif index == position:
                return True, arg
    if any(keyword.arg is None for keyword in call.keywords):
        return True, None
    return False, None


def _caller_trees(root: pathlib.Path) -> dict:
    """The parsed module of every file in ``CALLER_ROOTS``, keyed by path."""
    return {
        path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for directory in CALLER_ROOTS
        for path in _python_files(root / directory)
    }


def _module(root: pathlib.Path, path: pathlib.Path) -> str:
    return ".".join(path.relative_to(root / PACKAGE.parent).with_suffix("").parts)


def uncalled_parameters(root: pathlib.Path) -> tuple:
    """``(defined, uncalled)``: every defaulted parameter's ``module:qual(param)``,
    and those no non-test call passes, ``PARAMETER_ALLOWLIST`` not applied."""
    trees = _caller_trees(root)
    # Callee identifier -> (key, name, position) of its defaulted parameters,
    # and each package def -> {name: key} of its own.
    by_identifier = defaultdict(list)
    own = {}
    every = []
    for path in _python_files(root / PACKAGE):
        module = _module(root, path)
        for qualified, identifier, node, is_method in _functions(trees[path].body):
            owner = f"{module}:{qualified.removesuffix('.__init__')}"
            parameters = _defaulted(node, is_method)
            own[node] = {name: f"{owner}({name})" for name, _ in parameters}
            every.extend(own[node].values())
            by_identifier[identifier].extend(
                (f"{owner}({name})", name, position) for name, position in parameters
            )

    live = set()
    # key -> the callers' same-named parameters whose liveness it inherits
    forwarded = defaultdict(set)

    def visit(node: ast.AST, enclosing: dict) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, own.get(child, {}))
                continue
            if isinstance(child, ast.Call):
                for key, name, position in by_identifier.get(_callee(child), ()):
                    passed, value = _passes(child, name, position)
                    if not passed:
                        continue
                    if isinstance(value, ast.Name) and value.id == name and name in enclosing:
                        forwarded[key].add(enclosing[name])
                    else:
                        live.add(key)
            visit(child, enclosing)

    for tree in trees.values():
        visit(tree, {})
    changed = True
    while changed:
        changed = False
        for key, sources in forwarded.items():
            if key not in live and sources & live:
                live.add(key)
                changed = True
    return every, [key for key in every if key not in live]


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        _identifier(decorator.func if isinstance(decorator, ast.Call) else decorator)
        == "dataclass"
        for decorator in node.decorator_list
    )


def _init_fields(node: ast.ClassDef) -> list:
    """The fields a dataclass's ``__init__`` takes, in order.

    A ``ClassVar`` or a ``field(init=False)`` is not an ``__init__`` field.
    """
    found = []
    for item in node.body:
        if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
            continue
        annotation = item.annotation
        if isinstance(annotation, ast.Subscript):
            annotation = annotation.value
        if _identifier(annotation) == "ClassVar":
            continue
        value = item.value
        if (
            isinstance(value, ast.Call)
            and _identifier(value.func) == "field"
            and any(
                k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False
                for k in value.keywords
            )
        ):
            continue
        found.append(item.target.id)
    return found


def _dataclasses(root: pathlib.Path, trees: dict) -> tuple:
    """``(classes, experiments)`` of the package's dataclasses.

    ``classes`` maps each dataclass name to ``(module, ClassDef)``;
    ``experiments`` maps each study driver's ``name`` to its
    ``config_class`` name.
    """
    classes, experiments = {}, {}
    for path in _python_files(root / PACKAGE):
        module = _module(root, path)
        for node in ast.walk(trees[path]):
            if not isinstance(node, ast.ClassDef):
                continue
            if _is_dataclass(node):
                classes[node.name] = (module, node)
            values = {
                item.targets[0].id: item.value
                for item in node.body
                if isinstance(item, ast.Assign) and isinstance(item.targets[0], ast.Name)
            }
            config, name = values.get("config_class"), values.get("name")
            if (
                isinstance(config, ast.Name)
                and isinstance(name, ast.Constant)
                and isinstance(name.value, str)
            ):
                experiments[name.value] = config.id
    return classes, experiments


def _call_sets(call: ast.Call, fields: list) -> set:
    """The fields a call to a dataclass writes: by keyword, position or ``**``."""
    if any(keyword.arg is None for keyword in call.keywords):
        return set(fields)
    written = {keyword.arg for keyword in call.keywords}
    for index, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            written.update(fields[index:])
            break
        written.update(fields[index : index + 1])
    return written


def _spec_keys(call: ast.Call) -> tuple:
    """``(experiment, keys)`` of an ``AblationSpec(...)`` call's ``base`` / ``axes`` dicts."""
    experiment, keys = None, set()
    for keyword in call.keywords:
        if keyword.arg == "experiment" and isinstance(keyword.value, ast.Constant):
            experiment = keyword.value.value
        elif keyword.arg in ("base", "axes") and isinstance(keyword.value, ast.Dict):
            keys.update(
                key.value
                for key in keyword.value.keys
                if isinstance(key, ast.Constant) and isinstance(key.value, str)
            )
    return experiment, keys


def _written_attributes(node: ast.AST, owner: str, written: dict) -> None:
    """Collect the attribute identifiers assigned under ``node`` (``=``, ``+=``).

    ``written[owner]`` gets the ``self.name`` writes made in the methods of
    class ``owner``, which set that class's own attributes;
    ``written[None]`` gets every other ``obj.name`` write, by identifier.
    """
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            _written_attributes(child, child.name, written)
            continue
        if isinstance(child, ast.Assign):
            targets = child.targets
        elif isinstance(child, (ast.AugAssign, ast.AnnAssign)):
            targets = [child.target]
        else:
            targets = []
        for target in targets:
            for element in target.elts if isinstance(target, ast.Tuple) else [target]:
                if isinstance(element, ast.Attribute):
                    on_self = _identifier(element.value) == "self"
                    written[owner if on_self else None].add(element.attr)
        _written_attributes(child, owner, written)


def unset_fields(root: pathlib.Path) -> tuple:
    """``(defined, unset)``: every checked dataclass field's ``module:Class.field``,
    and those nothing outside tests sets, ``FIELD_ALLOWLIST`` not applied."""
    trees = _caller_trees(root)
    classes, experiments = _dataclasses(root, trees)
    fields = {name: _init_fields(node) for name, (_, node) in classes.items()}
    live = defaultdict(set)
    for name, (_, node) in classes.items():
        for call in ast.walk(node):
            if isinstance(call, ast.Call) and _callee(call) == "cls":
                live[name] |= _call_sets(call, fields[name])
    # Attribute writes, by owning class; ``None`` holds the writes and the
    # ``replace`` keywords that count for a field of any class.
    written = defaultdict(set)
    for tree in trees.values():
        _written_attributes(tree, None, written)
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            callee = _callee(call)
            if callee in fields:
                live[callee] |= _call_sets(call, fields[callee])
            elif callee == "replace":
                written[None].update(k.arg for k in call.keywords if k.arg is not None)
            elif callee == "AblationSpec":
                experiment, keys = _spec_keys(call)
                live[experiments.get(experiment)] |= keys
    for path in sorted(root.glob(SPEC_FILES)):
        spec = tomllib.loads(path.read_text(encoding="utf-8"))
        keys = {*spec.get("base", {}), *spec.get("axes", {})}
        live[experiments.get(spec.get("experiment"))] |= keys
    defined, unset = [], []
    for name, (module, node) in sorted(
        classes.items(), key=lambda item: (item[1][0], item[1][1].lineno)
    ):
        for field in fields[name]:
            if field.startswith("_"):
                continue
            key = f"{module}:{name}.{field}"
            defined.append(key)
            if field not in SEED_FIELDS | written[None] | written[name] | live[name]:
                unset.append(key)
    return defined, unset


def stale_entries(allowlist: frozenset, defined: list, flagged: list) -> list:
    """``(reason, entry)`` of every allowlist entry that exempts nothing.

    An entry is stale when it names no definition in the tree (a typo, or
    the name is gone) or names one the check would pass anyway.
    """
    defined, flagged = set(defined), set(flagged)
    stale = []
    for entry in sorted(allowlist):
        if entry not in defined:
            stale.append(("names nothing", entry))
        elif entry not in flagged:
            stale.append(("already live", entry))
    return stale


def main(argv: list) -> int:
    root = pathlib.Path(argv[0]).resolve() if argv else REPO_ROOT
    names, unreferenced_names = unreferenced(root)
    parameters, uncalled_found = uncalled_parameters(root)
    fields, unset_found = unset_fields(root)
    missing = [key for key in unreferenced_names if key not in ALLOWLIST]
    uncalled = [key for key in uncalled_found if key not in PARAMETER_ALLOWLIST]
    unset = [key for key in unset_found if key not in FIELD_ALLOWLIST]
    stale = (
        stale_entries(ALLOWLIST, names, unreferenced_names)
        + stale_entries(PARAMETER_ALLOWLIST, parameters, uncalled_found)
        + stale_entries(FIELD_ALLOWLIST, fields, unset_found)
    )
    for key in missing:
        print(f"public name with no caller outside tests: {key}")
    for key in uncalled:
        print(f"defaulted parameter with no caller outside tests: {key}")
    for key in unset:
        print(f"dataclass field nothing outside tests sets: {key}")
    for reason, entry in stale:
        print(f"stale allowlist entry ({reason}): {entry}")
    if missing:
        print(
            f"{len(missing)} unreferenced public name(s): delete them, move a test-only "
            "fixture under tests/, or make the name private",
            file=sys.stderr,
        )
    if uncalled:
        print(
            f"{len(uncalled)} uncalled defaulted parameter(s): delete them and fold "
            "the default into the code",
            file=sys.stderr,
        )
    if unset:
        print(
            f"{len(unset)} unset dataclass field(s): delete them and fold the default "
            "into a module constant or the callee's default",
            file=sys.stderr,
        )
    if stale:
        print(
            f"{len(stale)} stale allowlist entr{'y' if len(stale) == 1 else 'ies'}: "
            "correct or remove them",
            file=sys.stderr,
        )
    if missing or uncalled or unset or stale:
        return 1
    print("public surface check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
