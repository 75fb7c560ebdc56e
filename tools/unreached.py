"""List the top-level functions and classes of src/procache/ that no command reaches.

A static call graph over names, built with ``ast`` alone: nothing is
imported or run, and no file is written.  The roots are the functions of
``cli.py`` that click registers as the group or as a command.  A reached
definition reaches every top-level name its source mentions, as a bare name
or as an attribute.  An argument that binds a field of a package record (a
dataclass or NamedTuple built with it) is reached only once reached code
reads that field as an attribute, so a kernel that only an unreached
function reads out of its record stays unreached.

Exits 1 unless every unreached definition is in ``ALLOWED`` with a reason
and every ``ALLOWED`` entry is still unreached.  Run from anywhere::

    python tools/unreached.py
"""

from __future__ import annotations

import ast
import sys
from collections import defaultdict
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "procache"

_PAPER_BOUNDS = "the paper's bounds: wired to a command by ROADMAP item 5"
_TRACER = "bound only by the benchmark tracer: moves to tests/oracles.py with ROADMAP item 1"
ALLOWED = {
    "proactive.active_sets": _PAPER_BOUNDS,
    "proactive.policy_a": _PAPER_BOUNDS,
    "proactive.reduction_bounds": _PAPER_BOUNDS,
    "proactive._exchange_slope": _PAPER_BOUNDS,
    "proactive.ActiveSets": _PAPER_BOUNDS,
    "proactive.PolicyAResult": _PAPER_BOUNDS,
    "proactive.CostReductionReport": _PAPER_BOUNDS,
    "optim.increasing_root": "called only by policy_a: " + _PAPER_BOUNDS,
    "evaluate._mc_marginal_errors": "Engine.marginal_errors, read only by active_sets: "
                                    + _PAPER_BOUNDS,
    "evaluate._exact_errors": "Engine.marginal_errors, read only by active_sets: "
                              + _PAPER_BOUNDS,
    "demand.sample_outcomes": _TRACER,
    "optim.project_ball_slice": _TRACER,
    "scenario.save_scenario": "writes the scenario files the tests and CI steps read: "
                              "moves to tests/oracles.py or is documented as API (ROADMAP item 18)",
}


def _decorated_as_command(node: ast.AST) -> bool:
    for deco in getattr(node, "decorator_list", ()):
        func = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(func, ast.Attribute) and func.attr in ("command", "group"):
            return True
    return False


def _record_fields(node: ast.ClassDef) -> list[str] | None:
    """The field names of a dataclass or NamedTuple, in order; None for other classes."""
    marks = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list] + node.bases
    names = {m.id if isinstance(m, ast.Name) else getattr(m, "attr", None) for m in marks}
    if not names & {"dataclass", "NamedTuple"}:
        return None
    return [s.target.id for s in node.body
            if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]


def unreached() -> dict[str, int]:
    """Every unreached top-level function and class, as ``module.name``, with its line count."""
    defs, records, candidates, roots = defaultdict(list), {}, [], []
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for stmt in ast.parse(path.read_text(), str(path)).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs[stmt.name].append(stmt)
                candidates.append((f"{module}.{stmt.name}", stmt))
                if module == "cli" and _decorated_as_command(stmt):
                    roots.append(stmt.name)
                fields = _record_fields(stmt) if isinstance(stmt, ast.ClassDef) else None
                if fields is not None:
                    records[stmt.name] = fields
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        defs[target.id].append(stmt)

    reached, read, pending, queue = set(), set(), defaultdict(list), list(roots)

    def bind(field, value):
        if field is None or field in read:
            visit(value)
        else:
            pending[field].append(value)

    def visit(node):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in records:
            fields = records[node.func.id]
            visit(node.func)
            for i, arg in enumerate(node.args):
                bind(fields[i] if i < len(fields) else None, arg)
            for kw in node.keywords:
                bind(kw.arg, kw.value)
            return
        if isinstance(node, ast.Name):
            queue.append(node.id)
        elif isinstance(node, ast.Attribute):
            queue.append(node.attr)
            if node.attr not in read:
                read.add(node.attr)
                for value in pending.pop(node.attr, ()):
                    visit(value)
        for child in ast.iter_child_nodes(node):
            visit(child)

    while queue:
        name = queue.pop()
        if name in defs and name not in reached:
            reached.add(name)
            for node in defs[name]:
                visit(node)
    return {qual: node.end_lineno - node.lineno + 1
            for qual, node in candidates if node.name not in reached}


def main() -> int:
    found = unreached()
    for qual, lines in sorted(found.items()):
        print(f"{qual} ({lines} lines): {ALLOWED.get(qual, 'NOT ON THE ALLOWLIST')}")
    stale = sorted(set(ALLOWED) - set(found))
    for qual in stale:
        print(f"{qual}: on the allowlist but reached by a command (or gone); drop its entry")
    missing = sorted(set(found) - set(ALLOWED))
    print(f"{len(found)} unreached definitions, {sum(found.values())} lines; "
          f"{len(missing)} not on the allowlist, {len(stale)} stale entries")
    return 1 if missing or stale else 0


if __name__ == "__main__":
    sys.exit(main())
