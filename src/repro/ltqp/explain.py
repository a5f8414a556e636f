"""Query plan explanation.

Renders what the engine will do before it does it: the algebra tree, the
compiled physical operator tree with the *blocking boundary* marked
(which operators stream during traversal and which hold output for the
quiescence finalize pass), the plan's read set (what the growing source
keeps of each document) and the extractor stack's (what link extraction
looks at in it), the zero-knowledge BGP join order with
per-pattern scores, the seed URLs, and the extractor stack — the
observability counterpart to Comunica's ``--explain`` flag.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union as TypingUnion

from ..rdf.terms import Variable
from ..sparql.algebra import (
    BGP,
    Extend,
    GraphOp,
    GroupBy,
    Operator,
    OrderBy,
    Project,
    Query,
    Slice,
    ValuesOp,
    operator_children,
)
from ..sparql.planner import pattern_score
from .engine import LinkTraversalEngine
from .extractors import LinkExtractor, build_query_context
from .pipeline import (
    ConstructNode,
    DescribeNode,
    DistinctNode,
    ExistsFilterNode,
    ExtendNode,
    FilterNode,
    GroupAggregateNode,
    IncrementalNode,
    JoinNode,
    LeftJoinNode,
    LimitNode,
    MinusNode,
    OrderSliceNode,
    PathScanNode,
    Pipeline,
    ProjectNode,
    RederivedNode,
    ScanNode,
    _HeldNode,
    UnionNode,
    ValuesNode,
    compile_query_pipeline,
)

__all__ = ["explain_algebra", "explain_physical", "explain_plan"]


def explain_algebra(op: Operator, indent: int = 0) -> str:
    """Indented textual rendering of an algebra tree."""
    pad = "  " * indent
    if isinstance(op, BGP):
        lines = [f"{pad}BGP"]
        for pattern in op.patterns:
            lines.append(f"{pad}  {pattern}")
        for path_pattern in op.path_patterns:
            lines.append(f"{pad}  {path_pattern.subject} <path> {path_pattern.object}")
        return "\n".join(lines)
    label = _ALGEBRA_LABELS.get(type(op), lambda op: type(op).__name__)(op)
    return "\n".join(
        [f"{pad}{label}", *(explain_algebra(child, indent + 1) for child in operator_children(op))]
    )


#: Algebra class → its one-line label, where more than its name.
_ALGEBRA_LABELS = {
    Extend: lambda op: f"Extend ?{op.variable.value}",
    GraphOp: lambda op: f"Graph {op.name}",
    ValuesOp: lambda op: f"Values ({len(op.rows)} rows)",
    Project: lambda op: "Project [" + " ".join(f"?{v.value}" for v in op.variables) + "]",
    Slice: lambda op: f"Slice offset={op.offset} limit={op.limit}",
    OrderBy: lambda op: f"OrderBy ({len(op.conditions)} keys)",
    GroupBy: lambda op: f"GroupBy ({len(op.keys)} keys, {len(op.aggregates)} aggregates)",
}


def _keyed(name: str, unkeyed: str):
    def label(node) -> str:
        key = " ".join(f"?{v.value}" for v in node._key_variables)
        return f"{name} [{key}]" if key else f"{name} [{unkeyed}]"

    return label


#: Physical node class → its one-line plan label.  Every
#: ``IncrementalNode`` subclass has an entry (a test walks the subclasses).
_PHYSICAL_LABELS = {
    ScanNode: lambda n: f"Scan {n._pattern}",
    PathScanNode: lambda n: f"PathScan {n._pattern.subject} <path> {n._pattern.object}",
    ValuesNode: lambda n: f"Values ({len(n._rows)} rows)",
    JoinNode: _keyed("HashJoin", "cross"),
    LeftJoinNode: _keyed("LeftJoin", "cross"),
    MinusNode: _keyed("Minus", "scan"),
    UnionNode: lambda n: "Union",
    FilterNode: lambda n: "Filter",
    ExistsFilterNode: lambda n: "ExistsFilter (streaming)",
    GroupAggregateNode: lambda n: (
        f"GroupAggregate ({len(n._op.keys)} keys, {len(n._op.aggregates)} aggregates)"
    ),
    OrderSliceNode: lambda n: (
        f"OrderSlice ({len(n._conditions)} keys, offset={n._offset}, limit={n._limit})"
    ),
    DescribeNode: lambda n: f"Describe ({len(n._constants)} constant targets)",
    ConstructNode: lambda n: f"Construct ({len(n._template)} template triples)",
    RederivedNode: lambda n: f"{_physical_label(n.template)} (re-derived: EXISTS)",
    _HeldNode: lambda n: f"Held ({len(n.rows)} rows)",
    ExtendNode: lambda n: f"Extend ?{n._variable.value}",
    ProjectNode: lambda n: "Project [" + " ".join(f"?{v.value}" for v in n._variables) + "]",
    DistinctNode: lambda n: "Distinct",
    LimitNode: lambda n: f"Limit {n._limit}",
}


def _physical_label(node: IncrementalNode) -> str:
    return _PHYSICAL_LABELS[type(node)](node)


def _subtree_blocks(node: IncrementalNode) -> bool:
    return node.blocking or any(_subtree_blocks(child) for child in node.children())


def explain_physical(
    plan: TypingUnion[Pipeline, IncrementalNode], indent: int = 0
) -> str:
    """Indented rendering of a compiled physical operator tree.

    Blocking operators are marked; the lowest ones — those whose inputs
    are fully streaming — are the *blocking boundary*: everything below
    them delivers results mid-traversal, everything on or above flushes at
    quiescence via the finalize pass.
    """
    node = plan.root if isinstance(plan, Pipeline) else plan
    lines: list[str] = []

    def render(node: IncrementalNode, depth: int) -> None:
        label = "  " * depth + _physical_label(node)
        if node.blocking:
            if any(_subtree_blocks(child) for child in node.children()):
                label += "   [blocking]"
            else:
                label += "   <-- blocking boundary (finalizes at quiescence)"
        lines.append(label)
        for child in node.children():
            render(child, depth + 1)

    render(node, indent)
    return "\n".join(lines)


def explain_plan(
    query: Query,
    seeds: Iterable[str] = (),
    extractors: Optional[list[LinkExtractor]] = None,
) -> str:
    """Full engine-level explanation for a parsed query."""
    context = build_query_context(query.where)
    seed_list = list(seeds) or LinkTraversalEngine.seeds_from_query(query)
    sections: list[str] = []

    sections.append(f"query form: {query.form}")
    pipeline = compile_query_pipeline(query, seed_iris=context.iris)
    blocking_count = len(pipeline.blocking_nodes)
    sections.append(
        "execution: "
        + (
            "streaming (pipelined incremental operators)"
            if not blocking_count
            else (
                f"streaming below the blocking boundary; {blocking_count} "
                "blocking operator(s) finalize at traversal quiescence"
            )
        )
    )

    # What the growing source keeps of each dereferenced document.
    if pipeline.read_set is None:
        askers = ", ".join(dict.fromkeys(pipeline.router.wildcards))
        sections.append(f"reads: everything ({askers})")
    else:
        reads = sorted(predicate.value for predicate in pipeline.read_set)
        sections.append(f"reads: {len(reads)} predicate{'s' if len(reads) != 1 else ''}")
        sections.extend(f"  {iri}" for iri in reads)
    # What link extraction looks at in each document: the stack's declared buckets.
    if extractors is not None:
        declared = [(extractor.name, extractor.reads(context)) for extractor in extractors]
        walkers = [name for name, reads in declared if reads is None]
        if walkers:
            sections.append(f"extractors read: every triple ({', '.join(walkers)})")
        else:
            reads = sorted({predicate.value for _, reads in declared for predicate in reads})
            sections.append(
                f"extractors read: {len(reads)} predicate{'s' if len(reads) != 1 else ''}"
            )
            sections.extend(f"  {iri}" for iri in reads)

    sections.append("seeds:")
    for seed in seed_list:
        sections.append(f"  {seed}")
    if not seed_list:
        sections.append("  (none — query mentions no dereferenceable entity IRIs)")

    if extractors is not None:
        sections.append("extractors: " + ", ".join(e.name for e in extractors))

    if context.classes:
        classes = ", ".join(sorted(c.value.rsplit("/", 1)[-1] for c in context.classes))
        sections.append(f"type-index class filter: {classes}")

    sections.append("\nalgebra:")
    sections.append(explain_algebra(query.where, indent=1))

    sections.append("\nphysical plan:")
    sections.append(explain_physical(pipeline, indent=1))

    # The compiled plan's own starting orders (a BGP re-orders itself on
    # its scans' counts once data arrives).
    for index, bgp in enumerate(pipeline.bgps):
        sections.append(f"\nzero-knowledge join order (BGP {index}):")
        bound: set[Variable] = set()
        for position, pattern in enumerate(scan._pattern for scan in bgp.scans):
            score = pattern_score(pattern, frozenset(bound), frozenset(context.iris))
            rendered = (
                str(pattern)
                if not hasattr(pattern, "path")
                else f"{pattern.subject} <path> {pattern.object}"
            )
            sections.append(f"  {position + 1}. {rendered}   score={score}")
            bound |= pattern.variables()

    return "\n".join(sections) + "\n"
