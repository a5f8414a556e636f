"""TriG parsing: Turtle plus named-graph blocks.

Supports the TriG constructs relevant to dataset exchange:

* plain Turtle statements (default graph)
* ``{ ... }`` default-graph blocks
* ``<graph> { ... }`` / ``prefix:name { ... }`` labelled blocks
* ``GRAPH <graph> { ... }`` (SPARQL-style keyword)

Everything inside a block is full Turtle (lists, blank nodes, literals),
and the final ``.`` of a block's last statement is optional.  The parse is
:class:`~repro.rdf.turtle.TurtleParser`'s own scanner and grammar loop
with ``{``, ``}`` and ``GRAPH`` switched on; the loop notes where each
block starts and ends, and those boundaries decide which graph each
triple lands in.
"""

from __future__ import annotations

from .triples import Quad
from .turtle import TurtleParser

__all__ = ["TriGParser", "parse_trig"]


class TriGParser(TurtleParser):
    """Parses a TriG document into quads."""

    _graph_blocks = True

    def parse_quads(self) -> list[Quad]:
        """Parse the whole document, returning quads in order."""
        triples = self.parse()
        quads: list[Quad] = []
        begin, graph = 0, None
        for end, following in self._graph_starts + [(len(triples), None)]:
            quads.extend(Quad(*t, graph) for t in triples[begin:end])
            begin, graph = end, following
        return quads


def parse_trig(text: str, base_iri: str = "", bnode_prefix: str = "b") -> list[Quad]:
    """Parse a TriG document into a list of quads."""
    return TriGParser(text, base_iri=base_iri, bnode_prefix=bnode_prefix).parse_quads()
