"""RDF data model, storage, and serialization.

This subpackage is a self-contained RDF 1.1 stack: term model
(:mod:`repro.rdf.terms`), triples/quads (:mod:`repro.rdf.triples`), indexed
in-memory stores (:mod:`repro.rdf.dataset`), the parsed-document value
(:mod:`repro.rdf.document`), Turtle and N-Triples/N-Quads
parsing (:mod:`repro.rdf.turtle`, :mod:`repro.rdf.ntriples`), and Turtle
serialization (:mod:`repro.rdf.writer`).
"""

from .dataset import Dataset, Graph
from .document import ParsedDocument
from .isomorphism import find_bnode_bijection, isomorphic
from .namespaces import (
    ACL,
    DBPEDIA,
    FOAF,
    LDP,
    PIM,
    PREFIXES,
    RDF,
    RDFS,
    SNTAG,
    SNVOC,
    SOLID,
    VCARD,
    Namespace,
)
from .ntriples import (
    NTriplesParseError,
    parse_nquads,
    parse_ntriples,
    serialize_nquads,
    serialize_ntriples,
)
from .terms import (
    BlankNode,
    Literal,
    NamedNode,
    Term,
    Variable,
    literal_from_python,
    term_to_ntriples,
)
from .triples import Quad, Triple, TriplePattern
from .trig import TriGParser, parse_trig
from .turtle import TurtleParseError, TurtleParser, parse_turtle
from .writer import TurtleWriter, serialize_turtle

__all__ = [
    "NamedNode",
    "BlankNode",
    "Literal",
    "Variable",
    "Term",
    "Triple",
    "Quad",
    "TriplePattern",
    "ParsedDocument",
    "Graph",
    "Dataset",
    "Namespace",
    "RDF",
    "RDFS",
    "FOAF",
    "LDP",
    "PIM",
    "SOLID",
    "ACL",
    "VCARD",
    "SNVOC",
    "SNTAG",
    "DBPEDIA",
    "PREFIXES",
    "parse_turtle",
    "parse_trig",
    "TriGParser",
    "TurtleParser",
    "TurtleParseError",
    "parse_ntriples",
    "parse_nquads",
    "serialize_ntriples",
    "serialize_nquads",
    "NTriplesParseError",
    "TurtleWriter",
    "serialize_turtle",
    "literal_from_python",
    "isomorphic",
    "find_bnode_bijection",
    "term_to_ntriples",
]
