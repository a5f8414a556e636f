"""Well-known RDF namespaces used throughout the Solid / SolidBench universe.

A :class:`Namespace` is a tiny helper that mints :class:`NamedNode` terms via
attribute or item access::

    FOAF = Namespace("http://xmlns.com/foaf/0.1/")
    FOAF.name          # NamedNode("http://xmlns.com/foaf/0.1/name")
    FOAF["first-name"] # for names that are not Python identifiers
"""

from __future__ import annotations

from .terms import NamedNode

__all__ = [
    "Namespace",
    "RDF",
    "RDFS",
    "XSD_NS",
    "FOAF",
    "LDP",
    "PIM",
    "SOLID",
    "ACL",
    "VCARD",
    "SNVOC",
    "SNTAG",
    "DBPEDIA",
    "SUBWEB",
    "RDF_TYPE",
    "PREFIXES",
]


class Namespace:
    """A factory for IRIs that share a common prefix.

    Minted nodes are cached as instance attributes, so ``FOAF.name`` pays
    the ``__getattr__`` + constructor cost only on first access — hot loops
    (extractors, serializers) that mention ``NS.term`` inline then hit a
    plain attribute lookup.
    """

    def __init__(self, base: str) -> None:
        self._base = base

    @property
    def base(self) -> str:
        return self._base

    def __getattr__(self, local: str) -> NamedNode:
        if local.startswith("_"):
            raise AttributeError(local)
        node = NamedNode(self._base + local)
        object.__setattr__(self, local, node)
        return node

    def __getitem__(self, local: str) -> NamedNode:
        node = self.__dict__.get(local)
        if node is None:
            node = self.__dict__[local] = NamedNode(self._base + local)
        return node

    def __contains__(self, node: object) -> bool:
        return isinstance(node, NamedNode) and node.value.startswith(self._base)

    def local_name(self, node: NamedNode) -> str:
        """Strip the namespace base from ``node``; raises if it doesn't match."""
        if node not in self:
            raise ValueError(f"{node} is not in namespace {self._base}")
        return node.value[len(self._base):]

    def __repr__(self) -> str:
        return f"Namespace({self._base!r})"


RDF = Namespace("http://www.w3.org/1999/02/22-rdf-syntax-ns#")
RDFS = Namespace("http://www.w3.org/2000/01/rdf-schema#")
XSD_NS = Namespace("http://www.w3.org/2001/XMLSchema#")
FOAF = Namespace("http://xmlns.com/foaf/0.1/")
LDP = Namespace("http://www.w3.org/ns/ldp#")
PIM = Namespace("http://www.w3.org/ns/pim/space#")
SOLID = Namespace("http://www.w3.org/ns/solid/terms#")
ACL = Namespace("http://www.w3.org/ns/auth/acl#")
VCARD = Namespace("http://www.w3.org/2006/vcard/ns#")

# The LDBC SNB vocabulary as hosted by SolidBench.
SNVOC = Namespace(
    "https://solidbench.linkeddatafragments.org/www.ldbc.eu/ldbc_socialnet/1.0/vocabulary/"
)
SNTAG = Namespace(
    "https://solidbench.linkeddatafragments.org/www.ldbc.eu/ldbc_socialnet/1.0/tag/"
)
DBPEDIA = Namespace("https://solidbench.linkeddatafragments.org/dbpedia.org/resource/")

# Subweb specifications and source summaries (after the distributed
# subweb-specification proposal): pods describe which of their containers
# hold what — class partitions, predicate sets, cardinalities — and may
# publish traversal scopes.  Guided traversal (repro.ltqp.guided) consumes
# these to prune and prioritize links.
SUBWEB = Namespace("https://w3id.org/subweb#")

RDF_TYPE = RDF.type

#: Default prefix map used by serializers and the CLI.
PREFIXES: dict[str, str] = {
    "rdf": RDF.base,
    "rdfs": RDFS.base,
    "xsd": XSD_NS.base,
    "foaf": FOAF.base,
    "ldp": LDP.base,
    "pim": PIM.base,
    "solid": SOLID.base,
    "acl": ACL.base,
    "vcard": VCARD.base,
    "snvoc": SNVOC.base,
    "sntag": SNTAG.base,
}
