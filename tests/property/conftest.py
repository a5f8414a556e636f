"""Helpers shared by the pipeline property suites."""

from hypothesis import strategies as st

from repro.rdf import Literal, Variable
from repro.rdf.terms import XSD_INTEGER
from repro.sparql.algebra import (
    And,
    Compare,
    Filter,
    InExpr,
    Not,
    OrderBy,
    OrderCondition,
    TermExpr,
    VariableExpr,
)

#: The variable the drawn GROUP BY shapes bind their ``COUNT`` to.
COUNTED = VariableExpr(Variable("n"))


def _integer(value: int) -> TermExpr:
    return TermExpr(Literal(str(value), datatype=XSD_INTEGER))


#: HAVING over the count under ``&&``, ``!`` and ``IN``.
HAVING_OVER_COUNT = (
    And(Compare(">", COUNTED, _integer(0)), Compare("<", COUNTED, _integer(3))),
    Not(Compare("=", COUNTED, _integer(1))),
    InExpr(COUNTED, (_integer(1), _integer(2))),
)


@st.composite
def over_group_rows(draw, group):
    """``group`` (binding ``?n`` to a count) as it is, under a HAVING over
    the count, or ordered by it — the ordinary Filter and OrderBy the
    parser puts over a GroupBy, each independent of arrival order."""
    clause = draw(st.sampled_from(["none", "having", "order"]))
    if clause == "having":
        return Filter(draw(st.sampled_from(HAVING_OVER_COUNT)), group)
    if clause == "order":
        return OrderBy(group, (OrderCondition(COUNTED, descending=draw(st.booleans())),))
    return group


def rebuild_one_bgp(pipeline, rng) -> None:
    """Re-order a random BGP of ``pipeline`` into a random permutation
    through the pipeline's own rebuild — any order, not only the one its
    scans' counts would pick."""
    if pipeline.bgps:
        bgp = rng.choice(pipeline.bgps)
        pipeline.reorder(bgp, rng.sample(bgp.scans, len(bgp.scans)))
