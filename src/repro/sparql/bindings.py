"""Solution mappings (bindings) for SPARQL evaluation."""

from __future__ import annotations

from typing import Iterable, Optional

from ..rdf.terms import Term, Variable

__all__ = ["Binding", "EMPTY_BINDING"]

_set = dict.__setitem__


def _immutable(self, *args, **kwargs):
    raise TypeError("a Binding is immutable")


class Binding(dict):
    """An immutable solution mapping from variables to RDF terms.

    One object per row: a ``dict`` subclass, so lookup, iteration and
    equality are the dict's own C code (terms are canonical, so comparing
    two rows compares term identities), and a row costs the collector one
    container, not a wrapper around one.  ``Binding(mapping)`` copies
    ``mapping``; the mutators raise.  Hashable (usable in DISTINCT sets and
    as a multiset key), the hash computed on first use and kept.
    """

    __slots__ = ("_hash",)

    __setitem__ = __delitem__ = __ior__ = _immutable
    clear = pop = popitem = setdefault = update = _immutable

    # -- SPARQL semantics ----------------------------------------------------

    def compatible(self, other: "Binding") -> bool:
        """Two mappings are compatible when shared variables agree."""
        small, large = (self, other) if len(self) <= len(other) else (other, self)
        for variable, term in small.items():
            existing = large.get(variable)
            if existing is not None and existing is not term:
                return False
        return True

    def merged(self, other: "Binding") -> Optional["Binding"]:
        """Union of two mappings, or ``None`` when incompatible.

        Single-pass: the compatibility check is folded into the merge loop —
        the smaller side is walked once, checking shared variables and
        collecting new pairs as it goes (the hash-join hot path calls this
        for every candidate pair).
        """
        if not other:
            return self
        if not self:
            return other
        small, large = (self, other) if len(self) <= len(other) else (other, self)
        combined = None  # copy of large, made lazily on first new pair
        for variable, term in small.items():
            existing = large.get(variable)
            if existing is None:
                if combined is None:
                    combined = Binding(large)
                _set(combined, variable, term)
            elif existing is not term:
                return None
        if combined is None:
            return large  # small is a sub-mapping of large
        return combined

    def extended(self, variable: Variable, term: Term) -> "Binding":
        """Return a new binding with one additional pair."""
        combined = Binding(self)
        _set(combined, variable, term)
        return combined

    def projected(self, variables: Iterable[Variable]) -> "Binding":
        """Restrict to the given variables (unbound ones are dropped)."""
        return Binding({v: self[v] for v in variables if v in self})

    def key(self, variables: Iterable[Variable]) -> tuple:
        """Hashable join key over ``variables`` (None for unbound)."""
        return tuple(map(self.get, variables))

    # -- identity -------------------------------------------------------------

    def __hash__(self) -> int:
        value = getattr(self, "_hash", None)
        if value is None:
            value = self._hash = hash(frozenset(self.items()))
        return value

    def __repr__(self) -> str:
        body = ", ".join(
            f"?{v.value}={t}" for v, t in sorted(self.items(), key=lambda item: item[0].value)
        )
        return f"{{{body}}}"

    def __reduce__(self):
        # The cached hash is process-local (term hashes are identities):
        # rebuild from the pairs so the receiving side computes its own.
        return (Binding, (dict(self),))


EMPTY_BINDING = Binding()
