"""Affine quotient rings k[x..]/I with cached reduced Groebner bases."""

from __future__ import annotations

import re

from .fields import field_by_name
from .poly import PolyRing, Polynomial, parse_polynomial
from .modgb import PolyReducer, groebner_basis


class QuotientRing:
    """S/I for a polynomial ring S; I may be zero (empty generator list)."""

    def __init__(self, ambient: PolyRing, ideal_gens):
        self.ambient = ambient
        self.ideal_gens = [g for g in ideal_gens if not g.is_zero()]
        for g in self.ideal_gens:
            if g.ring != ambient:
                raise ValueError("ideal generator outside the ambient ring")
        self.gb = groebner_basis(self.ideal_gens) if self.ideal_gens else []
        self._reducer = PolyReducer(ambient, self.gb)
        self.hypersurface = len(self.gb) == 1

    @property
    def field(self):
        return self.ambient.field

    def normal_form(self, p: Polynomial) -> Polynomial:
        return self._reducer.normal_form(p)

    def is_zero(self, p: Polynomial) -> bool:
        return self.normal_form(p).is_zero()

    def zero(self) -> Polynomial:
        return self.ambient.zero()

    def one(self) -> Polynomial:
        return self.ambient.one()

    def parse(self, text: str) -> Polynomial:
        return self.normal_form(parse_polynomial(self.ambient, text))

    def krull_dim_bound(self) -> int:
        """Upper bound used for MCM window: ambient dim minus one per
        hypersurface equation, never below zero."""
        d = self.ambient.nvars - len(self.gb)
        return max(d, 0)

    def __eq__(self, other):
        return (isinstance(other, QuotientRing) and other.ambient == self.ambient
                and other.gb == self.gb)

    def __hash__(self):
        return hash((self.ambient, len(self.gb)))

    def __repr__(self):
        if not self.ideal_gens:
            return repr(self.ambient)
        return f"{self.ambient!r}/({', '.join(map(repr, self.ideal_gens))})"


_RING_RE = re.compile(r"^\s*([A-Za-z]\w*(?:\[i\])?)\s*\[([^\]]*)\]\s*(?:/\s*\((.*)\)\s*)?$")


def parse_ring(text: str, order: str = "grevlex", weights=None) -> QuotientRing:
    """Parse ring notation like Q[x,y,z,w]/(x*y+z*w) or F5[x,y]."""
    m = _RING_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse ring {text!r}")
    field = field_by_name(m.group(1))
    variables = [v.strip() for v in m.group(2).split(",") if v.strip()]
    ring = PolyRing(field, variables, order=order, weights=weights)
    gens = []
    if m.group(3):
        depth = 0
        part = ""
        parts = []
        for ch in m.group(3):
            if ch == "," and depth == 0:
                parts.append(part)
                part = ""
                continue
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            part += ch
        parts.append(part)
        gens = [parse_polynomial(ring, s) for s in parts if s.strip()]
    return QuotientRing(ring, gens)
