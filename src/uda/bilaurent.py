"""Truncated Laurent polynomials in two formal variables z and w.

A ``BiLaurent`` stores a finite set of coefficients (``MvPolynomial`` values)
indexed by integer exponent pairs, together with a *window*
``(zlo, zhi, wlo, whi)`` and four per-side exactness flags.  The window is
the region where the stored coefficients are the true ones.  A flag of True
on a side means the object is a genuine Laurent polynomial in that direction
(every true coefficient beyond the window edge is zero); False means the
object is a truncation and its coefficients beyond that edge are unknown.

Arithmetic tracks how the valid window shrinks.  For a product, the
coefficient at an exponent p is trustworthy only when every split p = a + b
that could contribute draws both factors from inside their windows; per axis
this works out to the four conditions checked in ``_mul_axis``.  Windows are
explicit data rather than conventions: the formulas downstream mix genuinely
finite Laurent polynomials with truncated power series, and an implicit
truncation is exactly how wrong coefficients would slip through silently.

All operations are pure and return new instances, whose ``coeffs`` is a plain
dict that belongs to the caller; no cache holds a ``BiLaurent``.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Mapping

from .errors import EmptyWindow
from .poly import MvPolynomial, ONE, _sum_by_key

Window = tuple[int, int, int, int]          # zlo, zhi, wlo, whi (inclusive)
Exact = tuple[bool, bool, bool, bool]       # z below, z above, w below, w above

_ALL_EXACT: Exact = (True, True, True, True)


def _mul_axis(alo, ahi, axl, axh, blo, bhi, bxl, bxh):
    """Window bookkeeping for one axis of a product; see module docstring."""
    lo, hi = alo + blo, ahi + bhi
    exact_lo, exact_hi = axl and bxl, axh and bxh
    if not axl:
        if not bxh:
            raise EmptyWindow("product of series truncated in opposite directions")
        lo = max(lo, alo + bhi)
    if not bxl:
        if not axh:
            raise EmptyWindow("product of series truncated in opposite directions")
        lo = max(lo, blo + ahi)
    if not axh:
        if not bxl:
            raise EmptyWindow("product of series truncated in opposite directions")
        hi = min(hi, ahi + blo)
    if not bxh:
        if not axl:
            raise EmptyWindow("product of series truncated in opposite directions")
        hi = min(hi, bhi + alo)
    if lo > hi:
        raise EmptyWindow("empty valid window in product")
    return lo, hi, exact_lo, exact_hi


def _add_axis(alo, ahi, axl, axh, blo, bhi, bxl, bxh):
    # a sum is valid where both operands are valid or known zero
    lo = min(alo, blo) if (axl and bxl) else max(
        (blo if axl else alo), (alo if bxl else blo))
    hi = max(ahi, bhi) if (axh and bxh) else min(
        (bhi if axh else ahi), (ahi if bxh else bhi))
    if lo > hi:
        raise EmptyWindow("summands have no common valid window")
    return lo, hi, axl and bxl, axh and bxh


class BiLaurent:
    """A windowed Laurent polynomial in z and w with polynomial coefficients."""

    __slots__ = ("coeffs", "window", "exact")

    def __init__(self, coeffs: Mapping[tuple[int, int], MvPolynomial],
                 window: Window | None = None, exact: Exact = _ALL_EXACT):
        clean = {k: v for k, v in coeffs.items() if v}
        if window is None:
            window = BiLaurent._hull(clean)
        else:
            for (z, w) in clean:
                if not (window[0] <= z <= window[1] and window[2] <= w <= window[3]):
                    raise ValueError(f"coefficient at {(z, w)} outside window {window}")
        self.coeffs = clean
        self.window = window
        self.exact = exact

    @staticmethod
    def _hull(coeffs) -> Window:
        if not coeffs:
            return (0, 0, 0, 0)
        zs = [z for z, _ in coeffs]
        ws = [w for _, w in coeffs]
        return (min(zs), max(zs), min(ws), max(ws))

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero() -> "BiLaurent":
        return BiLaurent({})

    @staticmethod
    def monomial(z: int, w: int, coeff: MvPolynomial | int = 1) -> "BiLaurent":
        coeff = coeff if isinstance(coeff, MvPolynomial) else MvPolynomial.const(coeff)
        return BiLaurent({(z, w): coeff})

    @staticmethod
    def scalar(p: MvPolynomial) -> "BiLaurent":
        return BiLaurent({(0, 0): p})

    @staticmethod
    def from_z_series(coeffs: Iterable[MvPolynomial], order: int,
                      truncated_above: bool = True) -> "BiLaurent":
        """A power series in z known through z^order."""
        terms = {(i, 0): p for i, p in enumerate(coeffs) if i <= order}
        return BiLaurent(terms, (0, order, 0, 0),
                         (True, not truncated_above, True, True))

    @staticmethod
    def from_w_series(coeffs: Iterable[MvPolynomial], order: int,
                      truncated_above: bool = True) -> "BiLaurent":
        terms = {(0, i): p for i, p in enumerate(coeffs) if i <= order}
        return BiLaurent(terms, (0, 0, 0, order),
                         (True, True, True, not truncated_above))

    # -- validity ------------------------------------------------------------

    def valid_at(self, z: int, w: int) -> bool:
        zlo, zhi, wlo, whi = self.window
        zxl, zxh, wxl, wxh = self.exact
        zok = (zlo <= z <= zhi) or (z < zlo and zxl) or (z > zhi and zxh)
        wok = (wlo <= w <= whi) or (w < wlo and wxl) or (w > whi and wxh)
        return zok and wok

    def coeff(self, z: int, w: int) -> MvPolynomial:
        if not self.valid_at(z, w):
            raise EmptyWindow(f"coefficient at {(z, w)} lies outside the valid "
                              f"window {self.window} (exact sides {self.exact})")
        return self.coeffs.get((z, w), MvPolynomial.zero())

    # -- arithmetic ------------------------------------------------------------

    def __neg__(self) -> "BiLaurent":
        return BiLaurent({k: -v for k, v in self.coeffs.items()},
                         self.window, self.exact)

    def __add__(self, other: "BiLaurent") -> "BiLaurent":
        azlo, azhi, awlo, awhi = self.window
        bzlo, bzhi, bwlo, bwhi = other.window
        zlo, zhi, zxl, zxh = _add_axis(azlo, azhi, self.exact[0], self.exact[1],
                                       bzlo, bzhi, other.exact[0], other.exact[1])
        wlo, whi, wxl, wxh = _add_axis(awlo, awhi, self.exact[2], self.exact[3],
                                       bwlo, bwhi, other.exact[2], other.exact[3])
        window = (zlo, zhi, wlo, whi)
        out = _sum_by_key((k, v, ONE) for k, v in chain(self.coeffs.items(),
                                                         other.coeffs.items())
                          if zlo <= k[0] <= zhi and wlo <= k[1] <= whi)
        return BiLaurent(out, window, (zxl, zxh, wxl, wxh))

    def __sub__(self, other: "BiLaurent") -> "BiLaurent":
        return self + (-other)

    def __mul__(self, other) -> "BiLaurent":
        if isinstance(other, (int, MvPolynomial)):
            if not other:
                return BiLaurent({}, self.window, self.exact)
            return BiLaurent({k: v * other for k, v in self.coeffs.items()},
                             self.window, self.exact)
        if not isinstance(other, BiLaurent):
            return NotImplemented
        azlo, azhi, awlo, awhi = self.window
        bzlo, bzhi, bwlo, bwhi = other.window
        zlo, zhi, zxl, zxh = _mul_axis(azlo, azhi, self.exact[0], self.exact[1],
                                       bzlo, bzhi, other.exact[0], other.exact[1])
        wlo, whi, wxl, wxh = _mul_axis(awlo, awhi, self.exact[2], self.exact[3],
                                       bwlo, bwhi, other.exact[2], other.exact[3])
        products = []
        for (za, wa), pa in self.coeffs.items():
            for (zb, wb), pb in other.coeffs.items():
                z, w = za + zb, wa + wb
                if zlo <= z <= zhi and wlo <= w <= whi:
                    products.append(((z, w), pa, pb))
        return BiLaurent(_sum_by_key(products), (zlo, zhi, wlo, whi),
                         (zxl, zxh, wxl, wxh))

    __rmul__ = __mul__

    # -- reshaping -------------------------------------------------------------

    def restrict(self, window: Window) -> "BiLaurent":
        """Narrow the window, marking any side that drops coefficients inexact.

        The new window is clamped to the current one: points beyond it are
        still reachable through the exactness flags when they are genuinely
        known, and nothing can widen a validity claim.
        """
        ozlo, ozhi, owlo, owhi = self.window
        zlo, zhi = max(window[0], ozlo), min(window[1], ozhi)
        wlo, whi = max(window[2], owlo), min(window[3], owhi)
        if zlo > zhi or wlo > whi:
            raise EmptyWindow(f"restriction {window} misses the window {self.window}")
        kept = {k: v for k, v in self.coeffs.items()
                if zlo <= k[0] <= zhi and wlo <= k[1] <= whi}
        dropped = [k for k in self.coeffs if k not in kept]
        zxl, zxh, wxl, wxh = self.exact
        if zlo > ozlo:
            zxl = zxl and all(k[0] >= zlo for k in dropped)
        if zhi < ozhi:
            zxh = zxh and all(k[0] <= zhi for k in dropped)
        if wlo > owlo:
            wxl = wxl and all(k[1] >= wlo for k in dropped)
        if whi < owhi:
            wxh = wxh and all(k[1] <= whi for k in dropped)
        return BiLaurent(kept, (zlo, zhi, wlo, whi), (zxl, zxh, wxl, wxh))

    def shift(self, dz: int, dw: int) -> "BiLaurent":
        zlo, zhi, wlo, whi = self.window
        return BiLaurent({(z + dz, w + dw): v for (z, w), v in self.coeffs.items()},
                         (zlo + dz, zhi + dz, wlo + dw, whi + dw), self.exact)

    # -- comparisons -------------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BiLaurent):
            return NotImplemented
        return (self.coeffs == other.coeffs and self.window == other.window
                and self.exact == other.exact)

    def __hash__(self):
        raise TypeError("BiLaurent is not hashable")

    def __repr__(self) -> str:
        parts = []
        for (z, w) in sorted(self.coeffs):
            parts.append(f"z^{z} w^{w}: {self.coeffs[(z, w)]}")
        body = "; ".join(parts) if parts else "0"
        return f"BiLaurent[{self.window}, exact={self.exact}]({body})"
