"""Exact arithmetic kernels: sparse multivariate polynomials over the
rationals, truncated power series, and a face-symmetric graded ring with
nilpotent markers.

Everything here is exact.  Scalars are ``fractions.Fraction`` (re-exported as
``Rational``); no floating point enters any computation.

Conventions
-----------
* A :class:`MultiPoly` lives over a fixed ordered tuple of generator names
  (its *context*).  Two polynomials interoperate only if their contexts are
  identical.  It is stored as integer numerators over one common
  denominator, ``num = {exponent tuple: nonzero int}`` and ``den > 0`` with
  no factor common to ``den`` and every numerator, so the form is canonical
  and equality is structural.  ``terms`` is the read-only
  ``{exponent tuple: Fraction}`` view of the coefficients.
* A :class:`Series` is a truncated power series in one formal variable,
  exact through ``order`` inclusive.  Coefficients may be any commutative
  ring element supporting ``+``, ``-``, ``*`` (Fractions, MultiPoly,
  GradedSeries, ...).
* A :class:`GradedSeries` is a face-symmetric polynomial in nilpotent face
  markers ``e_1, ..., e_n`` (``e_i**2 = 0``), graded by the number of marked
  faces and truncated at ``cap`` = n, with one dense polynomial in b per
  sorted tuple of marked-face exponents, all over one denominator.
* The three types share one ``**``: repeated multiplication by the base,
  which keeps a sparse base sparse on the right of every product.  A
  series is evaluated at a ring element by :meth:`Series.compose` alone;
  the compositional inverse J^{-1} is a fixed point solved with it in
  ``families``.
* :func:`sum_of_products` is the one kernel for sums of products: it
  accumulates int numerators over one common denominator and reduces
  once.  A MultiPoly or graded product and a graded sum are one call, and
  a series product or composition forms each coefficient with one call.
* Power sums use the Bernoulli convention ``B_1 = +1/2``, so that the
  polynomial with coefficients ``power_sum_coeffs(m)``, evaluated at an
  integer ``x >= 0``, equals ``sum(k**m for k in range(1, x + 1))``.
  Both sign conventions circulate; this one makes the closed form
  interpolate the sum with upper limit ``x``.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain, zip_longest
from math import comb, gcd, lcm
from operator import add, eq, sub
from typing import Union

Rational = Fraction

Scalar = Union[int, Fraction]


class ContextError(ValueError):
    """Raised when polynomials over different generator contexts are mixed."""


class TruncationError(ValueError):
    """Raised when truncated series with incompatible caps/tags are mixed."""


def _power(x, n: int):
    """x ** n for a nonnegative int n, by repeated multiplication starting
    from x, with x the right-hand factor of every product, so that a sparse
    x is never squared into a dense one; x ** 0 is the one of x's ring."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("exponent must be a nonnegative integer")
    if n == 0:
        return x * 0 + 1
    out = x
    for _ in range(n - 1):
        out = out * x
    return out


def _num_den(x: Scalar) -> tuple[int, int]:
    """An exact scalar as (numerator, positive denominator) in lowest terms."""
    if isinstance(x, int):
        return x, 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError(f"expected an exact scalar, got {type(x).__name__}")


# ============================================================
# Sparse multivariate polynomials
# ============================================================


class MultiPoly:
    """Sparse polynomial over the rationals in named generators.

    Stored as integer numerators over one common denominator: ``num`` maps
    exponent tuples (one entry per generator of ``gens``) to nonzero ints,
    and the polynomial is ``sum(c * x**exps for exps, c in num.items()) /
    den``.  The form is canonical: ``den > 0`` and ``gcd(den, *numerators)
    == 1``, so ``den`` is the least common denominator of the coefficients,
    equal polynomials have equal ``(gens, num, den)`` and equality and
    hashing are structural.  Every operation works on the integers and
    reduces its result by one gcd.

    ``terms`` is the read-only view ``{exps: Fraction}`` of the
    coefficients; its Fractions are built on the first read of a value.
    Instances are treated as immutable.
    """

    __slots__ = ("gens", "num", "den", "_terms")

    def __init__(self, gens: Sequence[str], terms: Mapping[tuple, Scalar] | None = None):
        self.gens = tuple(gens)
        self._terms = None
        parts = []
        if terms:
            width = len(self.gens)
            for exps, coeff in terms.items():
                p, q = _num_den(coeff)
                if p == 0:
                    continue
                if len(exps) != width:
                    raise ContextError(
                        f"exponent tuple {exps} does not match context of width {width}")
                parts.append((tuple(exps), p, q))
        # the lcm of denominators in lowest terms leaves no common factor
        self.den = lcm(*(q for _, _, q in parts))
        self.num = {exps: p * (self.den // q) for exps, p, q in parts}

    # ---------- constructors ----------

    @classmethod
    def from_numerators(cls, gens: Sequence[str], num: dict[tuple, int],
                        den: int) -> "MultiPoly":
        """The polynomial ``num / den`` for a positive int ``den`` and int
        numerators keyed by exponent tuples of the context's width.

        Zero numerators are dropped and the common factor of ``den`` and
        the numerators is divided out, both in place: ``num`` is taken
        over, not copied.
        """
        if 0 in num.values():
            for e in [e for e, c in num.items() if not c]:
                del num[e]
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                den //= g
                for e in num:
                    num[e] //= g
        return _canonical(tuple(gens), num, den)

    @classmethod
    def constant(cls, gens: Sequence[str], value: Scalar) -> "MultiPoly":
        gens = tuple(gens)
        p, q = _num_den(value)
        return _canonical(gens, {(0,) * len(gens): p} if p else {}, q)

    @classmethod
    def variable(cls, gens: Sequence[str], name: str) -> "MultiPoly":
        gens = tuple(gens)
        if name not in gens:
            raise ContextError(f"unknown generator {name!r} in context {gens}")
        return _canonical(gens, {tuple(1 if g == name else 0 for g in gens): 1}, 1)

    @property
    def zero(self) -> "MultiPoly":
        return _canonical(self.gens, {}, 1)

    @property
    def one(self) -> "MultiPoly":
        return MultiPoly.constant(self.gens, 1)

    # ---------- predicates / views ----------

    @property
    def terms(self) -> Mapping[tuple, Fraction]:
        """Read-only ``{exps: Fraction}`` view of the nonzero coefficients."""
        if self._terms is None:
            self._terms = _TermsView(self.num, self.den)
        return self._terms

    def is_zero(self) -> bool:
        return not self.num

    def is_constant(self) -> bool:
        return all(not any(exps) for exps in self.num)

    def constant_term(self) -> Fraction:
        return Fraction(self.num.get((0,) * len(self.gens), 0), self.den)

    def as_fraction(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"polynomial {self} is not constant")
        return self.constant_term()

    def degree_in(self, name: str) -> int:
        """Degree in one generator; -1 for the zero polynomial."""
        i = self._index(name)
        if not self.num:
            return -1
        return max(exps[i] for exps in self.num)

    def _index(self, name: str) -> int:
        try:
            return self.gens.index(name)
        except ValueError:
            raise ContextError(f"unknown generator {name!r} in context {self.gens}") from None

    def _check(self, other: "MultiPoly") -> None:
        if self.gens != other.gens:
            raise ContextError(f"context mismatch: {self.gens} vs {other.gens}")

    # ---------- ring operations ----------

    def _coerce(self, other) -> "MultiPoly | None":
        if isinstance(other, MultiPoly):
            self._check(other)
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.constant(self.gens, other)
        return None

    def _plus(self, other, sign: int) -> "MultiPoly":
        """self + sign * other, over the least common denominator."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other.num:
            return self
        if not self.num:
            return other if sign == 1 else -other
        d1, d2 = self.den, other.den
        if d1 == d2:
            out = dict(self.num)
            m2, den = sign, d1
        else:
            g = gcd(d1, d2)
            m1, m2, den = d2 // g, sign * (d1 // g), d1 * (d2 // g)
            out = {e: c * m1 for e, c in self.num.items()}
        get = out.get
        for e, c in other.num.items():
            out[e] = get(e, 0) + c * m2
        return MultiPoly.from_numerators(self.gens, out, den)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _canonical(self.gens, {e: -c for e, c in self.num.items()}, self.den)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            p, q = _num_den(other)
            if p == 0:
                return self.zero
            return MultiPoly.from_numerators(
                self.gens, {e: c * p for e, c in self.num.items()}, self.den * q)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return _sum(((self, other),), self.gens, None)

    __rmul__ = __mul__

    __pow__ = _power

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_term() == other
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.gens == other.gens and self.den == other.den and self.num == other.num

    def __hash__(self):
        # a constant equals its Fraction value, so it must hash like it
        if self.is_constant():
            return hash(self.constant_term())
        return hash((self.gens, self.den, frozenset(self.num.items())))

    # ---------- substitution / evaluation ----------

    def evaluate(self, assignment: Mapping[str, Scalar]) -> "MultiPoly":
        """Substitute rational values for some generators.

        The result keeps the full context; fully assigned polynomials come
        out constant (use :meth:`as_fraction` to unwrap).  A value p/q
        enters a term of degree e as p**e * q**(top - e), top the largest
        degree present, and the common denominator takes q**top.
        """
        den = self.den
        plan = []
        for name, v in assignment.items():
            i = self._index(name)
            p, q = _num_den(v)
            top = max((exps[i] for exps in self.num), default=0)
            den *= q ** top
            plan.append((i, [p ** e * q ** (top - e) for e in range(top + 1)]))
        out: dict[tuple, int] = {}
        get = out.get
        for exps, c in self.num.items():
            new = list(exps)
            for i, weights in plan:
                c *= weights[exps[i]]
                new[i] = 0
            key = tuple(new)
            out[key] = get(key, 0) + c
        return MultiPoly.from_numerators(self.gens, out, den)

    def substitute(self, name: str, value: "MultiPoly") -> "MultiPoly":
        """Substitute a polynomial (over the same context) for a generator."""
        self._check(value)
        i = self._index(name)
        powers = [self.one]
        for _ in range(self.degree_in(name)):
            powers.append(powers[-1] * value)
        return _sum([(MultiPoly.from_numerators(
            self.gens, {exps[:i] + (0,) + exps[i + 1:]: c}, self.den), powers[exps[i]])
            for exps, c in self.num.items()], self.gens, None)

    def coefficients_in(self, name: str) -> dict[int, "MultiPoly"]:
        """View as a polynomial in one generator: exponent -> coefficient.

        Coefficients keep the full context with the chosen generator absent.
        """
        i = self._index(name)
        groups: dict[int, dict[tuple, int]] = {}
        for exps, c in self.num.items():
            groups.setdefault(exps[i], {})[exps[:i] + (0,) + exps[i + 1:]] = c
        return {k: MultiPoly.from_numerators(self.gens, num, self.den)
                for k, num in groups.items()}

    def with_context(self, gens: Sequence[str]) -> "MultiPoly":
        """Re-express over another context containing all used generators."""
        gens = tuple(gens)
        mapping = []
        for i, g in enumerate(self.gens):
            if g in gens:
                mapping.append(gens.index(g))
            else:
                if any(exps[i] for exps in self.num):
                    raise ContextError(f"generator {g!r} in use but absent from {gens}")
                mapping.append(None)
        # the used generators map one to one, so no two terms merge
        num: dict[tuple, int] = {}
        for exps, c in self.num.items():
            key = [0] * len(gens)
            for i, e in enumerate(exps):
                if e:
                    key[mapping[i]] = e
            num[tuple(key)] = c
        return _canonical(gens, num, self.den)

    # ---------- display ----------

    def sorted_terms(self) -> list[tuple[tuple, Fraction]]:
        """Terms in graded lexicographic order (total degree, then exponents)."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def __str__(self):
        parts = []
        for exps, c in self.sorted_terms():
            body = monomial_text(self.gens, exps)
            parts.append(term_head(c, not body) + body)
        return join_terms(parts)

    __repr__ = __str__


def monomial_text(gens: Sequence[str], exps: tuple) -> str:
    """``g^e`` per generator of exponent e > 1, ``g`` for e = 1, by ``*``."""
    return "*".join(f"{g}^{e}" if e > 1 else g for g, e in zip(gens, exps) if e)


def term_head(c: Fraction, bare: bool) -> str:
    """What a printed term puts before its monomial: nothing for c = 1,
    ``-`` for -1, else ``c*``; a ``bare`` term, with none, is ``c``."""
    if bare:
        return str(c)
    return "" if c == 1 else "-" if c == -1 else f"{c}*"


def join_terms(terms) -> str:
    """Terms joined by `` + ``, `` - `` before a negative one; ``0`` for none."""
    return " + ".join(terms).replace("+ -", "- ") or "0"


class _TermsView(Mapping):
    """Read-only ``{exps: Fraction}`` view of a MultiPoly's coefficients.

    Keys, length and membership are read from the numerators; the Fractions
    are built on the first read of a value and kept.
    """

    __slots__ = ("_num", "_den", "_fractions")

    def __init__(self, num: dict[tuple, int], den: int):
        self._num, self._den, self._fractions = num, den, None

    def _values(self) -> dict[tuple, Fraction]:
        if self._fractions is None:
            den = self._den
            self._fractions = {e: Fraction(c, den) for e, c in self._num.items()}
        return self._fractions

    def __getitem__(self, exps):
        return self._values()[exps]

    def __iter__(self):
        return iter(self._num)

    def __len__(self):
        return len(self._num)

    def __contains__(self, exps):
        return exps in self._num

    def items(self):
        return self._values().items()

    def values(self):
        return self._values().values()

    def __repr__(self):
        return repr(self._values())


def _canonical(gens: tuple, num: dict[tuple, int], den: int) -> MultiPoly:
    """A MultiPoly from numerators and a denominator already in canonical form."""
    out = object.__new__(MultiPoly)
    out.gens = gens
    out.num = num
    out.den = den
    out._terms = None
    return out


# ============================================================
# Truncated power series in one formal variable
# ============================================================


class Series:
    """Truncated power series, exact through degree ``order`` inclusive.

    ``coeffs`` has length ``order + 1``; entries may be any ring element.
    ``zero`` is the additive identity of the coefficient ring, needed for
    padding (Fractions and MultiPoly both qualify); equal series share their order.
    """

    __slots__ = ("coeffs", "order", "zero")

    def __init__(self, coeffs: Sequence, order: int, zero):
        if order < 0:
            raise TruncationError("order must be nonnegative")
        self.zero = zero
        cs = list(coeffs[: order + 1])
        cs.extend(zero for _ in range(order + 1 - len(cs)))
        self.coeffs = cs
        self.order = order

    def __getitem__(self, k: int):
        if k < 0:
            raise IndexError(k)
        if k > self.order:
            raise TruncationError(f"coefficient {k} beyond truncation order {self.order}")
        return self.coeffs[k]

    def truncate(self, order: int) -> "Series":
        if order > self.order:
            raise TruncationError(f"cannot extend truncated series ({self.order} -> {order})")
        return Series(self.coeffs[: order + 1], order, self.zero)

    def _combine(self, other, op) -> "Series":
        """op(self, other) for op = add or sub, coefficient by coefficient."""
        if not isinstance(other, Series):
            cs = list(self.coeffs)
            cs[0] = op(cs[0], other)
            return Series(cs, self.order, self.zero)
        return Series(list(map(op, self.coeffs, other.coeffs)), min(self.order, other.order),
                      self.zero)

    def __add__(self, other):
        return self._combine(other, add)

    def __neg__(self):
        return Series([-c for c in self.coeffs], self.order, self.zero)

    def __sub__(self, other):
        return self._combine(other, sub)

    def __mul__(self, other):
        if not isinstance(other, Series):
            return Series([c * other for c in self.coeffs], self.order, self.zero)
        n = min(self.order, other.order)
        # products with a zero operand add nothing: pair only the others
        a = [(j, x) for j, x in enumerate(self.coeffs[:n + 1]) if not _is_zero_elem(x)]
        b = [None if _is_zero_elem(y) else y for y in other.coeffs[:n + 1]]
        total = _summer(self.zero, [x for _, x in a] + [y for y in b if y is not None])
        return Series([total([(x, b[k - j]) for j, x in a if j <= k and b[k - j] is not None])
                       for k in range(n + 1)], n, self.zero)

    def __rmul__(self, other):
        return Series([other * c for c in self.coeffs], self.order, self.zero)

    __pow__ = _power

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.order == other.order and all(map(eq, self.coeffs, other.coeffs))

    __hash__ = None  # unhashable

    def derivative(self) -> "Series":
        """d/dx; the result is exact one order lower, so order 0 has none."""
        if self.order == 0:
            raise TruncationError("an order-0 series has no derivative exact to any order")
        return Series([self.coeffs[k] * k for k in range(1, self.order + 1)],
                      self.order - 1, self.zero)

    def compose(self, inner, powers: list | None = None):
        """Evaluate the series at ``inner`` as the sum of c_k * inner**k.

        ``inner`` may be a Series, a GradedSeries or any truncated ring
        element with ``valuation_positive``; it must have zero constant term
        so the composition is well defined at the truncation.  The
        coefficient ring of ``inner`` must absorb this series' coefficients
        under ``+`` and ``*``.

        The powers of ``inner`` are formed one by one: inner**k has
        valuation >= k, so its low coefficients are zero and, in a graded
        ring, it thins out and vanishes past the cap, where the sum stops.
        A list ``powers`` of inner, inner**2, ... is read and extended, so
        series composed into one ``inner`` can share it.  The sum is one
        :func:`sum_of_products`, per coefficient for a Series ``inner``.
        """
        _require_no_constant(inner)
        powers = [] if powers is None else powers
        c0, terms = self.coeffs[0], []
        for k, c in enumerate(self.coeffs[1:]):
            if k == len(powers):
                powers.append(powers[-1] * inner if powers else inner)
            if _is_zero_elem(powers[k]):
                break
            terms.append((powers[k], c))
        if not isinstance(inner, Series):
            return sum_of_products([(c0, 1)] + terms, inner * 0)
        total = _summer(inner.zero, [c0, *chain.from_iterable(x.coeffs + [c] for x, c in terms)])
        return Series([total([(c0 if m == 0 else 0, 1)] + [(x.coeffs[m], c) for x, c in terms])
                       for m in range(inner.order + 1)], inner.order, inner.zero)

    def __str__(self):
        return " + ".join(f"({c})*x^{k}" for k, c in enumerate(self.coeffs)) or "0"

    __repr__ = __str__


def log_unit(u, order: int):
    """log u for a ring element u with constant term 1: the Mercator series
    composed at u - 1, through order ``order``."""
    mercator = [Fraction(0)] + [Fraction((-1) ** (k + 1), k) for k in range(1, order + 1)]
    return Series(mercator, order, Fraction(0)).compose(u - 1)


def inverse_unit(u, order: int):
    """1 / u for a ring element u with constant term 1: the alternating
    geometric series composed at u - 1, through order ``order``."""
    geometric = [Fraction((-1) ** k) for k in range(order + 1)]
    return Series(geometric, order, Fraction(0)).compose(u - 1)


def _is_zero_elem(c) -> bool:
    if isinstance(c, (MultiPoly, GradedSeries)):
        return c.is_zero()
    return c == 0


def _require_no_constant(inner) -> None:
    if isinstance(inner, Series):
        ok = _is_zero_elem(inner.coeffs[0])
    elif hasattr(inner, "valuation_positive"):
        ok = inner.valuation_positive()
    else:
        raise TypeError(f"cannot compose into {type(inner).__name__}")
    if not ok:
        raise ValueError("inner series must have zero constant term")


# ============================================================
# Graded series: face-symmetric nilpotent markers
# ============================================================


#: context of the graded coefficients: polynomials in b alone
B_ONLY = ("b",)


def face_generators(n: int) -> tuple[str, ...]:
    return B_ONLY + tuple(f"l{i}" for i in range(1, n + 1))


def distinct_permutations(items) -> Iterator[tuple]:
    """Every distinct rearrangement of the multiset ``items``, once each, in
    lexicographic order.

    Steps from one rearrangement to the next in place (Knuth's Algorithm L),
    so it yields len(items)! / prod(mult!) tuples where
    ``set(permutations(items))`` builds all len(items)!.
    """
    a = sorted(items)
    while True:
        yield tuple(a)
        j = len(a) - 2
        while j >= 0 and a[j] >= a[j + 1]:
            j -= 1
        if j < 0:
            return
        k = len(a) - 1
        while a[k] <= a[j]:
            k -= 1
        a[j], a[k] = a[k], a[j]
        a[j + 1:] = reversed(a[j + 1:])


class GradedSeries:
    """Truncated face-symmetric element of Q[b][e1..en] / (e_i^2), n = cap.

    The face markers e_1..e_n (e_i**2 = 0) come with face half-degrees
    l_1..l_n, and only elements invariant under permuting the faces are
    stored.  The key ``lam``, a sorted tuple of l-exponents, one per marked
    face, stands for M_lam = sum over injective f: {1..k} -> {1..n} of
    prod_j e_f(j) l_f(j)^lam_j.  Assignments whose marker sets overlap
    vanish (e_i^2 = 0), so M_lam * M_mu = M_(lam + mu): a product merges
    the tuples.  The grading is len(lam), and terms above ``cap`` are
    dropped; M_lam vanishes once len(lam) > n, so the arithmetic is the
    same for every n >= cap and the series keeps no face count.  The terms
    of degree n = cap are the e_1...e_n coefficient in the monomial
    symmetric basis (see ``pipeline._graded_m_basis``).

    ``num`` maps each key to the int numerators of its coefficient, a
    polynomial in b alone, by power of b, over the one denominator ``den``.
    The form is canonical (no list empty or ending in 0, ``den > 0``,
    ``gcd(den, *numerators) == 1``), so equality is structural.  A product
    or a sum is one :func:`sum_of_products`, which convolves the lists of
    each pair of keys and reduces once, by one gcd.  The
    constructor takes, and ``terms`` builds, the ``{lam: MultiPoly over
    B_ONLY}`` form; the constructor refuses another context, sorts each
    ``lam`` and adds up the terms that then share a key.  Instances are
    treated as immutable.
    """

    __slots__ = ("cap", "num", "den")

    def __init__(self, cap: int, terms: Mapping[tuple, MultiPoly] | None = None):
        if cap < 0:
            raise TruncationError("cap must be nonnegative")
        # M_lam times its coefficient, summed; a key past the cap adds 0
        total = _sum([(_graded(cap, {tuple(sorted(lam)): [1]}, 1) if len(lam) <= cap else 0, c)
                      for lam, c in (terms or {}).items()], B_ONLY, cap)
        self.cap, self.num, self.den = cap, total.num, total.den

    # ---------- constructors and views ----------

    @classmethod
    def constant(cls, cap: int, value) -> "GradedSeries":
        return cls(cap, {(): value})

    @property
    def terms(self) -> dict[tuple, MultiPoly]:
        """``{lam: coefficient}``, the coefficients as MultiPoly over B_ONLY."""
        return {lam: MultiPoly.from_numerators(
                    B_ONLY, {(k,): x for k, x in enumerate(row) if x}, self.den)
                for lam, row in self.num.items()}

    def is_zero(self) -> bool:
        return not self.num

    def truncate(self, cap: int) -> "GradedSeries":
        if cap > self.cap:
            raise TruncationError(f"cannot extend truncated series ({self.cap} -> {cap})")
        return _graded(cap, {k: row for k, row in self.num.items() if len(k) <= cap}, self.den)

    # ---------- ring operations ----------

    def _plus(self, other, sign: int) -> "GradedSeries":
        """self + sign * other, by :func:`sum_of_products`."""
        if not isinstance(other, (GradedSeries, MultiPoly, int, Fraction)):
            return NotImplemented
        return _sum(((self, 1), (other, sign)), B_ONLY, self.cap)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _graded(self.cap, {k: [-x for x in row] for k, row in self.num.items()}, self.den)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            p, q = _num_den(other)
            return _graded(self.cap, {k: [x * p for x in row] for k, row in self.num.items()},
                           self.den * q)
        if not isinstance(other, (GradedSeries, MultiPoly)):
            return NotImplemented
        return _sum(((self, other),), B_ONLY, self.cap)

    __rmul__ = __mul__

    __pow__ = _power

    def __eq__(self, other):
        if isinstance(other, MultiPoly) and other.gens != B_ONLY:
            return False
        if isinstance(other, (int, Fraction, MultiPoly)):
            other = GradedSeries.constant(self.cap, other)
        if not isinstance(other, GradedSeries):
            return NotImplemented
        return self.cap == other.cap and self.den == other.den and self.num == other.num

    __hash__ = None

    def valuation_positive(self) -> bool:
        return () not in self.num

    def __str__(self):
        return join_terms(f"({c})*M{lam}" if lam else f"({c})" for lam, c in
                          sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0])))

    __repr__ = __str__


def _reduced(num: dict[tuple, list[int]], den: int) -> tuple[dict, int]:
    """Numerator lists and a denominator in canonical form: zero lists
    dropped, trailing zeros trimmed in place, the common factor divided out."""
    num = {k: row for k, row in num.items() if any(row)}
    for row in num.values():
        while not row[-1]:
            row.pop()
    g = 1 if den == 1 else gcd(den, *chain.from_iterable(num.values()))
    if g == 1:
        return num, den
    return {k: [x // g for x in row] for k, row in num.items()}, den // g


def _graded(cap: int, num: dict[tuple, list[int]], den: int) -> GradedSeries:
    """A GradedSeries from numerator lists and a positive denominator."""
    out = object.__new__(GradedSeries)
    out.cap, (out.num, out.den) = cap, _reduced(num, den)
    return out


# ============================================================
# Sums of products
# ============================================================


def sum_of_products(pairs, zero):
    """sum(x * y for x, y in pairs), starting from ``zero``, formed at once.

    The sum is graded if ``zero`` or a factor is (factors GradedSeries,
    b-only MultiPoly, int or Fraction), else a polynomial if one is; the
    products go as int numerators over one common denominator, the lcm of
    theirs, reduced once by one gcd.  As under ``*``, a factor at another
    cap raises TruncationError and one over another context ContextError.
    In any other ring the products are added one by one to ``zero``.
    """
    pairs = list(pairs)
    return _summer(zero, list(chain(*pairs)))(pairs)


def _summer(zero, factors: list):
    """:func:`sum_of_products` in the ring of ``zero`` and ``factors``, as
    a function of the pairs: the sums of one series product or
    composition pick their ring once."""
    if isinstance(zero, GradedSeries):
        return lambda pairs: _sum(pairs, B_ONLY, zero.cap)
    kinds = set(map(type, factors)) | {type(zero)}
    if not (kinds <= {int, Fraction, MultiPoly, GradedSeries} and kinds - {int, Fraction}):
        return lambda pairs: reduce(lambda acc, xy: acc + xy[0] * xy[1], pairs, zero)
    ring = GradedSeries if GradedSeries in kinds else MultiPoly
    first = next(f for f in [zero, *factors] if isinstance(f, ring))
    gens, cap = (B_ONLY, first.cap) if ring is GradedSeries else (first.gens, None)
    _factor(zero, gens, cap)
    return lambda pairs: _sum(pairs, gens, cap)


def _factor(f, gens: tuple, cap: int | None) -> tuple[dict, int]:
    """A factor as (numerators, denominator).  In the graded ring at
    ``cap`` the numerators are lists by key, a b-only MultiPoly or a scalar
    being one list on the key (); with ``cap`` None, ints by exponents."""
    if isinstance(f, GradedSeries):
        if f.cap != cap:
            raise TruncationError(f"cap mismatch: {cap} vs {f.cap}")
        return f.num, f.den
    if isinstance(f, MultiPoly):
        if f.gens != gens:
            raise ContextError(f"context mismatch: {gens} vs {f.gens}")
        if cap is None:
            return f.num, f.den
        return {(): [f.num.get((k,), 0) for k in range(max(f.num)[0] + 1)]} if f.num else {}, f.den
    p, q = _num_den(f)
    return ({(0,) * len(gens): p} if cap is None else {(): [p]}) if p else {}, q


def _sum(pairs, gens: tuple, cap: int | None):
    """:func:`sum_of_products` over GradedSeries at ``cap``, or with
    ``cap`` None over MultiPoly in ``gens``.  The factor with more keys
    goes on the left.  A graded pair of keys convolves their two lists,
    keys past the cap dropped, and a factor constant in b scales the
    other's lists; polynomial terms multiply into one dict of exponents."""
    parts, scaled, den = [], [], 1
    for x, y in pairs:
        (rx, dx), (ry, dy) = _factor(x, gens, cap), _factor(y, gens, cap)
        if rx and ry:
            den = lcm(den, dx * dy)
            if len(rx) < len(ry):
                rx, ry = ry, rx
            # a factor constant in b scales the other's lists: such pairs go
            # last, after every pair that changes a list in place, and share
            const = cap is not None and len(ry) == 1 and len(ry.get((), ())) == 1
            (scaled if const else parts).append((rx, ry, dx * dy))
    out: dict = {}
    get = out.get
    for rx, ry, d in parts:
        s = den // d
        if cap is None and len(gens) == 1:
            for (i,), c1 in rx.items():
                c1 *= s
                for (j,), c2 in ry.items():
                    key = (i + j,)
                    out[key] = get(key, 0) + c1 * c2
            continue
        if cap is None:
            for e1, c1 in rx.items():
                c1 *= s
                for e2, c2 in ry.items():
                    key = tuple(map(add, e1, e2))
                    out[key] = get(key, 0) + c1 * c2
            continue
        right = sorted((len(l2), l2, r2 if s == 1 else [y * s for y in r2], len(r2) - 1)
                       for l2, r2 in ry.items())
        for l1, r1 in rx.items():
            room = cap - len(l1)
            n1 = len(r1)
            for n2, l2, r2, d2 in right:
                if n2 > room:
                    break
                key = l2 if not l1 else l1 if not l2 else tuple(sorted(l1 + l2))
                acc = get(key)
                if acc is None:
                    acc = out[key] = [0] * (n1 + d2)
                elif len(acc) < n1 + d2:
                    acc.extend([0] * (n1 + d2 - len(acc)))
                if n1 == 1 or not d2:
                    # one factor is constant in b: scale the other row
                    (c,), row = (r1, r2) if n1 == 1 else (r2, r1)
                    for j, y in enumerate(row):
                        acc[j] += c * y
                    continue
                for i, x in enumerate(r1):
                    for j, y in enumerate(r2, i):
                        acc[j] += x * y
    for rx, ry, d in scaled:
        c = ry[()][0] * (den // d)
        for l1, r1 in rx.items():
            acc = get(l1)
            out[l1] = (r1 if c == 1 else [x * c for x in r1]) if acc is None else \
                [a + x * c for a, x in zip_longest(acc, r1, fillvalue=0)]
    return MultiPoly.from_numerators(gens, out, den) if cap is None else _graded(cap, out, den)


# ============================================================
# Bernoulli numbers and Faulhaber power sums
# ============================================================


@lru_cache(maxsize=None)
def bernoulli_plus(n: int) -> Fraction:
    """Bernoulli number with the B_1 = +1/2 convention."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(1, 2)
    if n % 2 == 1:
        return Fraction(0)
    # standard recurrence sum_{k=0}^{n} binom(n+1,k) B_k = 0 (B_1 = -1/2 flavor);
    # even-index values agree in both conventions.
    acc = Fraction(0)
    for k in range(n):
        bk = bernoulli_plus(k)
        if k == 1:
            bk = -bk
        acc += comb(n + 1, k) * bk
    return -acc / (n + 1)


@lru_cache(maxsize=None)
def power_sum_coeffs(m: int) -> tuple[Fraction, ...]:
    """Coefficients of S_m(x) = sum_{k=1}^{x} k^m, index = power of x."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    coeffs = [Fraction(0)] * (m + 2)
    for j in range(m + 1):
        coeffs[m + 1 - j] = Fraction(comb(m + 1, j), m + 1) * bernoulli_plus(j)
    return tuple(coeffs)
