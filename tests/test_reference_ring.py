"""The integer-numerator MultiPoly kernel against the Fraction-dict kernel it
replaced.

``FractionPoly`` is the earlier ``ring.MultiPoly``: one ``Fraction`` per
term, stored as ``{exponent tuple: Fraction}``, every operation reducing
each coefficient on its own.  It is kept here only as a reference.  Every
operation of the new kernel must give, term by term, the coefficients the
reference gives, in canonical form: no zero numerators, ``den > 0`` and
``den`` the least common denominator of the coefficients.
"""

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irrmaps.ring import ContextError, MultiPoly, Scalar


def _as_fraction(x: Scalar) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact scalar, got {type(x).__name__}")


class FractionPoly:
    """Sparse polynomial over the rationals in named generators.

    ``terms`` maps exponent tuples (one entry per generator of ``gens``) to
    nonzero Fractions.  Instances are treated as immutable.
    """

    __slots__ = ("gens", "terms")

    def __init__(self, gens: Sequence[str], terms: Mapping[tuple, Scalar] | None = None):
        self.gens = tuple(gens)
        clean: dict[tuple, Fraction] = {}
        if terms:
            width = len(self.gens)
            for exps, coeff in terms.items():
                c = _as_fraction(coeff)
                if c == 0:
                    continue
                if len(exps) != width:
                    raise ContextError(
                        f"exponent tuple {exps} does not match context of width {width}")
                clean[tuple(exps)] = c
        self.terms = clean

    # ---------- constructors ----------

    @classmethod
    def constant(cls, gens: Sequence[str], value: Scalar) -> "FractionPoly":
        gens = tuple(gens)
        v = _as_fraction(value)
        if v == 0:
            return cls(gens)
        return cls(gens, {(0,) * len(gens): v})

    @classmethod
    def variable(cls, gens: Sequence[str], name: str) -> "FractionPoly":
        gens = tuple(gens)
        if name not in gens:
            raise ContextError(f"unknown generator {name!r} in context {gens}")
        exps = tuple(1 if g == name else 0 for g in gens)
        return cls(gens, {exps: Fraction(1)})

    @property
    def zero(self) -> "FractionPoly":
        return FractionPoly(self.gens)

    @property
    def one(self) -> "FractionPoly":
        return FractionPoly.constant(self.gens, 1)

    # ---------- predicates / views ----------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * len(self.gens), Fraction(0))

    def as_fraction(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"polynomial {self} is not constant")
        return self.constant_term()

    def degree_in(self, name: str) -> int:
        """Degree in one generator; -1 for the zero polynomial."""
        i = self._index(name)
        if not self.terms:
            return -1
        return max(exps[i] for exps in self.terms)

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(exps) for exps in self.terms)

    def _index(self, name: str) -> int:
        try:
            return self.gens.index(name)
        except ValueError:
            raise ContextError(f"unknown generator {name!r} in context {self.gens}") from None

    def _check(self, other: "FractionPoly") -> None:
        if self.gens != other.gens:
            raise ContextError(f"context mismatch: {self.gens} vs {other.gens}")

    # ---------- ring operations ----------

    def _coerce(self, other) -> "FractionPoly | None":
        if isinstance(other, FractionPoly):
            self._check(other)
            return other
        if isinstance(other, (int, Fraction)):
            return FractionPoly.constant(self.gens, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            s = terms.get(exps, Fraction(0)) + c
            if s == 0:
                terms.pop(exps, None)
            else:
                terms[exps] = s
        out = FractionPoly(self.gens)
        out.terms = terms
        return out

    __radd__ = __add__

    def __neg__(self):
        out = FractionPoly(self.gens)
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if c == 0:
                return self.zero
            out = FractionPoly(self.gens)
            out.terms = {e: v * c for e, v in self.terms.items()}
            return out
        if not isinstance(other, FractionPoly):
            return NotImplemented
        self._check(other)
        prod: dict[tuple, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                s = prod.get(key)
                s = c1 * c2 if s is None else s + c1 * c2
                if s == 0:
                    prod.pop(key, None)
                else:
                    prod[key] = s
        out = FractionPoly(self.gens)
        out.terms = prod
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = self.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_term() == other
        if not isinstance(other, FractionPoly):
            return NotImplemented
        return self.gens == other.gens and self.terms == other.terms

    def __hash__(self):
        # a constant equals its Fraction value, so it must hash like it
        if self.is_constant():
            return hash(self.constant_term())
        return hash((self.gens, frozenset(self.terms.items())))

    # ---------- substitution / evaluation ----------

    def evaluate(self, assignment: Mapping[str, Scalar]) -> "FractionPoly":
        """Substitute rational values for some generators.

        The result keeps the full context; fully assigned polynomials come
        out constant (use :meth:`as_fraction` to unwrap).
        """
        idx = {self._index(name): _as_fraction(v) for name, v in assignment.items()}
        out: dict[tuple, Fraction] = {}
        for exps, c in self.terms.items():
            val = c
            new = list(exps)
            for i, v in idx.items():
                val *= v ** exps[i]
                new[i] = 0
            key = tuple(new)
            s = out.get(key, Fraction(0)) + val
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
        res = FractionPoly(self.gens)
        res.terms = out
        return res

    def substitute(self, name: str, value: "FractionPoly") -> "FractionPoly":
        """Substitute a polynomial (over the same context) for a generator."""
        self._check(value)
        i = self._index(name)
        powers: dict[int, FractionPoly] = {0: self.one}

        def pw(k: int) -> FractionPoly:
            if k not in powers:
                powers[k] = pw(k - 1) * value
            return powers[k]

        acc = self.zero
        for exps, c in self.terms.items():
            rest = list(exps)
            k = rest[i]
            rest[i] = 0
            mono = FractionPoly(self.gens, {tuple(rest): c})
            acc = acc + mono * pw(k)
        return acc

    def coefficients_in(self, name: str) -> dict[int, "FractionPoly"]:
        """View as a polynomial in one generator: exponent -> coefficient.

        Coefficients keep the full context with the chosen generator absent.
        """
        i = self._index(name)
        out: dict[int, dict[tuple, Fraction]] = {}
        for exps, c in self.terms.items():
            rest = list(exps)
            k = rest[i]
            rest[i] = 0
            out.setdefault(k, {})[tuple(rest)] = c
        result = {}
        for k, terms in out.items():
            p = FractionPoly(self.gens)
            p.terms = terms
            result[k] = p
        return result

    def with_context(self, gens: Sequence[str]) -> "FractionPoly":
        """Re-express over another context containing all used generators."""
        gens = tuple(gens)
        mapping = []
        for i, g in enumerate(self.gens):
            if g in gens:
                mapping.append(gens.index(g))
            else:
                if any(exps[i] for exps in self.terms):
                    raise ContextError(f"generator {g!r} in use but absent from {gens}")
                mapping.append(None)
        out: dict[tuple, Fraction] = {}
        for exps, c in self.terms.items():
            key = [0] * len(gens)
            for i, e in enumerate(exps):
                if e:
                    key[mapping[i]] = e
            k = tuple(key)
            s = out.get(k, Fraction(0)) + c
            if s == 0:
                out.pop(k, None)
            else:
                out[k] = s
        res = FractionPoly(gens)
        res.terms = out
        return res

    def rename(self, table: Mapping[str, str]) -> "FractionPoly":
        gens = tuple(table.get(g, g) for g in self.gens)
        if len(set(gens)) != len(gens):
            raise ContextError(f"renaming collides: {gens}")
        out = FractionPoly(gens)
        out.terms = dict(self.terms)
        return out

    # ---------- display ----------

    def sorted_terms(self) -> list[tuple[tuple, Fraction]]:
        """Terms in graded lexicographic order (total degree, then exponents)."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps, c in self.sorted_terms():
            factors = [f"{g}^{e}" if e > 1 else g
                       for g, e in zip(self.gens, exps) if e > 0]
            body = "*".join(factors)
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}")
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    __repr__ = __str__


# ============================================================
# strategies
# ============================================================

CONTEXTS = [("b",), ("b", "l1", "l2")]

# small and large denominators, both signs, zero included
fractions = st.one_of(
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
    st.builds(Fraction, st.integers(-10**20, 10**20), st.integers(1, 10**25)),
)


@st.composite
def terms(draw, gens, max_terms=6, max_exp=3):
    exps = st.tuples(*[st.integers(0, max_exp)] * len(gens))
    return draw(st.dictionaries(exps, fractions, max_size=max_terms))


@st.composite
def pairs(draw, max_terms=6, max_exp=3):
    """A context and two coefficient dicts over it."""
    gens = draw(st.sampled_from(CONTEXTS))
    return (gens, draw(terms(gens, max_terms, max_exp)),
            draw(terms(gens, max_terms, max_exp)))


def agree(new, ref):
    """``new`` has the reference's coefficients, in canonical form."""
    assert isinstance(new, MultiPoly) and isinstance(ref, FractionPoly)
    assert new.gens == ref.gens
    assert dict(new.terms) == ref.terms
    assert len(new.terms) == len(new.num) == len(ref.terms)
    assert 0 not in new.num.values()
    assert new.den == lcm(*(c.denominator for c in ref.terms.values()))
    assert gcd(new.den, *new.num.values()) == 1


# ============================================================
# operations, term by term
# ============================================================


@settings(max_examples=150, deadline=None)
@given(pairs())
def test_construction_matches(case):
    gens, t1, _ = case
    agree(MultiPoly(gens, t1), FractionPoly(gens, t1))


@settings(max_examples=150, deadline=None)
@given(pairs())
def test_add_sub_mul_neg_match(case):
    gens, t1, t2 = case
    p, q = MultiPoly(gens, t1), MultiPoly(gens, t2)
    rp, rq = FractionPoly(gens, t1), FractionPoly(gens, t2)
    agree(p + q, rp + rq)
    agree(p - q, rp - rq)
    agree(p * q, rp * rq)
    agree(-p, -rp)
    agree(p - p, rp - rp)
    agree(p + (-p), rp + (-rp))


@settings(max_examples=150, deadline=None)
@given(pairs(), st.one_of(fractions, st.integers(-10**12, 10**12)))
def test_scalar_ops_match(case, c):
    gens, t1, _ = case
    p, rp = MultiPoly(gens, t1), FractionPoly(gens, t1)
    agree(p * c, rp * c)
    agree(c * p, c * rp)
    agree(p + c, rp + c)
    agree(c + p, c + rp)
    agree(p - c, rp - c)
    agree(c - p, c - rp)


@settings(max_examples=80, deadline=None)
@given(pairs(max_terms=3, max_exp=2), st.integers(0, 4))
def test_pow_matches(case, k):
    gens, t1, _ = case
    agree(MultiPoly(gens, t1) ** k, FractionPoly(gens, t1) ** k)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_evaluate_matches(data):
    gens, t1, _ = data.draw(pairs())
    names = data.draw(st.lists(st.sampled_from(gens), unique=True, min_size=1))
    assignment = {name: data.draw(st.one_of(fractions, st.integers(-5, 5)))
                  for name in names}
    agree(MultiPoly(gens, t1).evaluate(assignment),
          FractionPoly(gens, t1).evaluate(assignment))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_substitute_matches(data):
    gens, t1, t2 = data.draw(pairs(max_terms=4, max_exp=2))
    name = data.draw(st.sampled_from(gens))
    agree(MultiPoly(gens, t1).substitute(name, MultiPoly(gens, t2)),
          FractionPoly(gens, t1).substitute(name, FractionPoly(gens, t2)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_coefficients_in_matches(data):
    gens, t1, _ = data.draw(pairs())
    name = data.draw(st.sampled_from(gens))
    got = MultiPoly(gens, t1).coefficients_in(name)
    want = FractionPoly(gens, t1).coefficients_in(name)
    assert got.keys() == want.keys()
    for k in want:
        agree(got[k], want[k])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_with_context_matches(data):
    gens, t1, _ = data.draw(pairs())
    wider = data.draw(st.permutations(gens + ("x",)))
    agree(MultiPoly(gens, t1).with_context(wider), FractionPoly(gens, t1).with_context(wider))
    # dropping a generator the polynomial does not use
    name = data.draw(st.sampled_from(gens))
    narrower = tuple(g for g in gens if g != name)
    got = MultiPoly(gens, t1).coefficients_in(name).get(0, MultiPoly(gens))
    want = FractionPoly(gens, t1).coefficients_in(name).get(0, FractionPoly(gens))
    agree(got.with_context(narrower), want.with_context(narrower))


def test_with_context_refuses_a_used_generator_like_the_reference():
    gens = ("b", "l1", "l2")
    t = {(0, 0, 1): Fraction(1, 3)}
    for kind in (MultiPoly, FractionPoly):
        with pytest.raises(ContextError):
            kind(gens, t).with_context(("b", "l1"))


@settings(max_examples=100, deadline=None)
@given(pairs())
def test_equality_and_hash_match(case):
    gens, t1, t2 = case
    p, q = MultiPoly(gens, t1), MultiPoly(gens, t2)
    rp, rq = FractionPoly(gens, t1), FractionPoly(gens, t2)
    assert (p == q) == (rp == rq)
    assert ((p - q) + q == p) and hash((p - q) + q) == hash(p)
    if rp.is_constant():
        c = rp.constant_term()
        assert p == c and hash(p) == hash(c) == hash(rp)
    assert str(p) == str(rp)
