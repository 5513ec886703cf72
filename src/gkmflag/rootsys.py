"""Classical root systems and their Weyl groups as signed permutations.

Types A, B, C, D are built with the coordinates everyone uses:

* A_n  (m = n+1 variables):  alpha_i = x_i - x_{i+1};
  positive roots x_i - x_j for i < j.
* B_n  (m = n):  alpha_n = x_n;  positives x_i and x_i +- x_j.
* C_n  (m = n):  alpha_n = 2*x_n;  positives 2*x_i and x_i +- x_j.
* D_n  (m = n):  alpha_n = x_{n-1} + x_n;  positives x_i +- x_j.

A Weyl group element is a signed permutation (u, eps) acting by
x_k -> eps_k * x_{u(k)}.  Type A carries no signs and type D only an even
number of minus signs; type C shares the type-B group and differs only in
its roots.  The one-line form is the tuple (eps_1*u(1), ..., eps_N*u(N));
its machine text is comma-separated, e.g. "-2,1".

The group-theoretic layer (lengths, reduced words, Bruhat and weak
orders, parabolic subgroups W(Sigma) and root subsets <Sigma>) is
computed combinatorially and cached on the RootSystem instance.  The
root data never changes after construction; the only state that grows is
the set of caches declared in ``RootSystem.__init__``, including
``coset_graph_cache`` (filled by ``parabolic.build_coset_graph``) and
``schubert_table_cache`` (set by ``schubert.schubert_table``).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .polyring import LinearForm, Polynomial

__all__ = ["WeylElement", "RootSystem", "RootSubset", "group_closure", "weyl_group_order"]

DEFAULT_GROUP_CAP = 3628800  # 10!


def group_closure(seed, gens, compose):
    """Every element reachable from ``seed`` by right composition with
    ``gens``: a breadth-first search of the Cayley graph.

    Elements must be hashable; ``compose(w, g)`` is the step from w along
    g.  Seeded with the identity this is the group the generators span.
    """
    seen = set(seed)
    frontier = list(seed)
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                wg = compose(w, g)
                if wg not in seen:
                    seen.add(wg)
                    nxt.append(wg)
        frontier = nxt
    return list(seen)


class WeylElement:
    """Signed permutation (u, eps) acting by x_k -> eps_k * x_{u(k)}."""

    __slots__ = ("perm", "signs")

    def __init__(self, perm, signs=None):
        self.perm = tuple(perm)
        self.signs = tuple(signs) if signs is not None else (1,) * len(self.perm)
        if sorted(self.perm) != list(range(1, len(self.perm) + 1)):
            raise ValueError(f"not a permutation: {self.perm}")
        if len(self.signs) != len(self.perm) or any(s not in (1, -1) for s in self.signs):
            raise ValueError("signs must be +-1, one per position")

    @classmethod
    def identity(cls, size: int) -> "WeylElement":
        return cls(range(1, size + 1))

    @property
    def size(self) -> int:
        return len(self.perm)

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        # (self*other) . x_k = self . (other . x_k)
        if self.size != other.size:
            raise ValueError("size mismatch")
        perm = tuple(self.perm[other.perm[k] - 1] for k in range(self.size))
        signs = tuple(
            other.signs[k] * self.signs[other.perm[k] - 1] for k in range(self.size)
        )
        return WeylElement(perm, signs)

    def inverse(self) -> "WeylElement":
        perm = [0] * self.size
        signs = [1] * self.size
        for k in range(self.size):
            j = self.perm[k] - 1
            perm[j] = k + 1
            signs[j] = self.signs[k]
        return WeylElement(perm, signs)

    def is_identity(self) -> bool:
        return self.perm == tuple(range(1, self.size + 1)) and all(
            s == 1 for s in self.signs
        )

    def act_linear(self, form: LinearForm) -> LinearForm:
        if form.varcount != self.size:
            raise ValueError("varcount mismatch")
        out = [Fraction(0)] * self.size
        for k, c in enumerate(form.coeffs):
            if c != 0:
                out[self.perm[k] - 1] += c * self.signs[k]
        return LinearForm(out)

    def act_poly(self, f: Polynomial) -> Polynomial:
        if f.varcount != self.size:
            raise ValueError("varcount mismatch")
        terms = {}
        for e, c in f.terms.items():
            out = [0] * self.size
            sign = 1
            for k, exp in enumerate(e):
                if exp:
                    out[self.perm[k] - 1] = exp
                    if self.signs[k] < 0 and exp % 2:
                        sign = -sign
            key = tuple(out)
            v = terms.get(key, Fraction(0)) + sign * c
            if v == 0:
                terms.pop(key, None)
            else:
                terms[key] = v
        return Polynomial(f.varcount, terms)

    def matrix(self):
        """The m x m matrix of the action on linear forms."""
        m = self.size
        rows = [[Fraction(0)] * m for _ in range(m)]
        for k in range(m):
            rows[self.perm[k] - 1][k] = Fraction(self.signs[k])
        return tuple(tuple(r) for r in rows)

    def one_line(self):
        return tuple(self.signs[k] * self.perm[k] for k in range(self.size))

    def one_line_str(self, display: bool = False) -> str:
        """Machine form "-2,1"; display form underlines negative entries."""
        if not display:
            return ",".join(str(v) for v in self.one_line())
        out = []
        for v in self.one_line():
            s = str(abs(v))
            if v < 0:
                s = "".join(ch + "̲" for ch in s)
            out.append(s)
        return "".join(out)

    @classmethod
    def from_one_line(cls, text: str) -> "WeylElement":
        vals = [int(v) for v in text.split(",")]
        return cls([abs(v) for v in vals], [1 if v > 0 else -1 for v in vals])

    def __eq__(self, other):
        return (
            isinstance(other, WeylElement)
            and self.perm == other.perm
            and self.signs == other.signs
        )

    def __hash__(self):
        return hash((self.perm, self.signs))

    def __repr__(self):
        return f"W[{self.one_line_str()}]"


@dataclass(frozen=True)
class RootSubset:
    """A subset Sigma of simple-root indices with its closure <Sigma>."""

    simple_indices: frozenset
    roots: tuple  # the positive roots lying in the span of Sigma


_RANK_MIN = {"A": 1, "B": 2, "C": 2, "D": 3}


def weyl_group_order(kind: str, rank: int) -> int:
    """|W| from (type, rank) alone, before any root system is built;
    ValueError for an unknown type or a rank below its minimum."""
    kind = kind.upper()
    if kind not in _RANK_MIN:
        raise ValueError(f"unknown type {kind!r}; expected A, B, C or D")
    if rank < _RANK_MIN[kind]:
        raise ValueError(f"type {kind} needs rank >= {_RANK_MIN[kind]}")
    if kind == "A":
        return math.factorial(rank + 1)
    if kind in ("B", "C"):
        return 2**rank * math.factorial(rank)
    return 2 ** (rank - 1) * math.factorial(rank)


class RootSystem:
    """One of the classical root systems with its Weyl group machinery."""

    def __init__(self, kind: str, rank: int):
        weyl_group_order(kind, rank)  # validates the type and rank
        self.kind = kind = kind.upper()
        self.rank = rank
        self.varcount = rank + 1 if kind == "A" else rank
        self.simple_roots = tuple(self._make_simples())
        self.positive_roots = tuple(self._make_positives())
        self._pos_set = set(self.positive_roots)
        self._root_coords = self._expand_in_simples()
        self._refl_cache: dict = {}
        self._len_cache: dict = {}
        self._word_cache: dict = {}
        self._bruhat_cache: dict = {}
        self._elements = None
        self._parabolic_cache: dict = {}
        self.coset_graph_cache: dict = {}
        self.schubert_table_cache = None

    # ------------------------------------------------------------------
    # construction

    def _form(self, entries) -> LinearForm:
        v = [Fraction(0)] * self.varcount
        for i, c in entries:
            v[i - 1] += Fraction(c)
        return LinearForm(v)

    def _make_simples(self):
        n = self.rank
        simples = [self._form([(i, 1), (i + 1, -1)]) for i in range(1, n)]
        if self.kind == "A":
            simples.append(self._form([(n, 1), (n + 1, -1)]))
        elif self.kind == "B":
            simples.append(self._form([(n, 1)]))
        elif self.kind == "C":
            simples.append(self._form([(n, 2)]))
        else:  # D
            simples.append(self._form([(n - 1, 1), (n, 1)]))
        return simples

    def _make_positives(self):
        n = self.rank
        out = []
        if self.kind == "A":
            for i in range(1, n + 2):
                for j in range(i + 1, n + 2):
                    out.append(self._form([(i, 1), (j, -1)]))
            return out
        if self.kind == "B":
            out.extend(self._form([(i, 1)]) for i in range(1, n + 1))
        elif self.kind == "C":
            out.extend(self._form([(i, 2)]) for i in range(1, n + 1))
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                out.append(self._form([(i, 1), (j, -1)]))
                out.append(self._form([(i, 1), (j, 1)]))
        return out

    def _expand_in_simples(self):
        cols = list(self.simple_roots)
        coords = {}
        for beta in self.positive_roots:
            rows = [[cols[j].coeffs[i] for j in range(self.rank)]
                    for i in range(self.varcount)]
            sol = linalg.solve_fraction(rows, list(beta.coeffs))
            if sol is None:
                raise AssertionError("positive root outside simple-root span")
            coords[beta] = tuple(sol)
        return coords

    # ------------------------------------------------------------------
    # roots and reflections

    def is_positive_root(self, form: LinearForm) -> bool:
        return form in self._pos_set

    def positive_part(self, form: LinearForm) -> LinearForm:
        if form in self._pos_set:
            return form
        if (-form) in self._pos_set:
            return -form
        raise ValueError(f"not a root: {form}")

    def reflection(self, beta: LinearForm) -> WeylElement:
        """The reflection s_beta for a root beta (either sign accepted)."""
        root = self.positive_part(beta)
        if root in self._refl_cache:
            return self._refl_cache[root]
        bb = root.dot(root)
        perm = [0] * self.varcount
        signs = [1] * self.varcount
        for k in range(self.varcount):
            # image of x_{k+1} under s_root
            img = [Fraction(0)] * self.varcount
            img[k] = Fraction(1)
            factor = 2 * root.coeffs[k] / bb
            for j in range(self.varcount):
                img[j] -= factor * root.coeffs[j]
            nz = [(j, c) for j, c in enumerate(img) if c != 0]
            if len(nz) != 1 or abs(nz[0][1]) != 1:
                raise AssertionError("reflection is not a signed permutation")
            j, c = nz[0]
            perm[k] = j + 1
            signs[k] = 1 if c > 0 else -1
        w = WeylElement(perm, signs)
        self._refl_cache[root] = w
        return w

    def simple_reflection(self, i: int) -> WeylElement:
        if not 1 <= i <= self.rank:
            raise ValueError(f"simple index {i} out of range")
        return self.reflection(self.simple_roots[i - 1])

    def identity(self) -> WeylElement:
        return WeylElement.identity(self.varcount)

    # ------------------------------------------------------------------
    # lengths, words, orders

    def length(self, w: WeylElement) -> int:
        """Number of positive roots sent to negative roots by w."""
        try:
            return self._len_cache[w]
        except KeyError:
            n = sum(
                1 for beta in self.positive_roots
                if w.act_linear(beta) not in self._pos_set
            )
            self._len_cache[w] = n
            return n

    def reduced_word(self, w: WeylElement):
        """Greedy reduced word: repeatedly strip the smallest left descent.

        Any reduced word would do for the callers (their constructions are
        word-independent); this rule just fixes a deterministic output.
        """
        try:
            return self._word_cache[w]
        except KeyError:
            pass
        word = []
        cur = w
        lcur = self.length(cur)
        while lcur > 0:
            for i in range(1, self.rank + 1):
                cand = self.simple_reflection(i) * cur
                if self.length(cand) < lcur:
                    word.append(i)
                    cur = cand
                    lcur -= 1
                    break
            else:
                raise AssertionError("no descent found for a non-identity element")
        word = tuple(word)
        self._word_cache[w] = word
        return word

    def from_word(self, word) -> WeylElement:
        w = self.identity()
        for i in word:
            w = w * self.simple_reflection(i)
        return w

    def weak_left_leq(self, v: WeylElement, u: WeylElement) -> bool:
        """v <=_L u  iff  len(u v^-1) == len(u) - len(v)."""
        return self.length(u * v.inverse()) == self.length(u) - self.length(v)

    def bruhat_leq(self, u: WeylElement, v: WeylElement) -> bool:
        """Strong Bruhat order u <= v, by descent recursion with memoization."""
        key = (u, v)
        try:
            return self._bruhat_cache[key]
        except KeyError:
            pass
        lu, lv = self.length(u), self.length(v)
        if u == v:
            res = True
        elif lu >= lv:
            res = False
        else:
            i = next(
                i for i in range(1, self.rank + 1)
                if self.length(self.simple_reflection(i) * v) < lv
            )
            si = self.simple_reflection(i)
            sv = si * v
            su = si * u
            if self.length(su) < lu:
                res = self.bruhat_leq(su, sv)
            else:
                res = self.bruhat_leq(u, sv)
        self._bruhat_cache[key] = res
        return res

    # ------------------------------------------------------------------
    # the group

    def group_order(self) -> int:
        return weyl_group_order(self.kind, self.rank)

    def sort_key(self, w: WeylElement):
        return (self.length(w), w.one_line())

    def elements(self, cap: int = DEFAULT_GROUP_CAP):
        """The whole Weyl group in canonical (length, one-line) order."""
        if self._elements is not None:
            return self._elements
        if self.group_order() > cap:
            raise ValueError(
                f"group order {self.group_order()} exceeds enumeration cap {cap}"
            )
        gens = [self.simple_reflection(i) for i in range(1, self.rank + 1)]
        elems = group_closure([self.identity()], gens, operator.mul)
        elems.sort(key=self.sort_key)
        self._elements = elems
        return elems

    def longest_element(self) -> WeylElement:
        return max(self.elements(), key=self.length)

    # ------------------------------------------------------------------
    # parabolic data

    def closure(self, sigma) -> RootSubset:
        """<Sigma>: positive roots supported on the simple roots in Sigma."""
        sigma = frozenset(sigma)
        if not sigma <= set(range(1, self.rank + 1)):
            raise ValueError("Sigma must be a set of simple-root indices")
        roots = tuple(
            beta for beta in self.positive_roots
            if all(c == 0 or (j + 1) in sigma
                   for j, c in enumerate(self._root_coords[beta]))
        )
        return RootSubset(sigma, roots)

    def parabolic_elements(self, sigma, cap: int = DEFAULT_GROUP_CAP):
        """W(Sigma), generated by the reflections of the simples in Sigma."""
        sigma = frozenset(sigma)
        if sigma in self._parabolic_cache:
            return self._parabolic_cache[sigma]
        gens = [self.simple_reflection(i) for i in sorted(sigma)]
        elems = group_closure([self.identity()], gens, operator.mul)
        if len(elems) > cap:
            raise ValueError("parabolic subgroup exceeds enumeration cap")
        elems.sort(key=self.sort_key)
        self._parabolic_cache[sigma] = elems
        return elems

    def full_sigma(self) -> frozenset:
        return frozenset(range(1, self.rank + 1))

    def word_str(self, w: WeylElement) -> str:
        word = self.reduced_word(w)
        return "id" if not word else "".join(f"s{i}" for i in word)

    def __repr__(self):
        return f"RootSystem({self.kind}{self.rank})"
