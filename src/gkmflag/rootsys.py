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
its roots.  A ``WeylElement`` is a tuple: its one-line form
(eps_1*u(1), ..., eps_N*u(N)) (Bjorner & Brenti, Combinatorics of Coxeter
Groups, 2005, section 8.1), so it equals the plain tuple of that form,
and hashing, equality and ordering are tuple's own; its machine text is
comma-separated, e.g. "-2,1".  The public constructor
``WeylElement(perm, signs)`` checks that perm permutes 1..N and that there
is one sign +-1 per position.  Products and inverses rely on closure (the
product or inverse of signed permutations is a signed permutation) and
build their result without repeating those checks.

The group-theoretic layer (lengths, reduced words, Bruhat and weak
orders, minimal coset representatives and root subsets <Sigma>) is
computed combinatorially; lengths, reduced words and coset
representatives are cached on the RootSystem instance.  A reflection is
read off its root's support as a sign change or a signed transposition;
``coset_reps`` walks the minimal representatives of W(Sigma2)/W(Sigma1)
up from the identity, and ``coset_min`` steps down to the one of a given
coset and returns the word of its steps, so no group is enumerated that
is not asked for; ``closure`` finds
<Sigma> as the orbit of Sigma's simple roots; the Weyl action relabels
coordinates and monomials.  The module solves no linear system and does
not use ``linalg``.

The root data never changes after construction; the only state that
grows is the set of caches declared in ``RootSystem.__init__``, including
``coset_graph_cache`` (filled by ``parabolic.build_coset_graph``).
"""

from __future__ import annotations

import math

from .polyring import LinearForm, Polynomial, _normal_linear_form

__all__ = ["WeylElement", "RootSystem", "group_closure", "weyl_group_order"]

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


class WeylElement(tuple):
    """Signed permutation (u, eps) acting by x_k -> eps_k * x_{u(k)}, stored
    as its one-line form (eps_1*u(1), ..., eps_N*u(N)).

    The element is that tuple, so it equals and hashes like the plain
    tuple of its one-line form and orders by it; ``perm`` (u) and
    ``signs`` (eps) are read off it.  Tuple concatenation and repetition
    have no group meaning and raise TypeError.
    """

    __slots__ = ()
    __add__ = __rmul__ = None

    def __new__(cls, perm, signs=None):
        perm = tuple(perm)
        signs = tuple(signs) if signs is not None else (1,) * len(perm)
        if sorted(perm) != list(range(1, len(perm) + 1)):
            raise ValueError(f"not a permutation: {perm}")
        if len(signs) != len(perm) or any(s not in (1, -1) for s in signs):
            raise ValueError("signs must be +-1, one per position")
        return _new(cls, [s * u for u, s in zip(perm, signs)])

    def __getnewargs__(self):
        return self.perm, self.signs

    @classmethod
    def identity(cls, size: int) -> "WeylElement":
        return cls(range(1, size + 1))

    @property
    def perm(self) -> tuple:
        return tuple([abs(v) for v in self])

    @property
    def signs(self) -> tuple:
        return tuple([1 if v > 0 else -1 for v in self])

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        # (self*other) . x_k = self . (other . x_k)
        if len(self) != len(other):
            raise ValueError("size mismatch")
        return _new(WeylElement, [self[j - 1] if j > 0 else -self[-j - 1] for j in other])

    def inverse(self) -> "WeylElement":
        out = [0] * len(self)
        for k, v in enumerate(self, 1):
            if v > 0:
                out[v - 1] = k
            else:
                out[-v - 1] = -k
        return _new(WeylElement, out)

    def is_identity(self) -> bool:
        return all(v == k for k, v in enumerate(self, 1))

    def act_linear(self, form: LinearForm) -> LinearForm:
        """Relabel: the coefficient c_k of x_k moves to x_{u(k)} as eps_k*c_k."""
        if form.varcount != len(self):
            raise ValueError("varcount mismatch")
        out = [0] * len(self)
        for v, c in zip(self, form.coeffs):
            if v > 0:
                out[v - 1] = c
            else:
                out[-v - 1] = -c
        return _normal_linear_form(out)

    def act_poly(self, f: Polynomial) -> Polynomial:
        """Relabel each term: x^e goes to the monomial with exponent e_k on
        x_{u(k)}, negated when the exponents on the negated coordinates sum
        to an odd number.  Distinct terms go to distinct terms, so nothing
        cancels."""
        if f.varcount != len(self):
            raise ValueError("varcount mismatch")
        src = [0] * len(self)  # src[j] = u^-1(j+1) - 1
        for k, v in enumerate(self):
            src[abs(v) - 1] = k
        neg = [k for k, v in enumerate(self) if v < 0]
        terms = {}
        for e, c in f.terms.items():
            odd = sum([e[k] for k in neg]) % 2
            terms[tuple([e[k] for k in src])] = -c if odd else c
        return Polynomial(f.varcount, terms)

    def matrix(self):
        """The m x m matrix of the action on linear forms."""
        m = len(self)
        rows = [[0] * m for _ in range(m)]
        for k, v in enumerate(self):
            rows[abs(v) - 1][k] = 1 if v > 0 else -1
        return tuple(tuple(r) for r in rows)

    def one_line(self):
        return tuple(self)

    def one_line_str(self) -> str:
        """Machine form, e.g. "-2,1"."""
        return ",".join(map(str, self))

    @classmethod
    def from_one_line(cls, text: str) -> "WeylElement":
        vals = [int(v) for v in text.split(",")]
        return cls([abs(v) for v in vals], [1 if v > 0 else -1 for v in vals])

    def __repr__(self):
        return f"W[{self.one_line_str()}]"


# Builds a WeylElement from a one-line form known to be a signed
# permutation, without the constructor's checks: products and inverses of
# signed permutations are signed permutations.
_new = tuple.__new__


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
        # (coordinate (0-based), coefficient) of each simple root's support
        self._simple_support = tuple(
            tuple((k, c) for k, c in enumerate(a.coeffs) if c) for a in self.simple_roots
        )
        self._refl_cache: dict = {}
        self._len_cache: dict = {}
        self._word_cache: dict = {}
        self._parabolic_cache: dict = {}
        self.coset_graph_cache: dict = {}

    # ------------------------------------------------------------------
    # construction

    def _form(self, entries) -> LinearForm:
        v = [0] * self.varcount
        for i, c in entries:
            v[i - 1] += c
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

    # ------------------------------------------------------------------
    # roots and reflections

    def positive_part(self, form: LinearForm) -> LinearForm:
        if form in self._pos_set:
            return form
        if (-form) in self._pos_set:
            return -form
        raise ValueError(f"not a root: {form}")

    def reflection(self, beta: LinearForm) -> WeylElement:
        """The reflection s_beta for a root beta (either sign accepted).

        s_beta(x) = x - 2 (x, beta) / (beta, beta) beta, read off the
        root's support.  A classical root is c*x_i, and then s_beta negates
        x_i, or b_i*x_i + b_j*x_j with b_i, b_j = +-1, and then s_beta is
        the signed transposition x_i -> -b_i b_j x_j, x_j -> -b_i b_j x_i.
        """
        root = self.positive_part(beta)
        if root in self._refl_cache:
            return self._refl_cache[root]
        perm = list(range(1, self.varcount + 1))
        signs = [1] * self.varcount
        support = [k for k, c in enumerate(root.coeffs) if c != 0]
        if len(support) == 1:
            signs[support[0]] = -1
        else:
            i, j = support
            perm[i], perm[j] = j + 1, i + 1
            if root.coeffs[i] == root.coeffs[j]:
                signs[i] = signs[j] = -1
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
        while not cur.is_identity():  # s_i is a left descent iff cur^-1(alpha_i) < 0
            inv = cur.inverse()
            word.append(next(i for i in range(1, self.rank + 1) if self._sends_negative(inv, i)))
            cur = self.simple_reflection(word[-1]) * cur
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
        """Strong Bruhat order u <= v, by descent recursion: for a left
        descent s of v, u <= v iff min(u, su) <= sv."""
        lu, lv = self.length(u), self.length(v)
        if u == v:
            return True
        if lu >= lv:
            return False
        si = next(
            si for si in map(self.simple_reflection, range(1, self.rank + 1))
            if self.length(si * v) < lv
        )
        su = si * u
        return self.bruhat_leq(su if self.length(su) < lu else u, si * v)

    # ------------------------------------------------------------------
    # the group

    def group_order(self) -> int:
        return weyl_group_order(self.kind, self.rank)

    def sort_key(self, w: WeylElement):
        return (self.length(w), w)

    def elements(self):
        """The whole Weyl group in canonical (length, one-line) order;
        refused before any element is built when |W| exceeds 10!."""
        if self.group_order() > DEFAULT_GROUP_CAP:
            raise ValueError(
                f"group order {self.group_order()} exceeds enumeration cap {DEFAULT_GROUP_CAP}"
            )
        return self.parabolic_elements(self.full_sigma())

    def longest_element(self) -> WeylElement:
        return max(self.elements(), key=self.length)

    # ------------------------------------------------------------------
    # parabolic data

    def closure(self, sigma) -> tuple:
        """<Sigma>: the positive roots in the span of Sigma, in the order of
        ``positive_roots``.  They are also the positive roots beta with
        s_beta in W(Sigma) (Humphreys, Reflection Groups and Coxeter Groups,
        1990, section 1.10).

        They are found as the orbit of Sigma's simple roots under the s_i
        with i in Sigma, each image taken by its positive part.  The roots
        in the span of Sigma form a root system with simple system Sigma and
        Weyl group W(Sigma) (loc. cit.), and every root of a root system is
        conjugate under its Weyl group to a simple root (ibid., section
        1.5), so the orbit meets every such root or its negative.
        Conversely each s_i with i in Sigma maps roots to roots and the span
        of Sigma to itself, so the orbit holds nothing else.  No group is
        built.
        """
        sigma = frozenset(sigma)
        if not sigma <= set(range(1, self.rank + 1)):
            raise ValueError("Sigma must be a set of simple-root indices")
        orbit = set(group_closure(
            [self.simple_roots[i - 1] for i in sigma],
            [self.simple_reflection(i) for i in sigma],
            lambda beta, s: self.positive_part(s.act_linear(beta)),
        ))
        return tuple(beta for beta in self.positive_roots if beta in orbit)

    def _sends_negative(self, w: WeylElement, i: int) -> bool:
        """Whether w(alpha_i) is negative: whether its first nonzero
        coordinate is below 0, the sign rule of every positive root here.
        w moves coordinate k to |w[k]| with the sign of w[k], so that
        coordinate comes from the k of alpha_i's support with least |w[k]|;
        a support of two coordinates has coefficients +-1."""
        (k, a), *rest = self._simple_support[i - 1]
        x = a * w[k]
        if rest:
            (k, a), = rest
            if abs(w[k]) < abs(x):
                x = a * w[k]
        return x < 0

    def coset_min(self, w: WeylElement, sigma1):
        """(the minimal element of the coset w W(Sigma1), its word): step to
        w s_i while w(alpha_i) is negative for some i in Sigma1, and return
        the element reached with the word i1 ... im of the steps, so that
        it is w s_i1 ... s_im.

        For w in W each step shortens w by one, since l(w s_i) < l(w) iff
        w(alpha_i) < 0, and the loop ends at the one element of the coset
        with w(alpha_i) > 0 for every i in Sigma1, the minimal one
        (Bjorner & Brenti, Combinatorics of Coxeter Groups, 2005, section
        2.4).  Any signed permutation of the coordinates is accepted: each
        alpha_i is, up to a positive factor, a root of the type-B system on
        the same coordinates (positive roots x_k and x_k +- x_l, k < l),
        whose Weyl group is every signed permutation, so each step shortens
        w in that group and the loop ends.  An element outside W stays
        outside W.
        """
        if len(w) != self.varcount:
            raise ValueError("size mismatch")
        word = ()
        while True:
            for i in sigma1:
                if self._sends_negative(w, i):
                    w = w * self.simple_reflection(i)
                    word += (i,)
                    break
            else:
                return w, word

    def coset_reps(self, sigma1, sigma2):
        """The minimal representatives of the cosets w W(Sigma1), w in
        W(Sigma2), for Sigma1 within Sigma2, in canonical (length, one-line)
        order, so the identity comes first; cached.

        x in W(Sigma2) is the minimal element of its coset iff x(alpha_i)
        > 0 for every i in Sigma1, and each coset has exactly one (Bjorner &
        Brenti, section 2.4).  The walk goes up from the identity one length
        at a time.  The next layer is every s_j x, x in the layer, j in
        Sigma2 with x^-1(alpha_j) > 0 (so s_j x is one longer than x), that
        is minimal.  Sorting each layer by one-line form gives the canonical
        order with no length computed; the lengths are cached as they come.

        The walk misses nothing.  Let y be minimal and not the identity.  It
        lies in W(Sigma2), so it has a reduced word in Sigma2 (Humphreys,
        section 1.10) and a left descent s = s_j with j in Sigma2, and
        x = s y is one shorter.  x is minimal: were x t < x for some t = s_i
        with i in Sigma1, then l(s (y t)) = l(x t) = l(y) - 2, whereas y t
        is one longer than y, as y is minimal, and s changes the length of
        y t by one.  By induction on length, y = s_j x is reached from x.
        """
        key = (frozenset(sigma1), frozenset(sigma2))
        if key in self._parabolic_cache:
            return self._parabolic_cache[key]
        sigma1 = key[0]
        gens = [(j, self.simple_reflection(j)) for j in sorted(key[1])]
        reps, layer, length = [], [self.identity()], 0
        while layer:
            self._len_cache.update(dict.fromkeys(layer, length))
            reps += layer
            nxt = set()
            for x in layer:
                xinv = x.inverse()
                for j, s in gens:
                    if not self._sends_negative(xinv, j):
                        y = s * x
                        if not any(self._sends_negative(y, i) for i in sigma1):
                            nxt.add(y)
            layer = sorted(nxt)
            length += 1
        self._parabolic_cache[key] = reps
        return reps

    def parabolic_elements(self, sigma):
        """W(Sigma) in canonical order: the representatives of W(Sigma)/1."""
        return self.coset_reps(frozenset(), sigma)

    def full_sigma(self) -> frozenset:
        return frozenset(range(1, self.rank + 1))

    def word_str(self, w: WeylElement) -> str:
        word = self.reduced_word(w)
        return "id" if not word else "".join(f"s{i}" for i in word)

    def __repr__(self):
        return f"RootSystem({self.kind}{self.rank})"
