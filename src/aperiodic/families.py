"""Distributions, structure trees, and the four extremal DFA families.

A distribution (n_1,...,n_m) splits Q into consecutive blocks; a structure
tree is a full binary tree whose leaves carry the block sizes left to right.
The families are built from four kinds of generators:

  Type 1  within each block, both unitary moves between adjacent states
  Type 2  every unitary move from a state to a state in a later block
  Type 3  per internal tree node w, the semiconstant (Q(w) -> min Q(w))
  Type 4  the identity

u = Types 1+2, ui = u + identity, sct = Types 1+2+3, scti = sct + identity.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import compress, product
from operator import sub

from .automata import Dfa
from .transforms import Transformation, identity, semiconstant, unitary

FAMILY_KINDS = ("u", "ui", "sct", "scti")


@dataclass(frozen=True)
class Distribution:
    """An ordered composition (n_1,...,n_m) of n, all parts >= 1."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("a distribution needs at least one part")
        if any(p < 1 for p in self.parts):
            raise ValueError("all parts must be positive")

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def m(self) -> int:
        return len(self.parts)

    def offsets(self) -> tuple[int, ...]:
        """r_i = number of states before block i (length m + 1)."""
        offs = [0]
        for p in self.parts:
            offs.append(offs[-1] + p)
        return tuple(offs)

    def blocks(self) -> tuple[range, ...]:
        offs = self.offsets()
        return tuple(range(offs[i], offs[i + 1]) for i in range(self.m))

    def has_adjacent_singletons(self) -> bool:
        return any(
            self.parts[i] == 1 and self.parts[i + 1] == 1
            for i in range(self.m - 1)
        )

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


def parse_distribution(text: str) -> Distribution:
    """Parse "(n1,n2,...,nm)"; the parentheses are optional, every part is digits."""
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    items = [s.strip() for s in body.split(",")]
    if not all(s.isdecimal() for s in items):
        raise ValueError(f"bad distribution {text!r}")
    return Distribution(tuple(map(int, items)))


@dataclass(frozen=True)
class StructureTree:
    """A full binary tree over the blocks: either a leaf size or two subtrees."""

    leaf: int | None = None
    left: "StructureTree | None" = None
    right: "StructureTree | None" = None

    def __post_init__(self):
        if self.leaf is not None:
            if self.left is not None or self.right is not None:
                raise ValueError("a leaf has no children")
            if self.leaf < 1:
                raise ValueError("leaf size must be positive")
        elif self.left is None or self.right is None:
            raise ValueError("an internal node needs both children")

    @property
    def is_leaf(self) -> bool:
        return self.leaf is not None

    @property
    def n(self) -> int:
        if self.is_leaf:
            return self.leaf
        return self.left.n + self.right.n

    def parts(self) -> tuple[int, ...]:
        """Leaf sizes left to right: the underlying distribution."""
        if self.is_leaf:
            return (self.leaf,)
        return self.left.parts() + self.right.parts()

    def distribution(self) -> Distribution:
        return Distribution(self.parts())

    def internal_spans(self) -> tuple[tuple[int, int], ...]:
        """(start, end) state span per internal node, preorder (root first)."""
        spans = []

        def walk(t, lo):
            if t.is_leaf:
                return t.leaf
            hole = len(spans)
            spans.append(None)
            ls = walk(t.left, lo)
            rs = walk(t.right, lo + ls)
            spans[hole] = (lo, lo + ls + rs)
            return ls + rs

        walk(self, 0)
        return tuple(spans)

    def __str__(self) -> str:
        if self.is_leaf:
            return str(self.leaf)
        return f"({self.left},{self.right})"


def leaf(size: int) -> StructureTree:
    return StructureTree(leaf=size)


def node(left: StructureTree, right: StructureTree) -> StructureTree:
    return StructureTree(left=left, right=right)


# Deepest bracket nesting parse_structure accepts.  The parser keeps one list
# entry per open bracket, but the tree methods and the size recursion descend
# one to three Python frames per level, so this keeps every consumer of a
# parsed tree far below the interpreter's recursion limit; the witness of
# every maximal tree up to n = 500 is 10 levels deep.
MAX_STRUCTURE_DEPTH = 200


def _parse_error(pos: int, msg: str) -> ValueError:
    return ValueError(f"structure parse error at position {pos}: {msg}")


def parse_structure(text: str) -> StructureTree:
    """Parse the binary expression form, e.g. "((3,2),(4,1))" or "5".

    Grammar: expr := INT | "(" expr "," expr ")" with INT >= 1; whitespace is
    ignored; anything left over after one expression is an error, and so is
    nesting deeper than MAX_STRUCTURE_DEPTH.  Errors report the character
    position.  One pass over the tokens: ``opened`` holds, per open bracket,
    None until its ',' is read and then its left subtree; ``tree`` is the
    expression just finished, None while one is expected.
    """
    opened: list[StructureTree | None] = []
    tree = None
    for token in re.finditer(r"\d+|\S", text):
        word = token.group()
        if tree is not None:
            if not opened:
                raise _parse_error(token.start(), "trailing input")
            want = "," if opened[-1] is None else ")"
            if word != want:
                raise _parse_error(token.start(), f"expected {want!r}")
            if word == ",":
                opened[-1], tree = tree, None
            else:
                tree = node(opened.pop(), tree)
        elif word == "(":
            if len(opened) == MAX_STRUCTURE_DEPTH:
                raise _parse_error(
                    token.start(), f"brackets nested deeper than {MAX_STRUCTURE_DEPTH} levels")
            opened.append(None)
        elif word.isdecimal():
            size = int(word)
            if size < 1:
                raise _parse_error(token.end(), "leaf size must be positive")
            tree = leaf(size)
        else:
            raise _parse_error(token.start(), f"unexpected character {word!r}")
    if tree is None:
        raise _parse_error(len(text), "unexpected end of input")
    if opened:
        want = "," if opened[-1] is None else ")"
        raise _parse_error(len(text), f"expected {want!r}")
    return tree


def type1_generators(dist: Distribution) -> list[Transformation]:
    """Both unitary moves between adjacent states inside each block."""
    n = dist.n
    gens = []
    for block in dist.blocks():
        for q in block[:-1]:
            gens.append(unitary(n, q, q + 1))
            gens.append(unitary(n, q + 1, q))
    return gens


def type2_generators(dist: Distribution) -> list[Transformation]:
    """Every unitary (q -> p) with q in an earlier block than p."""
    n = dist.n
    offs = dist.offsets()
    gens = []
    for i in range(dist.m):
        for q in range(offs[i], offs[i + 1]):
            for p in range(offs[i + 1], n):
                gens.append(unitary(n, q, p))
    return gens


def type3_generators(tree: StructureTree) -> list[Transformation]:
    """One semiconstant (Q(w) -> min Q(w)) per internal node, preorder."""
    n = tree.n
    return [
        semiconstant(n, range(lo, hi), lo)
        for lo, hi in tree.internal_spans()
    ]


def family_generators(kind: str, spec) -> list[tuple[str, Transformation]]:
    """Labelled generators for a family, without the Def-2 construction gate.

    Letter naming: "a_{p,q}" for the unitary (p -> q), "c_{i}" for the Type 3
    generator of the i-th internal node in preorder, "e" for the identity.
    """
    if kind not in FAMILY_KINDS:
        raise ValueError(f"unknown family kind {kind!r}")
    if kind in ("u", "ui"):
        if not isinstance(spec, Distribution):
            raise ValueError("u/ui families take a distribution")
        dist, tree = spec, None
    else:
        if not isinstance(spec, StructureTree):
            raise ValueError("sct/scti families take a structure tree")
        dist, tree = spec.distribution(), spec

    letters: list[tuple[str, Transformation]] = []
    for t in type1_generators(dist) + type2_generators(dist):
        p = next(q for q, img in enumerate(t.images) if img != q)
        letters.append((f"a_{{{p},{t.images[p]}}}", t))
    if tree is not None:
        for i, t in enumerate(type3_generators(tree)):
            letters.append((f"c_{{{i}}}", t))
    if kind in ("ui", "scti"):
        letters.append(("e", identity(dist.n)))
    return letters


def check_family(kind: str, spec) -> None:
    """Refuse the specs ``build_family`` cannot build.

    u/ui reject distributions with two adjacent singleton blocks (the DFA
    would not be complete); u/sct need n >= 2 or they would have an empty
    alphabet.  ui/scti allow n = 1 (the identity-only DFA).
    """
    if kind in ("u", "ui") and spec.has_adjacent_singletons():
        raise ValueError(
            f"{spec} has two adjacent singleton blocks; merge them into a "
            "2-block instead (the unitary family is not complete otherwise)"
        )
    if kind in ("u", "sct") and spec.n < 2:
        raise ValueError(f"family {kind}{spec} has no generators; need n >= 2")


def build_family(kind: str, spec) -> Dfa:
    """Construct D_u, D_ui, D_sct or D_scti with initial 0 and final n-1."""
    letters = family_generators(kind, spec)
    check_family(kind, spec)
    n = spec.n
    return Dfa(
        n=n,
        alphabet=tuple(lbl for lbl, _ in letters),
        delta=tuple(t for _, t in letters),
        initial=0,
        finals=frozenset({n - 1}),
    )


def enumerate_distributions(n: int):
    """Yield all distributions of n in lexicographic part order.

    Each distribution is n - 1 flags, "a block ends after state q"; True
    comes first, so (1,...,1) comes first and (n) last.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    for ends in product((True, False), repeat=n - 1):
        cuts = (0, *compress(range(1, n), ends), n)
        yield Distribution(tuple(map(sub, cuts[1:], cuts)))


def count_structures(n: int) -> int:
    """Number of structure trees of n: s(m) = 1 + sum s(a) s(m-a), bottom up.

    Cross-checked in tests against the binomial transform of the Catalan
    numbers, sum over k of C(n-1,k) Cat(k) (OEIS A007317).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    s = [0, 1]
    for m in range(2, n + 1):
        s.append(1 + sum(s[a] * s[m - a] for a in range(1, m)))
    return s[n]


def enumerate_structures(n: int):
    """Yield all structure trees of n: the leaf first, then splits by left size."""
    if n < 1:
        raise ValueError("n must be at least 1")
    yield leaf(n)
    for a in range(1, n):
        for left_tree in enumerate_structures(a):
            for right_tree in enumerate_structures(n - a):
                yield node(left_tree, right_tree)
