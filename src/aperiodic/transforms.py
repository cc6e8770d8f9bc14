"""Exact algebra of transformations of Q = {0..n-1}.

A transformation is stored as its image array: ``images[q]`` is the image of
state ``q``.  Values are immutable and hashable, so they can live in sets and
serve as dictionary keys during semigroup closure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import Iterable


@dataclass(frozen=True)
class Transformation:
    """A total map of {0..n-1} into itself, written as ``[p0,p1,...]``."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if n == 0:
            raise ValueError("a transformation needs at least one state")
        for q, p in enumerate(self.images):
            if not 0 <= p < n:
                raise ValueError(f"image of state {q} is {p}, outside [0, {n - 1}]")

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, q: int) -> int:
        return self.images[q]

    def __mul__(self, other: "Transformation") -> "Transformation":
        """``t1 * t2`` applies t1 first: q(t1 t2) = (q t1) t2."""
        return compose(self, other)

    def __str__(self) -> str:
        return "[" + ",".join(str(p) for p in self.images) + "]"

    @classmethod
    def from_text(cls, text: str) -> "Transformation":
        """Parse the ``[p0,p1,...]`` form (whitespace tolerated)."""
        body = text.strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise ValueError(f"transformation must be bracketed: {text!r}")
        items = [s.strip() for s in body[1:-1].split(",")]
        if items == [""]:
            raise ValueError("empty transformation")
        try:
            images = tuple(int(s) for s in items)
        except ValueError:
            raise ValueError(f"non-integer image in {text!r}") from None
        return cls(images)


def identity(n: int) -> Transformation:
    """The identity transformation on n states."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return Transformation(tuple(range(n)))


def compose(t1: Transformation, t2: Transformation) -> Transformation:
    """Left-to-right composition: result maps q to t2(t1(q))."""
    if t1.n != t2.n:
        raise ValueError(f"cannot compose transformations on {t1.n} and {t2.n} states")
    im2 = t2.images
    return Transformation(tuple(im2[p] for p in t1.images))


def unitary(n: int, p: int, q: int) -> Transformation:
    """The unitary transformation (p -> q): moves p to q, fixes the rest."""
    if p == q:
        raise ValueError("a unitary transformation must move its state (p != q)")
    if not (0 <= p < n and 0 <= q < n):
        raise ValueError(f"states {p}, {q} must lie in [0, {n - 1}]")
    images = list(range(n))
    images[p] = q
    return Transformation(tuple(images))


def semiconstant(n: int, moved: Iterable[int], q: int) -> Transformation:
    """The semiconstant transformation (P -> q): all of P to q, rest fixed.

    Constant when P is the whole state set; coincides with the unitary
    (p -> q) when P = {p} or {p, q}.
    """
    pset = set(moved)
    if not pset:
        raise ValueError("P must be non-empty")
    if not 0 <= q < n:
        raise ValueError(f"target {q} must lie in [0, {n - 1}]")
    images = list(range(n))
    for p in pset:
        if not 0 <= p < n:
            raise ValueError(f"state {p} must lie in [0, {n - 1}]")
        images[p] = q
    return Transformation(tuple(images))


def constant(n: int, q: int) -> Transformation:
    """The constant transformation (Q -> q)."""
    return semiconstant(n, range(n), q)


def has_cycle_images(images) -> bool:
    """Cycle test on a raw image sequence (tuple or bytes).

    True iff some subset of size >= 2 is permuted cyclically, i.e. the
    functional graph has a cycle that is not a fixed point.
    """
    n = len(images)
    # 0 = unvisited, 1 = on current path, 2 = done
    color = [0] * n
    for start in range(n):
        if color[start]:
            continue
        path = []
        q = start
        while color[q] == 0:
            color[q] = 1
            path.append(q)
            q = images[q]
        if color[q] == 1 and images[q] != q:
            return True
        for r in path:
            color[r] = 2
    return False


_IDENTITY = bytes(range(256))


def translation_table(images: bytes) -> bytes:
    """Extend an image array to a 256-byte ``bytes.translate`` table.

    The tail past the array is the identity, so ``p.translate(table)``
    composes p with the array (p first) and adds only fixed points.
    """
    return images + _IDENTITY[len(images):]


@lru_cache(maxsize=None)
def _lane_offsets(n: int) -> tuple[int, int]:
    """The lane count 256 // n and the integer whose byte i is (i // n) * n."""
    lanes = 256 // n
    return lanes, int.from_bytes(bytes(j * n for j in range(lanes) for _ in range(n)), "little")


def any_cycle_images(arrays, n: int) -> bool:
    """True iff some image array in ``arrays`` (``bytes`` of length n) has a cycle.

    Exact power test on up to 256 // n arrays per step.  Array j of a batch
    is shifted into its own lane of states [j*n, (j+1)*n) of one 256-byte
    translation table t, and the unused tail is the identity, which adds
    only fixed points.  The shift is one integer add over the joined batch:
    every byte of lane j gains j*n and stays below (j+1)*n <= 256, so no
    byte carries into the next.  Squaring t (n-1).bit_length() times gives
    p = t^m with m >= n - 1 in every lane at once.  A cycle-free map has
    t^m = t^(m+1) from m = n - 1 on and a map with a cycle never does, so
    the batch is cycle-free iff p*t == p.
    """
    if not 1 <= n <= 256:
        raise ValueError("the packed cycle test needs 1 <= n <= 256")
    lanes, offsets = _lane_offsets(n)
    full = lanes * n
    squarings = (n - 1).bit_length()
    arrays = iter(arrays)
    while True:
        packed = b"".join(islice(arrays, lanes))
        size = len(packed)
        if not size:
            return False
        shift = offsets if size == full else offsets & ((1 << 8 * size) - 1)
        t = translation_table((int.from_bytes(packed, "little") + shift).to_bytes(size, "little"))
        p = t
        for _ in range(squarings):
            p = p.translate(p)
        if p.translate(t) != p:
            return True


def has_cycle(t: Transformation) -> bool:
    """True iff t permutes some subset of size >= 2 cyclically.

    A depth-first walk of t's functional graph (``has_cycle_images``) that
    looks for a cycle other than a fixed point.
    """
    return has_cycle_images(t.images)
