"""Deterministic construction of named shapes and seeded random objects.

Random generation is frozen to one documented algorithm so fixtures stay
byte-identical across runs and platforms: CPython's ``random.Random`` (the
Mersenne Twister), seeded with the spec's integer seed, drawing one
``random()`` per lattice site in lexicographic site order. CPython guarantees
that sequence for a given integer seed across versions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from math import prod
from typing import Iterator

from .objects import DigitalObject

SHAPE_KINDS = (
    "single",
    "box",
    "diagonal_pair",
    "l_block",
    "facet_block",
    "checkerboard",
    "random",
)

#: kinds that require extents
_EXTENT_KINDS = ("box", "checkerboard", "random")

#: enumerate_all_objects refuses boxes with more sites than this
MAX_ENUM_VOLUME = 20

RNG_ALGORITHM = "cpython-random-mt19937"


@dataclass(frozen=True)
class ShapeSpec:
    """A validated recipe for one deterministic object."""

    kind: str
    n: int
    extents: tuple[int, ...] | None = None
    density: float | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in SHAPE_KINDS:
            raise ValueError(
                f"unknown shape kind {self.kind!r}; choose from {SHAPE_KINDS}"
            )
        if self.n < 1:
            raise ValueError(f"ambient dimension must be >= 1, got {self.n}")
        if self.kind in ("diagonal_pair", "l_block") and self.n < 2:
            raise ValueError(f"{self.kind} needs n >= 2, got n={self.n}")
        if self.kind in _EXTENT_KINDS:
            if self.extents is None:
                raise ValueError(f"{self.kind} needs extents")
            object.__setattr__(self, "extents", tuple(self.extents))
            if len(self.extents) != self.n:
                raise ValueError(f"extents length must equal n, got {self.extents} for n={self.n}")
            if any(e < 1 for e in self.extents):
                raise ValueError(f"extents must be positive, got {self.extents}")
        elif self.extents is not None:
            raise ValueError(f"{self.kind} takes no extents")
        if self.kind == "random":
            if self.density is None or not 0 <= self.density <= 1:
                raise ValueError(f"random shape needs density in [0, 1], got {self.density!r}")
            if self.seed is None or not 0 <= self.seed < 1 << 64:
                raise ValueError(f"random shape needs a 64-bit unsigned seed, got {self.seed!r}")
        elif self.density is not None:
            raise ValueError(f"{self.kind} takes no density")
        elif self.seed is not None:
            raise ValueError(f"{self.kind} takes no seed")
        ints = (self.n, self.seed, *(self.extents or ()))
        if isinstance(self.density, bool) or any(x is not None and type(x) is not int for x in ints):
            raise TypeError(f"n, extents and seed must be integers, and no field a bool: {self!r}")


def _axis_unit(n: int, axis: int) -> tuple[int, ...]:
    return tuple(1 if k == axis else 0 for k in range(n))


def generate(spec: ShapeSpec) -> DigitalObject:
    """The object a spec denotes; identical specs give identical objects."""
    n = spec.n
    origin = (0,) * n
    if spec.kind == "single":
        centers = [origin]
    elif spec.kind == "facet_block":
        centers = [origin, _axis_unit(n, 0)]
    elif spec.kind == "diagonal_pair":
        centers = [origin, tuple(1 if k < 2 else 0 for k in range(n))]
    elif spec.kind == "l_block":
        centers = [origin, _axis_unit(n, 0), _axis_unit(n, 1)]
    elif spec.kind == "box":
        centers = list(product(*(range(e) for e in spec.extents)))
    elif spec.kind == "checkerboard":
        centers = [
            c
            for c in product(*(range(e) for e in spec.extents))
            if sum(c) % 2 == 0
        ]
    else:  # random
        rng = random.Random(spec.seed)
        centers = [
            c
            for c in product(*(range(e) for e in spec.extents))
            if rng.random() < spec.density
        ]
    return DigitalObject.from_centers(n, centers)


def enumerate_all_objects(
    n: int, extents: tuple[int, ...] | list[int]
) -> Iterator[DigitalObject]:
    """Every subset of the extent box exactly once, the empty object first.

    Deterministic order: subsets are bitmasks counted upward, bit k keyed to
    the k-th site in lexicographic order.
    """
    ext = tuple(extents)
    if len(ext) != n or any(e < 1 for e in ext):
        raise ValueError("extents must be n positive integers")
    volume = prod(ext)
    if volume > MAX_ENUM_VOLUME:
        raise ValueError(
            f"box volume {volume} exceeds the enumeration cap {MAX_ENUM_VOLUME}"
        )
    sites = list(product(*(range(e) for e in ext)))
    for mask in range(1 << volume):
        centers = [site for k, site in enumerate(sites) if mask >> k & 1]
        yield DigitalObject.from_centers(n, centers)


def describe(spec: ShapeSpec) -> str:
    """One-line provenance string recorded in generated files."""
    parts = [f"shape={spec.kind}", f"n={spec.n}"]
    if spec.extents is not None:
        parts.append("extents=" + ",".join(str(e) for e in spec.extents))
    if spec.density is not None:
        parts.append(f"density={spec.density!r}")
    if spec.seed is not None:
        parts.append(f"seed={spec.seed}")
        parts.append(f"rng={RNG_ALGORITHM}")
    return " ".join(parts)
