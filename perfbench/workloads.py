"""Seeded op lists for the benchmark workloads.

The parameters live in ``workloads.json`` next to this file.  A product
workload is its fixed anchor products plus seeded products made stratum by
stratum.  A stratum fixes the number of factors and a band of entry counts;
its shapes are every multiset of (field, n) factors that the independent
brute-force oracle puts inside the band, cheapest first.  The stratum's
products take the shapes by systematic sampling from a seeded start, so
each shape is used equally often (to one) when there are more products
than shapes, and each cost band once when there are fewer.  Which shapes a
run gets, and so the work per op, then barely moves with the seed, and
medians and tails compare between runs; the seed picks where the sampling
starts, every curvature and the factor order.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
PARAMS_PATH = os.path.join(HERE, "workloads.json")


def load_params() -> dict:
    with open(PARAMS_PATH) as fh:
        return json.load(fh)


def _curv_str(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def render(factors) -> str:
    return " x ".join(f"{f}H{n}({_curv_str(c)})" for f, n, c in factors)


def parse(product: str) -> list[tuple[str, int, Fraction]]:
    """Oracle triples of a product string written in normalized form."""
    out = []
    for token in product.split(" x "):
        field, rest = token[0], token[2:]
        n, curv = rest.rstrip(")").split("(")
        out.append((field, int(n), Fraction(curv)))
    return out


class _Counter:
    """Oracle entry counts, memoized on the (field, n) multiset they depend on."""

    def __init__(self, brute_force_count):
        self._count = brute_force_count
        self._memo: dict[tuple, int] = {}

    def __call__(self, factors) -> int:
        """Entries of a product given as (field, n, ...) tuples."""
        key = tuple(sorted((f, n) for f, n, *_ in factors))
        if key not in self._memo:
            self._memo[key] = self._count([(f, n, Fraction(1)) for f, n in key])
        return self._memo[key]


def _shapes(p: dict, stratum: dict, count) -> list[tuple]:
    """The stratum's (field, n) multisets with entry counts in its band, cheapest first."""
    kinds = [(f, n) for f in p["fields"]
             for n in ([2] if f == "O" else range(p["n"][0], p["n"][1] + 1))]
    lo, hi = stratum["entries"]
    shapes = [shape for k in stratum["factors"]
              for shape in itertools.combinations_with_replacement(kinds, k)
              if lo <= count(shape) <= hi]
    if not shapes:
        raise RuntimeError(f"no product in band {lo}..{hi}")
    return sorted(shapes, key=lambda shape: (count(shape), shape))


def _curvature(rng: random.Random, p: dict) -> Fraction:
    lo, hi = p["curvature_terms"]
    return Fraction(rng.randint(lo, hi), rng.randint(lo, hi))


def product_ops(name: str, p: dict, seed: int, count) -> list[dict]:
    """Anchors first, then each stratum's seeded products."""
    rng = random.Random(f"{name}:{seed}")
    ops = [{"product": a, "entries": count(parse(a))} for a in p["anchors"]]
    for stratum in p["strata"]:
        shapes = _shapes(p, stratum, count)
        n_products = stratum["products"]
        start = rng.random()
        for j in range(n_products):
            shape = shapes[int((start + j) * len(shapes) / n_products)]
            factors = [(f, n, _curvature(rng, p)) for f, n in shape]
            rng.shuffle(factors)
            ops.append({"product": render(factors), "entries": count(shape)})
    return ops


def angle_ops(p: dict, seed: int) -> list[dict]:
    """Realize ops, then approximate ops per target band.

    A realize slot fixes the denominator b, the dimension m and the parity
    of b - a, which together fix the diagonal count k (b when b - a is even,
    2b otherwise) and so the op's size.  The slot's repeats take numerators
    a (coprime to b, so a/b is in lowest terms) by systematic sampling from
    a seeded start over the sorted candidates, so every run gets low and
    high numerators alike; a sets the number s of unconjugated copies.
    """
    rng = random.Random(f"angles:{seed}")
    r = p["realize"]
    lo, hi = r["denominators"]
    repeats = r["repeats"]
    picks = {}
    for m in range(r["m"][0], r["m"][1] + 1):
        for b in range(lo, hi + 1):
            for parity in (0, 1):
                numerators = [a for a in range(b + 1)
                              if math.gcd(a, b) == 1 and (b - a) % 2 == parity]
                if numerators:
                    start = rng.random()
                    picks[m, b, parity] = [numerators[int((start + j) * len(numerators) / repeats)]
                                           for j in range(repeats)]
    ops = []
    for j in range(repeats):
        for (m, b, _), numerators in picks.items():
            ops.append({"kind": "realize", "a": numerators[j], "b": b, "m": m,
                        "samples": r["samples"], "rng": rng.randrange(2**32)})
    ap = p["approximate"]
    for lo, hi in ap["bands"]:
        for _ in range(ap["per_band"]):
            ops.append({"kind": "approximate", "target": rng.uniform(lo, hi),
                        "epsilon": ap["epsilon"], "m": rng.randint(*ap["m"])})
    return ops


def generate(name: str, seed: int, repo: str) -> dict:
    """The workload spec handed to the measuring child."""
    params = load_params()
    if name not in params:
        raise KeyError(name)
    p = params[name]
    spec = {"workload": name, "seed": seed, "passes": p["passes"], "setup": p["setup"],
            "hits": p["hits"], "anchors": len(p.get("anchors", []))}
    if name == "angles":
        spec["ops"] = angle_ops(p, seed)
        return spec
    sys.path.insert(0, os.path.join(repo, "tests"))
    from oracles import brute_force_count

    spec["command"] = p["command"]
    spec["ops"] = product_ops(name, p, seed, _Counter(brute_force_count))
    return spec
