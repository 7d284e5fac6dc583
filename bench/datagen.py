"""Seeded input generator shared by every workload.

All rows follow the README's Product/Sales pair. Every stream is derived
from the run seed plus a label, so the same seed gives the same rows,
NULL qty values included, whatever order the streams are drawn in.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

YEARS = tuple(range(2010, 2015))
CATEGORIES = ("apparel", "kitchen", "garden", "toys", "books", "music", "sport", "tools")
NULL_QTY_RATE = 0.05


class Generator:
    """Deterministic rows and parameters for one run seed."""

    def __init__(self, seed: int):
        self.seed = seed

    def rng(self, label: str) -> random.Random:
        return random.Random(f"fvss-bench|{self.seed}|{label}")

    def scheme_seed(self) -> bytes:
        """32-byte master seed for the key material."""
        return hashlib.sha256(f"fvss-bench-keys|{self.seed}".encode()).digest()

    def products(self, n: int) -> list[dict]:
        r = self.rng("products")
        return [
            {"ProdNo": pk, "pname": f"item{pk:03d}", "category": r.choice(CATEGORIES)}
            for pk in range(1, n + 1)
        ]

    @staticmethod
    def _sale_values(r: random.Random) -> dict:
        return {
            "price": Fraction(r.randint(100, 99999), 100),
            "qty": None if r.random() < NULL_QTY_RATE else r.randint(1, 20),
        }

    def sales(self, label: str, first_pk: int, n: int, n_products: int) -> list[dict]:
        r = self.rng(f"sales|{label}")
        return [
            {
                "SaleNo": pk,
                "ProdNo": r.randint(1, n_products),
                "yearid": r.choice(YEARS),
                "monthid": r.randint(1, 12),
                **self._sale_values(r),
            }
            for pk in range(first_pk, first_pk + n)
        ]

    def updates(self, label: str, rows: list[dict], n: int) -> list[dict]:
        """n in-place re-shares of existing keys: new price and qty, same
        product and date, so the record keeps its dimension keys."""
        r = self.rng(f"updates|{label}")
        out = []
        for _ in range(n):
            row = dict(r.choice(rows))
            row.update(self._sale_values(r))
            out.append(row)
        return out
