"""Deterministic product catalogues for indoor store maps.

The grocery-store scenario (Section 2) revolves around finding a product —
"a particular flavor of seaweed" — on a specific shelf.  The catalogue
generator produces a reproducible inventory with categories, product names
and per-product keywords that the search services index.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

_CATEGORIES: dict[str, list[str]] = {
    "snacks": ["seaweed", "crackers", "trail mix", "rice cakes", "popcorn", "granola bars"],
    "produce": ["apples", "bananas", "spinach", "carrots", "avocado", "ginger"],
    "dairy": ["milk", "yogurt", "butter", "cheddar", "oat milk", "cream"],
    "bakery": ["sourdough", "bagels", "croissant", "baguette", "muffins", "rye bread"],
    "pantry": ["olive oil", "soy sauce", "pasta", "black beans", "rice", "miso paste"],
    "frozen": ["dumplings", "ice cream", "frozen peas", "pizza", "edamame", "berries"],
    "household": ["detergent", "paper towels", "sponges", "trash bags", "soap", "batteries"],
    "beverages": ["green tea", "coffee beans", "sparkling water", "orange juice", "kombucha", "cola"],
}

_VARIANTS = ["classic", "organic", "spicy", "family size", "low sodium", "premium", "wasabi", "original"]


@dataclass(frozen=True, slots=True)
class Product:
    """One stocked product."""

    sku: str
    name: str
    category: str
    keywords: tuple[str, ...]


def category_names() -> list[str]:
    """All product categories, in a stable order (used to name aisles)."""
    return list(_CATEGORIES)


def generate_catalog(product_count: int, seed: int = 0) -> list[Product]:
    """Generate ``product_count`` products spread over the categories.

    The catalogue is deterministic in ``seed`` and always contains at least
    one seaweed product so the paper's walkthrough query has a guaranteed
    answer.
    """
    if product_count < 1:
        raise ValueError("product_count must be >= 1")
    rng = random.Random(seed)
    products: list[Product] = []
    categories = category_names()

    # Guarantee the walkthrough product from Section 2.
    products.append(
        Product(
            sku="SKU-0000",
            name="wasabi seaweed snack",
            category="snacks",
            keywords=("seaweed", "wasabi", "snack", "nori"),
        )
    )

    index = 1
    while len(products) < product_count:
        category = categories[index % len(categories)]
        base = _CATEGORIES[category][index % len(_CATEGORIES[category])]
        variant = _VARIANTS[rng.randrange(len(_VARIANTS))]
        name = f"{variant} {base}"
        products.append(
            Product(
                sku=f"SKU-{index:04d}",
                name=name,
                category=category,
                keywords=tuple(sorted({base, variant.split()[0], category})),
            )
        )
        index += 1
    return products
