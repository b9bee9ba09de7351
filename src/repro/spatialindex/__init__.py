"""Hierarchical spatial indexing (S2-like cells, region coverings, quadtree)."""
