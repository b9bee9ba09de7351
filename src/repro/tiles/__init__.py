"""Tile substrate: XYZ tile math, rasterisation, alignment, stitching."""
