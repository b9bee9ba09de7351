"""Routing substrate: graphs, shortest paths, contraction hierarchies, stitching."""
