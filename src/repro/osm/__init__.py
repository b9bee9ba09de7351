"""OpenStreetMap-style map data model (nodes, ways, relations, tags)."""
