"""The centralized mapping baseline (Figure 1 of the paper)."""
