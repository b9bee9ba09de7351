"""Map server discovery over the DNS (Section 5.1 of the paper)."""

from repro.discovery.discoverer import Discoverer

__all__ = ["Discoverer"]
