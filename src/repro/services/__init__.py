"""Federated client-side location-based services (Section 5.2 of the paper)."""
