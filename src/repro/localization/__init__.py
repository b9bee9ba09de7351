"""Localization substrate: cues, fingerprint matching, dead reckoning, fusion."""
