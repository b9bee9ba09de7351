"""Per-client RNG stream derivation audit.

The engine derives four RNG streams per device from one run seed: the
base (mobility/traffic) stream at ``seed + stride·(index+1)`` and the
selection/jitter/backoff streams as the base XOR a small salt.  A collision
between any two streams of any two devices would silently correlate
"independent" devices, which at 100k–1M clients is a statistics bug, not
a curiosity.  These tests pin the invariants the collision-freedom
argument in :func:`repro.workload.config.derived_seed_streams` rests on
and brute-force distinctness over representative index ranges.
"""

from __future__ import annotations

from repro.workload.config import (
    _BACKOFF_SEED_SALT,
    _CLIENT_SEED_STRIDE,
    _JITTER_SEED_SALT,
    _OPERATOR_SEED_SALT,
    _SELECTION_SEED_SALT,
    client_base_seed,
    derived_seed_streams,
    operator_seed,
)


class TestSeedDerivationInvariants:
    def test_salts_are_below_the_stride(self):
        """The whole no-cross-family-collision argument: two integers whose
        XOR is under 2^16 differ by under 2^16, and the stride keeps any
        two devices' base seeds at least that far apart."""
        assert 0 < _SELECTION_SEED_SALT < 2**16 < _CLIENT_SEED_STRIDE
        assert 0 < _JITTER_SEED_SALT < 2**16 < _CLIENT_SEED_STRIDE
        assert 0 < _BACKOFF_SEED_SALT < 2**16 < _CLIENT_SEED_STRIDE
        assert 0 < _OPERATOR_SEED_SALT < 2**16 < _CLIENT_SEED_STRIDE
        salts = (
            _SELECTION_SEED_SALT,
            _JITTER_SEED_SALT,
            _BACKOFF_SEED_SALT,
            _OPERATOR_SEED_SALT,
        )
        assert len(set(salts)) == len(salts)

    def test_base_seed_arithmetic_is_the_engine_stride(self):
        assert client_base_seed(7, 0) == 7 + _CLIENT_SEED_STRIDE
        assert client_base_seed(7, 41) - client_base_seed(7, 40) == _CLIENT_SEED_STRIDE

    def test_streams_within_one_device_are_distinct(self):
        for index in (0, 1, 2, 999, 123_456):
            streams = derived_seed_streams(0, index)
            assert len(set(streams.values())) == 4

    def test_run_seed_never_collides_with_device_streams(self):
        """The POI-shuffle RNG uses the bare run seed; it must not equal any
        device stream (it is device "-1" under the stride argument)."""
        for seed in (0, 7, 33):
            for index in range(2000):
                assert seed not in derived_seed_streams(seed, index).values()

    def test_operator_stream_collides_with_nothing(self):
        """The operator console's control-hop stream is the bare run seed
        XOR its own salt — like the POI shuffle, a "device −1" stream, so
        it must avoid the bare seed and every device stream."""
        for seed in (0, 7, 33):
            derived = operator_seed(seed)
            assert derived == seed ^ _OPERATOR_SEED_SALT
            assert derived != seed
            for index in range(2000):
                assert derived not in derived_seed_streams(seed, index).values()


class TestStreamDistinctnessAtScale:
    def test_no_collisions_across_dense_prefix(self):
        """Every stream of every device in a dense 50k prefix is unique —
        the exact population a 100k-fleet's low-index tracers draw from."""
        seen: set[int] = set()
        count = 0
        for index in range(50_000):
            for value in derived_seed_streams(7, index).values():
                seen.add(value)
                count += 1
        assert len(seen) == count

    def test_no_collisions_across_sparse_million_range(self):
        """Spot-check the full 1M index range (strided sample) plus the
        boundary indices where weight rounding concentrates tracers."""
        indices = list(range(0, 1_000_000, 997)) + [999_998, 999_999]
        seen: set[int] = set()
        count = 0
        for seed in (0, 7):
            for index in indices:
                for value in derived_seed_streams(seed, index).values():
                    seen.add(value)
                    count += 1
        assert len(seen) == count

    def test_different_run_seeds_shift_every_stream(self):
        a = derived_seed_streams(1, 10)
        b = derived_seed_streams(2, 10)
        assert all(a[key] != b[key] for key in a)
