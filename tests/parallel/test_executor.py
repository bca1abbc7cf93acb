"""Unit tests for worker-count handling and the pool's map contract.

:class:`~repro.parallel.WorkerPool` is the one process pool: ``map``
preserves input order and returns exactly what the serial loop returns,
running in-process for one worker or one task and falling back to that
loop when the pool cannot be used.  Pool lifecycle and shared-memory
segments are covered in ``test_shm.py``.
"""

from __future__ import annotations

import os

import pytest

from repro.exceptions import ConfigurationError
from repro.parallel import WorkerPool, resolve_workers


def _square(x: int) -> int:
    return x * x


def _map(n_workers: int, fn, items) -> list:
    with WorkerPool(n_workers) as pool:
        return pool.map(fn, items)


class TestResolveWorkers:
    def test_default_passthrough(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(3) == 3

    def test_none_means_all_cores(self):
        assert resolve_workers(None) == max(1, os.cpu_count() or 1)

    def test_zero_and_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_workers(0)
        with pytest.raises(ConfigurationError):
            resolve_workers(-2)


class TestSerialPath:
    def test_single_worker_maps_in_order(self):
        assert _map(1, _square, range(6)) == [0, 1, 4, 9, 16, 25]

    def test_single_item_stays_in_process(self):
        # Closures are unpicklable; a pool would choke on them, but one
        # item never leaves the process.
        state = []
        assert _map(8, lambda x: state.append(x) or x, [42]) == [42]
        assert state == [42]

    def test_empty_items(self):
        assert _map(4, _square, []) == []


class TestPoolPath:
    def test_results_in_input_order(self):
        assert _map(2, _square, range(10)) == [x * x for x in range(10)]

    def test_unpicklable_fn_falls_back_serially(self):
        assert _map(2, lambda x: 2 * x, [1, 2, 3]) == [2, 4, 6]

    def test_fallback_warns_and_counts(self, caplog):
        # Falling back to serial must leave an operator-visible trail:
        # a WARNING log line and a ``parallel.fallbacks`` counter that
        # reaches Report.metrics.
        import logging

        from repro.obs import Recorder, use_recorder

        recorder = Recorder()
        with use_recorder(recorder):
            with caplog.at_level(logging.WARNING, logger="repro.parallel.pool"):
                _map(2, lambda x: 2 * x, [1, 2, 3])
        assert any(
            "serially in-process" in record.message
            for record in caplog.records
        )
        assert recorder.counter_totals().get("parallel.fallbacks") == 1

    def test_pool_success_logs_no_warning(self, caplog):
        import logging

        with caplog.at_level(logging.WARNING, logger="repro.parallel.pool"):
            _map(2, _square, range(8))
        assert not caplog.records

    def test_matches_serial_exactly(self):
        assert _map(3, _square, range(25)) == _map(1, _square, range(25))


class TestValidateWorkers:
    def test_none_passes_through(self):
        from repro.parallel import validate_workers

        assert validate_workers(None) is None

    def test_valid_counts_normalised_to_int(self):
        from repro.parallel import validate_workers

        assert validate_workers(1) == 1
        assert validate_workers(8) == 8

    @pytest.mark.parametrize("bad", [0, -1, -8])
    def test_rejects_non_positive(self, bad):
        from repro.parallel import validate_workers

        with pytest.raises(ConfigurationError, match="n_workers must be >= 1"):
            validate_workers(bad)

    def test_message_identical_to_engine_config(self):
        """AnalysisConfig and the pool share one validation helper,
        so a bad worker count reads the same wherever it is caught."""
        from repro.core.engine import AnalysisConfig
        from repro.parallel import validate_workers

        with pytest.raises(ConfigurationError) as from_helper:
            validate_workers(0)
        with pytest.raises(ConfigurationError) as from_config:
            AnalysisConfig(n_workers=0)
        assert str(from_helper.value) == str(from_config.value)

    def test_resolve_workers_routes_through_validation(self):
        with pytest.raises(ConfigurationError, match="n_workers must be >= 1"):
            resolve_workers(-2)
