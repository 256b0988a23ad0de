"""Session-scoped Ray fixture — one ray.init per pytest session."""

from __future__ import annotations

import contextlib
import logging

import pytest
import ray


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def sf_dir() -> str:
    return "/root/testdata/sf0.001"


@pytest.fixture(scope="session")
def sf_dir_mid() -> str:
    return "/root/testdata/sf0.01"


@contextlib.contextmanager
def _executed_plans():
    """Collect the physical plan Ray Data logs for each executed Dataset."""
    plans = []

    class Grab(logging.Handler):
        def emit(self, record):
            msg = record.getMessage()
            if msg.startswith("Execution plan of Dataset"):
                plans.append(msg)

    log = logging.getLogger("ray.data._internal.execution.streaming_executor")
    handler, level = Grab(), log.level
    log.addHandler(handler)
    log.setLevel(logging.INFO)
    try:
        yield plans
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


@pytest.fixture
def executed_plans():
    """``with executed_plans() as plans:`` collects the plans Ray Data logs
    for the Datasets run inside the block."""
    return _executed_plans
