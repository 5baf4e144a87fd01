import contextlib
import signal
import time

import pytest

# Well above the slowest test (about 3 s), so that only a run-away
# search, not a slow host, reaches it.
TEST_TIME_LIMIT_S = 60


def pytest_addoption(parser):
    parser.addoption(
        "--corpus",
        action="store_true",
        help="also run the full differential corpus of tests/corpus.py",
    )


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the main thread once ``seconds`` have gone
    by inside the block; an enclosing limit's handler and remaining time
    are restored on the way out."""

    def expire(signum, frame):
        raise TimeoutError(f"ran past the time limit of {seconds} s")

    handler = signal.signal(signal.SIGALRM, expire)
    outer, _ = signal.setitimer(signal.ITIMER_REAL, seconds)
    start = time.monotonic()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)
        if outer:
            left = outer - (time.monotonic() - start)
            signal.setitimer(signal.ITIMER_REAL, max(left, 1e-3))


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    """Each test body fails with TimeoutError after TEST_TIME_LIMIT_S,
    so that a fault which enlarges a search fails instead of hanging."""
    with time_limit(TEST_TIME_LIMIT_S):
        return (yield)
