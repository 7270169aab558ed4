"""Shared test helpers: relay acceptance PASS/FAIL lines to the summary,
and measure what stepping a reservoir allocates."""

import tracemalloc

import numpy as np

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def state_blocks_peak(r, sequences=1, steps=20) -> int:
    """Peak bytes that ``tracemalloc`` sees while every block of
    ``state_blocks`` on random inputs is stepped and handed out."""
    from echochan.reservoir import state_blocks

    inputs = np.random.default_rng(3).standard_normal((sequences, r.config.input_dim, steps))
    tracemalloc.start()
    try:
        for _ in state_blocks(r, inputs):
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
