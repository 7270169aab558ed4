"""Shared test helpers: relay acceptance PASS/FAIL lines to the summary,
measure what stepping a reservoir allocates, and record how it is stepped."""

import tracemalloc

import numpy as np
import pytest

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


@pytest.fixture
def step_calls(monkeypatch) -> list:
    """Every call of ``reservoir._step_blocks`` made during the test, as
    ``(width, steps, blocks)``: its chunk width and block steps, and the
    ``(t0, shape)`` of each block it yields, which it steps as before."""
    from echochan import reservoir

    calls = []
    step = reservoir._step_blocks

    def recorded(r, inputs, teacher, x0, w_out, width, steps, washout):
        blocks = []
        calls.append((width, steps, blocks))
        for first, t0, states in step(r, inputs, teacher, x0, w_out, width, steps, washout):
            blocks.append((t0, states.shape))
            yield first, t0, states

    monkeypatch.setattr(reservoir, "_step_blocks", recorded)
    return calls
