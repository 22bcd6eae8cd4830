"""Fixtures shared by the test modules."""

import pytest

from fermitope import montecarlo


@pytest.fixture
def drawn_rows(monkeypatch) -> list[int]:
    """Rows that each call of ``montecarlo._draw_blocks`` draws, counted as its
    blocks are drawn: a call whose blocks are never asked for draws none."""
    drawn, draw_blocks = [], montecarlo._draw_blocks

    def spy(*args):
        drawn.append(0)
        for block in draw_blocks(*args):
            drawn[-1] += len(block)
            yield block

    monkeypatch.setattr(montecarlo, "_draw_blocks", spy)
    return drawn
