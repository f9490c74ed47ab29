"""The DP row step: scatter, edges and forbidden steps."""

from filterpaths import KERNEL_BACKEND
from filterpaths.oracle import advance_row


def test_selected_backend_reported():
    assert KERNEL_BACKEND == "python"


def test_pure_kernel_scatter():
    row = [0, 1, 0, 3, 0]
    wr = bytes([1, 2, 1, 1, 1])
    wl = bytes([1, 1, 1, 2, 1])
    assert advance_row(row, wr, wl) == [1, 0, 8, 0, 3]


def test_pure_kernel_edges_scatter_inward_only():
    row = [5, 0, 7]
    wr = bytes([1, 1, 1])
    wl = bytes([2, 1, 1])
    assert advance_row(row, wr, wl) == [0, 12, 0]


def test_forbidden_steps_drop_mass():
    row = [0, 4, 0]
    assert advance_row(row, bytes([1, 0, 1]), bytes([1, 0, 1])) == [0, 0, 0]
