"""Smoke run of tools/percall.py at 8^3, so that the per-call harness cannot rot unnoticed."""

import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_percall_times_every_layer_and_tabulates_two_trees(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    percall = importlib.import_module("percall")
    times = percall.measure([8], repeats=2, target=1e-3)
    assert list(times) == ["8"] and list(times["8"]) == list(percall.LAYERS)
    assert all(len(ts) == 2 and min(ts) > 0 for ts in times["8"].values())
    lines = percall.table({"base": times, "tree": times}, ["base", "tree"])
    assert len(lines) == 1 + len(percall.LAYERS)
    assert lines[0].endswith("tree/base") and all(line.endswith("1.000") for line in lines[1:])
