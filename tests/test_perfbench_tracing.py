"""The benchmark's tracer patches names on the library's modules; renaming one breaks it."""

import importlib
from pathlib import Path

import pytest

import precisionlab.tvbounds as tvbounds
from precisionlab import RngStream, tv_report

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    t = importlib.import_module("tracing").Tracer()
    try:
        t.install()  # raises AttributeError when a patched name has gone
        yield t
    finally:
        t.uninstall()


def test_install_then_uninstall_restores_every_attribute(tracer):
    patched = list(tracer._saved)
    tracer.uninstall()
    assert {"wishart_samples", "logdet_trace_many", "run_batched"} <= {
        attr for owner, attr, _ in patched if owner is tvbounds}
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, (owner, attr)


def test_traced_tv_report_matches_untraced(tracer):
    traced = tv_report(3, 30, 10_000, RngStream(5))
    tracer.uninstall()
    assert traced == tv_report(3, 30, 10_000, RngStream(5))
