"""Shared pytest configuration.

``pytest --sanitize`` runs every test under the runtime descriptor
sanitizer (:mod:`repro.analysis.sanitizer`): each zero-copy handoff
through :class:`~repro.core.transport.MessageBus` and
:class:`~repro.core.rings.Ring` is stamped with an owner and content
fingerprint, and any mutate-after-send, double-enqueue, or
use-after-dequeue violation fails the test with the offending send
site and a field-level diff.  Descriptors still sitting in a transport
at teardown are reported as leak warnings.

``pytest --race`` runs every test under the shared-state race detector
(:mod:`repro.analysis.races`): cross-role same-instant conflicts and
non-owner writes fail the test with both access sites.
"""

import types
import warnings

import pytest

from repro.analysis import races, sanitizer


def pytest_addoption(parser):
    parser.addoption(
        "--sanitize",
        action="store_true",
        default=False,
        help=(
            "run all tests under the zero-copy descriptor sanitizer; "
            "ownership/aliasing violations fail the test"
        ),
    )
    parser.addoption(
        "--race",
        action="store_true",
        default=False,
        help=(
            "run all tests under the shared-state race detector; "
            "ownership/conflict violations fail the test"
        ),
    )


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(owner, "name")`` wraps ``owner.name`` until the test
    ends and returns an object whose ``calls`` counts its calls: how
    tier-1 measures work (rules evaluated, sub-tables probed, rule
    comparisons) without a host clock and without a counter in the
    code under test."""

    def install(owner, name):
        original = getattr(owner, name)
        count = types.SimpleNamespace(calls=0)

        def counting(*args, **kwargs):
            count.calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
        return count

    return install


@pytest.fixture(autouse=True)
def _descriptor_sanitizer(request):
    if not request.config.getoption("--sanitize"):
        yield None
        return
    with sanitizer.sanitized() as san:
        yield san
    if san.violations:
        pytest.fail(san.report(), pytrace=False)
    leaks = san.leaks()
    if leaks:
        # A leak is a warning, not a failure: several tests legitimately
        # tear down mid-flight (failure injection) and the report is
        # what matters.
        warnings.warn(
            f"{request.node.nodeid}: {san.leak_report()}",
            stacklevel=1,
        )


@pytest.fixture(autouse=True)
def _race_detector(request):
    if not request.config.getoption("--race"):
        yield None
        return
    with races.traced() as det:
        yield det
    if det.violations:
        pytest.fail(det.report(), pytrace=False)
