"""Static and dynamic correctness analysis for the reproduction.

The paper's "zero-cost state update" is lock-free only because the
UPF-C/UPF-U split is single-writer and rule changes are published by
an epoch (one ``_publish`` call per mutator in ``up/session.py``).
This package is what checks the ownership half — statically in one
tool, dynamically in two opt-in runtime detectors:

* ``python -m repro.analysis [paths]`` — **the** static analyser
  (:mod:`.analyzer`, CLI in :mod:`.__main__`).  One run parses each
  file once and runs the file-local rules R001–R008 (:mod:`.rules`:
  determinism, frozen messages, single-writer ownership) and the
  whole-program checks W001, W004, W008 and W009 (:mod:`.program`:
  per-packet allocation sites, layering, dead config, code that only
  tests reach).
  Exit 0 clean, 1 findings, 2 bad input.  Every exemption is an inline
  ``# repro: noqa[CODE] -- reason`` on the line it excuses; one that
  excuses nothing is itself a finding.
* :mod:`.sanitizer` — an opt-in runtime descriptor sanitizer wired into
  :class:`~repro.core.transport.MessageBus` and
  :class:`~repro.core.rings.Ring` that stamps each descriptor with an
  owner and content fingerprint and flags mutate-after-send,
  double-enqueue, use-after-dequeue, and (at teardown) leaked
  descriptors with the offending send site (``pytest --sanitize``).
* :mod:`.races` — an opt-in shared-state race detector enforcing the
  single-writer ownership model of the UPF-C/UPF-U split (§3.2):
  registered structures declare an owner role and every access is
  checked for cross-role same-instant conflicts and non-owner writes
  (``pytest --race``).
* :mod:`.lifecycle` — the vocabulary all of the above share: state
  names, violation kinds, and the owner table (which attributes are
  rule containers, which are ``up``-owned).

Runtime code imports ``lifecycle``, ``races`` and ``sanitizer`` only;
the analyser never loads with the data plane.  Every perf or scale PR
is expected to keep ``python -m repro.analysis`` clean and the tier-1
suite green under both ``pytest --sanitize`` and ``pytest --race``.
"""

from __future__ import annotations

__all__ = [
    "analyzer",
    "astutil",
    "lifecycle",
    "program",
    "races",
    "rules",
    "sanitizer",
]
