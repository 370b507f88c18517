"""The launch planner: one eligibility table, tested without running a kernel."""

import pytest

from repro.gpusim.faults import FaultInjector, FaultSpec
from repro.gpusim.launch import (
    ELIGIBILITY,
    LaunchFacts,
    plan_launch,
    resolve_backend,
)

NEVER = lambda: False  # noqa: E731 - a probe that refuses


def sim_faults():
    return FaultInjector([FaultSpec(kind="global_oob")])


def worker_faults():
    return FaultInjector([FaultSpec(kind="worker_crash")])


# (id, LaunchFacts kwargs, backend, parallel,
#  expected (batched, megablock_fallback, parallel_fallback, parallel))
CASES = [
    ("eligible", {}, "megablock", 4, (True, None, None, True)),
    ("sequential", {}, "megablock", 0, (True, None, None, False)),
    ("one-worker", {"trace": True}, "megablock", 1,
     (False, "trace", None, False)),
    # One block batches; only the pool has nothing to fan out.
    ("single-block", {"blocks": 1}, "megablock", 4,
     (True, None, "single-block", False)),
    ("trace", {"trace": True}, "megablock", 4, (False, "trace", "trace", False)),
    ("sim-faults", {"faults": sim_faults()}, "megablock", 4,
     (False, "faults", "faults", False)),
    ("worker-faults-only", {"faults": worker_faults()}, "megablock", 4,
     (True, None, None, True)),
    ("sanitizer", {"sanitizer": True}, "megablock", 4,
     (False, "sanitizer", "sanitizer", False)),
    # Atomics that flatten batch but still refuse the pool; atomics that
    # cannot flatten refuse both, each with its own reason.
    ("atomics-flatten", {"uses_atomics": True}, "megablock", 4,
     (True, None, "atomics", False)),
    ("atomics-no-flatten", {"uses_atomics": True, "batch_atomics": NEVER},
     "megablock", 4, (False, "atomic-order", "atomics", False)),
    ("unavailable", {"scheduler_available": False}, "megablock", 4,
     (True, None, "unavailable", False)),
    ("breaker-open", {"breaker_allows": NEVER}, "megablock", 4,
     (True, None, "breaker-open", False)),
    # Batch rows apply only to megablock; the pool rows to every engine.
    ("interp-trace", {"trace": True}, "interp", 4,
     (False, None, "trace", False)),
    ("interp-atomics", {"uses_atomics": True, "batch_atomics": NEVER},
     "interp", 4, (False, None, "atomics", False)),
    ("interp-eligible", {}, "interp", 4, (False, None, None, True)),
]


@pytest.mark.parametrize(
    "facts,backend,parallel,expected",
    [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_decision_table(facts, backend, parallel, expected):
    plan = plan_launch(LaunchFacts(**{"blocks": 8, **facts}), backend, parallel)
    got = (plan.batched, plan.megablock_fallback, plan.parallel_fallback,
           plan.parallel)
    assert got == expected
    assert plan.engine == backend


def test_every_table_reason_is_covered():
    planned = {c[4][1] for c in CASES} | {c[4][2] for c in CASES}
    assert {reason for reason, _refuses, _holds in ELIGIBILITY} <= planned


def test_reason_targets():
    refuses = {reason: set(targets) for reason, targets, _holds in ELIGIBILITY}
    assert refuses["atomic-order"] == {"batch"}
    # One block batches; it only has nothing to fan out.
    for reason in ("single-block", "atomics", "unavailable", "breaker-open"):
        assert refuses[reason] == {"pool"}
    # Whatever refuses the batch refuses the pool too ("atomic-order"
    # implies atomics), so a pooled megablock launch always batches.
    for reason in ("trace", "faults", "sanitizer"):
        assert refuses[reason] == {"batch", "pool"}


def test_workers_resolved(monkeypatch):
    assert plan_launch(LaunchFacts(blocks=8), "megablock", 3).workers == 3
    monkeypatch.setenv("GPUSIM_PARALLEL", "2")
    assert plan_launch(LaunchFacts(blocks=8), "megablock").workers == 2


class _Probe:
    def __init__(self, value=True):
        self.value = value
        self.calls = 0

    def __call__(self):
        self.calls += 1
        return self.value


class TestProbes:
    def test_breaker_consulted_only_when_reached(self):
        probe = _Probe()
        plan_launch(LaunchFacts(blocks=8, trace=True, breaker_allows=probe),
                    "megablock", 4)
        plan_launch(LaunchFacts(blocks=8, breaker_allows=probe), "megablock", 0)
        assert probe.calls == 0
        plan_launch(LaunchFacts(blocks=8, breaker_allows=probe), "megablock", 4)
        assert probe.calls == 1

    def test_atomic_order_probe_is_lazy(self):
        probe = _Probe(False)
        for facts, backend in (
            (LaunchFacts(blocks=8, batch_atomics=probe), "megablock"),
            (LaunchFacts(blocks=8, uses_atomics=True, batch_atomics=probe),
             "interp"),
            (LaunchFacts(blocks=8, uses_atomics=True, sanitizer=True,
                         batch_atomics=probe), "megablock"),
        ):
            plan_launch(facts, backend, 4)
        assert probe.calls == 0
        plan_launch(LaunchFacts(blocks=8, uses_atomics=True, batch_atomics=probe),
                    "megablock", 4)
        assert probe.calls == 1


class TestDefaultResolution:
    def test_default_is_megablock(self, monkeypatch):
        monkeypatch.delenv("GPUSIM_BACKEND", raising=False)
        assert resolve_backend() == "megablock"
        assert plan_launch(LaunchFacts(blocks=8)).engine == "megablock"

    def test_empty_env_means_default(self, monkeypatch):
        monkeypatch.setenv("GPUSIM_BACKEND", "")
        assert plan_launch(LaunchFacts(blocks=8)).engine == "megablock"

    def test_env_beats_default(self, monkeypatch):
        monkeypatch.setenv("GPUSIM_BACKEND", "interp")
        plan = plan_launch(LaunchFacts(blocks=8))
        assert (plan.engine, plan.batched) == ("interp", False)

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("GPUSIM_BACKEND", "interp")
        plan = plan_launch(LaunchFacts(blocks=8), "megablock")
        assert plan.engine == "megablock"

    def test_unknown_backend_rejected(self, monkeypatch):
        with pytest.raises(ValueError, match="backend"):
            resolve_backend("jit")
        monkeypatch.setenv("GPUSIM_BACKEND", "jit")
        with pytest.raises(ValueError, match="backend"):
            plan_launch(LaunchFacts(blocks=8))

