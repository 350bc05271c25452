"""Compiled-trace correctness and fast-path/slow-path equivalence.

Three layers of guarantees, matching DESIGN.md's equivalence contract:

* the compiled trace generator (``run_columns``) yields exactly the trace
  ``CompiledTrace.from_events`` builds from the tree walker's event
  stream, for every registered workload, hinted and unhinted (directives
  included), across seeds and limits that stop mid-loop;
* the on-disk form round-trips losslessly, and the trace store serves
  memory/disk hits without rebuilding;
* the optimized pipeline end to end (compiled trace + fused simulate
  loop + hierarchy fast paths) produces a ``RunResult.to_dict()``
  byte-identical to the ``reference=True`` slow path for every scheme in
  the registry;
* ``Core.run_span``, the one per-event body every compiled replay goes
  through, replays one event at a time exactly as one unbounded span
  does, and stops at its frontier and reference limit where documented.
"""

import json
import struct
from array import array

import pytest

from repro.compiler.driver import compile_hints
from repro.cpu.core import Core
from repro.mem.space import AddressSpace
from repro.sim.config import MachineConfig
from repro.sim.runner import SCHEMES, execute
from repro.sim.simulator import Simulator
from repro.sim.spec import RunSpec
from repro.trace.compiled import (
    K_BOUND,
    K_INDIRECT,
    K_SETBASE,
    K_STORE,
    CompiledTrace,
)
from repro.trace.events import MemRef
from repro.trace.interp import Interpreter
from repro.trace.store import TraceKey, TraceStore, format_event
from repro.workloads import get_workload, workload_names

LIMIT = 1200

#: Seeds and limits of the walker/codegen equality matrix.  Every
#: workload's program is one outer loop emitting far more than 4321
#: references, so that limit stops each of them mid-nest.
SEEDS = (1, 99, 12345)
LIMITS = (0, 1, 7, 999, 4321)


def interpreter_factory(name, hinted, indirect_mode="instruction",
                        seed=12345):
    """Fresh interpreters over one build of ``name``, with or without
    compiled hints."""
    config = MachineConfig.scaled()
    workload = get_workload(name)
    space = AddressSpace()
    built = workload.build(space, scale=1.0)
    program = built.program.finalize()
    result = (
        compile_hints(program, l2_size=config.l2_size,
                      block_size=config.block_size, policy="default",
                      variable_regions=True, indirect_mode=indirect_mode)
        if hinted else None
    )

    def make():
        interp = Interpreter(program, space, result, seed=seed,
                             block_size=config.block_size,
                             ops_scale=workload.ops_scale)
        for pname, addr in built.pointer_bindings.items():
            interp.bind_pointer(pname, addr)
        return interp

    return make


def build_interpreter(name, hinted, indirect_mode="instruction"):
    """A fresh interpreter for ``name``, with or without compiled hints."""
    return interpreter_factory(name, hinted, indirect_mode)()


def assert_traces_equal(a, b):
    assert a.kinds == b.kinds
    assert a.f0 == b.f0
    assert a.f1 == b.f1
    assert a.f2 == b.f2
    assert a.ref_names == b.ref_names
    assert a.ref_count == b.ref_count


def assert_codegen_matches_walker(name, hinted):
    """Each engine gets its own build and sees the same sequence of runs,
    so samplers that keep state across runs stay in step."""
    for seed in SEEDS:
        compiled = interpreter_factory(name, hinted, seed=seed)
        walked = interpreter_factory(name, hinted, seed=seed)
        for limit in LIMITS:
            events = walked().run_events(limit)
            assert_traces_equal(compiled().run_columns(limit),
                                CompiledTrace.from_events(events))


class TestReplayEquality:
    @pytest.mark.parametrize("name", workload_names())
    def test_columns_match_event_stream_unhinted(self, name):
        assert_codegen_matches_walker(name, hinted=False)

    @pytest.mark.parametrize("name", workload_names())
    def test_columns_match_event_stream_hinted(self, name):
        assert_codegen_matches_walker(name, hinted=True)

    @pytest.mark.parametrize("name", ["swim", "mcf", "vpr", "bzip2"])
    def test_full_length_trace(self, name):
        """The default reference budget, where whole nests run unchecked."""
        limit = get_workload(name).default_refs
        columnar = build_interpreter(name, hinted=True).run_columns(limit)
        events = build_interpreter(name, hinted=True).run_events(limit)
        assert_traces_equal(columnar, CompiledTrace.from_events(events))

    @pytest.mark.parametrize("name,mode,kind", [
        ("mesa", "instruction", K_BOUND),
        ("vpr", "instruction", K_INDIRECT),
        ("vpr", "hintbit", K_SETBASE),
    ])
    def test_directives_survive_lowering(self, name, mode, kind):
        """Each directive event kind round-trips through lowering; the
        reconstructed stream equals the source field for field."""
        events = list(
            build_interpreter(name, hinted=True, indirect_mode=mode)
            .run(limit=LIMIT))
        trace = CompiledTrace.from_events(events)
        assert kind in set(trace.kinds)
        assert [format_event(e) for e in trace.events()] \
            == [format_event(e) for e in events]
        columnar = build_interpreter(
            name, hinted=True, indirect_mode=mode).run_columns(LIMIT)
        assert_traces_equal(columnar, trace)

    def test_ref_count_matches_memrefs(self):
        events = list(build_interpreter("mcf", hinted=False).run(limit=LIMIT))
        trace = CompiledTrace.from_events(events)
        assert trace.ref_count == sum(
            1 for e in events if isinstance(e, MemRef))
        assert trace.ref_count == LIMIT


class TestDiskForm:
    def test_save_load_roundtrip(self, tmp_path):
        trace = build_interpreter("swim", hinted=True).run_columns(LIMIT)
        path = tmp_path / "swim.trace"
        trace.save(str(path))
        assert_traces_equal(CompiledTrace.load(str(path)), trace)

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_bytes(b'{"magic": "nope"}\n')
        with pytest.raises(ValueError):
            CompiledTrace.load(str(path))

    def test_load_rejects_truncation(self, tmp_path):
        trace = build_interpreter("swim", hinted=False).run_columns(LIMIT)
        path = tmp_path / "cut.trace"
        trace.save(str(path))
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError):
            CompiledTrace.load(str(path))


class TestCrossEndian:
    """The disk form is canonically little-endian on every host.

    These tests drive the ``_swap`` override through both byteswap paths
    on any host: a simulated big-endian writer/reader must interoperate
    losslessly with the canonical file, and the canonical bytes must
    match an explicit ``struct.pack('<q')`` encoding — so a trace saved
    on one architecture always loads on any other.
    """

    def trace(self):
        return build_interpreter("swim", hinted=False).run_columns(LIMIT)

    def test_canonical_file_is_little_endian(self, tmp_path):
        addr = 0x0102030405060708  # asymmetric: byte order is visible
        trace = CompiledTrace.from_events([MemRef("a", addr, 8)])
        path = tmp_path / "le.trace"
        trace.save(str(path), _swap=False)
        header_line, _, body = path.read_bytes().partition(b"\n")
        assert json.loads(header_line)["endian"] == "little"
        n = len(trace.kinds)
        assert body == (
            trace.kinds.tobytes()
            + struct.pack("<%dq" % n, *trace.f0)
            + struct.pack("<%dq" % n, *trace.f1)
            + struct.pack("<%dq" % n, *trace.f2))

    def test_simulated_big_endian_round_trip(self, tmp_path):
        """Both byteswap paths (save and load) compose to the identity."""
        trace = self.trace()
        path = tmp_path / "be-host.trace"
        trace.save(str(path), _swap=True)
        assert_traces_equal(CompiledTrace.load(str(path), _swap=True), trace)

    def test_swap_changes_wire_bytes_exactly_once(self, tmp_path):
        """A big-endian writer's byteswap is real, and the load-side swap
        is exactly its inverse: reading its output *without* swapping
        yields the byteswapped field values, not the originals."""
        trace = self.trace()
        path = tmp_path / "be-wire.trace"
        trace.save(str(path), _swap=True)
        raw = CompiledTrace.load(str(path), _swap=False)
        assert raw.kinds == trace.kinds  # 1-byte column: order-invariant
        swapped = array("q", trace.f1)
        swapped.byteswap()
        assert raw.f1 == swapped
        assert raw.f1 != trace.f1


class TestTraceStore:
    def key(self, limit=LIMIT):
        return TraceKey("swim", 1.0, 12345, limit, 64, None)

    def test_miss_builds_then_memory_hit(self, tmp_path):
        store = TraceStore(disk_dir=str(tmp_path))
        builds = []

        def builder():
            builds.append(1)
            return build_interpreter("swim", hinted=False).run_columns(LIMIT)

        a = store.get_or_build(self.key(), builder)
        b = store.get_or_build(self.key(), builder)
        assert a is b
        assert len(builds) == 1
        assert store.misses == 1
        assert store.memory_hits == 1

    def test_disk_hit_across_store_instances(self, tmp_path):
        trace = build_interpreter("swim", hinted=False).run_columns(LIMIT)
        TraceStore(disk_dir=str(tmp_path)).put(self.key(), trace)
        fresh = TraceStore(disk_dir=str(tmp_path))
        loaded = fresh.get(self.key())
        assert loaded is not None
        assert fresh.disk_hits == 1
        assert_traces_equal(loaded, trace)

    def test_distinct_keys_do_not_collide(self, tmp_path):
        store = TraceStore(disk_dir=str(tmp_path))
        trace = build_interpreter("swim", hinted=False).run_columns(LIMIT)
        store.put(self.key(), trace)
        assert store.get(self.key(limit=LIMIT + 1)) is None
        assert store.misses == 1

    def test_memory_only_store(self):
        store = TraceStore(disk_dir=False)
        assert store.path_for(self.key()) is None
        trace = build_interpreter("swim", hinted=False).run_columns(LIMIT)
        store.put(self.key(), trace)
        assert store.get(self.key()) is trace

    def test_memory_bound_evicts_lru(self):
        store = TraceStore(disk_dir=False, max_memory_traces=2)
        trace = build_interpreter("swim", hinted=False).run_columns(LIMIT)
        keys = [TraceKey("swim", 1.0, 12345, n, 64, None) for n in (1, 2, 3)]
        for k in keys:
            store.put(k, trace)
        assert store.get(keys[0]) is None
        assert store.get(keys[2]) is trace


class TestFastSlowEquivalence:
    """The tentpole's non-negotiable: optimizations preserve semantics."""

    WORKLOADS = ("mcf", "swim", "vpr")  # vpr exercises indirect directives

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_run_result_byte_identical(self, workload, scheme):
        spec = RunSpec.create(workload, scheme, limit_refs=LIMIT)
        fast = execute(spec).to_dict()
        slow = execute(spec, reference=True).to_dict()
        assert json.dumps(fast, sort_keys=True) \
            == json.dumps(slow, sort_keys=True)

    #: The queue-draining schemes, on the configs that steer the prefetch
    #: drain's branches: insertion depth (LRU in place, MRU append,
    #: mid-set insert), FIFO queue order, and the paper's 1 MB L2.
    DRAIN_SCHEMES = ("srp", "grp", "pointer", "gaze", "chase", "srp-adaptive")
    DRAIN_WORKLOADS = ("mcf", "ammp", "vpr")
    DRAIN_CONFIGS = {
        "default": MachineConfig.scaled(),
        "insert_mru": MachineConfig.scaled(prefetch_insert="mru"),
        "insert_depth2": MachineConfig.scaled(prefetch_insert=2),
        "fifo": MachineConfig.scaled(prefetch_queue_policy="fifo"),
        "paper": MachineConfig.paper(),
    }

    @pytest.mark.parametrize("config", sorted(DRAIN_CONFIGS))
    @pytest.mark.parametrize("scheme", DRAIN_SCHEMES)
    @pytest.mark.parametrize("workload", DRAIN_WORKLOADS)
    def test_prefetch_drain_byte_identical(self, workload, scheme, config):
        spec = RunSpec.create(workload, scheme, limit_refs=LIMIT,
                              config=self.DRAIN_CONFIGS[config])
        fast = execute(spec).to_dict()
        slow = execute(spec, reference=True).to_dict()
        assert json.dumps(fast, sort_keys=True) \
            == json.dumps(slow, sort_keys=True)


class TestAdaptiveFastSlowEquivalence:
    """Same contract under the feedback loop, with epochs actually firing.

    The generic sweep above already covers the adaptive schemes at the
    default epoch length (where few epochs fit in LIMIT references);
    this class shrinks the epoch so the policy makes many decisions —
    knob changes and all — and the two paths must still agree byte for
    byte.
    """

    @pytest.mark.parametrize("scheme", ["srp-adaptive", "grp-adaptive"])
    @pytest.mark.parametrize("workload", ("mcf", "swim", "vpr"))
    def test_byte_identical_with_active_epochs(self, workload, scheme):
        config = MachineConfig.scaled(adapt_epoch_accesses=128)
        spec = RunSpec.create(workload, scheme, config=config,
                              limit_refs=LIMIT)
        fast = execute(spec)
        slow = execute(spec, reference=True)
        assert fast.adapt["epochs"] >= 8  # the loop genuinely ran
        assert json.dumps(fast.to_dict(), sort_keys=True) \
            == json.dumps(slow.to_dict(), sort_keys=True)


def core_state(core):
    """Everything run_span mutates on the core, for exact comparison."""
    return (core._clock, core._head, core.instructions,
            core.load_stall_cycles, list(core._ring))


def fresh_core():
    """A fresh prefetcher-less core and an unhinted mcf trace to replay."""
    trace = build_interpreter("mcf", hinted=False).run_columns(LIMIT)
    sim = Simulator(MachineConfig.scaled(), AddressSpace(), None)
    return sim.core, trace


class TestRunSpan:
    """Core.run_span: span boundaries and one-event-at-a-time replay."""

    CASES = {
        "real": dict(workload="mcf", scheme="srp"),
        "perfect_l1": dict(workload="swim", scheme="grp",
                           mode="perfect_l1"),
        "tlb": dict(workload="mcf", scheme="grp",
                    config=MachineConfig.scaled(tlb_entries=8)),
        "srp_adaptive": dict(
            workload="vpr", scheme="srp-adaptive",
            config=MachineConfig.scaled(adapt_epoch_accesses=128)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_single_event_spans_match_execute_compiled(self, case,
                                                       monkeypatch):
        spec = RunSpec.create(limit_refs=LIMIT, backend="fused",
                              **self.CASES[case])
        whole = execute(spec).to_dict()

        def one_event_at_a_time(core, trace, limit_refs=None):
            ctx = core.bind_compiled(trace)
            pos = 0
            while pos < len(trace.kinds):
                pos = core.run_span(ctx, pos, float("-inf"))
            return core.cycles

        monkeypatch.setattr(Core, "execute_compiled", one_event_at_a_time)
        stepped = execute(spec).to_dict()
        assert json.dumps(stepped, sort_keys=True) \
            == json.dumps(whole, sort_keys=True)

    def test_frontier_stops_before_first_event_at_or_above_it(self):
        core, trace = fresh_core()
        ctx = core.bind_compiled(trace)
        issue_times, states = [], []
        pos = 0
        while pos < len(trace.kinds):
            issue_times.append(core.next_issue_at())
            states.append(core_state(core))
            pos = core.run_span(ctx, pos, float("-inf"))
        states.append(core_state(core))
        frontier = issue_times[len(issue_times) // 2]
        expected = next(i for i in range(1, len(issue_times))
                        if issue_times[i] >= frontier)
        assert expected > 1  # the span covers several events

        core, trace = fresh_core()
        assert core.run_span(core.bind_compiled(trace), 0, frontier) \
            == expected
        assert core_state(core) == states[expected]

    def test_limit_refs_stops_mid_span(self):
        core, trace = fresh_core()
        ctx = core.bind_compiled(trace)
        limit = 25
        pos = core.run_span(ctx, 0, limit_refs=limit)
        assert pos < len(trace.kinds)
        refs = [i for i in range(pos) if trace.kinds[i] <= K_STORE]
        assert len(refs) == limit
        assert refs[-1] == pos - 1  # stopped right after the last ref
        # Resuming from the returned position finishes the trace exactly
        # as one unbounded span does.
        core.run_span(ctx, pos)
        whole, trace = fresh_core()
        whole.execute_compiled(trace)
        assert core_state(core) == core_state(whole)
