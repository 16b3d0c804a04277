"""Which program entry points the traced run wraps, and the per-layer
metrics computed from the spans and from the results' own counters.

Times come from spans (self time, summed per layer).  Counts come from
outside the program's hot loop: ``TransmissionResult.manifest.stats``
(engine events, loads by access path, stores, flushes), the service's
``job-end`` records, and the number of times a wrapped entry point was
called (kernel ops, machine builds and resets, calibrations).  Every
metric is a total per pass, averaged over the traced passes.
"""

from __future__ import annotations

from contextlib import contextmanager

from perfbench.spans import Patches

#: Spans that fire per engine event or memory access: aggregated per
#: point as they close, never kept as records.
HOT_SPANS = frozenset({"kernel.execute", "mem.load", "mem.store", "mem.flush"})
LOAD_PATHS = ("l1_hit", "l2_hit", "local_shared", "local_excl",
              "remote_shared", "remote_excl", "dram")


@contextmanager
def install(recorder, workload):
    """Wrap every layer's entry point for the duration of the block."""
    import repro.channel.calibration as calibration_mod
    import repro.channel.session as session_mod
    import repro.runner.cache as cache_mod
    import repro.service.client as client_mod
    import repro.service.jobs as jobs_mod
    from repro.channel.decoder import BitDecoder
    from repro.kernel.syscalls import Kernel
    from repro.mem.hierarchy import Machine
    from repro.runner import ResultCache, Runner
    from repro.service import ServiceClient
    from repro.sim.engine import Simulator

    def encoded_size(fn):
        def encode(value):
            blob = fn(value)
            recorder.add("runner.entry_bytes", len(blob))
            return blob
        return encode

    def decoded_size(fn):
        def decode(blob):
            recorder.add("runner.entry_bytes", len(blob))
            return fn(blob)
        return decode

    patches = Patches(recorder)
    wrap = patches.wrap
    try:
        # Runner resolves "repro.channel.session:execute_point" per call,
        # so the module attribute is the point boundary.
        wrap(session_mod, "execute_point", "point", new_point=True)
        wrap(Runner, "run", "runner.run")
        wrap(session_mod.SessionBase, "__init__", "channel.session")
        wrap(session_mod, "calibrate_memoized", "channel.calibrate")
        wrap(session_mod, "calibrate", "channel.calibrate.cold")
        wrap(calibration_mod, "calibrate", "channel.calibrate.cold")
        wrap(session_mod.ChannelSession, "transmit", "channel.transmit")
        wrap(BitDecoder, "decode", "channel.decode")
        wrap(Simulator, "run", "sim.run")
        # Sessions bind kernel._execute when they spawn threads, so the
        # class attribute is wrapped before any session exists.
        wrap(Kernel, "_execute", "kernel.execute")
        wrap(Machine, "load", "mem.load")
        wrap(Machine, "store", "mem.store")
        wrap(Machine, "flush", "mem.flush")
        wrap(Machine, "__init__", "mem.build")
        wrap(Machine, "reset", "mem.reset")
        wrap(cache_mod, "encode_entry", "runner.encode", around=encoded_size)
        wrap(cache_mod, "decode_entry", "runner.decode", around=decoded_size)
        wrap(jobs_mod, "encode_entry", "runner.encode", around=encoded_size)
        wrap(client_mod, "decode_entry", "runner.decode", around=decoded_size)
        wrap(ResultCache, "lookup", "runner.cache_lookup")
        wrap(ResultCache, "lookup_blob", "runner.cache_lookup")
        wrap(ResultCache, "store", "runner.cache_store")
        wrap(ResultCache, "store_blob", "runner.cache_store")
        wrap(ServiceClient, "submit_spec", "service.submit")
        wrap(ServiceClient, "values", "service.fetch")
        if hasattr(workload, "follow"):
            wrap(workload, "follow", "service.wait")
            wrap(workload, "job", "service.job", new_point=True)
        yield
    finally:
        patches.restore()


def per_layer(recorder, passes, root: str):
    """Per-layer metrics ``{name: (value, unit)}`` and their bases.

    *root* is the span enclosing one unit of work; its self time is the
    time no layer span accounts for (``residual.share``).
    """
    n = len(passes)
    totals = recorder.totals()

    def self_s(*names):
        return sum(totals[name][1] for name in names if name in totals) / n

    def calls(name):
        return totals[name][0] / n if name in totals else 0.0

    # Work that ran: on served_overlap the points a pool worker computed,
    # not the cache hits and coalesced copies of them.
    computed = [p for r in passes for p in r.points if p.executed]

    def stat(key):
        return sum(p.stats.get(key, 0) for p in computed) / n

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, tuple[float, str]] = {}
    bases: dict[str, str] = {}

    events = stat("engine.events")
    m["sim.events"] = (events, "count")
    m["sim.self_s"] = (self_s("sim.run"), "s")
    m["sim.ns_per_event"] = (1e9 * ratio(m["sim.self_s"][0], events), "ns")
    bases["sim.ns_per_event"] = f"{m['sim.self_s'][0]:.6f} s / {events:g} events"

    ops = calls("kernel.execute")
    m["kernel.ops"] = (ops, "count")
    m["kernel.self_s"] = (self_s("kernel.execute"), "s")
    m["kernel.ns_per_op"] = (1e9 * ratio(m["kernel.self_s"][0], ops), "ns")
    bases["kernel.ns_per_op"] = f"{m['kernel.self_s'][0]:.6f} s / {ops:g} ops"

    by_path = {path: stat(f"machine.load.{path}") for path in LOAD_PATHS}
    loads = sum(by_path.values())
    m["mem.loads"] = (loads, "count")
    for path, count in by_path.items():
        m[f"mem.loads.{path}"] = (count, "count")
    m["mem.l1_hit_share"] = (ratio(by_path["l1_hit"], loads), "ratio")
    bases["mem.l1_hit_share"] = f"{by_path['l1_hit']:g} / {loads:g} loads"
    m["mem.stores.hit_m"] = (stat("machine.store.hit_m"), "count")
    m["mem.stores.rfo"] = (stat("machine.store.rfo"), "count")
    m["mem.flushes"] = (stat("machine.flush"), "count")
    m["mem.load_s"] = (self_s("mem.load"), "s")
    m["mem.store_s"] = (self_s("mem.store"), "s")
    m["mem.flush_s"] = (self_s("mem.flush"), "s")
    m["mem.ns_per_load"] = (1e9 * ratio(m["mem.load_s"][0], loads), "ns")
    bases["mem.ns_per_load"] = f"{m['mem.load_s'][0]:.6f} s / {loads:g} loads"
    m["mem.machine_builds"] = (calls("mem.build"), "count")
    m["mem.machine_resets"] = (calls("mem.reset"), "count")
    m["mem.build_s"] = (self_s("mem.build", "mem.reset"), "s")

    lookups = calls("channel.calibrate")
    cold = calls("channel.calibrate.cold")
    hits = max(lookups - cold, 0.0)
    m["channel.session_s"] = (self_s("channel.session"), "s")
    m["channel.calibrate_s"] = (
        self_s("channel.calibrate", "channel.calibrate.cold"), "s"
    )
    m["channel.calibrations_cold"] = (cold, "count")
    m["channel.calib_memo_hit_ratio"] = (ratio(hits, lookups), "ratio")
    bases["channel.calib_memo_hit_ratio"] = (
        f"{hits:g} memo hits / {lookups:g} memo lookups"
    )
    m["channel.transmit_s"] = (self_s("channel.transmit"), "s")
    m["channel.decode_s"] = (self_s("channel.decode"), "s")
    m["channel.samples"] = (sum(p.samples for p in computed) / n, "count")

    submitted = sum(r.attempted for r in passes) / n
    service = {
        key: sum(r.service[key] for r in passes) / n
        for key in ("executed", "coalesced", "hits")
    }
    m["runner.points"] = (submitted, "count")
    m["runner.overhead_s"] = (self_s("runner.run"), "s")
    m["runner.encode_s"] = (self_s("runner.encode"), "s")
    m["runner.decode_s"] = (self_s("runner.decode"), "s")
    m["runner.entry_bytes"] = (calls("runner.entry_bytes"), "bytes")
    m["runner.cache_lookup_s"] = (self_s("runner.cache_lookup"), "s")
    m["runner.cache_store_s"] = (self_s("runner.cache_store"), "s")
    m["runner.cache_hit_ratio"] = (ratio(service["hits"], submitted), "ratio")
    bases["runner.cache_hit_ratio"] = (
        f"{service['hits']:g} cache hits / {submitted:g} points submitted"
    )

    m["service.submit_s"] = (self_s("service.submit"), "s")
    m["service.wait_s"] = (self_s("service.wait"), "s")
    m["service.fetch_s"] = (self_s("service.fetch"), "s")
    m["service.executed"] = (service["executed"], "count")
    m["service.coalesced"] = (service["coalesced"], "count")
    m["service.hits"] = (service["hits"], "count")

    count, own, total = totals[root]
    m["residual.share"] = (ratio(own, total), "ratio")
    bases["residual.share"] = (
        f"{own:.6f} s outside every layer span / {total:.6f} s in "
        f"{count} {root} spans"
    )
    return m, bases
