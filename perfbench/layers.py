"""Layer-boundary tracing for the benchmark's traced run.

A :class:`LayerTracer` wraps public entry points of the simulator from
outside ``src/`` and records one span per call: layer, host start and end
(``time.perf_counter``), parent span and, when the call carries a packet
or trace record, the flow 5-tuple as the request id.  Self time is a
span's duration minus the part of it its child spans cover, accumulated
per layer as the run goes, so layer self times plus ``unattributed`` (time
not inside any span) add up to the traced wall time.

Boundaries:

- every event-loop callback, attributed to the module that owns it
  (``EventLoop.call_at`` is wrapped, so ``call_later``/``call_soon`` and
  ``Timer``/``PeriodicTask`` callbacks are covered too);
- every host packet handler (``Host.set_handler``) and the shard export
  handler, attributed to their owners;
- ``EventLoop.run``, ``CpuModel.execute``, ``Network.transmit``,
  ``Host.deliver``, ``L4Mux.process``, ``TcpStack.connect`` and
  ``TcpConnection.send/close/abort``, the TCP application upcalls of every
  ``ConnectionHandler`` subclass, ``BrowserClient.fetch/load_page``,
  ``ReplicatingKvClient.set/get/delete/handle_response``, the public
  ``TcpStore`` methods, each packet-trace tap's ``record()``, the obs
  plane's collectors, and the shard gateway, barrier and wire codec;
- completion callbacks handed to the kv client and TcpStore, attributed to
  their owners, so a store ack that resumes instance work is charged to
  the instance.

Patches are installed per traced repetition and removed afterwards; the
simulated schedule is unchanged (the traced run checks its digest against
the untraced one).
"""

from __future__ import annotations

import itertools
from array import array
import time
from types import ModuleType
from typing import Callable, Dict, List, Optional, Tuple

# Layers are named after src/repro modules.  ``shard.wire`` is the shard
# layer's packet (de)serialization; it is reported inside ``shard``.
LAYERS: Tuple[str, ...] = (
    "sim", "net", "tcp", "l4lb", "core.instance", "core.tcpstore",
    "core.controller", "kvstore", "http", "workload", "chaos", "obs",
    "shard", "shard.wire",
)
LAYER_INDEX: Dict[str, int] = {name: i for i, name in enumerate(LAYERS)}

# module prefix -> layer; the longest matching prefix wins.  Packet-trace
# taps in repro.sim.tracing are part of the network's tap machinery; the
# instance's rule/selector/flow-state helpers (and the qos hooks it calls)
# belong to the instance; the service wiring, assignment solvers, leader
# election and autoscaler belong to the control plane.
MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.tracing", "net"),
    ("repro.sim", "sim"),
    ("repro.net", "net"),
    ("repro.tcp", "tcp"),
    ("repro.l4lb", "l4lb"),
    ("repro.core.tcpstore", "core.tcpstore"),
    ("repro.core.controller", "core.controller"),
    ("repro.core.service", "core.controller"),
    ("repro.core.leader", "core.controller"),
    ("repro.core.assignment", "core.controller"),
    ("repro.autoscale", "core.controller"),
    ("repro.core", "core.instance"),
    ("repro.qos", "core.instance"),
    ("repro.kvstore", "kvstore"),
    ("repro.http", "http"),
    ("repro.workload", "workload"),
    ("repro.experiments", "workload"),
    ("repro.chaos", "chaos"),
    ("repro.obs", "obs"),
    ("repro.shard", "shard"),
)

_MISSING = object()
SPAN_CAP = 50_000  # spans kept for the span file, per traced repetition


def layer_of_class(cls: type) -> Optional[int]:
    """Layer of the nearest class in ``cls``'s MRO that the simulator
    defines (a subclass made elsewhere inherits its base's layer)."""
    for klass in cls.__mro__:
        layer = layer_of_module(klass.__module__)
        if layer is not None:
            return layer
    return None


def layer_of_module(module: str) -> Optional[int]:
    """Layer index for a module name, or None outside the simulator."""
    best = None
    best_len = -1
    for prefix, layer in MODULE_LAYERS:
        if (module == prefix or module.startswith(prefix + ".")) \
                and len(prefix) > best_len:
            best, best_len = LAYER_INDEX[layer], len(prefix)
    return best


class LayerTracer:
    """Span recorder with per-layer self-time accounting.

    Accounting is by layer transitions: a probe entering or leaving a span
    charges the host time since the previous transition to the layer that
    was running, so a span's self time is its duration minus its child
    spans, and ``unattributed`` collects the time outside every span.
    ``span_cap`` bounds the spans kept in memory for the span file; self
    times and call counts cover every span regardless.
    """

    def __init__(self, span_cap: int = SPAN_CAP):
        n = len(LAYERS)
        # one slot per layer, plus the last for time outside every span
        self.self_s: List[float] = [0.0] * (n + 1)
        self.calls: List[int] = [0] * n
        self.events = [0]  # event-loop callbacks fired
        self.syn_dispatches = [0]
        self.est_dispatches = [0]
        self.tap_records: List[int] = [0] * n  # per owning layer
        self.connections: List[object] = []  # every TcpConnection opened
        # kept spans, column-wise in flat arrays so the garbage collector
        # never walks them: (id, parent id) pairs, (start, end) pairs,
        # layer, and the request id (packet endpoints) or None
        self.span_ids = array("q")
        self.span_times = array("d")
        self.span_layers = array("b")
        self.span_reqs: List[Optional[tuple]] = []
        self.span_cap = span_cap
        self._stack: List[tuple] = []  # (enclosing layer, start, span id)
        self._now = [n, time.perf_counter()]  # running layer, its start
        self._ids = itertools.count(1)
        self._patches: List[Tuple[object, str, object]] = []
        self._layer_cache: Dict[object, Optional[int]] = {}
        self._make = self._probe_factory()

    # -- accounting ------------------------------------------------------
    def reset(self, at: float) -> None:
        """Zero every accumulator; the timed phase starts at host time
        ``at``."""
        if self._stack:
            raise RuntimeError("tracer reset inside an open span")
        n = len(LAYERS)
        self.self_s[:] = [0.0] * (n + 1)
        self.calls[:] = [0] * n
        self.tap_records[:] = [0] * n
        self.events[0] = 0
        self.syn_dispatches[0] = 0
        self.est_dispatches[0] = 0
        self.connections.clear()
        del self.span_ids[:], self.span_times[:], self.span_layers[:]
        self.span_reqs.clear()
        self._now[:] = [n, at]

    def stop(self, at: float) -> None:
        """Close the books at host time ``at`` (the end of the timed
        phase): charge the time since the last transition."""
        if self._stack:
            raise RuntimeError("tracer stopped inside an open span")
        self.self_s[self._now[0]] += at - self._now[1]
        self._now[1] = at

    @property
    def unattributed_s(self) -> float:
        return self.self_s[len(LAYERS)]

    def layer_of(self, fn: Callable) -> Optional[int]:
        """The layer owning a callable: its bound object's class module,
        else its own module."""
        owner = getattr(fn, "__self__", None)
        if owner is not None and not isinstance(owner, ModuleType):
            key = type(owner)
        else:
            fn = getattr(fn, "func", fn)  # functools.partial
            # closures share their code object, so the cache stays small
            key = getattr(fn, "__code__", fn)
        layer = self._layer_cache.get(key, _MISSING)
        if layer is _MISSING:
            layer = self._layer_cache[key] = (
                layer_of_class(key) if isinstance(key, type)
                else layer_of_module(getattr(fn, "__module__", None) or ""))
        return layer

    # -- probes ----------------------------------------------------------
    def _probe_factory(self) -> Callable:
        stack = self._stack
        now = self._now
        self_s = self.self_s
        calls = self.calls
        span_ids = self.span_ids
        span_times = self.span_times
        span_layers = self.span_layers
        span_reqs = self.span_reqs
        cap = self.span_cap
        ids = self._ids
        clock = time.perf_counter
        callback = self.callback

        def make(layer, fn, pkt_at, counts, count_at, wrap_callbacks):
            def traced(*args, **kwargs):
                if wrap_callbacks:
                    args = tuple(callback(a) if callable(a) else a
                                 for a in args)
                    for k, v in kwargs.items():
                        if callable(v):
                            kwargs[k] = callback(v)
                if counts is not None:
                    counts[count_at] += 1
                t0 = clock()
                outer = now[0]
                self_s[outer] += t0 - now[1]
                stack.append((outer, t0, next(ids)))
                now[0] = layer
                now[1] = t0
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    self_s[layer] += t1 - now[1]
                    outer, t0, sid = stack.pop()
                    now[0] = outer
                    now[1] = t1
                    calls[layer] += 1
                    if len(span_layers) < cap:
                        span_layers.append(layer)
                        span_ids.extend((sid, stack[-1][2] if stack else 0))
                        span_times.extend((t0, t1))
                        if pkt_at is None:
                            span_reqs.append(None)
                        else:
                            p = args[pkt_at]
                            span_reqs.append((p.src, p.dst))

            return traced

        return make

    def probe(self, layer: int, fn: Callable, pkt_at: Optional[int] = None,
              counter: Optional[Tuple[List[int], int]] = None,
              wrap_callbacks: bool = False) -> Callable:
        """Wrap ``fn`` so each call records one span in ``layer``.

        ``pkt_at`` is the positional index of a packet/trace-record
        argument whose (src, dst) endpoints identify the request;
        ``counter`` is a ``(counts, index)`` cell bumped per call;
        ``wrap_callbacks`` wraps callable arguments as owner-attributed
        callback probes.
        """
        counts, count_at = counter if counter is not None else (None, 0)
        return self._make(layer, fn, pkt_at, counts, count_at, wrap_callbacks)

    def callback(self, fn: Optional[Callable],
                 pkt_at: Optional[int] = None) -> Optional[Callable]:
        """Probe a callback in its owner's layer; callbacks from outside
        the simulator (builtins, the benchmark) run unwrapped, charged to
        whichever span invokes them."""
        if fn is None:
            return None
        layer = self.layer_of(fn)
        if layer is None:
            return fn
        return self._make(layer, fn, pkt_at, None, 0, False)

    # -- installation ----------------------------------------------------
    def _patch(self, owner: object, name: str, replacement: object) -> None:
        original = owner.__dict__.get(name, _MISSING)
        self._patches.append((owner, name, original))
        setattr(owner, name, replacement)

    def _wrap_method(self, cls: type, name: str, layer: str,
                     pkt_at: Optional[int] = None,
                     counter: Optional[Tuple[List[int], int]] = None,
                     wrap_callbacks: bool = False) -> None:
        self._patch(cls, name, self.probe(
            LAYER_INDEX[layer], getattr(cls, name), pkt_at=pkt_at,
            counter=counter, wrap_callbacks=wrap_callbacks))

    def install(self) -> None:
        """Patch every boundary.  Call before the world is built, so
        handlers and timers created during set-up are wrapped too."""
        from repro.http.client import BrowserClient
        from repro.kvstore.client import ReplicatingKvClient
        from repro.core.tcpstore import TcpStore
        from repro.l4lb.mux import L4Mux
        from repro.net.host import Host
        from repro.net.network import Network
        from repro.net.packet import PacketPool
        from repro.obs.plane import ObsPlane
        from repro.obs.profiler import SimProfiler
        from repro.obs.recorder import FlightRecorderHub
        from repro.obs.span import Tracer
        from repro.shard.barrier import BarrierCoordinator
        from repro.shard.gateway import ShardGateway
        from repro.shard.worker import ShardWorker
        from repro.sim.cpu import CpuModel
        from repro.sim.events import EventLoop
        from repro.sim.process import PeriodicTask, Timer
        from repro.tcp.endpoint import ConnectionHandler, TcpConnection, TcpStack

        tracer = self
        layer_of = self.layer_of
        make = self._make
        events = self.events

        # event callbacks: one span per fired event, in the owner's layer
        call_at = EventLoop.call_at

        def traced_call_at(loop, when, fn, *args):
            layer = layer_of(fn)
            if layer is not None:
                fn = make(layer, fn, None, events, 0, False)
            return call_at(loop, when, fn, *args)

        self._patch(EventLoop, "call_at", traced_call_at)
        self._wrap_method(EventLoop, "run", "sim")
        self._wrap_method(CpuModel, "execute", "sim")

        timer_init = Timer.__init__
        periodic_init = PeriodicTask.__init__
        self._patch(Timer, "__init__", lambda t, loop, callback: timer_init(
            t, loop, tracer.callback(callback)))
        self._patch(PeriodicTask, "__init__",
                    lambda t, loop, interval, callback: periodic_init(
                        t, loop, interval, tracer.callback(callback)))

        # packet handlers and the network's own boundaries
        set_handler = Host.set_handler
        self._patch(Host, "set_handler", lambda host, handler: set_handler(
            host, tracer.callback(handler, pkt_at=0)))
        set_export = Network.set_export_handler
        self._patch(Network, "set_export_handler",
                    lambda net, handler: set_export(
                        net, tracer.callback(handler, pkt_at=1)))
        add_trace = Network.add_trace

        def traced_add_trace(net, trace):
            cls = type(trace)
            layer = layer_of_class(cls)
            if layer is not None and not any(
                    o is cls and n == "record" for o, n, _ in self._patches):
                self._wrap_method(cls, "record", LAYERS[layer], pkt_at=1,
                                  counter=(tracer.tap_records, layer))
            return add_trace(net, trace)

        self._patch(Network, "add_trace", traced_add_trace)
        self._wrap_method(Network, "transmit", "net", pkt_at=2)
        self._wrap_method(Host, "deliver", "net", pkt_at=1)

        # l4lb: count SYN vs established dispatches at the boundary
        process = self.probe(LAYER_INDEX["l4lb"], L4Mux.process, pkt_at=1)
        syn, est = self.syn_dispatches, self.est_dispatches

        def traced_process(mux, pkt):
            if pkt.syn and not pkt.has_ack:
                syn[0] += 1
            else:
                est[0] += 1
            return process(mux, pkt)

        self._patch(L4Mux, "process", traced_process)

        # tcp: the application-facing API, and every connection opened
        self._wrap_method(TcpStack, "connect", "tcp")
        for name in ("send", "close", "abort"):
            self._wrap_method(TcpConnection, name, "tcp")
        conn_init = TcpConnection.__init__
        conns = self.connections

        def traced_conn_init(conn, *args, **kwargs):
            conn_init(conn, *args, **kwargs)
            conns.append(conn)

        self._patch(TcpConnection, "__init__", traced_conn_init)
        upcalls = ("on_connected", "on_data", "on_remote_close", "on_closed",
                   "on_error")
        for cls in _subclasses(ConnectionHandler):
            layer = layer_of_class(cls)
            if layer is None:
                continue
            for name in upcalls:
                if name in cls.__dict__:
                    self._wrap_method(cls, name, LAYERS[layer])

        # http client entry points
        self._wrap_method(BrowserClient, "fetch", "http", wrap_callbacks=True)
        self._wrap_method(BrowserClient, "load_page", "http",
                          wrap_callbacks=True)

        # flow-state store: the kv client and the TcpStore facade
        for name in ("set", "get", "delete"):
            self._wrap_method(ReplicatingKvClient, name, "kvstore",
                              wrap_callbacks=True)
        self._wrap_method(ReplicatingKvClient, "handle_response", "kvstore",
                          pkt_at=1)
        for name in ("store_client_syn", "store_server_conn", "checkpoint",
                     "put_ticket", "get_ticket", "get_by_client",
                     "get_by_server", "remove", "remove_server_index"):
            self._wrap_method(TcpStore, name, "core.tcpstore",
                              wrap_callbacks=True)

        # obs plane collectors (only reached while the plane is enabled)
        self._wrap_method(ObsPlane, "flight", "obs")
        for name in ("start", "end", "event"):
            self._wrap_method(Tracer, name, "obs")
        self._wrap_method(SimProfiler, "add", "obs")
        self._wrap_method(FlightRecorderHub, "note", "obs")

        # shard: barrier protocol, gateway, wire codec
        for name in ("inject", "run_window", "finish"):
            self._wrap_method(ShardWorker, name, "shard")
        self._wrap_method(BarrierCoordinator, "route", "shard")
        for name in ("drain", "inject_all"):
            self._wrap_method(ShardGateway, name, "shard")
        for name in ("detach", "adopt", "reclaim_detached"):
            self._wrap_method(PacketPool, name, "shard.wire")

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    # -- reading ---------------------------------------------------------
    def layer_totals(self) -> Dict[str, Tuple[float, int]]:
        """(self seconds, calls) per reported layer; ``shard.wire`` folds
        into ``shard``."""
        out = {name: (self.self_s[i], self.calls[i])
               for i, name in enumerate(LAYERS) if name != "shard.wire"}
        wire = LAYER_INDEX["shard.wire"]
        s, c = out["shard"]
        out["shard"] = (s + self.self_s[wire], c + self.calls[wire])
        return out

    def span_rows(self):
        """Kept spans as JSON-ready dicts."""
        for i, (layer, rid) in enumerate(zip(self.span_layers, self.span_reqs)):
            sid, pid = self.span_ids[2 * i], self.span_ids[2 * i + 1]
            t0, t1 = self.span_times[2 * i], self.span_times[2 * i + 1]
            yield {
                "id": sid, "layer": LAYERS[layer], "start": t0, "end": t1,
                "parent": pid or None,
                "req": f"tcp {rid[0]} > {rid[1]}" if rid else None,
            }


def _subclasses(cls: type) -> List[type]:
    out, todo = [], list(cls.__subclasses__())
    while todo:
        sub = todo.pop()
        out.append(sub)
        todo.extend(sub.__subclasses__())
    return out
