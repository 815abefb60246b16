"""Span tracer that wraps the program's callables from outside.

Nothing under ``src/`` knows it is traced.  Functions are replaced by an
identity scan over the globals of every loaded ``repro.*`` module (callers
hold ``from x import f`` references, so patching ``x.f`` alone misses
them); methods are replaced on the class.  Each thread keeps its own span
stack and span list, so recording takes no lock; a span is
``(name, start_ns, end_ns, parent)`` with ``parent`` an index into the same
thread's list.  SimMPI rank threads have no same-thread parent: their root
spans are *caused by* the ``comms.spmd_run`` span that was open when the
thread recorded its first span.

A target that no longer exists resolves to ``None`` with a warning — a
refactor of the program must never break the end-to-end run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
import types
import warnings

#: span name -> targets ``(module, qualname)``.  ``f`` is a module-level
#: function, ``C.m`` a method, ``*`` / ``C.*`` every public function of the
#: module / public plain method of the class (aggregated under one name).
TARGETS: dict[str, tuple[tuple[str, str], ...]] = {
    "lattice.weak_field_gauge": (("repro.lattice.random_fields", "weak_field_gauge"),),
    "lattice.make_clover": (("repro.lattice.clover", "make_clover"),),
    "lattice.host_apply": (("repro.lattice.dirac", "WilsonCloverOperator.apply"),),
    "gpu.dslash_kernel": (("repro.gpu.kernels", "dslash_kernel"),),
    "gpu.clover_kernel": (("repro.gpu.kernels", "clover_kernel"),),
    "gpu.gather_face_kernel": (("repro.gpu.kernels", "gather_face_kernel"),),
    "gpu.spinor_set": (("repro.gpu.fields", "DeviceSpinorField.set"),),
    "gpu.spinor_get": (("repro.gpu.fields", "DeviceSpinorField.get"),),
    "gpu.gauge_set": (("repro.gpu.fields", "DeviceGaugeField.set"),),
    "gpu.timeline": (
        ("repro.gpu.streams", "Timeline.submit_kernel"),
        ("repro.gpu.streams", "Timeline.submit_copy"),
        ("repro.gpu.streams", "Timeline.host_busy"),
        ("repro.gpu.streams", "Timeline.host_wait_until"),
        ("repro.gpu.streams", "Timeline.stream_synchronize"),
        ("repro.gpu.streams", "Timeline.device_synchronize"),
    ),
    "gpu.memcpy": (("repro.gpu.device", "VirtualGPU.memcpy"),),
    "comms.spmd_run": (("repro.comms.mpi_sim", "SimMPI.run"),),
    "comms.send": (("repro.comms.mpi_sim", "Comm.send"),),
    "comms.recv": (("repro.comms.mpi_sim", "Comm.recv"),),
    "comms.request_wait": (("repro.comms.mpi_sim", "Request.wait"),),
    "comms.allreduce": (("repro.comms.mpi_sim", "Comm.allreduce"),),
    "core.invert": (("repro.core.quda", "invert_multi"),),
    "core.invert_model": (("repro.core.quda", "invert_model_multi"),),
    "core.schur_setup": (("repro.core.dslash", "DeviceSchurOperator.setup"),),
    "core.schur_apply": (("repro.core.dslash", "DeviceSchurOperator.apply"),),
    "core.dslash_with_exchange": (("repro.core.parallel_dslash", "dslash_with_exchange"),),
    "core.blas": (("repro.core.blas", "*"),),
    "core.bicgstab_solve": (("repro.core.solvers.bicgstab", "bicgstab_solve"),),
    "core.autotune": (("repro.core.autotune", "autotune"),),
    "core.solve_checkpoint": (("repro.core.solvers.checkpoint", "CheckpointStore.contribute"),),
    "service.serve": (
        ("repro.service.service", "SolveService.serve"),
        ("repro.service.service", "SolveService.resume"),
    ),
    "service.queue_offer": (("repro.service.queueing", "AdmissionQueue.offer"),),
    "service.queue_ordered": (("repro.service.queueing", "AdmissionQueue.ordered"),),
    "service.queue_remove": (("repro.service.queueing", "AdmissionQueue.remove"),),
    "service.select_batch": (("repro.service.batching", "select_batch"),),
    "service.partition_by_tenant": (("repro.service.queueing", "partition_by_tenant"),),
    "service.place": (("repro.service.placement", "PlacementEngine.place"),),
    "service.worker_execute": (("repro.service.workers", "SimWorker.execute"),),
    "service.tenancy": (("repro.service.tenancy", "TenantRegistry.*"),),
    "service.health": (
        ("repro.service.health", "HealthBoard.*"),
        ("repro.service.health", "BrownoutController.*"),
    ),
    "service.checkpoint_commit": (("repro.service.campaign", "CampaignCheckpointStore.commit"),),
    "service.checkpoint_latest": (("repro.service.campaign", "CampaignCheckpointStore.latest"),),
    "service.report_collect": (("repro.service.metrics", "ServiceReport.collect"),),
    "codec.encode_record": (("repro.codec", "encode_record"),),
    "codec.decode_record": (("repro.codec", "decode_record"),),
    "bench.run_scaling_point": (("repro.bench.harness", "run_scaling_point"),),
}

#: Spans the benchmark records itself rather than by wrapping a target:
#: the SPMD body handed to ``SimMPI.run`` and the arrival iterator.
RANK_BODY = "comms.rank_body"
WORKLOAD_NEXT = "service.workload_next"


def resolve_module(name: str) -> types.ModuleType | None:
    """The module itself, through ``sys.modules``.

    ``repro.core.autotune`` the module is shadowed in its package by
    ``repro.core.autotune`` the function, so attribute access from the
    package returns the wrong object.
    """
    try:
        importlib.import_module(name)
    except ImportError:
        return None
    return sys.modules.get(name)


def _wire_bytes(args: tuple, kwargs: dict) -> int:
    """Bytes one ``Comm.send(data, dest, tag, nbytes=...)`` puts on the
    wire, computed from its arguments the way the program sizes them."""
    nbytes = kwargs.get("nbytes")
    if nbytes is not None:
        return nbytes
    data = args[1] if len(args) > 1 else kwargs.get("data")
    if hasattr(data, "nbytes"):
        return data.nbytes
    if isinstance(data, tuple):
        return max(sum(getattr(v, "nbytes", 0) for v in data), 64)
    return 64


class _ThreadLog:
    __slots__ = ("index", "name", "cause", "stack", "spans", "bytes_sent")

    def __init__(self, index: int, name: str, cause: tuple[int, int] | None) -> None:
        self.index = index
        self.name = name
        #: ``(thread index, span index)`` of the span that started this thread.
        self.cause = cause
        self.stack: list[int] = []
        self.spans: list[tuple[int, int, int, int] | None] = []
        self.bytes_sent = 0


class Tracer:
    """Install, run the workload, uninstall, then aggregate or dump."""

    def __init__(self) -> None:
        self.enabled = True
        self.names: list[str] = []
        self.threads: list[_ThreadLog] = []
        #: ``(span, target)`` for targets that did not resolve; those
        #: spans report null.
        self.unresolved: list[tuple[str, str]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._spmd_open: list[tuple[int, int]] = []
        self._patches: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter_ns()

    # -- recording --------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _log(self) -> _ThreadLog:
        try:
            return self._local.log
        except AttributeError:
            with self._lock:
                cause = self._spmd_open[-1] if self._spmd_open else None
                log = _ThreadLog(
                    len(self.threads), threading.current_thread().name, cause
                )
                self.threads.append(log)
            self._local.log = log
            return log

    def wrap(self, name: str, fn, *, kind: str = "plain"):
        """``fn`` recording one span per call under ``name``.

        ``kind="send"`` also counts wire bytes; ``kind="spmd"`` wraps the
        SPMD body (second positional argument) as ``comms.rank_body`` and
        marks the span as the cause of the threads it starts.
        """
        name_id = self._name_id(name)
        tracer = self
        clock = time.perf_counter_ns
        get_log = self._log
        body_name = RANK_BODY

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            log = get_log()
            spans = log.spans
            stack = log.stack
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            if kind == "send":
                log.bytes_sent += _wire_bytes(args, kwargs)
            elif kind == "spmd":
                args = (args[0], tracer.wrap(body_name, args[1]), *args[2:])
                tracer._spmd_open.append((log.index, index))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent)
                if kind == "spmd":
                    tracer._spmd_open.pop()

        return traced

    def iterate(self, name: str, iterable):
        """``iterable`` with every ``next()`` recorded as a span."""
        step = self.wrap(name, next)
        source = iter(iterable)
        done = object()
        while (item := step(source, done)) is not done:
            yield item

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        functions: dict[int, object] = {}
        for span, targets in TARGETS.items():
            kind = {"comms.send": "send", "comms.spmd_run": "spmd"}.get(span, "plain")
            for module_name, qualname in targets:
                found = self._install_target(span, module_name, qualname, kind, functions)
                if not found:
                    self.unresolved.append((span, f"{module_name}:{qualname}"))
                    warnings.warn(
                        f"ledger tracer: {module_name}:{qualname} not found; "
                        f"{span} reports null",
                        stacklevel=2,
                    )
        for module_name, module in list(sys.modules.items()):
            if module is None or module_name.split(".")[0] != "repro":
                continue
            for key, value in list(vars(module).items()):
                wrapped = functions.get(id(value))
                if wrapped is not None and isinstance(value, types.FunctionType):
                    self._patch(module, key, wrapped)

    def _install_target(self, span, module_name, qualname, kind, functions) -> bool:
        module = resolve_module(module_name)
        if module is None:
            return False
        owner_name, _, attr = qualname.rpartition(".")
        if not owner_name:
            if attr == "*":
                found = [
                    v for k, v in vars(module).items()
                    if isinstance(v, types.FunctionType)
                    and v.__module__ == module_name and not k.startswith("_")
                ]
            else:
                found = [vars(module).get(attr)]
                if not isinstance(found[0], types.FunctionType):
                    return False
            for fn in found:
                functions[id(fn)] = self.wrap(span, fn, kind=kind)
            return bool(found)
        owner = vars(module).get(owner_name)
        if not isinstance(owner, type):
            return False
        if attr == "*":
            attrs = [
                k for k, v in vars(owner).items()
                if isinstance(v, types.FunctionType) and not k.startswith("_")
            ]
        else:
            attrs = [attr]
        for key in attrs:
            raw = vars(owner).get(key)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self.wrap(span, raw.__func__, kind=kind))
            elif isinstance(raw, types.FunctionType):
                wrapped = self.wrap(span, raw, kind=kind)
            else:
                return False
            self._patch(owner, key, wrapped)
        return bool(attrs)

    def _patch(self, owner, key: str, wrapped) -> None:
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- reading ----------------------------------------------------------

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``busy_s`` (inclusive, summed over
        threads) and ``self_s`` (busy minus same-thread child spans)."""
        totals = {name: [0, 0, 0] for name in self.names}
        for log in self.threads:
            child = [0] * len(log.spans)
            for span in log.spans:
                if span is not None and span[3] >= 0:  # None: still open
                    child[span[3]] += span[2] - span[1]
            for index, span in enumerate(log.spans):
                if span is None:
                    continue
                name_id, start, end, _ = span
                entry = totals[self.names[name_id]]
                entry[0] += 1
                entry[1] += end - start
                entry[2] += end - start - child[index]
        return {
            name: {"calls": calls, "busy_s": busy / 1e9, "self_s": own / 1e9}
            for name, (calls, busy, own) in totals.items()
        }

    @property
    def bytes_sent(self) -> int:
        return sum(log.bytes_sent for log in self.threads)

    def dump(self, path, *, workload: str, extra: dict | None = None) -> None:
        """Write every span, columnar: span ``i`` is row ``i`` of each
        column, ``parent`` is a row number (``-1`` for a thread's root),
        and a thread's ``cause`` is the row of the span that started it."""
        offsets = []
        total = 0
        for log in self.threads:
            offsets.append(total)
            total += len(log.spans)
        columns: dict[str, list[int]] = {
            "name": [], "start_ns": [], "end_ns": [], "parent": [], "thread": [],
        }
        for t, log in enumerate(self.threads):
            for span in log.spans:
                name_id, start, end, parent = span or (-1, 0, 0, -1)
                columns["name"].append(name_id)
                columns["start_ns"].append(start - self._t0)
                columns["end_ns"].append(end - self._t0)
                columns["parent"].append(parent + offsets[t] if parent >= 0 else -1)
                columns["thread"].append(t)
        doc = {
            "workload": workload,
            "clock": "host perf_counter_ns since the tracer was created",
            "names": self.names,
            "unresolved": self.unresolved,
            "threads": [
                {
                    "name": log.name,
                    "first_span": offsets[t],
                    "spans": len(log.spans),
                    "cause": (
                        offsets[log.cause[0]] + log.cause[1]
                        if log.cause is not None
                        else None
                    ),
                }
                for t, log in enumerate(self.threads)
            ],
            "aggregate": self.aggregate(),
            "spans": columns,
            **(extra or {}),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")
