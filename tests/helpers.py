"""Shared test utilities: rank correlation, tiny oracles, a memory probe, the
name of the BLAS kernel behind numpy's matmul, a trace writer, a setter
of a forecaster's flat parameter vector and a recorder of what a
connection's receiver sees and sends."""

import ctypes
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np

from aqmsim.packets import F_ECE, F_SYN


def spearman(xs, ys) -> float:
    """Spearman rank correlation with average ranks on ties."""

    def rank(v):
        order = sorted(range(len(v)), key=lambda i: v[i])
        r = [0.0] * len(v)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and v[order[j + 1]] == v[order[i]]:
                j += 1
            avg = (i + j) / 2 + 1
            for k in range(i, j + 1):
                r[order[k]] = avg
            i = j + 1
        return r

    rx, ry = rank(list(xs)), rank(list(ys))
    n = len(rx)
    mx, my = sum(rx) / n, sum(ry) / n
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    den = math.sqrt(sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry))
    return num / den


def value_iteration(transitions, rewards, gamma, tol=1e-12, max_iter=100000):
    """Exact action values for a small deterministic MDP.

    transitions[s][a] -> next state, rewards[s][a] -> reward.
    """
    n_s = len(transitions)
    n_a = len(transitions[0])
    q = [[0.0] * n_a for _ in range(n_s)]
    for _ in range(max_iter):
        delta = 0.0
        for s in range(n_s):
            for a in range(n_a):
                nxt = transitions[s][a]
                new = rewards[s][a] + gamma * max(q[nxt])
                delta = max(delta, abs(new - q[s][a]))
                q[s][a] = new
        if delta < tol:
            break
    return q


def traced_peak(fn, *args, **kwargs):
    """Call fn(*args, **kwargs); return its result and the tracemalloc peak,
    in bytes, of the allocations made during the call."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def blas_core() -> str:
    """The OpenBLAS core that numpy's bundled scipy-openblas runs (for
    example "SkylakeX" or "Haswell"), or "unknown" when numpy does not link
    that library. Products, and so the forecaster pins, can differ between
    cores."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        corename = lib.scipy_openblas_get_corename64_
    except (AttributeError, OSError):
        return "unknown"
    corename.argtypes = []
    corename.restype = ctypes.c_char_p
    return corename().decode()


def stationary_off_probability(p_on_enter: float, p_on_stay: float) -> float:
    """Long-run share of OFF intervals in synth_trace's two-state chain."""
    leave = 1.0 - p_on_stay
    if p_on_enter + leave == 0:
        return 1.0
    return leave / (p_on_enter + leave)


def write_trace(series, path) -> None:
    """Write an EceSeries as the `interval_index,ece_count` CSV that
    ingest_trace reads."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i, c in enumerate(series.counts):
            fh.write(f"{i},{int(c)}\n")


def set_flat(model, flat) -> None:
    """Overwrite every forecaster parameter from one vector laid out as
    model.get_flat()."""
    model._flat[...] = flat


def record_receiver(conn) -> list:
    """The list that a run fills with what `conn`'s receiver sees and sends,
    SYNs skipped: ("data", ecn, flags) for each segment that arrives, then
    ("ack", ECE set, flags) for the ACK it answers with. Call before the
    run; it wraps the receiver's handler and its host's uplink."""
    log = []
    host = conn.dst
    handle, uplink = host.handlers[conn.cid], host.egress

    def on_segment(pkt):
        if not pkt.flags & F_SYN:
            log.append(("data", pkt.ecn, pkt.flags))
        handle(pkt)

    def send(pkt):
        if pkt.flow_id == conn.cid and not pkt.flags & F_SYN:
            log.append(("ack", bool(pkt.flags & F_ECE), pkt.flags))
        uplink.send(pkt)

    host.register(conn.cid, on_segment)
    host.egress = SimpleNamespace(send=send)
    return log
