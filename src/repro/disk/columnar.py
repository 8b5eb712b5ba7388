"""Columnar replay: the fast engine, over the trace's request columns.

The reference event loop in :mod:`repro.disk.simulator` asks a scheduler
object for every decision and steps the drive one Python method call per
request. The serve loop here reads the same four per-request arrays
(arrival, LBA, length, direction) for every FCFS and SSTF run. FCFS
serves in arrival order with no queue; SSTF keeps the ``window`` oldest
pending requests in a cylinder-sorted list (younger ones wait in a FIFO
backlog) and picks with the shared
:func:`~repro.disk.scheduler.pick_from_sorted` bisect kernel.

Each pick is served by one of two steps:

* **bare** — a :class:`~repro.disk.drive.DiskDrive` with no fault model,
  cache on or off. The drive's decision logic is inlined over one
  precompute of each request's cylinders and media time, exporting cache
  and head state before the loop and importing it after, and cache
  counters are tallied locally. When the drive's observer traces, the
  step collects one row per seek and per absorbed write and emits them
  after the loop as column blocks, so observability never changes which
  code serves a request;
* **hooked** — a fault model or a :class:`~repro.tier.TieredDevice`:
  each serve calls ``device.service_time`` and collects
  ``take_fault_event()``, with queue keys read from ``device.cylinder_of``
  at admission, exactly as the event loop reads them.

Both are *twins* of the event loop, not approximations: the same
decisions, float operations and RNG draw sequence as
:meth:`repro.disk.drive.DiskDrive.service_time` driven by the reference
loop, with the seek curve read from
:attr:`~repro.disk.mechanics.SeekProfile.curve`. Rotational latencies
are drawn in serve order (``Generator.uniform(0, h, size=n)`` yields the
same values as ``n`` scalar draws; the loop's block buffer leaves only
an unused tail drawn past a scalar replay). Start and service times are
bit-identical to ``fast_path=False``; equivalence is pinned by
``tests/test_simulator_fast.py`` and the hypothesis sweep in
``tests/test_simulator.py``.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from dataclasses import replace
from math import sqrt
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from repro.disk.drive import DiskDrive
from repro.disk.faults import FaultEvent
from repro.disk.mechanics import rotation_time
from repro.disk.scheduler import pick_from_sorted
from repro.units import SECTOR_BYTES

#: Rotational-latency draws are buffered in blocks of this many; bigger
#: blocks amortize the numpy call, the tail past the last media access is
#: discarded.
DRAW_BLOCK = 4096


class Replay(NamedTuple):
    """What a replay engine hands back to the simulator.

    ``start_times`` and ``service_times`` are in trace order; ``order``
    lists trace indices in the order they were served (per-serve logs
    such as a tier's hit log are in that order). ``cache_tally`` is
    ``(read_hits, writes_absorbed, writes_fallthrough)`` counted outside
    the cache's own hooks — zeros when the hooks ran and counted.
    """

    start_times: np.ndarray
    service_times: np.ndarray
    order: np.ndarray
    fault_events: List[FaultEvent]
    cache_tally: Tuple[int, int, int]


def run_fcfs_columnar(device, arrivals, lbas, sizes, is_write) -> Replay:
    """FCFS: arrival order, no queue."""
    return _replay(device, arrivals, lbas, sizes, is_write, None)


def run_sstf_columnar(device, arrivals, lbas, sizes, is_write) -> Replay:
    """SSTF with full queue visibility."""
    return _replay(device, arrivals, lbas, sizes, is_write, len(arrivals))


def run_sstf_windowed_columnar(
    device, arrivals, lbas, sizes, is_write, queue_depth: int
) -> Replay:
    """SSTF over the ``queue_depth`` oldest pending requests (NCQ)."""
    return _replay(device, arrivals, lbas, sizes, is_write, queue_depth)


def _precompute(drive: DiskDrive, lbas: np.ndarray, sizes: np.ndarray):
    """``(cyl_start, cyl_end, media, rotation)``: each request's first and
    last cylinder and media time as lists, with
    :meth:`DiskDrive.service_time`'s float operations."""
    geometry = drive.geometry
    rotation = rotation_time(drive.spec.rpm)
    cyl_start = geometry.cylinders_of(lbas)
    cyl_end = geometry.cylinders_of(lbas + sizes - 1)
    media = sizes * rotation / geometry.sectors_per_track_of(lbas)
    return cyl_start.tolist(), cyl_end.tolist(), media.tolist(), rotation


def _replay(
    device,
    arrivals: np.ndarray,
    lbas: np.ndarray,
    sizes: np.ndarray,
    is_write: np.ndarray,
    window: Optional[int],
) -> Replay:
    """The serve loop. ``window=None`` serves in arrival order (FCFS);
    an integer serves SSTF over the ``window`` oldest pending requests.

    The window invariant: ``pending`` always holds the
    ``min(window, pending requests)`` *oldest* pending requests.
    Admissions go to the window while it has room and to the backlog
    after (arrivals are admitted in arrival order, so backlog entries are
    uniformly older than later admissions), and each serve refills from
    the backlog head. A hooked device's keys are read at admission and
    kept, as the event loop's queue keeps them, because fault reassignment
    can move a request's cylinder while it waits.
    """
    n = len(arrivals)
    arrival_list = arrivals.tolist()
    lba_list = lbas.tolist()
    size_list = sizes.tolist()
    write_list = is_write.tolist()
    fcfs = window is None
    faults = device.faults
    hooked = not isinstance(device, DiskDrive) or faults is not None
    if hooked:
        service_time = device.service_time
        cylinder_of = device.cylinder_of
        take_fault_event = device.take_fault_event
        head = device.head_cylinder
        keys = [0] * n  # queue key of each request, set at admission
    else:
        nbytes_list = (sizes * SECTOR_BYTES).tolist()
        cyl_start, cyl_end, media_list, rotation = _precompute(device, lbas, sizes)
        keys = cyl_start
        single, t_boundary, k, slope = device.seek.curve
        boundary = device.seek._boundary
        max_distance = device.seek.max_distance
        config = device.spec.cache
        read_ahead = config.read_ahead
        write_back = config.write_back
        hit_overhead = config.hit_overhead
        buffer_cap = config.write_buffer_bytes
        ra_sectors = config.read_ahead_sectors
        seg_max = config.segment_count
        drain_rate = config.drain_rate
        overhead = device.spec.command_overhead
        segments, dirty, absorbed, drained_total, last_drain = (
            device.cache.export_state()
        )
        head, last_media_end = device.export_kinematics()
        rng_uniform = device._rng.uniform
        draw_buf: List[float] = []
        draw_pos = 0
        obs = device.obs
        tracing = obs is not None and obs.tracing
        seek_rows: List[tuple] = []  # (clock, from, to, distance, seconds)
        absorbed_rows: List[tuple] = []  # (clock, nbytes, dirty bytes)
    read_hits = 0
    absorbed_n = 0
    fallthrough_n = 0
    events: List[FaultEvent] = []

    starts = [0.0] * n
    services = [0.0] * n
    order = [0] * n  # serve order, written by SSTF picks only
    pending: List[Tuple[int, int]] = []  # (key, arrival index), sorted
    backlog: deque = deque()  # arrival indices past the window, in order
    next_arrival = 0
    clock = 0.0
    for served in range(n):
        if fcfs:
            i = served
            arrival = arrival_list[i]
            if arrival > clock:
                clock = arrival
        else:
            if not pending:
                arrival = arrival_list[next_arrival]
                if arrival > clock:
                    clock = arrival
            while next_arrival < n and arrival_list[next_arrival] <= clock:
                j = next_arrival
                if hooked:
                    keys[j] = cylinder_of(lba_list[j])
                if len(pending) < window:
                    insort(pending, (keys[j], j))
                else:
                    backlog.append(j)
                next_arrival += 1
            _, i = pending.pop(pick_from_sorted(pending, head))
            if backlog:
                j = backlog.popleft()
                insort(pending, (keys[j], j))
            order[served] = i

        if hooked:
            service = service_time(lba_list[i], size_list[i], write_list[i], clock)
            if faults is not None:
                event = take_fault_event()
                if event is not None:
                    events.append(replace(event, index=i))
            head = device.head_cylinder
        else:
            # DiskDrive.service_time, inlined: keep in lockstep with it.
            lba = lba_list[i]
            size = size_list[i]
            is_write = write_list[i]
            service = -1.0
            if is_write:
                if write_back:
                    shed = (clock - last_drain) * drain_rate
                    if shed > dirty:
                        shed = dirty
                    dirty -= shed
                    drained_total += shed
                    last_drain = clock
                    nbytes = nbytes_list[i]
                    if dirty + nbytes <= buffer_cap:
                        dirty += nbytes
                        absorbed += nbytes
                        absorbed_n += 1
                        service = hit_overhead
                        if tracing:
                            absorbed_rows.append((clock, nbytes, dirty))
                    else:
                        fallthrough_n += 1
            elif read_ahead:
                end = lba + size
                for seg_start, seg_stop in segments:
                    if seg_start <= lba and end <= seg_stop:
                        service = hit_overhead
                        read_hits += 1
                        break
            if service < 0.0:
                if lba == last_media_end:
                    positioning = 0.0
                else:
                    if draw_pos == len(draw_buf):
                        draw_buf = rng_uniform(0.0, rotation, DRAW_BLOCK).tolist()
                        draw_pos = 0
                    latency = draw_buf[draw_pos]
                    draw_pos += 1
                    distance = cyl_start[i] - head
                    if distance < 0:
                        distance = -distance
                    if distance == 0:
                        positioning = latency
                    else:
                        if distance <= boundary:
                            seek = single + k * (sqrt(distance) - 1.0)
                        else:
                            d = distance if distance < max_distance else max_distance
                            seek = t_boundary + slope * (d - boundary)
                        positioning = seek + latency
                        if tracing:
                            seek_rows.append(
                                (clock, head, cyl_start[i], distance, seek)
                            )
                head = cyl_end[i]
                last_media_end = lba + size
                if not is_write and read_ahead:
                    segments.append((lba, last_media_end + ra_sectors))
                    if len(segments) > seg_max:
                        del segments[0]
                service = overhead + positioning + media_list[i]
        starts[i] = clock
        services[i] = service
        clock += service

    if not hooked:
        device.cache.import_state(segments, dirty, absorbed, drained_total, last_drain)
        device.import_kinematics(head, last_media_end)
        if tracing:
            _emit_rows(
                obs, "seek", "drive", seek_rows,
                ("from_cylinder", "to_cylinder", "distance", "seconds"),
            )
            _emit_rows(
                obs, "write_absorbed", "cache", absorbed_rows,
                ("nbytes", "dirty_bytes"),
            )
    events.sort(key=lambda e: e.index)
    return Replay(
        np.asarray(starts, dtype=np.float64),
        np.asarray(services, dtype=np.float64),
        np.arange(n) if fcfs else np.asarray(order, dtype=np.int64),
        events,
        (read_hits, absorbed_n, fallthrough_n),
    )


def _emit_rows(obs, kind: str, source: str, rows: List[tuple], fields) -> None:
    """Emit rows of ``(clock, *payload)`` as one column block, with
    payload columns named by ``fields`` in order."""
    if rows:
        times, *columns = zip(*rows)
        obs.emit_columns(kind, source, times, **dict(zip(fields, columns)))
