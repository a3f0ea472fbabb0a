"""The parse helper: a forked process that parses the blocks of a large
file pass (`stream.DatasetSource._read_ranges`) it reaches before the
parent does. numpy's loader holds the GIL, so threads would not help.

The parent still reads and fingerprints every byte, in file order, and
copies each block it reads ahead into a slot of a small shared ring when
one is free. The helper parses the newest of those first, so its share
of a pass follows its speed. The parent never waits on it: a block whose
rows are not back in its turn, or that the helper could not parse, the
parent claims and parses itself, and the helper skips a claimed block it
has not started, so a pass yields the same rows and raises the same
errors as the serial loop, and on a busy host costs about what that loop
costs. The helper is killed and reaped before the pass ends. A pass that
starts in a process with more than one thread or with no idle CPU
(`_idle_cpu`) runs the serial loop.

`stream` imports this module only for a file of at least
`stream._HELPER_MIN_BYTES`, whose passes may fork a helper: every module
an import loads is compiled from its source where no bytecode is cached,
and so costs other runs time and memory.
"""

import math
import mmap
import os
import signal
import struct
from collections import deque

import numpy as np

from .errors import FormatError, SourceChangedError
from .stream import _BLOCK_ROWS, _csv_block

# The helper's ring slots, and the blocks the parent reads ahead of the one
# it yields, each offered to the helper: the newest is read 8 blocks before
# its turn. On a 2-vCPU host the helper took 221-233 of a csv-tall pass's
# 313 blocks, against at most 156 when it was handed every other block.
_HELPER_SLOTS = 8

# A helper maps the parent's pages as they were at the fork, and a page
# either process then writes is copied, so the helper can come to hold a
# copy of each page the pass rewrites: `experiment._memory_guard` charges a
# second copy of the run's own memory, and this many bytes more for the
# interpreter's pages. Measured, its private pages exceeded that second
# copy by at most 2.6 MB (CLI runs on 40,000 x 32 and 4,000 x 300 CSVs).
_HELPER_COPIED_BYTES = 8 << 20

# The pipe messages: parent to helper (slot, byte size, first line), and
# helper to parent (slot, row count or -1). Each is one atomic pipe write.
_TASK = struct.Struct("=3q")
_ANSWER = struct.Struct("=2q")


def _quota_cpus(directory, files):
    """quota / period read from `files` of a cgroup directory, which hold
    the two numbers between them, or inf for no quota ("max", -1) or
    none that can be read."""
    try:
        words = []
        for name in files:
            with open(os.path.join(directory, name), encoding="ascii") as fh:
                words += fh.read().split()
        quota, period = map(float, words)
    except (OSError, ValueError):
        return math.inf
    return quota / period if quota > 0 and period > 0 else math.inf


def _cgroup_cpus():
    """The CPUs the cgroup CPU quotas over this process allow it: the
    least quota / period of its cgroup and of each cgroup above it, read
    from cpu.max (cgroup v2) or cpu.cfs_quota_us and cpu.cfs_period_us (the
    v1 cpu controller) under /sys/fs/cgroup; inf where none is set or
    none can be read. A container's CPU limit is such a quota: it leaves
    the affinity mask whole, and a helper would spend the parent's quota."""
    try:
        with open("/proc/self/cgroup", encoding="utf-8") as fh:
            entries = [line.rstrip("\n").split(":", 2) for line in fh]
    except OSError:
        return math.inf
    cpus = math.inf
    for entry in entries:
        if len(entry) != 3:
            continue
        _, controllers, path = entry
        if not controllers:  # v2, mounted alone or beside v1
            mounts = ("/sys/fs/cgroup", "/sys/fs/cgroup/unified")
            files = ("cpu.max",)
        elif "cpu" in controllers.split(","):
            mounts = ("/sys/fs/cgroup/cpu",)
            files = ("cpu.cfs_quota_us", "cpu.cfs_period_us")
        else:
            continue
        # a container may see its own cgroup at the mount's root, so every
        # prefix of the path is tried, the root included
        parts = [part for part in path.split("/") if part]
        for mount in mounts:
            for depth in range(len(parts) + 1):
                cpus = min(cpus, _quota_cpus(os.path.join(mount, *parts[:depth]), files))
    return cpus


def _idle_cpu():
    """Whether a helper forked now would have a CPU to itself: this process
    runs one OS thread (/proc/self/task), and the CPUs it may use, its
    affinity mask's capped by its cgroup quota (`_cgroup_cpus`), are at
    least two and more than the kernel's count of runnable tasks, this
    one included (/proc/loadavg).

    A fork costs the parent page faults, which a helper with no CPU of
    its own cannot repay, and under a quota of one CPU the helper's work
    would be charged to the parent's share. numpy's BLAS threads, by
    default one a CPU, spin for a while after each BLAS call: on a 2-vCPU
    host they took the CPU from the SCHED_IDLE helper, and CLI runs on a
    40,000 x 32 CSV that forked it read x1.04 (7 of 20 pairs faster than
    without it). With one thread, too, the helper inherits no lock another
    thread holds, and Python 3.12 and later do not warn on the fork.
    """
    try:
        if len(os.listdir("/proc/self/task")) != 1:
            return False
        cpus = min(len(os.sched_getaffinity(0)), _cgroup_cpus())
        with open("/proc/loadavg", encoding="ascii") as fh:
            runnable = int(fh.read().split()[3].split("/")[0])
    except (AttributeError, OSError, ValueError, IndexError):  # no way to tell here
        return False
    return 2 <= cpus and runnable < cpus


class _ParseHelper:
    """A forked process, at nice 19 and, where the platform has it, in the
    SCHED_IDLE class, that parses blocks a pass hands it. SCHED_IDLE lets
    it run only on a CPU no other task wants, and never preempt the
    parent when a task wakes it; at nice 19 alone it still took about a
    tenth of the parent's time on a 2-vCPU host whose other CPU ran a
    busy loop.

    The parent copies a block's bytes into one of `_HELPER_SLOTS` slots of
    an anonymous shared ring and writes (slot, size, first line) to a pipe.
    The helper takes the newest task it has read first, parses the bytes
    with `_csv_block`, writes the rows into the slot's rows area, and
    answers (slot, row count), or (slot, -1) when it could not parse them.
    It reads no file and sends no error: the parent parses such a block
    itself, and so raises what the serial loop raises.

    A block whose rows are not back in its turn the parent claims: it sets
    the slot's byte in the ring's last `_HELPER_SLOTS` bytes and parses the
    block itself. The helper answers a claimed task it has not started
    with -1, unparsed. A slot is free again once the parent has taken its
    rows, or, for a claimed block, once the helper's answer for it is in:
    the helper may still be writing into it until then. The parent never
    waits for an answer, so a stopped, killed or slow helper only costs
    the parent the blocks it parses itself. Once the helper has missed its
    turn more than 2 * `_HELPER_SLOTS` times more often than it made it,
    it is `retired`, and the parent hands it nothing more: a helper that
    gets no CPU of its own could only take the parent's. `stop` closes the
    pipes, kills and reaps the helper, and closes the ring.
    """

    def __init__(self, d, block_bytes):
        self.d = d
        self._block_bytes = block_bytes
        self._stride = block_bytes + 8 * _BLOCK_ROWS * d
        self._claims = _HELPER_SLOTS * self._stride  # the ring's claim bytes
        self._free = list(range(_HELPER_SLOTS))
        self._sizes = [0] * _HELPER_SLOTS
        self._answers = {}   # slot -> row count the helper sent, not yet taken
        self._orphans = set()  # slots the parent claimed, still unanswered
        self._taken = self._missed = 0  # helper blocks whose rows were back, or not
        self.retired = False  # offered nothing more: it missed too many turns, or exited
        self.ring = mmap.mmap(-1, _ring_bytes(d, block_bytes))
        fds = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            tasks, self._tasks, self._answers_fd, answers = fds
            self.pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            self.ring.close()
            raise
        if self.pid == 0:
            try:
                os.close(self._tasks)
                os.close(self._answers_fd)
                os.nice(19)
                try:
                    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
                except (AttributeError, OSError):  # not on this platform
                    pass
                self._serve(tasks, answers)
            finally:
                os._exit(0)
        os.close(tasks)
        os.close(answers)
        os.set_blocking(self._answers_fd, False)

    def _serve(self, tasks, answers):
        """The helper's loop, until the parent closes the task pipe: it waits
        for a task only when it holds none, answers the claimed ones with
        -1, and parses the newest of the rest."""
        queued = []
        while True:
            os.set_blocking(tasks, not queued)
            try:
                got = os.read(tasks, _HELPER_SLOTS * _TASK.size)
            except BlockingIOError:  # none new
                got = None
            if got == b"":
                return
            if got:
                queued += _TASK.iter_unpack(got)
            claimed = [task for task in queued if self.ring[self._claims + task[0]]]
            if claimed:
                queued = [task for task in queued if task not in claimed]
                os.write(answers, b"".join(_ANSWER.pack(slot, -1) for slot, _, _ in claimed))
            if not queued:
                continue
            slot, size, first_line = queued.pop()
            base = slot * self._stride
            count = -1
            try:
                rows = _csv_block(self.ring[base:base + size], first_line, self.d)
            except (FormatError, ValueError):  # the parent raises it in its turn
                pass
            else:
                if rows.nbytes <= self._stride - self._block_bytes:
                    np.frombuffer(self.ring, np.float64, rows.size,
                                  base + self._block_bytes)[:] = rows.ravel()
                    count = len(rows)
            os.write(answers, _ANSWER.pack(slot, count))

    def send(self, data, first_line):
        """Hand the helper a block's bytes, first at line `first_line`;
        returns its slot, or None when no slot is free, the helper has
        exited, or it has missed too many turns (see the class)."""
        if self.retired:
            return None
        if not self._free:
            self._collect()
            if not self._free:
                return None
        slot = self._free.pop()
        base = slot * self._stride
        self.ring[base:base + len(data)] = data
        self.ring[self._claims + slot] = 0
        try:
            os.write(self._tasks, _TASK.pack(slot, len(data), first_line))
        except BrokenPipeError:  # the helper has exited: no slot frees again
            self.retired = True
            return None
        self._sizes[slot] = len(data)
        return slot

    def take(self, slot, first_line):
        """The rows of the block in `slot`: the helper's if they are back,
        else the parent's own parse of the slot's bytes, claimed first so
        that a helper that has not started it skips it."""
        self._collect()
        base = slot * self._stride
        count = self._answers.pop(slot, None)
        if count is None or count < 0:
            if count is None:
                self.ring[self._claims + slot] = 1
                self._orphans.add(slot)
                self._missed += 1
                self.retired |= self._missed > self._taken + 2 * _HELPER_SLOTS
            else:
                self._free.append(slot)
            return _csv_block(self.ring[base:base + self._sizes[slot]], first_line, self.d)
        self._free.append(slot)
        self._taken += 1
        offset = base + self._block_bytes
        return np.frombuffer(self.ring, np.float64, count * self.d, offset).reshape(
            count, self.d).copy()

    def _collect(self):
        """Take in the answers the helper has sent, without waiting."""
        try:
            got = os.read(self._answers_fd, _HELPER_SLOTS * _ANSWER.size)
        except BlockingIOError:
            return
        for slot, count in _ANSWER.iter_unpack(got):
            if slot in self._orphans:
                self._orphans.remove(slot)
                self._free.append(slot)
            else:
                self._answers[slot] = count

    def stop(self):
        """Close the pipes, kill and reap the helper, and close the ring."""
        os.close(self._tasks)
        os.close(self._answers_fd)
        try:
            os.kill(self.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            os.waitpid(self.pid, 0)
        except ChildProcessError:  # reaped by someone else
            pass
        self.ring.close()


def start_helper(d, block_bytes):
    """A `_ParseHelper` for a pass whose blocks hold at most `block_bytes`
    bytes, or None when no CPU is idle (`_idle_cpu`) or no pipe, mapping
    or process can be made: the pass then runs `stream._parsed`."""
    if not _idle_cpu():
        return None
    try:
        return _ParseHelper(d, block_bytes)
    except OSError:
        return None


def parsed_with_helper(verified, d, helper):
    """(block, rows) of each verified block in turn, as `stream._parsed`
    gives them, with the blocks `helper` reaches first parsed by it. The
    caller stops the helper.

    The parent reads up to `_HELPER_SLOTS` blocks ahead of the one it
    yields and offers each to the helper as it reads it, copying its bytes
    into a free ring slot, so the helper has blocks to parse while the
    parent does the rest of the pass's work; a block read while no slot is
    free the parent parses itself. An error reading ahead is raised in its
    turn, after the blocks before it.
    """
    pending = deque()  # (block, its bytes or its slot), in file order
    reading = True
    while True:
        while reading and len(pending) < _HELPER_SLOTS:
            try:
                block, data = next(verified)
            except StopIteration:
                reading = False
                break
            except (SourceChangedError, OSError) as exc:
                pending.append((exc, None))
                reading = False
                break
            slot = helper.send(data, block[0] + 1)
            pending.append((block, data if slot is None else slot))
        if not pending:
            return
        block, held = pending.popleft()
        if isinstance(block, Exception):
            raise block
        if isinstance(held, bytes):
            yield block, _csv_block(held, block[0] + 1, d)
        else:
            yield block, helper.take(held, block[0] + 1)


def _ring_bytes(d, block_bytes):
    """The ring's size: `_HELPER_SLOTS` slots of `block_bytes` bytes and
    8 * `_BLOCK_ROWS` * d bytes of rows each, and a claim byte a slot."""
    return _HELPER_SLOTS * (block_bytes + 8 * _BLOCK_ROWS * d + 1)


def helper_bytes(d, block_bytes):
    """Bytes a helper adds to a pass over blocks of at most `block_bytes`
    bytes of d-column rows, beyond a copy of the run's own memory (see
    `_HELPER_COPIED_BYTES`): the parent's ring (`_ring_bytes`), its up to
    `_HELPER_SLOTS` read-ahead blocks' bytes, and `_HELPER_COPIED_BYTES`."""
    return _ring_bytes(d, block_bytes) + _HELPER_SLOTS * block_bytes + _HELPER_COPIED_BYTES
