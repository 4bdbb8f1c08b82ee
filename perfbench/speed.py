"""Machine speed, sampled while the program runs.

The benchmark runs on a few cores of a shared host whose speed drifts:
on a 2-vCPU Xeon VM a fixed pure-Python loop took 0.14 to 0.31 s per
call within one minute, and the middle half of ten one-pass runs of the
corpus spread over 40% of their median.
A time measured on such a machine says as much about the neighbours as
about the program.  So while a pass runs, a fixed reference probe runs
at regular wall-clock intervals in the same process and thread (from a
``SIGALRM`` handler, between the program's bytecodes), and the pass is
reported in *reference seconds*: its wall time, less the time spent in
probes, times the mean speed the probes saw.  With ``REF_PROBE_S`` the
probe's time at the reference speed, a pass on a machine that runs
everything twice as slowly reads the same, while a program that does
twice the work reads twice as long.

The probe imports nothing from geotits, so no change to the program
moves the yardstick.  It does exact ``Fraction`` elimination and small
integer dictionary updates, the work that leads the program's profile.

The yardstick is not exact.  The probe's speed and the program's do not
move in strict proportion under every kind of load: over 89 two-second
pieces of the corpus, the measured times spread by 17% (standard
deviation of their logarithms) and the scaled ones by 3.5%.  And the
probe runs in the caches the program leaves, so a change to the
program's memory traffic moves the probe a little as well.
"""

import signal
import statistics
import time
from fractions import Fraction

# One probe's time at the reference speed.  On a 2-vCPU Intel Xeon VM
# (Python 3.11) the median of 2000 probes was 0.6 to 1.1 ms, as the
# host's load changed.  The value only sets the unit; it cancels when two
# runs are compared.
REF_PROBE_S = 0.0010

INTERVAL_S = 0.02  # one probe per 20 ms of a pass: about 5% of its wall time
# Set-up takes about 0.1 s: probing every 10 ms gives it 6 to 10 probes.
# Probes taken right after set-up, back to back, tracked its speed less
# well: over twelve groups of 15 corpus set-ups the group medians spread
# by 23% of their median that way, by 8% with probes during set-up.
SETUP_INTERVAL_S = 0.01

_MATRIX = [[(3 * i * i + 5 * j + 7 * i * j + 1) % 11 - 5 for j in range(7)] for i in range(6)]


def probe():
    """A fixed amount of work: Gauss-Jordan over Q of a 6x7 integer matrix,
    then 400 integer dictionary updates.  Returns the results."""
    rows = [[Fraction(x) for x in r] for r in _MATRIX]
    piv = 0
    for c in range(len(rows[0])):
        p = next((i for i in range(piv, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[piv], rows[p] = rows[p], rows[piv]
        inv = 1 / rows[piv][c]
        rows[piv] = [x * inv for x in rows[piv]]
        for i in range(len(rows)):
            if i != piv and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[piv])]
        piv += 1
    counts = {}
    for k in range(400):
        key = (k * 7) % 97
        counts[key] = counts.get(key, 0) + k * k
    return rows, counts


def timed_probe():
    t0 = time.perf_counter()
    probe()
    return time.perf_counter() - t0


def speed(probe_times):
    """Mean speed relative to the reference over the probe times.

    Probes come at even steps of wall time, so the mean of their speeds
    is the work done per second of the span, in probe units: a span of
    ``t`` seconds did ``t * speed`` reference seconds of work.  A probe
    slowed by an interrupt counts for at most its share; trimming the
    ends or taking the median instead tracked the pass less well (over
    89 two-second pieces of the corpus the scaled times spread by 4.3%
    and 6.7%, against 3.5% for the mean).
    """
    return statistics.fmean(REF_PROBE_S / t for t in probe_times)


class Sampler:
    """Runs ``probe`` every ``interval`` seconds of wall time while active.

        with Sampler() as s:
            work()
        net = elapsed - s.spent        # wall time of the work alone
        ref_seconds = net * s.speed()  # the same at the reference speed

    ``spent`` is the running total of probe time, so that a caller can
    take the probes out of any span inside the block.
    """

    def __init__(self, interval=INTERVAL_S):
        self.interval = interval
        self.times = []
        self.spent = 0.0
        self._previous = None

    def _on_alarm(self, signum, frame):
        t = timed_probe()
        self.times.append(t)
        self.spent += t

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def speed(self):
        """Mean speed over the probes so far; with none (a span shorter
        than one interval), over 20 probes run now."""
        return speed(self.times or [timed_probe() for _ in range(20)])
