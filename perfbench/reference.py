"""A fixed piece of pure-Python work that tells the benchmark how fast the machine is right now.

launcher.py times `measure()` right before it starts each program process.
Nothing here imports mmsverify, so no change to the program moves it. Its
mix follows the program's: a k-subset sum walk, a dictionary DP over
compositions and Fraction arithmetic. On a shared host every process's
speed swings with the neighbours' load; run.py scales the program's times by
how much slower or faster this work ran than REFERENCE_S (see run.py).
"""

import time
from fractions import Fraction
from itertools import combinations

VALUES = [37, -12, 5, -40, 18, 3, -7, 25, -30, 11, -2, 9, -16, 28, -21, 6, -14, 20, -11, 1, -33, 15]


def walk(values: list[int], k: int) -> int:
    return sum(1 for s in map(sum, combinations(values, k)) if s >= 0)


def dp(n: int, k: int) -> int:
    """Number of compositions of n into k parts of at most 6, by a dictionary DP."""
    ways = {0: 1}
    for _ in range(k):
        step: dict = {}
        for total, count in ways.items():
            for part in range(1, 7):
                if total + part <= n:
                    step[total + part] = step.get(total + part, 0) + count
        ways = step
    return ways.get(n, 0)


def fractions(count: int) -> Fraction:
    acc = Fraction(0)
    for i in range(1, count):
        acc += Fraction((-1) ** i * i, i + 3)
    return acc


def measure() -> tuple[float, float]:
    """Wall and CPU seconds of one fixed unit of work."""
    wall, cpu = time.perf_counter(), time.process_time()
    walk(VALUES, 6)
    for n in range(16, 97, 4):
        dp(n, 16)
    fractions(2400)
    return time.perf_counter() - wall, time.process_time() - cpu
