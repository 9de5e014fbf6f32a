"""Microbenchmarks of the jet ring, timed outside the workloads.

A traced command only counts ring operations (wrapping each of the ~10^6
multiplies of a verify command would double its cost), so the cost of one
operation is measured here instead, with ``timeit`` on fixed operands built
through the public ring API.
"""

from __future__ import annotations

import statistics
import timeit
from typing import Dict, Tuple

REPEATS = 7
#: target seconds for one timeit repeat
REPEAT_S = 0.1


def _full_jet(order: int, shift: float):
    """A jet with every coefficient nonzero and a positive constant term."""
    from ewcontract.jets import Jet

    j = Jet.variable(order)
    total = Jet.const(1.5 + shift, order)
    power = Jet.const(1.0, order)
    for n in range(1, order + 1):
        power = power * j
        total = total + complex(0.3 / n, 0.1 * shift) * power
    return total


def _per_op_us(stmt) -> float:
    timer = timeit.Timer(stmt)
    probe = 50
    number = max(1, int(REPEAT_S * probe / timer.timeit(number=probe)))
    runs = timer.repeat(repeat=REPEATS, number=number)
    return statistics.median(runs) / number * 1e6


def ring_microbench() -> Dict[str, Tuple[float, str]]:
    """Median microseconds per ring operation, as name -> (value, unit)."""
    from ewcontract.group import generator

    a4, b4 = _full_jet(4, 0.0), _full_jet(4, 0.2)
    a8, b8 = _full_jet(8, 0.0), _full_jet(8, 0.2)
    m = generator(1, 4).matrix + generator(3, 4).matrix
    k = generator(2, 4).matrix + generator(3, 4).matrix
    return {
        "jets.mul_us.o4": (_per_op_us(lambda: a4 * b4), "us"),
        "jets.mul_us.o8": (_per_op_us(lambda: a8 * b8), "us"),
        "jets.add_us.o4": (_per_op_us(lambda: a4 + b4), "us"),
        "jets.inv_sqrt_us.o4": (_per_op_us(lambda: a4.inv_sqrt()), "us"),
        "jets.matmul_us.o4": (_per_op_us(lambda: m * k), "us"),
    }
