"""The benchmark's workloads: the `cartanmaps verify` calls each one makes.

Every input is generated here from the workload seed; the program only ever
receives the resulting command lines.  A workload is a sequence of units of
work (one sweep, or one pass over a batch of single-prime calls).  A timed run
repeats units until its time is up; a traced run makes exactly the first unit,
so its counts repeat exactly for a seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# 3..23 rather than the full desk range 3..31: one sweep of 3..31 takes about
# 50 s on a 2-core machine, too long to repeat within a run and to fit the
# number of runs a comparison needs.  ell = 23 still spends about 85% of its
# time in the h_s phase (dense mod-p elimination), as ell = 31 does.
SWEEP_LO, SWEEP_HI = 3, 23
SWEEP_RANGE = f"{SWEEP_LO}..{SWEEP_HI}"
SMALL_PRIMES = (3, 5, 7)
# Calls per prime in one batch pass of small-primes.  Every pass holds the
# same number of calls for each prime, so the mix, and with it the cost of a
# pass, is the same for every seed; only the order and the choices of
# non-square, primitive root and sampling seed vary.
CALLS_PER_PRIME = 20


@dataclass(frozen=True)
class Call:
    """One `verify` command line and the reference key of each prime it checks."""

    argv: tuple[str, ...]
    keys: tuple[str, ...]


# Workload name -> verify --jobs.  Why each workload exists is recorded in
# BENCHMARK.json and perfbench/meta.json.
WORKLOADS = {"desk-sweep": 1, "small-primes": 1, "desk-sweep-jobs2": 2}


def sweep_key(ell: int) -> str:
    return f"sweep:{ell}"


def single_key(ell: int, epsilon: int, root: int) -> str:
    return f"single:{ell}:{epsilon}:{root}"


def nonsquares(p: int) -> list[int]:
    return [a for a in range(1, p) if pow(a, (p - 1) // 2, p) == p - 1]


def primitive_roots(p: int) -> list[int]:
    return [a for a in range(1, p)
            if len({pow(a, k, p) for k in range(1, p)}) == p - 1]


def sweep_primes() -> list[int]:
    return [p for p in range(SWEEP_LO, SWEEP_HI + 1)
            if p % 2 and all(p % d for d in range(3, int(p ** 0.5) + 1, 2))]


def sweep_call(jobs: int, seed: int) -> Call:
    argv = ("verify", "--ell-range", SWEEP_RANGE, "--jobs", str(jobs),
            "--seed", str(seed))
    return Call(argv, tuple(sweep_key(e) for e in sweep_primes()))


def single_call(ell: int, epsilon: int, root: int, seed: int) -> Call:
    argv = ("verify", "--ell", str(ell), "--epsilon", str(epsilon),
            "--root", str(root), "--all-epsilon", "--strict-roots",
            "--seed", str(seed))
    return Call(argv, (single_key(ell, epsilon, root),))


def units(workload: str, seed: int):
    """Yield the workload's units of work, each a list of calls, without end."""
    if workload == "small-primes":
        rng = random.Random(f"small-primes:{seed}")
        choices = {p: (nonsquares(p), primitive_roots(p)) for p in SMALL_PRIMES}
        while True:
            ells = [p for p in SMALL_PRIMES for _ in range(CALLS_PER_PRIME)]
            rng.shuffle(ells)
            batch = []
            for e in ells:
                eps_choices, root_choices = choices[e]
                batch.append(single_call(e, rng.choice(eps_choices),
                                         rng.choice(root_choices),
                                         rng.randrange(1 << 31)))
            yield batch
    else:
        call = sweep_call(WORKLOADS[workload], seed)
        while True:
            yield [call]


def all_reference_calls() -> list[Call]:
    """Every distinct input any seed can generate, for recording the reference."""
    calls = [sweep_call(1, 0)]
    for p in SMALL_PRIMES:
        for eps in nonsquares(p):
            for g in primitive_roots(p):
                calls.append(single_call(p, eps, g, 0))
    return calls
