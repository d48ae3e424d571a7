"""Seeded request generators for the three benchmark workloads.

Every generator is a pure function of its seed: the same seed yields the
same request lines, so two runs (or two commits) see identical inputs.
The mix of request kinds follows a fixed schedule over the request
index and the seed draws the details (offsets, machines, layouts).
The compile stream opens with a yardstick that no seed changes, so the
quality sums taken over it are the same for every seed.
"""

import bisect
import hashlib
import json
import random

BUILTIN_KERNELS = [
    "paper_example", "fir", "biquad", "convolution", "correlation",
    "matmul", "matvec", "fft_butterfly", "dct8", "dotprod", "vecadd",
    "lms_update", "filter2d_3x3",
]
REGISTRY_MACHINES = [
    "tms320c25", "tms320c54x", "adsp218x", "dsp56002", "minimal2", "wide4",
]
MACHINE_FILES = [
    "workloads/machines/%s.machine" % name
    for name in ("arm946e", "dsp56300", "msp430x", "minimal2", "wide4")
]
LAYOUTS = ["contiguous", "declaration-padded", "soa-liao", "goa"]
LAYOUT_WEIGHTS = [5, 2, 2, 1]
STRATEGIES = ["two-phase", "exact", "naive", "random-merge", "round-robin",
              "greedy-online"]
STRATEGY_WEIGHTS = [10, 3, 2, 1, 1, 2]
FAMILIES = ["uniform", "clustered", "strided", "sorted-noise", "skewed"]
SHAPES = ["fir", "stencil", "biquad", "butterfly"]


def dumps(request):
    """The canonical request line (no trailing newline)."""
    return json.dumps(request, separators=(",", ":"))


def pattern_offsets(rng, family, n, r):
    """One draw of `n` offsets within [-r, r] from a pattern family."""
    if family == "uniform":
        return [rng.randint(-r, r) for _ in range(n)]
    if family == "clustered":
        centers = [rng.randint(-r, r) for _ in range(max(1, n // 5))]
        return [max(-r, min(r, rng.choice(centers) + rng.randint(-2, 2)))
                for _ in range(n)]
    if family == "strided":
        lattice = min(r, max(2, r // 4))
        steps = r // lattice
        return [max(-r, min(r, rng.randint(-steps, steps) * lattice +
                            rng.randint(-1, 1))) for _ in range(n)]
    if family == "sorted-noise":
        out = [-r + (2 * r * i) // max(1, n - 1) for i in range(n)]
        for _ in range(n // 4):
            a, b = rng.randrange(n), rng.randrange(n)
            out[a], out[b] = out[b], out[a]
        return out
    # skewed: three stride-1 ramps, most of the stream on the first one.
    cursor, current, out = [-r, 0, r], 0, []
    for _ in range(n):
        if rng.randrange(4) == 0:
            draw = rng.randrange(8)
            current = 0 if draw < 6 else 1 + (draw - 6) % 2
        out.append(max(-r, min(r, cursor[current])))
        cursor[current] += 1
        if cursor[current] > r:
            cursor[current] = -r
    return out


def single_array_kernel(name, offsets, iterations):
    return {
        "name": name, "iterations": iterations,
        "arrays": [{"name": "a", "size": 512}],
        "accesses": [{"array": "a", "offset": o, "stride": 1}
                     for o in offsets],
    }


def shape_kernel(rng, name, shape, n, iterations):
    """A DSP loop-body shape with drawn offsets, about `n` accesses."""
    accesses = []

    def acc(array, offset, stride=1, write=False):
        entry = {"array": array, "offset": offset, "stride": stride}
        if write:
            entry["write"] = True
        accesses.append(entry)

    if shape == "fir":
        shift = rng.randint(0, 8)
        for j in range(max(2, n // 2)):
            acc("h", j + rng.randint(0, 1))
            acc("x", shift - j)
        arrays = [("h", 64), ("x", 256)]
    elif shape == "stencil":
        width = rng.choice([16, 32, 64])
        row = rng.randint(0, 2)
        while len(accesses) < n - 1:
            acc("a", row * width + rng.randint(-2, 2), 1)
            row = (row + rng.randint(0, 1)) % 3
        acc("b", rng.randint(0, 3), 1, True)
        arrays = [("a", 4 * width), ("b", width)]
    elif shape == "biquad":
        # Cascaded sections: each reads three x and two y delays and
        # writes one y.
        while len(accesses) < n:
            base = 8 * (len(accesses) // 6)
            for d in sorted(rng.sample(range(0, 4), 3)):
                acc("x", base - d)
            for d in sorted(rng.sample(range(1, 4), 2)):
                acc("y", base - d)
            acc("y", base, 1, True)
        accesses = accesses[:n]
        arrays = [("x", 128), ("y", 128)]
    else:  # butterfly
        half = rng.choice([8, 16, 32])
        while len(accesses) < n:
            k = rng.randint(0, 3)
            acc("x", k)
            acc("x", k + half)
            acc("w", rng.randint(0, 7), 2)
        accesses = accesses[:n]
        arrays = [("x", 4 * half), ("w", 64)]
    return {
        "name": name, "iterations": iterations,
        "arrays": [{"name": a, "size": s} for a, s in arrays],
        "accesses": accesses,
    }


def shifted(rng, kernel):
    """Moves every access by one drawn distance. The allocation problem
    (the distances between accesses) is unchanged, but the addresses,
    and so the request, are new; without it the small families run out
    of distinct draws within a long stream."""
    base = rng.randint(-500, 500)
    for access in kernel["accesses"]:
        access["offset"] += base
    return kernel


def machine_fields(rng, index, registers):
    """Registry or file machine, with the register count overridden."""
    if index % 5 == 4:
        return {"machine_file": MACHINE_FILES[rng.randrange(len(MACHINE_FILES))],
                "registers": registers}
    fields = {"machine": rng.choice(REGISTRY_MACHINES), "registers": registers}
    if index % 3 == 0:
        fields["modify_range"] = rng.randint(1, 3)
    return fields


def short_request(rng, index):
    """A 4-16-access loop body, kind and K fixed by the index."""
    n = 4 + (index * 7) % 13
    registers = 2 + index % 3
    name = "k%d" % index
    if index % 3 == 2:
        kernel = shape_kernel(rng, name, SHAPES[(index // 3) % len(SHAPES)], n,
                              16 + 16 * (index % 3))
    else:
        family = FAMILIES[(index // 3) % len(FAMILIES)]
        kernel = single_array_kernel(
            name, pattern_offsets(rng, family, n, rng.randint(6, 24)),
            16 + 16 * (index % 3))
    request = {"kernel": shifted(rng, kernel)}
    request.update(machine_fields(rng, index, registers))
    return request


def long_request(rng, index):
    """A 50-200-access unrolled body for the tiled ladder (K = 2)."""
    n = 50 + (index * 37) % 151
    family = ("uniform", "strided", "skewed")[index % 3]
    kernel = single_array_kernel(
        "u%d" % index, pattern_offsets(rng, family, n, 12), 8)
    return {"kernel": shifted(rng, kernel),
            "machine": rng.choice(REGISTRY_MACHINES),
            "registers": 2, "modify_range": 1, "phase2": "tiled",
            "phase2_window": "auto"}


def _unique(rng, make, seen):
    """Draws from `make(rng)` until the request is new to `seen`."""
    while True:
        request = make(rng)
        key = hashlib.blake2b(dumps(
            {k: v for k, v in request.items() if k != "kernel"} |
            {"accesses": request.get("kernel", {}).get("accesses"),
             "arrays": request.get("kernel", {}).get("arrays"),
             "builtin": request.get("builtin")}).encode(),
            digest_size=16).digest()
        if key not in seen:
            seen.add(key)
            return request


# ------------------------------------------------------------ serve-replay

def replay_corpus(seed, size):
    """`size` distinct requests: builtin and generated kernels over
    registry and file machines, varied K, M, layout and strategy; one in
    50 is a long tiled body. No request races: a race's learned winners
    are written to the store, which would make the log change under
    replay."""
    rng = random.Random("serve-replay/%d" % seed)
    seen = set()
    corpus = []
    for index in range(size):
        slot = index % 50

        def make(r, index=index, slot=slot):
            if slot == 0:
                request = long_request(r, index)
                request["registers"] = 2 + index % 2
                return request
            if slot % 4 == 1:
                request = {"builtin": r.choice(BUILTIN_KERNELS)}
                request.update(machine_fields(r, index, r.randint(1, 4)))
            else:
                request = short_request(r, index)
            request["strategy"] = r.choices(STRATEGIES, STRATEGY_WEIGHTS)[0]
            request["layout"] = r.choices(LAYOUTS, LAYOUT_WEIGHTS)[0]
            return request

        corpus.append(_unique(rng, make, seen))
    # Shuffle so Zipf ranks do not follow the kind schedule.
    rng.shuffle(corpus)
    return corpus


class ZipfDraws:
    """Endless seeded Zipf(s) draws of corpus indices."""

    def __init__(self, seed, size, exponent=1.0):
        self._rng = random.Random("zipf/%d" % seed)
        total, self._cum = 0.0, []
        for rank in range(size):
            total += 1.0 / (rank + 1) ** exponent
            self._cum.append(total)

    def next(self):
        return bisect.bisect_left(self._cum, self._rng.random() * self._cum[-1])


# ---------------------------------------------------------- compile-stream

def compile_stream(seed, yardstick):
    """Endless stream of never-repeated requests: mostly short bodies,
    one in 100 a long unrolled body sent tiled with an auto window, two
    in 100 raced with `strategy: auto`. The first `yardstick` requests
    are the same for every seed; the seed draws the rest."""
    fixed = random.Random("compile-stream/yardstick")
    seeded = random.Random("compile-stream/%d" % seed)
    seen = set()
    index = 0
    while True:
        slot = index % 100

        def make(r, index=index, slot=slot):
            if slot == 50:
                return long_request(r, index)
            request = short_request(r, index)
            if slot in (25, 75):
                request["strategy"] = "auto"
            request["layout"] = r.choices(LAYOUTS, LAYOUT_WEIGHTS)[0]
            return request

        yield _unique(fixed if index < yardstick else seeded, make, seen)
        index += 1


# -------------------------------------------------------------- solve-hard

def _stencil_prefix(accesses):
    """The first `accesses` of stencil3x3_unroll8's body (K = 3 set)."""
    body = []
    for copy in range(8):
        for row in (0, 64, 128):
            for col in range(3):
                body.append({"array": "a", "offset": row + col + copy,
                             "stride": 8})
        body.append({"array": "b", "offset": copy, "stride": 8,
                     "write": True})
    return {"name": "stencil%d" % accesses, "iterations": 7,
            "arrays": [{"name": "a", "size": 192}, {"name": "b", "size": 64}],
            "accesses": body[:accesses]}


# (label, family or None for the stencil, N, K, offset range, draw, extra
# request fields). Each instance takes about 0.05-1.5 s sequentially on a
# 4-vCPU Xeon VM; one stops at the 2M-node cap, and the full stencil runs
# the tiled ladder.
HARD_SET = [
    ("stencil56-k3", None, 56, 3, 0, 0, {}),
    ("stencil80-k3-tiled", None, 80, 3, 0, 0,
     {"phase2": "tiled", "phase2_window": "auto"}),
    ("uniform28-k3", "uniform", 28, 3, 10, 0, {}),
    ("uniform30-k3", "uniform", 30, 3, 10, 1, {}),
    ("strided30-k3", "strided", 30, 3, 16, 0, {}),
    ("strided32-k3", "strided", 32, 3, 16, 1, {}),
    ("skewed48-k4", "skewed", 48, 4, 40, 2, {}),
    ("uniform32-k4-capped", "uniform", 32, 4, 10, 0, {}),
]


def hard_instance(entry):
    label, family, n, registers, r, draw, extra = entry
    if family is None:
        kernel = _stencil_prefix(n)
    else:
        rng = random.Random("%s-%d-%d-%d-%d" % (family, n, registers, r, draw))
        kernel = single_array_kernel(label, pattern_offsets(rng, family, n, r),
                                     8)
    request = {"kernel": kernel, "registers": registers, "modify_range": 1,
               "phase2": "exact"}
    request.update(extra)
    return request


def hard_set(seed, quick=False):
    """The fixed hard set; the seed only rotates the pass order."""
    entries = [e for e in HARD_SET if not quick or e[0] in
               ("stencil56-k3", "skewed48-k4", "stencil80-k3-tiled")]
    shift = seed % len(entries)
    entries = entries[shift:] + entries[:shift]
    return [(e[0], hard_instance(e)) for e in entries]
