"""The benchmark's workloads and the checks every operation's output must pass.

A workload is one ``steinhaus`` CLI command run through ``cli.main``. Its
output is checked twice: against the SHA-256 of the stdout recorded at the
commit that defined the benchmark (the CLI promises byte-identical output),
and by an independent oracle that recomputes facts with the scalar
``triangle_weight`` and ``orbit`` rather than trusting the vectorized engine.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass
from typing import Callable

# Generators re-weighed per spectrum operation; the seeded stream continues
# across operations, so each operation samples different generators.
SPECTRUM_SAMPLE = 512


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]  # the command, without --workers
    setup_argv: tuple[str, ...]  # the same command at its smallest size
    sizes: tuple[int, ...]  # every n the command asks about
    digest: str | None  # sha256 of stdout; None skips the digest check
    oracle: Callable[[str, int, random.Random], list[str]]

    @property
    def largest_n(self) -> int:
        return max(self.sizes)


def _steinhaus():
    import steinhaus  # imported lazily: run.py puts the checkout's src/ on the path
    return steinhaus


def check_spectrum_csv(out: str, n: int, rng: random.Random) -> list[str]:
    """Histogram total is 2^n, and sampled generators land on counted weights."""
    st = _steinhaus()
    lines = out.splitlines()
    if not lines or lines[0] != "weight,count":
        return ["missing 'weight,count' header"]
    counts = {}
    for line in lines[1:]:
        w, c = line.split(",")
        counts[int(w)] = int(c)
    problems = []
    if sum(counts.values()) != 1 << n:
        problems.append(f"histogram total {sum(counts.values())} != 2^{n}")
    for _ in range(SPECTRUM_SAMPLE):
        x = st.BitSeq(n, rng.getrandbits(n))
        w = st.triangle_weight(x)
        if counts.get(w, 0) <= 0:
            problems.append(f"generator {x} has weight {w}, which has no count")
            break
    return problems


_LEVEL_LINE = re.compile(r"W_(\d+): weight (\d+), (\d+) generators( \(truncated\))?$")


def check_levels_text(out: str, n: int, rng: random.Random) -> list[str]:
    """Every listed member has the level's weight under the scalar oracle, and
    an untruncated level lists exactly its count and is closed under orbit()."""
    st = _steinhaus()
    lines = out.splitlines()
    if not lines or len(lines) % 2:
        return [f"expected header/member line pairs, got {len(lines)} lines"]
    problems = []
    for head, body in zip(lines[::2], lines[1::2]):
        m = _LEVEL_LINE.match(head)
        if m is None:
            problems.append(f"unparsable level line {head!r}")
            continue
        weight, count, truncated = int(m[2]), int(m[3]), bool(m[4])
        members = {st.BitSeq.from_string(t) for t in body.split()}
        if any(x.n != n for x in members):
            problems.append(f"W_{m[1]} lists a member of the wrong length")
            continue
        bad = sorted(str(x) for x in members if st.triangle_weight(x) != weight)
        if bad:
            problems.append(f"W_{m[1]}: {bad[0]} does not have weight {weight}")
        if not truncated:
            if len(members) != count:
                problems.append(f"W_{m[1]}: {len(members)} members listed, count {count}")
            if any(not members.issuperset(st.orbit(x).members) for x in members):
                problems.append(f"W_{m[1]} is not closed under orbit()")
    return problems


_RECORD_LINE = re.compile(r"\[\s*([a-z-]+)\] n=")


def check_verify_text(out: str, n: int, rng: random.Random) -> list[str]:
    """No record failed or was refuted, and the summary counts every record."""
    lines = out.splitlines()
    if not lines or not lines[-1].startswith("summary: "):
        return ["missing summary line"]
    statuses = [m[1] for m in map(_RECORD_LINE.match, lines[:-1]) if m]
    summary = dict(kv.split("=") for kv in lines[-1][len("summary: "):].split(", "))
    problems = []
    if sum(map(int, summary.values())) != len(statuses):
        problems.append(f"summary counts {summary} but {len(statuses)} records print")
    for bad in ("fail", "conjecture-refuted"):
        if bad in statuses:
            problems.append(f"{statuses.count(bad)} records have status {bad}")
    return problems


def check_output(wl: Workload, code: int, out: str, rng: random.Random) -> list[str]:
    """Every problem with one operation's exit code and stdout; empty if none."""
    problems = [] if code == 0 else [f"exit code {code}"]
    if wl.digest is not None:
        got = hashlib.sha256(out.encode()).hexdigest()
        if got != wl.digest:
            problems.append(f"stdout digest {got[:16]} != recorded {wl.digest[:16]}")
    try:
        problems += wl.oracle(out, wl.largest_n, rng)
    except ValueError as exc:  # malformed numbers or sequence text
        problems.append(f"unparsable output: {exc}")
    return problems


WORKLOADS = {wl.name: wl for wl in (
    # One histogram sweep at a size where fan-out to threads pays off; the
    # collect pass and verify are bypassed.
    Workload("spectrum", ("spectrum", "26", "--format", "csv"),
             ("spectrum", "4", "--format", "csv"), (26,),
             "37a296331cace28959c33476231dbfc67212f868c277a85a3f4f805ec6f1e04a",
             check_spectrum_csv),
    # A histogram sweep plus collect passes and member formatting: where
    # "one sweep, many reducers" shows.
    Workload("levels", ("levels", "24"), ("levels", "4"), (24,),
             "0b71da29fa44b1d68b9682cdae0bada920b233ea74972764b46ce57828e68dd5",
             check_levels_text),
    # The verification ladder: the same kernel mostly at small n, so per-call
    # set-up costs show, plus s3 scans and scalar family checks.
    Workload("verify", ("verify", "--from", "4", "--to", "24"),
             ("verify", "--from", "4", "--to", "4"), tuple(range(4, 25)),
             "5b3f281fd6122aa5dae529286ce5bd7f2c2400b0377127c92f5b23ee61121ada",
             check_verify_text),
)}
