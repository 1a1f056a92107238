"""Command-line front end with JSON/CSV serialization.

Commands: triangle, spectrum, levels, orbit, families, verify. Exit codes:
0 success, 1 a verification check failed, 2 usage error (bad input or
enumeration ceiling exceeded), 3 a conjecture check found a counterexample,
141 stdout was closed early (as by ``| head``).
JSON documents are stable-ordered (sorted keys, members sorted by text) so
saved outputs diff cleanly; worker count never changes the payload.
A command imports the modules that only it uses when it runs, so no command
loads another's modules at start-up. The parser is built once per process,
and each command runs the ``cmd_<command>`` function this module holds at the
time of the call.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .bitseq import MAX_LEN, BitSeq
from .spectrum import (
    LevelSet,
    _check_levels,
    full_spectrum,
    level_sets,
    symmetry_reduced_spectrum,
)
from .symmetry import orbit

SCHEMA_VERSION = 1


def _document(command: str, args: dict, payload: dict) -> dict:
    return {"schema": SCHEMA_VERSION, "command": command, "args": args,
            "payload": payload}


def _emit(doc: dict) -> None:
    import json

    print(json.dumps(doc, sort_keys=True, indent=2))


def _texts(seqs) -> list[str]:
    return sorted(str(x) for x in seqs)


def _spectrum_payload(spec) -> dict:
    levels = spec.levels
    derived = {
        "m": spec.m,
        "total": spec.total,
        "w1": levels[1] if spec.m >= 1 else None,
        "w2": levels[2] if spec.m >= 2 else None,
        "w3": levels[3] if spec.m >= 3 else None,
        "wm": levels[-1] if spec.m >= 1 else None,
        "wm1": levels[-2] if spec.m >= 1 else None,
    }
    return {"n": spec.n,
            "counts": [[w, c] for w, c in enumerate(spec.counts) if c],
            "derived": derived}


def _level_payload(ls: LevelSet) -> dict:
    return {"index": ls.index, "weight": ls.weight, "count": ls.count,
            "truncated": ls.truncated, "members": _texts(ls.members)}


def cmd_triangle(ns: argparse.Namespace) -> int:
    from .triangle import render, s3, triangle_weight

    x = BitSeq.from_string(ns.sequence)
    if x.n == 0:
        raise ValueError("empty sequence generates no triangle")
    art = render(x, zero="0" if ns.zeros else ".")
    tw = triangle_weight(x)
    s3_value = s3(x) if x.n >= 3 else None
    if ns.format == "json":
        rows = [str(x.derivative_k(k)) for k in range(x.n)]
        _emit(_document("triangle", {"sequence": str(x), "zeros": ns.zeros}, {
            "sequence": str(x), "n": x.n, "ones": x.weight,
            "triangle_weight": tw, "s3": s3_value, "rows": rows,
        }))
    else:
        print(art)
        tail = f"length {x.n}, ones {x.weight}, triangle weight {tw}"
        if s3_value is not None:
            tail += f", three-row weight {s3_value}"
        print(tail)
    return 0


def cmd_spectrum(ns: argparse.Namespace) -> int:
    compute = symmetry_reduced_spectrum if ns.reduced else full_spectrum
    spec = compute(ns.n, workers=ns.workers, force=ns.force)
    if ns.format == "csv":
        print("weight,count")
        for w, c in enumerate(spec.counts):
            if c:
                print(f"{w},{c}")
    else:
        _emit(_document("spectrum", {"n": ns.n, "reduced": ns.reduced},
                        _spectrum_payload(spec)))
    return 0


def cmd_levels(ns: argparse.Namespace) -> int:
    if ns.low == ns.high == 0:  # checked before the sweep, which would print nothing
        raise ValueError("need at least one level")
    sweep = level_sets(ns.n, 3 if ns.low is None else ns.low,
                       2 if ns.high is None else ns.high, workers=ns.workers, force=ns.force)
    _check_levels(sweep.spectrum, ns.low or 0, ns.high or 0)  # the defaults clamp
    low, high = sweep.low, sweep.high
    payload = {"n": ns.n,
               "low": [_level_payload(ls) for ls in low],
               "high": [_level_payload(ls) for ls in high]}
    if ns.format == "json":
        _emit(_document("levels", {"n": ns.n, "low": max(len(low) - 1, 0),
                                   "high": len(high)}, payload))
    else:
        for ls in low + high:
            mark = " (truncated)" if ls.truncated else ""
            print(f"W_{ls.index}: weight {ls.weight}, {ls.count} generators{mark}")
            print("  " + " ".join(_texts(ls.members)))
    return 0


def cmd_orbit(ns: argparse.Namespace) -> int:
    x = BitSeq.from_string(ns.sequence)
    orb = orbit(x)
    if ns.format == "json":
        _emit(_document("orbit", {"sequence": str(x)}, {
            "sequence": str(x), "canonical": str(orb.canonical),
            "size": orb.size, "members": _texts(orb.members),
        }))
    else:
        print(f"orbit size {orb.size}, canonical {orb.canonical}")
        for member in orb.members:
            print(f"  {member}")
    return 0


def cmd_families(ns: argparse.Namespace) -> int:
    from .families import family_words
    from .triangle import triangle_weight

    if not 1 <= ns.n <= MAX_LEN:
        raise ValueError(f"families need 1 <= n <= {MAX_LEN}, got n={ns.n}")
    rows = []
    for f, bits, predicted in family_words(ns.n):
        x = BitSeq(ns.n, bits)
        actual = triangle_weight(x)
        rows.append({"family": str(f), "sequence": str(x),
                     "predicted": predicted, "actual": actual,
                     "match": None if predicted is None else predicted == actual})
    if ns.format == "json":
        _emit(_document("families", {"n": ns.n}, {"n": ns.n, "rows": rows}))
    else:
        width = max(len(r["sequence"]) for r in rows)
        print(f"{'family':<8}{'sequence':<{width + 2}}{'predicted':>10}{'actual':>8}  match")
        for r in rows:
            pred = "-" if r["predicted"] is None else str(r["predicted"])
            mark = "-" if r["match"] is None else ("yes" if r["match"] else "NO")
            print(f"{r['family']:<8}{r['sequence']:<{width + 2}}{pred:>10}"
                  f"{r['actual']:>8}  {mark}")
    return 0


def _witness_payload(record) -> dict | None:
    if record.witness is None:
        return None
    return {"sequence": str(record.witness.sequence),
            "observed": record.witness.observed,
            "predicted": record.witness.predicted}


def cmd_verify(ns: argparse.Namespace) -> int:
    from .verify import verify_all

    report = verify_all(ns.start, ns.end, workers=ns.workers, force=ns.force)
    statuses = sorted({r.status for r in report.records})
    counts = {status: sum(r.status == status for r in report.records)
              for status in statuses}
    if ns.format == "json":
        _emit(_document("verify", {"from": ns.start, "to": ns.end}, {
            "from": ns.start, "to": ns.end,
            "exit_code": report.exit_code,
            "summary": counts,
            "records": [{
                "check": r.check, "n": r.n, "status": r.status,
                "detail": r.detail, "witness": _witness_payload(r),
                "elapsed": round(r.elapsed, 6),
            } for r in report.records],
        }))
    else:
        for r in report.records:
            line = f"[{r.status:>20}] n={r.n:<3} {r.check}: {r.detail}"
            if r.witness is not None:
                line += (f" | witness {r.witness.sequence} observed "
                         f"{r.witness.observed} predicted {r.witness.predicted}")
            print(line)
        print("summary: " + ", ".join(f"{k}={v}" for k, v in counts.items()))
    return report.exit_code


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steinhaus",
        description="Binary Steinhaus triangles: weights, orbits, families, "
                    "exhaustive verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("triangle", help="render a triangle and its weights")
    p.add_argument("sequence", help="generator as '0'/'1' text")
    p.add_argument("--zeros", action="store_true", help="render zeros as '0' not '.'")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("spectrum", help="exact weight histogram over all 2^n generators")
    p.add_argument("n", type=int)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--reduced", action="store_true",
                   help="count each symmetry orbit once: a cross-check, not faster")
    p.add_argument("--force", action="store_true",
                   help="bypass the enumeration ceiling")

    p = sub.add_parser("levels", help="level sets from both ends of the ladder")
    p.add_argument("n", type=int)
    p.add_argument("--low", type=int, default=None, metavar="K",
                   help="levels W_0..W_K from the bottom (0 to skip; default 3, clamped)")
    p.add_argument("--high", type=int, default=None, metavar="K",
                   help="K levels down from W_m (0 to skip; default 2, clamped)")
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--force", action="store_true",
                   help="bypass the enumeration ceiling")

    p = sub.add_parser("orbit", help="symmetry orbit and canonical representative")
    p.add_argument("sequence")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("families", help="named families at one length, with predictions")
    p.add_argument("n", type=int, help=f"length, 1 to {MAX_LEN}")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("verify", help="run the verification ladder over a size range")
    p.add_argument("--from", dest="start", type=int, default=4)
    p.add_argument("--to", dest="end", type=int, default=12)
    p.add_argument("--workers", type=int, default=None, help="accepted but not used")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--force", action="store_true",
                   help="bypass the enumeration ceiling")
    return parser


def main(argv: list[str] | None = None) -> int:
    ns = _build_parser().parse_args(argv)
    try:
        code = globals()[f"cmd_{ns.command}"](ns)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        if sys.stdout is sys.__stdout__:  # the exit-time flush then writes nowhere
            with open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE


if __name__ == "__main__":
    sys.exit(main())
