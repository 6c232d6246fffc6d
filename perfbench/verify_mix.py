"""Count the calls ``qplane verify all`` makes into each traced function.

    python3 perfbench/verify_mix.py          # about three minutes on 2 cores

The suites are the repository's one recorded use of the library, so the
workloads take their op mix from them: ``workloads.VERIFY_CALLS`` and
``workloads.GB_BATCH_SIZES`` hold this script's output at the commit that
defined the benchmark.  Every call is counted, nested ones too (the 20,745
``axb.intertwiner_forward`` calls run inside ``act_mellin``'s integrand),
and the calls of the KEYED functions are split by regime, kind or
generator.  Prints one JSON object: ``calls`` per function and
``gb_many_sizes`` per regime as {points: calls}.
"""

import functools
import json
import sys
import warnings
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import tracer as tr  # noqa: E402


# Functions whose calls are counted per key, so that a stratum can be
# weighted by the calls of its own kind: "qdilog.gb.limit",
# "qdilog.classical_limit_residual.Glim", "corep.pairing.X".
KEYED = {
    "qdilog.gb": lambda args, kwargs: tr.gb_regime(tr.arg(args, kwargs, 1, "p")),
    "qdilog.classical_limit_residual": lambda args, kwargs: tr.arg(args, kwargs, 0, "kind"),
    "corep.pairing": lambda args, kwargs: tr.arg(args, kwargs, 0, "gen"),
}


class MixTracer(tr.Tracer):
    """Tracer whose spans of the KEYED functions carry the call's key."""

    def _wrap(self, name, fn):
        if name not in KEYED:
            return super()._wrap(name, fn)
        keyed = {}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = KEYED[name](args, kwargs)
            if key not in keyed:
                keyed[key] = super(MixTracer, self)._wrap(f"{name}.{key}", fn)
            return keyed[key](*args, **kwargs)

        return wrapper


def main() -> None:
    from qplane import verify

    warnings.simplefilter("ignore", RuntimeWarning)
    tracer = MixTracer()
    tracer.install()
    try:
        records = verify.run_suite("all")
    finally:
        tracer.uninstall()
    if not all(r["pass"] for r in records):
        sys.exit("verify all failed; counts not printed")
    calls = Counter(s[0] for s in tracer.spans)
    sizes = {r: Counter() for r in tr.REGIMES}
    for name, _, _, _, _, work, _ in tracer.spans:
        if name.startswith("qdilog.gb_many."):
            sizes[name.rsplit(".", 1)[1]][work] += 1
    print(json.dumps({
        "calls": dict(sorted(calls.items())),
        "gb_many_sizes": {r: dict(sorted(c.items())) for r, c in sizes.items()},
    }, indent=1))


if __name__ == "__main__":
    main()
