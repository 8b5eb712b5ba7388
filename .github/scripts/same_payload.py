"""Assert that two suite ``--json`` payloads agree on every simulated number.

Usage::

    python .github/scripts/same_payload.py A.json B.json [--ignore KEY ...]

Timing-derived fields and the worker count are scrubbed at every depth
before the comparison; ``--ignore`` scrubs further keys, such as
``resilience`` when one of the runs was tortured by chaos or resumed
from a journal. Exits non-zero, naming the differing top-level keys,
when the scrubbed payloads differ.
"""

import argparse
import json
import sys

VOLATILE = {
    "wall_seconds", "replay_rate", "workers", "retries",
    "phase_wall", "phase_cpu",
}


def scrub(node, drop):
    if isinstance(node, dict):
        return {k: scrub(v, drop) for k, v in sorted(node.items()) if k not in drop}
    if isinstance(node, list):
        return [scrub(v, drop) for v in node]
    return node


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("first")
    parser.add_argument("second")
    parser.add_argument("--ignore", nargs="*", default=[])
    args = parser.parse_args()
    drop = VOLATILE | set(args.ignore)
    with open(args.first) as fh:
        first = scrub(json.load(fh), drop)
    with open(args.second) as fh:
        second = scrub(json.load(fh), drop)
    if first != second:
        differing = sorted(
            k for k in set(first) | set(second) if first.get(k) != second.get(k)
        )
        print(f"{args.first} and {args.second} differ in {differing}")
        return 1
    print(f"{args.first} and {args.second} agree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
