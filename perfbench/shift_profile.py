"""The kesten-shift workload through the library (the CLI has no way to pass
a generator set to `kesten`): the spectral profile of Coset(s, e) under
the symmetrized set {t, x_s}, for radii 1..MAX_RADIUS.

Usage: python3 perfbench/shift_profile.py OFFSET MAX_RADIUS

Prints one JSON object with the offset, generators, radii and estimates.
Every offset s gives the same orbit graph, translated by s.
"""

from __future__ import annotations

import json
import sys

from cosetlab import cosets, freegroup, spectral


def main(argv) -> int:
    s, radius = int(argv[0]), int(argv[1])
    gens = spectral.GenSet.symmetrized(
        [freegroup.parse_gelement("t"), freegroup.parse_gelement(f"x{s}")]
    )
    base = cosets.Coset(s, freegroup.IDENTITY)
    profile = spectral.kesten_profile(base, gens, range(1, radius + 1))
    print(json.dumps({
        "offset": s,
        "generators": profile.generators,
        "radii": list(profile.radii),
        "estimates": list(profile.estimates),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
