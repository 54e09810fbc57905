"""Golden digests: run_flight's telemetry at fixed seeds, pinned to the bit.

Each digest is the SHA-256 of one flight, capped at 900 s: the JSON line
of every telemetry record, then the repr of the FlightRecord. Seeds 1-5
of field.json, whose thermals random_thermals draws per seed, fly with
both controllers, and seeds 1-3 of explicit_thermals.json, whose site
file lists its thermals with each optional key given and left out, a
null lifetime and an int-valued center. A change that claims byte-identical
outputs must leave every digest as it is. A digest changes only with a
stated reason (a new model, a fixed bug, a numpy kernel whose last bits
differ), written in CHANGES.md with the new values, as for the benchmark's
pinned outputs.

Recompute a digest with flight_digest(site, seed, controller) from this file.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from soarsim.environment import materialize
from soarsim.experiment import load_bundle
from soarsim.mission import BASELINE, POMDSOAR, run_flight

from conftest import REPO

MAX_DURATION = 900.0  # s; a few seconds of wall time for all sixteen flights
FIELD = REPO / "scenarios" / "field.json"
EXPLICIT = REPO / "tests" / "explicit_thermals.json"

GOLDEN = {
    (1, POMDSOAR): "9b94e2245af805f116b91567543ba1b7201e19b306dff526e7e666075a1dc532",
    (1, BASELINE): "c994dfda6e79b42301aa2d916454ffca028ee3b304bf6e4740a9d52c0a01f5f3",
    (2, POMDSOAR): "5e1d6484b409186298a8ccbb0a2c0809c29f7ea691af97c1daa5e49cdfff8940",
    (2, BASELINE): "7b31abb1ee1217d9be41b2c1cf4d95b03cf72941f75093675647589fbc701e5e",
    (3, POMDSOAR): "3f39fa0e3b605eab1556936937349cc57ea7e5051f227398940068fd71e16812",
    (3, BASELINE): "64d92d1053c07f21fe0ac325ef2384c3494e427b83307129b618a2fa409be47a",
    (4, POMDSOAR): "6ff91941bbdd884d5f2db3e541a3c11f2a46227a2c6b64b991dd6f55380fbc40",
    (4, BASELINE): "9267efbc1e3f9125794f69d7c4c14c6da8819f655a85d7028b94ae578e93a8bf",
    # seed 5 meets no thermal before its battery runs out at 583.6 s, so the
    # controllers never act and both flights are the same
    (5, POMDSOAR): "f8907ae6ef5152fcc64443ac90606b8e54d9524a4a993fa3f1ff4c13d34dbb58",
    (5, BASELINE): "f8907ae6ef5152fcc64443ac90606b8e54d9524a4a993fa3f1ff4c13d34dbb58",
}

# each flight thermals: the planner 1 time, the baseline 3 to 7 times
EXPLICIT_GOLDEN = {
    (1, POMDSOAR): "bab55866c44c2fc3059a95770499df1b73984d6020e9a4f4155ba4ab2d4d9bc4",
    (1, BASELINE): "5020c7a2cd9e99de11e9ef13297b935e747d02df0a6cfda92a76a05f2f2315a6",
    (2, POMDSOAR): "ac93fd10a6ad11d8c07137b6484379caa83db7d5a9d3e365606eae990876498d",
    (2, BASELINE): "7a2ad63c14692828465d22a66e62cac154f0c42135fc38d2704df1f9b501f3d8",
    (3, POMDSOAR): "c18c929012a2ff3be257c2c51f2cd89b182b41a538d7bebe717807ec0e46cb41",
    (3, BASELINE): "0cc093a73fe743a740b87b279429c96d0a0ba420ee56f0a395e7b12795d442aa",
}


def flight_digest(site, seed: int, controller: str) -> str:
    sc, b = load_bundle(site)
    h = hashlib.sha256()
    rec = run_flight(
        materialize(sc, seed),
        replace(b.mission, controller=controller, max_duration=MAX_DURATION),
        b.airframe, b.noise, b.prior, b.planner, b.baseline,
        seed=seed,
        telemetry_sink=lambda record: h.update((json.dumps(record) + "\n").encode()),
    )
    h.update(repr(rec).encode())
    return h.hexdigest()


@pytest.mark.parametrize("seed, controller", list(GOLDEN), ids=[f"{s}-{c}" for s, c in GOLDEN])
def test_flight_telemetry_matches_its_golden_digest(seed, controller):
    assert flight_digest(FIELD, seed, controller) == GOLDEN[seed, controller], (
        f"field.json seed {seed} {controller}: the flight's telemetry changed. A golden digest "
        "changes only with a stated reason, recorded in CHANGES.md with the new value."
    )


@pytest.mark.parametrize("seed, controller", list(EXPLICIT_GOLDEN), ids=[f"{s}-{c}" for s, c in EXPLICIT_GOLDEN])
def test_explicit_thermals_flight_matches_its_golden_digest(seed, controller):
    assert flight_digest(EXPLICIT, seed, controller) == EXPLICIT_GOLDEN[seed, controller], (
        f"explicit_thermals.json seed {seed} {controller}: the flight's telemetry changed. A golden digest "
        "changes only with a stated reason, recorded in CHANGES.md with the new value."
    )
