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

Beside each digest is a decision digest: the SHA-256 of each tick's
(t, mode, target_bank), as one JSON list per line. A re-pin that keeps the
decision digests shows that bits moved and the flight's decisions did not.

Recompute both with flight_digests(site, seed, controller) from this file.
"""

import hashlib
import json
from dataclasses import replace
from functools import cache

import pytest

from soarsim.environment import env_tick, materialize
from soarsim.experiment import load_bundle
from soarsim.mission import BASELINE, POMDSOAR, flight_tick, run_flight, start_flight

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

# each tick's (t, mode, target_bank), pinned on the same flights as GOLDEN
DECISIONS = {
    (1, POMDSOAR): "8ada6d04f6a4420c204fdefab32203d462536dcff4e848f73770c26f84395541",
    (1, BASELINE): "d658fe86709e298ee79484c319e6e5e1e7512729df263e98b8c4cfdfa8af44e5",
    (2, POMDSOAR): "c7101fa1bb99e4fc7705c49d5b7d3b09991b22265685eb759658ad1790fcfaf2",
    (2, BASELINE): "2054a9a83c02414828737f23129111e240bfdd5598cb50623f5e9acf1e78f0e9",
    (3, POMDSOAR): "d9a69837290f852f548fb93243bab6eee9d0bc434e05ea87963d7ea2ac7f2219",
    (3, BASELINE): "487cf9d49162d76f3caabaa8bad49953b3c27a3a29421b6642a1172b2af90b05",
    (4, POMDSOAR): "cf14f1e985824fdf0724ee6f4c12840a936c944895a18dd717956723d3bc39e2",
    (4, BASELINE): "35b9f592adc59148642ad39a5e7b4765a99929402450d955ab18597f3119979b",
    (5, POMDSOAR): "766ed147ec6574a1e330d7e9bd1ab4562b43b97d99ca31bce8391aee050da804",
    (5, BASELINE): "766ed147ec6574a1e330d7e9bd1ab4562b43b97d99ca31bce8391aee050da804",
}

EXPLICIT_DECISIONS = {
    (1, POMDSOAR): "bf04225b1bc1232f8bfbd2129d7419a1d8cf3de6ba5f53cf8aeee8b1ef0c3793",
    (1, BASELINE): "d16606c1d244681b968b908ab55aad6c2240e45f558a2102b74e071f899dc53e",
    (2, POMDSOAR): "3282ce28f96df0f689d7ea14df565c55447699acf9c5d6c227b5d5ac922e840b",
    (2, BASELINE): "699d28fa1ccd7279be4d0b0e7ce619b8ba14070959821cb8135c64cc889d531c",
    (3, POMDSOAR): "05cc9a433507c7dece66a4f7c50bdcb2fbf9a3d099613d549c3fd6f68f7e196d",
    (3, BASELINE): "09bc2f05d4c2a9546e7133a8ba2d3a37ad974174f7a51fd5902172546070d0d3",
}


class Digests:
    """A telemetry sink that hashes a flight: the full and the decision digest."""

    def __init__(self):
        self.full, self.decisions = hashlib.sha256(), hashlib.sha256()

    def __call__(self, record: dict):
        self.full.update((json.dumps(record) + "\n").encode())
        self.decisions.update((json.dumps([record["t"], record["mode"], record["target_bank"]]) + "\n").encode())

    def hexdigests(self, rec) -> tuple[str, str]:
        """(full, decisions), once the flight ended with FlightRecord rec."""
        self.full.update(repr(rec).encode())
        return self.full.hexdigest(), self.decisions.hexdigest()


def capped(site, controller: str):
    """The scenario and bundle of site, flying controller under the 900 s cap."""
    sc, b = load_bundle(site)
    return sc, replace(b, mission=replace(b.mission, controller=controller, max_duration=MAX_DURATION))


@cache
def flight_digests(site, seed: int, controller: str) -> tuple[str, str]:
    sc, b = capped(site, controller)
    digests = Digests()
    rec = run_flight(materialize(sc, seed), b.mission, b.airframe, b.noise, b.prior, b.planner, b.baseline,
                     seed=seed, telemetry_sink=digests)
    return digests.hexdigests(rec)


@pytest.mark.parametrize("seed, controller", list(GOLDEN), ids=[f"{s}-{c}" for s, c in GOLDEN])
def test_flight_telemetry_matches_its_golden_digest(seed, controller):
    assert flight_digests(FIELD, seed, controller)[0] == GOLDEN[seed, controller], (
        f"field.json seed {seed} {controller}: the flight's telemetry changed. A golden digest "
        "changes only with a stated reason, recorded in CHANGES.md with the new value."
    )


@pytest.mark.parametrize("seed, controller", list(EXPLICIT_GOLDEN), ids=[f"{s}-{c}" for s, c in EXPLICIT_GOLDEN])
def test_explicit_thermals_flight_matches_its_golden_digest(seed, controller):
    assert flight_digests(EXPLICIT, seed, controller)[0] == EXPLICIT_GOLDEN[seed, controller], (
        f"explicit_thermals.json seed {seed} {controller}: the flight's telemetry changed. A golden digest "
        "changes only with a stated reason, recorded in CHANGES.md with the new value."
    )


@pytest.mark.parametrize("site, pinned", [(FIELD, DECISIONS), (EXPLICIT, EXPLICIT_DECISIONS)], ids=["field", "explicit"])
def test_flights_keep_their_decision_digests(site, pinned):
    changed = [key for key in pinned if flight_digests(site, *key)[1] != pinned[key]]
    assert not changed, f"{site.name}: the modes or target banks changed for (seed, controller) {changed}"


def test_flights_stepped_in_lockstep_keep_their_golden_digests():
    # a lane driver's loop: each round advances every live flight by one tick
    flights = []
    for seed in (2, 3, 4):
        for controller in (POMDSOAR, BASELINE):
            sc, b = capped(FIELD, controller)
            digests = Digests()
            flights.append(((seed, controller), start_flight(materialize(sc, seed), b, seed, 0, digests), digests))
    live = list(flights)
    while live:
        live = [(key, f, d) for key, f, d in live
                if not flight_tick(f, env_tick(f.sc, f.bundle.airframe, f.world, f.ms.target_bank, f.normals))]
    for key, f, digests in flights:
        assert digests.hexdigests(f.record()) == (GOLDEN[key], DECISIONS[key]), key
