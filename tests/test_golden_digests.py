"""Golden digests: run_flight's telemetry at fixed seeds, pinned to the bit.

Each digest is the SHA-256 of one flight, capped at 900 s: the JSON line
of every telemetry record, as the sink receives it, then the repr of the
FlightRecord. Seeds 1-5 of field.json, whose thermals random_thermals
draws per seed, fly with both controllers, and seeds 1-3 of
explicit_thermals.json, whose site file lists its thermals with each
optional key given and left out, a null lifetime and an int-valued
center. A change that claims byte-identical outputs must leave every
digest as it is. A digest changes only with a stated reason (a new
model, a fixed bug, a numpy kernel whose last bits differ), written in
CHANGES.md with the new values, as for the benchmark's pinned outputs.

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
    (1, POMDSOAR): "192dee2ffa32c031d5d027f37ca6896a3608e80d9cd8df2769720eccddc3404d",
    (1, BASELINE): "a6d1854ee47cbebd1f151e78742d1a1fe696c104fcfafd0dec87d036ef9f3d2a",
    (2, POMDSOAR): "f59ab88c48b93e5a13de2bfb219dd10a0478c4363526eeb80d672877e0fb4570",
    (2, BASELINE): "3ecde56dfc86d64855a3300016124c1e4cece2a0d113c5836f3d9e6796f77d07",
    (3, POMDSOAR): "00574995443b0e47c77f577d56a91431e137a87b9b04d299e04172dce7fc2e52",
    (3, BASELINE): "00acb05d1dc26f7c562002299e0de0de08886c220a5413ccd53ac5621c511b21",
    (4, POMDSOAR): "12710046a19b2ebed0610bb22400c2e8fbc5167be632478fdf3a20b8cf12e250",
    (4, BASELINE): "079994a50a8f539d3706e34f86ad4297e9703202e551e571085fe73b14adc1dc",
    # seed 5 meets no thermal before its battery runs out at 583.6 s, so the
    # controllers never act and both flights are the same
    (5, POMDSOAR): "33580a9086b8f2a6ceebd4581f9ff37539aa4f8f124a7cadd34479034e6ddb23",
    (5, BASELINE): "33580a9086b8f2a6ceebd4581f9ff37539aa4f8f124a7cadd34479034e6ddb23",
}

# each flight thermals: the planner 1 time, the baseline 3 to 7 times
EXPLICIT_GOLDEN = {
    (1, POMDSOAR): "297d74028b91916c67098213ab4813d5c0b155c818c587abefceb69f867485e6",
    (1, BASELINE): "81a5e584b5dcf8986324448255e10145b6dc956232fda0942b85c050bc0c3879",
    (2, POMDSOAR): "6c39fc2d4dd2fead4e2b92d3cbe0ae14b3d6db91440afef3dcf3963b1cc99348",
    (2, BASELINE): "8dca79322d62b8f6d62785c44d209361b6dc033147a14f82aca64150b4c0d6ab",
    (3, POMDSOAR): "edd5f3872be225a527bfced1ef8bbbc02510f0ee510a07b651e07db4b0a23ba4",
    (3, BASELINE): "a83941878252160ea9ac3d4633ca8b95a86960504fed12a13441fa6c314c2c50",
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

    def __call__(self, line: str):
        self.full.update(line.encode())
        record = json.loads(line)
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
