"""bench/ladder.py, each layer measured once in-process on small rungs."""

import importlib.util
import json
from fractions import Fraction as F
from math import gcd
from pathlib import Path

from pointdyn import metric, systems

LADDER = Path(__file__).resolve().parents[1] / "bench" / "ladder.py"
SRC = Path(__file__).resolve().parents[1] / "src"
FIELDS = {"tree", "layer", "case", "size", "c", "repeats", "wall_s", "counters"}


def load_ladder():
    spec = importlib.util.spec_from_file_location("bench_ladder", LADDER)
    ladder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ladder)
    return ladder


def well_formed(records, layer, case):
    assert records and json.loads(json.dumps(records)) == records
    for r in records:
        assert set(r) == FIELDS and (r["tree"], r["layer"], r["case"]) == ("t", layer, case)
        assert r["repeats"] == 1 and r["wall_s"] >= 0 and isinstance(r["counters"], dict)


def test_every_layer_measures_small_rungs():
    ladder = load_ladder()
    cases = {case: (make, c) for case, make, c in ladder.rungs(systems, metric)}
    for case in ("cat7", "cycles43"):
        make, c = cases[case]
        measured = {layer: ladder.measure("t", 1, layer, case, make, c)
                    for layer, _, _ in ladder.layers(systems)}
        for layer, records in measured.items():
            well_formed(records, layer, case)
            assert records[0]["counters"]["n"] == records[0]["size"]
        # inseparable at the rung's c and at the diameter (the arc 3/7 on
        # the 7-torus, the palette's 2 on cycles43), where more is scanned
        at_c, at_top = measured["inseparable"]
        assert (at_c["c"], at_top["c"]) == (str(c), "3/7" if case == "cat7" else "2")
        assert at_c["counters"]["scanned"] < at_top["counters"]["scanned"]
        well_formed(ladder.measure_decider("t", 1, case, make), "decider", case)
        tracing = ladder.measure_tracing("t", 1, case, make, c)
        well_formed(tracing, "tracing", case)
        # cat7's first point is fixed; cycles43's lies on its 3-cycle
        assert [r["counters"]["P"] for r in tracing] == ([1] if case == "cat7" else [3, 2])
    assert ladder.counters(cases["cycles43"][0]().kernel)["order"] == 60060
    # at the diameter every class of every cycle: gcd(p, q) per pair of cycles
    lengths = (3, 4, 5, 7, 11, 13)
    assert ladder.scanned(cases["cycles43"][0]().kernel, F(2)) == \
        sum(gcd(p, q) for p in lengths for q in lengths)
    well_formed(ladder.measure_sweep("t", 1, "cat7", cases["cat7"][0]), "sweep", "cat7")
    gh = {case: rest for case, *rest in ladder.gh_cases(systems, metric)}
    well_formed(ladder.measure_gh("t", 1, "exact cat7 twin", *gh["exact cat7 twin"]),
                "gh", "exact cat7 twin")
    make, outcome, _ = gh["exact cat7 twin"]
    records = ladder.measure_gh("t", 1, "exact cat7 twin", make, outcome, True)
    well_formed(records, "gh", "exact cat7 twin")
    assert set(records[0]["counters"]) == {"found", "peak_kib"}
    # the large rungs record their peaks too; they are not measured here
    assert all(gh[case][2] for case in ("bounds cat5-z25k7", "exact Z1100 self",
                                        "exact Z1100 other-step"))
    windowed = {case: rest for case, *rest in ladder.windowed_cases(systems, metric)}
    for case in ("Z6 N=3", "cycles43 N=2"):
        records = ladder.measure_windowed("t", 1, case, *windowed[case])
        well_formed(records, "windowed", case)
    assert records[0]["counters"] == {"result": False, "windows_checked": 26, "worst": 0}
    records = ladder.measure_windowed("t", 1, "cat5 refused N=1000",
                                      *windowed["cat5 refused N=1000"])
    well_formed(records, "windowed", "cat5 refused N=1000")
    assert set(records[0]["counters"]) == {"refused", "requested_bits", "peak_kib"}
    assert records[0]["counters"]["refused"] is True
    perturbations = {case: rest for case, *rest in ladder.perturbation_cases(systems)}
    for case in ("Z12", "Z12 twin"):
        records = ladder.measure_perturbations("t", 1, case, *perturbations[case])
        well_formed(records, "perturbations", case)
        # matchings of the 12-cycle (Lucas number 322) plus 2 rotations;
        # the twin's search follows the same chain of shared targets
        assert records[0]["counters"] == {"maps": 324, "nodes": 948}
    stable_points = {case: rest for case, *rest in ladder.stable_point_cases(systems)}
    records = ladder.measure_stable_point("t", 1, "Z12", *stable_points["Z12"])
    well_formed(records, "stable-point", "Z12")
    # 324 maps, 234 distinct orbits of the first point among them
    assert records[0]["counters"] == {"maps": 324, "orbits": 234}
    records = ladder.measure_perturbations("t", 1, "Z48 refused", *perturbations["Z48 refused"])
    well_formed(records, "perturbations", "Z48 refused")
    assert set(records[0]["counters"]) == {"refused", "peak_kib"}
    assert records[0]["counters"]["refused"] is True
    records = ladder.measure_perturbations("t", 1, "Z20 twin perms",
                                           *perturbations["Z20 twin perms"])
    well_formed(records, "perturbations", "Z20 twin perms")
    assert records[0]["counters"] == {"maps": 15129, "nodes": 43816}
    # the Lucas number L_48 plus the 2 rotations, counted on the DAG
    records = ladder.measure_perturbations("t", 1, "Z48 counted", *perturbations["Z48 counted"])
    well_formed(records, "perturbations", "Z48 counted")
    assert set(records[0]["counters"]) == {"maps", "peak_kib"}
    assert records[0]["counters"]["maps"] == 10_749_957_124


def test_import_layer_times_a_fresh_interpreter():
    ladder = load_ladder()
    records = ladder.measure_import([("t", str(SRC))], 1)
    well_formed(records, "import", "pointdyn.cli")
    assert records[0]["counters"]["pointdyn_modules"] > 1


def test_from_source_import_layer_counts_the_modules_each_verb_loads():
    ladder = load_ladder()
    records = ladder.measure_from_source([("t", str(SRC))], 1)
    cases = ["pointdyn.cli from source"] + ["pdl " + " ".join(a) for a in ladder.VERB_ARGV]
    assert [r["case"] for r in records] == cases
    for r in records:
        well_formed([r], "import", r["case"])
    modules = {r["case"]: r["counters"]["pointdyn_modules"] for r in records}
    # the package, the cli, errors, rationals, metric, shiftspace, systems,
    # sysfile and report
    assert modules["pointdyn.cli from source"] == 9
    assert all(r["counters"]["exit"] in (0, 1) for r in records[1:])
    # validate on the stanza adds bundled for its sample, and no verb
    # loads every module
    assert modules["pdl validate " + ladder.STANZA] == 10
    assert max(modules.values()) < 14
