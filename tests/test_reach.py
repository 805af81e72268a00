import importlib.util
import random
from pathlib import Path

import pytest

from freelip.cyclespace import boundary
from freelip.freenorm import ae_norm
from freelip.graphs import diamond
from freelip.metric import graph_metric
from freelip.randgen import random_edge_vector

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)


def test_the_instances_are_the_reach_sizes():
    assert list(reach.INSTANCES) == [
        "D5-transport-0", "D5-transport-1", "D5-transport-2",
        "L4-transport-0", "L4-transport-1", "L4-transport-2",
        "D6-quotient-0", "D7-quotient-0"]
    assert reach.INSTANCES["L4-transport-2"] == ("transport", "laakso", 4, 2)
    with pytest.raises(Exception, match="unknown instances"):
        reach.names("D5-transport-0,D9-quotient-0")


def test_a_run_times_one_solve_in_a_fresh_process(monkeypatch):
    monkeypatch.setitem(reach.INSTANCES, "D2-transport-3", ("transport", "diamond", 2, 3))
    monkeypatch.setitem(reach.INSTANCES, "D2-quotient-3", ("quotient", "diamond", 2, 3))
    g = diamond(2)
    x = random_edge_vector(random.Random(3), g)
    want = str(ae_norm(graph_metric(g), boundary(x))[0])
    for name in ("D2-transport-3", "D2-quotient-3"):
        run = reach.run_once(ROOT, name)
        assert run["value"] == want and 0 < run["seconds"] < 5 and run["peak_mb"] > 0


def _run(seconds, value="3/2", peak=20.0):
    return {"seconds": seconds, "value": value, "peak_mb": peak}


def test_an_entry_counts_faster_pairs_and_compares_values():
    entry = reach.instance_entry([_run(2.0), _run(1.0), _run(3.0, peak=25.04)],
                                 [_run(1.5), _run(1.0), _run(2.5)])
    assert entry["pairs"] == 3 and entry["values_equal"]
    assert entry["change_faster_in_pairs"] == 2     # a tie counts for neither
    assert entry["parent"]["seconds"]["median"] == 2.0 and entry["parent"]["peak_mb"] == 25.0
    assert entry["change"]["value"] == "3/2"
    assert not reach.instance_entry([_run(1.0)], [_run(1.0, "5/2")])["values_equal"]
    with pytest.raises(ValueError):
        reach.instance_entry([_run(1.0)], [])
