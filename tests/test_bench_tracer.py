"""The benchmark's span recorder (`perfbench/trace.py`) wraps named
functions and methods of the package from outside.  A renamed or deleted
one would break `perfbench/run.py --trace 1` while every other test
passes, so this installs the recorder on the package as the benchmark
does, classifies an algebra and uninstalls it again."""

import importlib
import importlib.util
import sys
from pathlib import Path

from stringalg import fixtures

TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "trace.py"


def _load_trace(monkeypatch):
    # read the file only: no bytecode cache is written next to it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_trace", TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_traced_name(monkeypatch):
    trace = _load_trace(monkeypatch)
    modules = {"stringalg.cli"} | {m for _name, m, *_rest in trace.FUNCTIONS + trace.METHODS}
    for name in sorted(modules):
        importlib.import_module(name)
    doze = sys.modules["stringalg.doze"]
    automaton_cls = sys.modules["stringalg.automaton"].StringAutomaton
    originals = (doze.classify, automaton_cls.__dict__["bfs"])
    p = fixtures.skew6()
    tracer = trace.Tracer()
    tracer.install()
    try:
        assert doze.classify(p).verdict == "NotLaura"
    finally:
        tracer.uninstall()
    assert (doze.classify, automaton_cls.__dict__["bfs"]) == originals
    calls, _self_s = tracer.layer_totals()
    for name in ("doze.classify", "doze.find_doze", "automaton.build", "automaton.bfs"):
        assert calls[name] >= 1, name
    # the one automaton built, counted as the benchmark reads it
    assert calls["automaton.build"] == 1
    aut = sys.modules["stringalg.automaton"].automaton(p)
    assert tracer.counts["automaton.states"] == len(aut) == len(aut.keys)
    assert tracer.counts["automaton.edges"] == sum(len(aut.edges[s]) for s in aut.states)
