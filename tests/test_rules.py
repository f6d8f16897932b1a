"""The compiled rule set: facts derived once, pickled as the CFDs alone."""

import pickle

from repro.core.cfd import CFD
from repro.datagen.cust import cust_cfds
from repro.relation.attribute import Attribute
from repro.relation.schema import Schema
from repro.rules import CompiledRules, compile_rules


def test_compiled_set_pickles_as_its_cfds_only():
    cfds = cust_cfds()
    rules = compile_rules(cfds)
    assert rules.specs and rules.consistent()

    data = pickle.dumps(rules)
    loaded = pickle.loads(data)
    assert isinstance(loaded, CompiledRules)
    assert loaded == tuple(cfds)
    assert vars(loaded) == {}
    assert len(data) == len(pickle.dumps(compile_rules(cfds)))


def test_verdict_under_a_schema_answers_without_one(monkeypatch):
    from repro import rules as module

    cfd = CFD.build(["A"], ["B"], [["_", "b"]], name="p1")
    schema = Schema("r", [Attribute("A", domain={"x", "y"}), "B"])
    rules = compile_rules(cfd)
    assert compile_rules(rules) is rules
    assert rules.consistent(schema)

    def refuse(cfds, schema=None):
        raise AssertionError("the verdict was decided again")

    monkeypatch.setattr(module, "is_consistent", refuse)
    assert rules.consistent(schema) and rules.consistent()
