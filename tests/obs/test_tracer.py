"""Tracer: span recording, Chrome-trace export, schema validation."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.obs.tracer import (
    DEFAULT_PROCESS,
    NULL_TRACER,
    NullTracer,
    RequestPathConfig,
    SpanContext,
    Tracer,
    validate_chrome_trace,
)


def make_trace() -> Tracer:
    t = Tracer(meta={"seed": 3})
    t.span("prefill", track="unit0", start=0, end=100, cat="dispatch",
           args={"size": 2})
    t.span("decode", track="unit1", start=50, end=80, cat="dispatch")
    t.counter("queue_depth", cycle=0, value=1)
    t.counter("queue_depth", cycle=60, value=0)
    t.async_span("llm-0", span_id=0, start=0, end=120, cat="llm",
                 args={"gen_tokens": 4})
    return t


def test_span_recording_and_busy_cycles():
    t = make_trace()
    assert t.busy_cycles() == 130
    assert t.busy_cycles(track="unit0") == 100
    assert t.busy_cycles(cat="dispatch") == 130
    assert t.busy_cycles(cat="other") == 0
    assert t.tracks() == ["unit0", "unit1"]


def test_track_ids_follow_registration_order():
    t = Tracer()
    assert t.track_id("b") == 0
    assert t.track_id("a") == 1
    assert t.track_id("b") == 0  # stable on reuse


def test_backwards_span_rejected():
    t = Tracer()
    with pytest.raises(ConfigurationError):
        t.span("bad", track="u", start=10, end=5)
    with pytest.raises(ConfigurationError):
        t.async_span("bad", span_id=1, start=10, end=5)


def test_chrome_trace_structure():
    doc = make_trace().to_chrome_trace()
    stats = validate_chrome_trace(doc)
    assert stats == {"X": 2, "M": 5, "C": 2, "b": 1, "e": 1,
                     "s": 0, "t": 0, "f": 0}
    assert doc["otherData"]["time_unit"] == "cycles"
    assert doc["otherData"]["seed"] == 3
    xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert xs[0]["args"] == {"size": 2}
    assert xs[0]["ts"] == 0 and xs[0]["dur"] == 100
    names = {e["args"]["name"] for e in doc["traceEvents"]
             if e["ph"] == "M" and e["name"] == "thread_name"}
    assert names == {"unit0", "unit1"}


def test_export_round_trip_is_byte_identical():
    """Golden round-trip: same recording -> identical bytes, and a parsed
    export re-serializes to the same document."""
    a, b = make_trace().to_json(), make_trace().to_json()
    assert a == b
    parsed = json.loads(a)
    assert json.dumps(parsed, sort_keys=True, separators=(",", ":")) == a


def test_validator_rejects_malformed_documents():
    good = make_trace().to_chrome_trace()
    with pytest.raises(ConfigurationError):
        validate_chrome_trace([])  # not an object
    with pytest.raises(ConfigurationError):
        validate_chrome_trace({"traceEvents": []})  # missing otherData
    with pytest.raises(ConfigurationError):
        validate_chrome_trace({"traceEvents": [], "otherData": {}})  # empty
    bad_phase = json.loads(json.dumps(good))
    bad_phase["traceEvents"][0]["ph"] = "Z"
    with pytest.raises(ConfigurationError):
        validate_chrome_trace(bad_phase)
    bad_ts = json.loads(json.dumps(good))
    for ev in bad_ts["traceEvents"]:
        if ev["ph"] == "X":
            ev["ts"] = -1
            break
    with pytest.raises(ConfigurationError):
        validate_chrome_trace(bad_ts)
    dangling = json.loads(json.dumps(good))
    dangling["traceEvents"] = [e for e in dangling["traceEvents"]
                               if e["ph"] != "e"]
    with pytest.raises(ConfigurationError):
        validate_chrome_trace(dangling)


def test_null_tracer_records_nothing():
    assert NULL_TRACER.enabled is False
    assert isinstance(NULL_TRACER, NullTracer)
    t = NullTracer()
    t.span("x", track="u", start=5, end=1)  # not even validated
    t.counter("c", cycle=0, value=1)
    t.async_span("a", span_id=0, start=5, end=1)
    t.flow("s", flow_id=0, cycle=0, track="u")
    assert t.spans == [] and t.counters == [] and t.async_spans == []
    assert t.flows == []


# -- processes, flows, request paths -----------------------------------------

def test_process_registration_and_per_process_tids():
    t = Tracer()
    assert t.process_id(DEFAULT_PROCESS) == 0
    assert t.process_id("board0") == 1
    assert t.process_id("board0") == 1  # stable on reuse
    # thread ids count up independently inside each process
    assert t.track_id("lane0", "board0") == 0
    assert t.track_id("lane1", "board0") == 1
    assert t.track_id("edge") == 0  # default process starts at tid 0 too
    assert t.processes() == [DEFAULT_PROCESS, "board0"]


def test_multi_process_export_declares_every_process():
    t = Tracer()
    t.span("compute", track="lane0", start=0, end=10, process="board0")
    t.span("compute", track="lane0", start=0, end=10, process="board1")
    doc = t.to_chrome_trace()
    stats = validate_chrome_trace(doc)
    assert stats["X"] == 2
    procs = {e["args"]["name"]: e["pid"] for e in doc["traceEvents"]
             if e["ph"] == "M" and e["name"] == "process_name"}
    assert procs == {DEFAULT_PROCESS: 0, "board0": 1, "board1": 2}
    xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert {e["pid"] for e in xs} == {1, 2}
    assert all(e["tid"] == 0 for e in xs)  # lane0 is tid 0 on each board


def test_flow_events_export_and_validate():
    t = Tracer()
    t.span("edge", track="edge", start=0, end=1)
    t.span("compute", track="lane0", start=5, end=9, process="board0")
    t.flow("s", flow_id=7, cycle=0, track="edge")
    t.flow("t", flow_id=7, cycle=5, track="lane0", process="board0")
    t.flow("f", flow_id=7, cycle=9, track="edge")
    doc = t.to_chrome_trace()
    stats = validate_chrome_trace(doc)
    assert (stats["s"], stats["t"], stats["f"]) == (1, 1, 1)
    finish = next(e for e in doc["traceEvents"] if e["ph"] == "f")
    assert finish["bp"] == "e"  # bind to enclosing slice
    with pytest.raises(ConfigurationError):
        t.flow("q", flow_id=7, cycle=0, track="edge")


def test_validator_rejects_flow_step_before_start():
    t = Tracer()
    t.span("edge", track="edge", start=0, end=1)
    t.flow("s", flow_id=1, cycle=10, track="edge")
    t.flow("t", flow_id=1, cycle=5, track="edge")
    with pytest.raises(ConfigurationError):
        validate_chrome_trace(t.to_chrome_trace())
    t2 = Tracer()
    t2.span("edge", track="edge", start=0, end=1)
    t2.flow("t", flow_id=1, cycle=5, track="edge")  # orphan step
    with pytest.raises(ConfigurationError):
        validate_chrome_trace(t2.to_chrome_trace())


def test_validator_checks_stage_parentage():
    def with_request(child_start, child_end):
        t = Tracer()
        t.async_span("llm-0", span_id=0, start=10, end=100, cat="llm")
        t.async_span("queue", span_id=0, start=child_start, end=child_end,
                     cat="llm")
        return t.to_chrome_trace()

    validate_chrome_trace(with_request(10, 50))  # nested: fine
    with pytest.raises(ConfigurationError):
        validate_chrome_trace(with_request(5, 50))  # escapes left
    with pytest.raises(ConfigurationError):
        validate_chrome_trace(with_request(50, 120))  # escapes right

    # two non-stage parents in one group is ambiguous
    t = Tracer()
    t.async_span("llm-0", span_id=0, start=0, end=100, cat="llm")
    t.async_span("other-parent", span_id=0, start=0, end=100, cat="llm")
    t.async_span("queue", span_id=0, start=0, end=10, cat="llm")
    with pytest.raises(ConfigurationError):
        validate_chrome_trace(t.to_chrome_trace())


def test_validator_requires_flow_stitch_across_processes():
    def cross_process(with_flows):
        t = Tracer()
        t.async_span("llm-0", span_id=0, start=0, end=100, cat="llm")
        t.async_span("shard_compute", span_id=0, start=10, end=90,
                     cat="llm", process="board0")
        if with_flows:
            t.span("edge", track="edge", start=0, end=1)
            t.track_id("lane0", "board0")
            t.flow("s", flow_id=0, cycle=0, track="edge")
            t.flow("t", flow_id=0, cycle=10, track="lane0",
                   process="board0")
        return t.to_chrome_trace()

    with pytest.raises(ConfigurationError):
        validate_chrome_trace(cross_process(False))
    stats = validate_chrome_trace(cross_process(True))
    assert stats["b"] == 2 and stats["s"] == 1


def test_request_path_config():
    with pytest.raises(ConfigurationError):
        RequestPathConfig(detail_every=0)
    with pytest.raises(ConfigurationError):
        RequestPathConfig(max_spans_per_request=4)
    cfg = RequestPathConfig(detail_every=3)
    assert [cfg.samples(r) for r in range(4)] == [True, False, False, True]


def test_span_context_records_children_and_enforces_budget():
    t = Tracer()
    ctx = SpanContext(0, "llm", t, budget=3)
    assert ctx.child("queue", start=0, end=5)
    assert ctx.child("shard_compute", start=5, end=9, process="board0")
    assert ctx.flow("s", cycle=0, track="edge")
    # budget exhausted: drops are counted, nothing more is recorded
    assert not ctx.child("respond", start=9, end=9)
    assert not ctx.flow("f", cycle=9, track="edge")
    assert ctx.dropped == 2
    assert len(t.async_spans) == 2 and len(t.flows) == 1
    assert t.async_spans[0].span_id == 0 and t.async_spans[0].cat == "llm"


# -- the export serializer against its reference -----------------------------

def reference_doc(t: Tracer) -> dict:
    """The event document, one dict per event: the reference the template
    serializer of :meth:`Tracer.to_json` is checked against."""
    events: list[dict] = []
    for process, pid in t._procs.items():
        events.append({"ph": "M", "name": "process_name", "pid": pid,
                       "tid": 0, "args": {"name": process}})
    for (process, track), tid in t._tracks.items():
        pid = t._procs[process]
        events.append({"ph": "M", "name": "thread_name", "pid": pid,
                       "tid": tid, "args": {"name": track}})
        events.append({"ph": "M", "name": "thread_sort_index", "pid": pid,
                       "tid": tid, "args": {"sort_index": tid}})
    for s in t.spans:
        events.append({"ph": "X", "name": s.name, "cat": s.cat,
                       "ts": s.start, "dur": s.duration,
                       "pid": t._procs[s.process],
                       "tid": t._tracks[(s.process, s.track)],
                       "args": dict(s.args)})
    for a in t.async_spans:
        common = {"name": a.name, "cat": a.cat, "id": a.span_id,
                  "pid": t._procs[a.process], "tid": 0}
        events.append({"ph": "b", "ts": a.start, "args": dict(a.args),
                       **common})
        events.append({"ph": "e", "ts": a.end, **common})
    for fl in t.flows:
        ev = {"ph": fl.phase, "name": fl.name, "cat": "flow",
              "id": fl.flow_id, "ts": fl.cycle,
              "pid": t._procs[fl.process],
              "tid": t._tracks[(fl.process, fl.track)]}
        if fl.phase == "f":
            ev["bp"] = "e"
        events.append(ev)
    for c in t.counters:
        events.append({"ph": "C", "name": c.name, "ts": c.cycle, "pid": 0,
                       "args": {"value": c.value}})
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"time_unit": "cycles", **t.meta}}


def reference_json(t: Tracer) -> str:
    return json.dumps(reference_doc(t), sort_keys=True, separators=(",", ":"))


# Strings that JSON must escape, or that ensure_ascii rewrites.
_text = st.one_of(
    st.sampled_from(['"', "\\", "a\"b\\c", "\n\t\x00\x1f", "é", "日本",
                     " ", "\U0001f600", "", "edge"]),
    st.text(max_size=6),
)
# Equal-hashing values under one key: True == 1 == 1.0, 0.0 == -0.0.
_scalar = st.one_of(
    st.sampled_from([True, False, 1, 0, 1.0, 0.0, -0.0, None, "1", "x"]),
    st.integers(-(2 ** 70), 2 ** 70),
    st.floats(allow_nan=True, allow_infinity=True),
    _text,
)
_value = st.recursive(
    _scalar,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(_text, inner, max_size=3),
    ),
    max_leaves=6,
)
_args = st.one_of(
    st.none(),
    st.dictionaries(st.sampled_from(["phase", "batch", "k", "é\"k"]),
                    _value, max_size=4),
)
_proc = st.sampled_from([DEFAULT_PROCESS, "board0", "board\"1", "б2"])
_cycle = st.integers(0, 2 ** 40)


@st.composite
def _record(draw):
    kind = draw(st.sampled_from(["span", "async", "flow", "counter"]))
    start = draw(_cycle)
    end = start + draw(st.integers(0, 1000))
    if kind == "span":
        return ("span", draw(_text), dict(
            track=draw(_text), start=start, end=end, cat=draw(_text),
            args=draw(_args), process=draw(_proc)))
    if kind == "async":
        return ("async_span", draw(_text), dict(
            span_id=draw(st.integers(0, 50)), start=start, end=end,
            cat=draw(_text), args=draw(_args), process=draw(_proc)))
    if kind == "flow":
        return ("flow", draw(st.sampled_from(["s", "t", "f"])), dict(
            flow_id=draw(st.integers(0, 50)), cycle=start,
            track=draw(_text), process=draw(_proc), name=draw(_text)))
    value = draw(st.one_of(st.integers(-(2 ** 40), 2 ** 40),
                           st.floats(allow_nan=True, allow_infinity=True)))
    return ("counter", draw(_text), dict(cycle=start, value=value))


@settings(max_examples=300, deadline=None)
@given(records=st.lists(_record(), max_size=25),
       meta=st.dictionaries(_text, _value, max_size=3))
@example(records=[], meta={})
@example(records=[("span", "x", dict(track="u", start=0, end=1, args={"k": v}))
                  for v in (True, 1, 1.0, -0.0, 0.0, 0, False, None, "1")],
         meta={"seed": 0})
def test_to_json_equals_reference_serializer(records, meta):
    """Differential: the template serializer writes exactly the bytes of
    ``json.dumps`` over the per-event dict document."""
    t = Tracer(meta=meta)
    for method, first, kwargs in records:
        getattr(t, method)(first, **kwargs)
    assert t.to_json() == reference_json(t)
