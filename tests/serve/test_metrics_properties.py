"""Property-based laws of the /metrics exposition and registry merging.

Whatever traffic the server sees, three things must hold: the rendered
exposition always parses under the Prometheus text grammar, cumulative
bucket counts are monotone and agree with ``_count``, and the registry
merge fold is order-insensitive — the merged counters a read reports
cannot depend on the order registries are folded in.  All three are
derived here from *generated* request streams rather than the handful of
shapes the unit tests pin.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import ObsRegistry
from repro.serve.telemetry import (
    LATENCY_BUCKETS,
    ServeTelemetry,
    bucket_index,
    parse_exposition,
    render_metrics,
)

#: One simulated request: (endpoint, status, latency seconds).
requests_strategy = st.lists(
    st.tuples(
        st.sampled_from(["query", "classify", "lint", "healthz", "statsz", "unknown"]),
        st.sampled_from([200, 201, 301, 400, 404, 500, 503]),
        st.floats(min_value=0.0, max_value=30.0, allow_nan=False, allow_infinity=False),
    ),
    max_size=60,
)


def _replay(reqs) -> ServeTelemetry:
    tel = ServeTelemetry(hist_window=16)
    for endpoint, status, latency in reqs:
        tel.record_request(endpoint, status, latency)
    return tel


@settings(max_examples=60, deadline=None)
@given(requests_strategy)
def test_metrics_always_parse(reqs):
    tel = _replay(reqs)
    samples = parse_exposition(tel.metrics_text())
    # Total requests across families equals the replayed stream length.
    total = sum(v for _, v in samples.get("repro_http_requests_total", []))
    assert total == len(reqs)


@settings(max_examples=60, deadline=None)
@given(requests_strategy)
def test_bucket_counts_monotone_and_match_count(reqs):
    tel = _replay(reqs)
    samples = parse_exposition(tel.metrics_text())
    buckets: dict[str, list[tuple[str, float]]] = {}
    for labels, value in samples.get("repro_http_request_duration_seconds_bucket", []):
        buckets.setdefault(labels["endpoint"], []).append((labels["le"], value))
    counts = {
        l["endpoint"]: v
        for l, v in samples.get("repro_http_request_duration_seconds_count", [])
    }
    per_endpoint_total = {}
    for endpoint, status, latency in reqs:
        per_endpoint_total[endpoint] = per_endpoint_total.get(endpoint, 0) + 1
    for endpoint, series in buckets.items():
        values = [v for _, v in series]
        assert values == sorted(values)
        assert series[-1][0] == "+Inf"
        # +Inf bucket == _count == number of replayed requests there.
        assert series[-1][1] == counts[endpoint] == per_endpoint_total[endpoint]


@settings(max_examples=60, deadline=None)
@given(requests_strategy)
def test_count_sum_consistent_with_statsz_histograms(reqs):
    """``_count``/``_sum`` on /metrics equal the exact merged-histogram
    count/total that /statsz reports, even after window eviction."""
    tel = _replay(reqs)
    merged = tel.merged()
    samples = parse_exposition(tel.metrics_text())
    counts = {
        l["endpoint"]: v
        for l, v in samples.get("repro_http_request_duration_seconds_count", [])
    }
    sums = {
        l["endpoint"]: v
        for l, v in samples.get("repro_http_request_duration_seconds_sum", [])
    }
    for endpoint in counts:
        hist = f"serve.http.{endpoint}"
        assert counts[endpoint] == merged.hist_count(hist)
        assert abs(sums[endpoint] - merged.hist_total(hist)) <= 1e-9 * max(
            1.0, abs(merged.hist_total(hist))
        )


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(
            st.tuples(st.sampled_from(["a", "b", "c"]), st.integers(1, 100)),
            max_size=10,
        ),
        min_size=1,
        max_size=6,
    ),
    st.randoms(use_true_random=False),
)
def test_shard_merge_order_insensitive(shard_specs, rng):
    """Folding the same registry snapshots in any permutation yields
    identical counters and histogram count/total."""
    shards = []
    for spec in shard_specs:
        reg = ObsRegistry(hist_window=8)
        for name, amount in spec:
            reg.add(name, amount)
            reg.observe(f"lat.{name}", float(amount))
        shards.append(reg)
    shuffled = list(shards)
    rng.shuffle(shuffled)
    merged_fwd = ObsRegistry(hist_window=8)
    merged_shuffled = ObsRegistry(hist_window=8)
    for reg in shards:
        merged_fwd.merge(reg.snapshot())
    for reg in shuffled:
        merged_shuffled.merge(reg.snapshot())
    assert merged_fwd.counters == merged_shuffled.counters
    for name in merged_fwd.histograms:
        assert merged_fwd.hist_count(name) == merged_shuffled.hist_count(name)
        assert merged_fwd.hist_total(name) == merged_shuffled.hist_total(name)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=0.0, max_value=100.0, allow_nan=False))
def test_bucket_index_is_le_partition(latency):
    """Every latency lands in exactly the first bucket whose bound covers
    it — the invariant that makes cumulative rendering correct."""
    idx = bucket_index(latency)
    if idx < len(LATENCY_BUCKETS):
        assert latency <= LATENCY_BUCKETS[idx]
    if idx > 0:
        assert latency > LATENCY_BUCKETS[idx - 1]


@settings(max_examples=40, deadline=None)
@given(
    st.dictionaries(
        st.text(
            alphabet=st.characters(codec="utf-8", exclude_categories=("Cs",)),
            min_size=1,
            max_size=20,
        ),
        st.integers(0, 10**12),
        max_size=8,
    )
)
def test_arbitrary_counter_names_render_parseably(counters):
    """Counter names are caller-chosen strings; whatever they contain, the
    rendered exposition must stay inside the grammar."""
    reg = ObsRegistry()
    for name, value in counters.items():
        reg.add(name, value)
    # A sentinel gauge keeps the exposition non-empty when no counters
    # were generated (the live endpoint always carries uptime/records).
    samples = parse_exposition(render_metrics(reg, gauges={"up": 1.0}))
    rendered = samples.get("repro_counter_total", [])
    assert len(rendered) == len(counters)
    assert sum(v for _, v in rendered) == sum(counters.values())
