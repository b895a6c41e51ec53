"""Query parsing and digest fidelity (``repro.serve.query``).

The load-bearing property: a URL-encoded query, decoded the way the HTTP
server decodes it (``urllib.parse.parse_qs``), expands to *exactly* the
RunSpecs — same digests — that direct ``RunSpec.make`` calls with the
same parameters produce.  Any serve-only drift would silently split the
result cache into an HTTP half and a CLI half, so a hypothesis property
sweeps the whole parameter space (including ``Affine+RLPV``, whose ``+``
only survives proper URL encoding).  The rest pins strict-parse
behaviour: every malformed input class gets a :class:`QueryError` naming
the offending parameter.
"""

from urllib.parse import parse_qs, urlencode

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.models import model_names
from repro.harness.runner import EXPERIMENT_SMS, RunSpec
from repro.serve import (FIGURES, QueryError, QuerySpec, flat_specs,
                         parse_query, required_specs)
from repro.serve.query import MAX_SCALE, MAX_SEED, MAX_SMS, known_workloads

FIG_NAMES = sorted(FIGURES)


def params_strategy():
    """Random valid query parameter dicts; keys drop out to test defaults."""
    optional = {
        "model": st.sampled_from(model_names()),
        "scale": st.integers(1, MAX_SCALE).map(str),
        "seed": st.integers(0, MAX_SEED).map(str),
        "sms": st.integers(1, MAX_SMS).map(str),
    }
    return st.fixed_dictionaries(
        {"workload": st.sampled_from(known_workloads())},
        optional=optional)


class TestDigestFidelity:
    @given(fig=st.sampled_from(FIG_NAMES), params=params_strategy())
    @settings(max_examples=100, deadline=None)
    def test_url_roundtrip_matches_direct_runspec_digests(self, fig, params):
        # Exactly the wire path: encode, then decode like the server does.
        decoded = parse_qs(urlencode(params), keep_blank_values=True)
        query = parse_query(fig, decoded)

        model = params.get("model", "RLPV")
        scale = int(params.get("scale", 1))
        seed = int(params.get("seed", 7))
        sms = int(params.get("sms", EXPERIMENT_SMS))
        assert query == QuerySpec(fig=fig, workload=params["workload"],
                                  model=model, scale=scale, seed=seed,
                                  num_sms=sms)

        expanded = required_specs(query)
        assert set(expanded) == {params["workload"]}
        for role, spec in expanded[params["workload"]].items():
            reference = RunSpec.make(
                params["workload"],
                model if role == "MODEL" else "Base",
                scale=scale, seed=seed, num_sms=sms,
                profile=(role == "PROFILE"))
            assert spec == reference
            assert spec.digest() == reference.digest()

    @given(fig=st.sampled_from(FIG_NAMES), params=params_strategy())
    @settings(max_examples=25, deadline=None)
    def test_parse_is_deterministic_and_flat_specs_deduped(self, fig, params):
        decoded = parse_qs(urlencode(params), keep_blank_values=True)
        assert parse_query(fig, decoded) == parse_query(fig, decoded)
        specs = flat_specs(parse_query(fig, decoded))
        assert len({spec.digest() for spec in specs}) == len(specs)

    def test_suite_query_spans_every_table1_benchmark(self):
        from repro.workloads import all_abbrs
        query = parse_query("fig17", {}, suite=True)
        assert query.suite and query.workloads() == all_abbrs()
        assert set(required_specs(query)) == set(all_abbrs())


class TestStrictParsing:
    def test_unknown_figure(self):
        with pytest.raises(QueryError) as err:
            parse_query("fig99", {"workload": ["KM"]})
        assert err.value.param == "fig"

    def test_missing_workload(self):
        with pytest.raises(QueryError) as err:
            parse_query("fig17", {})
        assert err.value.param == "workload"

    def test_unknown_workload(self):
        with pytest.raises(QueryError) as err:
            parse_query("fig17", {"workload": ["NOPE"]})
        assert err.value.param == "workload"

    def test_unknown_model(self):
        with pytest.raises(QueryError) as err:
            parse_query("fig17", {"workload": ["KM"], "model": ["WAT"]})
        assert err.value.param == "model"

    def test_unknown_engine(self):
        """The engine is an execution choice, not part of a query: every
        ``engine=`` value is an unknown parameter (HTTP 400)."""
        for engine in ("scalar", "fast", "quantum"):
            with pytest.raises(QueryError) as err:
                parse_query("fig17", {"workload": ["KM"], "engine": [engine]})
            assert err.value.param == "engine"
            assert str(err.value) == "unknown parameter(s) engine"

    def test_unknown_parameter_name(self):
        with pytest.raises(QueryError) as err:
            parse_query("fig17", {"workload": ["KM"], "turbo": ["1"]})
        assert err.value.param == "turbo"

    def test_repeated_parameter(self):
        with pytest.raises(QueryError) as err:
            parse_query("fig17", {"workload": ["KM", "GA"]})
        assert err.value.param == "workload"

    @pytest.mark.parametrize("name,value", [
        ("scale", "zero"), ("scale", "0"), ("scale", str(MAX_SCALE + 1)),
        ("seed", "-1"), ("sms", "0"), ("sms", str(MAX_SMS + 1)),
        ("seed", "1e3"),
    ])
    def test_integer_bounds(self, name, value):
        with pytest.raises(QueryError) as err:
            parse_query("fig17", {"workload": ["KM"], name: [value]})
        assert err.value.param == name

    def test_suite_forbids_workload(self):
        with pytest.raises(QueryError) as err:
            parse_query("fig17", {"workload": ["KM"]}, suite=True)
        assert err.value.param == "workload"

    def test_plus_in_model_name_needs_encoding(self):
        """``Affine+RLPV`` sent unencoded decodes to ``Affine RLPV`` —
        and is rejected, which is exactly why clients must urlencode."""
        decoded = parse_qs("workload=KM&model=Affine+RLPV")
        with pytest.raises(QueryError):
            parse_query("fig17", decoded)
        encoded = parse_qs(urlencode({"workload": "KM",
                                      "model": "Affine+RLPV"}))
        query = parse_query("fig17", encoded)
        assert query.model == "Affine+RLPV"


def test_engine_parameter_is_a_400_over_http(tmp_path):
    """What the strict parser rejects reaches clients as a 400 envelope
    naming ``engine`` — before any cache lookup or job."""
    import asyncio

    from repro.harness.runner import clear_cache, set_cache_dir
    from tests.serve_util import get_json, serving

    async def main():
        async with serving(tmp_path, worker=False) as (_, port):
            return await get_json(
                port, "/v1/figure/fig17?workload=GA&engine=scalar")

    try:
        status, _, doc = asyncio.run(main())
    finally:
        clear_cache()
        set_cache_dir(None)
    assert status == 400
    assert doc["error"]["param"] == "engine"
    assert doc["error"]["message"] == "unknown parameter(s) engine"
