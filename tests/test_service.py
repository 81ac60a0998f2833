"""End-to-end service tests against a live localhost HTTP server."""

import json
import logging
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.pipeline import SweepConfig, diff_artifacts, run_sweep, sweep_artifact
from repro.pipeline.jobs import _decode
from repro.service import EstimateRequest, serve
from repro.service.jobs import sweep_config_from_mapping

ESTIMATE = "/estimate?kind=adder&n=4&family=cdkpm&mc_batch=64&seed=3"


@pytest.fixture()
def server(tmp_path):
    srv = serve(port=0, store=str(tmp_path / "store"))
    # A short poll keeps shutdown() at teardown from waiting out the
    # default 0.5 s serve_forever poll in every test.
    thread = threading.Thread(
        target=srv.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        srv.state.jobs.shutdown()
        srv.server_close()
        thread.join(timeout=5)


def _url(server, path):
    host, port = server.server_address[:2]
    return f"http://{host}:{port}{path}"


def _get(server, path):
    with urllib.request.urlopen(_url(server, path)) as resp:
        return resp.status, dict(resp.headers), resp.read()


def _post(server, path, payload):
    req = urllib.request.Request(
        _url(server, path),
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req) as resp:
        return resp.status, dict(resp.headers), resp.read()


def _wait_for_job(server, job_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, _, body = _get(server, f"/jobs/{job_id}")
        status = json.loads(body)["status"]
        if status in ("done", "failed"):
            return status
        time.sleep(0.05)
    pytest.fail(f"job {job_id} did not finish within {timeout}s")


class TestHealthAndStats:
    def test_healthz(self, server):
        status, _, body = _get(server, "/healthz")
        assert status == 200 and json.loads(body) == {"status": "ok"}

    def test_statsz_counts_requests(self, server):
        _get(server, "/healthz")
        _, _, body = _get(server, "/statsz")
        stats = json.loads(body)
        assert stats["requests"] >= 1
        assert "result_tier" in stats["cache"]
        assert stats["jobs"]["total"] == 0


    def test_statsz_counts_mc_strategy_of_computed_estimates(self, server):
        """A default cold request runs once, so it runs on the scalar VM
        (no fusion, no kernel generation); a memory hit runs nothing."""
        _get(server, ESTIMATE)
        _get(server, ESTIMATE)
        _, _, body = _get(server, "/statsz")
        strategies = json.loads(body)["cache"]["mc_strategies"]
        assert strategies == {"scalar": 1, "codegen": 0, "vector": 0, "sharded": 0}


class TestEstimate:
    def test_cold_then_hot_byte_identical(self, server):
        s1, h1, cold = _get(server, ESTIMATE)
        s2, h2, warm = _get(server, ESTIMATE)
        assert (s1, s2) == (200, 200)
        assert h1["X-Repro-Cache"] == "computed"
        assert h2["X-Repro-Cache"] == "memory"
        assert warm == cold
        payload = _decode(json.loads(cold))  # Fractions travel as {"$frac": ...}
        assert payload["toffoli"] > 0 and payload["mc"]["samples"] == 64

    def test_post_and_get_share_a_fingerprint(self, server):
        _, _, via_get = _get(server, ESTIMATE)
        status, headers, via_post = _post(server, "/estimate", {
            "kind": "adder", "n": 4, "family": "cdkpm",
            "mc_batch": 64, "seed": 3,
        })
        assert status == 200
        assert headers["X-Repro-Cache"] == "memory"  # the GET warmed it
        assert via_post == via_get

    def test_restart_serves_same_bytes_from_disk(self, server):
        _, _, cold = _get(server, ESTIMATE)
        server.state.cache.drop_memory_results()  # simulate a restart
        status, headers, redux = _get(server, ESTIMATE)
        assert status == 200
        assert headers["X-Repro-Cache"] == "disk"
        assert redux == cold

    def test_estimate_without_mc(self, server):
        _, _, body = _get(server, "/estimate?kind=adder&n=4&family=cdkpm&mc=false")
        payload = _decode(json.loads(body))
        assert payload["mc"] is None and payload["toffoli"] > 0

    def test_qft_circuit_reports_null_mc(self, server):
        """No basis-state semantics -> "mc": null, not a 500."""
        _, _, body = _get(server, "/estimate?kind=modadd_draper&n=4&p=13&mbu=false")
        payload = _decode(json.loads(body))
        assert payload["mc"] is None and payload["toffoli"] >= 0

    @pytest.mark.parametrize("path,fragment", [
        ("/estimate?kind=bogus&n=4", "unknown builder kind"),
        ("/estimate?kind=adder&n=0", "must be in"),
        ("/estimate?n=4", "missing 'kind'"),
        ("/estimate?kind=adder", "missing 'n'"),
        ("/estimate?kind=adder&n=4&mc=maybe", "mc must be a boolean"),
        ("/estimate?kind=add_const&n=4", "rejected parameters"),
        ("/estimate?kind=adder&n=4&mc_repeats=9999", "must be in"),
    ])
    def test_client_errors_are_400(self, server, path, fragment):
        with pytest.raises(urllib.error.HTTPError) as exc:
            _get(server, path)
        assert exc.value.code == 400
        assert fragment in json.loads(exc.value.read())["error"]

    def test_unexpected_error_is_500_with_logged_traceback(
        self, server, monkeypatch, caplog
    ):
        from repro.service import http

        def explode(request, cache):
            raise RuntimeError("estimator exploded")

        monkeypatch.setattr(http, "serve_estimate", explode)
        with caplog.at_level(logging.ERROR, logger="repro.service.http"):
            with pytest.raises(urllib.error.HTTPError) as exc:
                _get(server, ESTIMATE)
        assert exc.value.code == 500
        # the body names only the exception type ...
        assert json.loads(exc.value.read()) == {"error": "internal error: RuntimeError"}
        # ... the log carries the whole traceback
        assert "Traceback (most recent call last)" in caplog.text
        assert "estimator exploded" in caplog.text
        assert "in explode" in caplog.text

    def test_unknown_route_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as exc:
            _get(server, "/frobnicate")
        assert exc.value.code == 404


class TestJobs:
    CONFIG = {
        "tables": ["table1"], "sizes": [4], "seed": 7, "mc_batch": 64,
        "modexp": [], "include_savings": False, "workers": 0,
    }

    def test_submit_poll_result_matches_direct_sweep(self, server):
        status, _, body = _post(server, "/jobs", self.CONFIG)
        assert status == 202
        job = json.loads(body)
        assert _wait_for_job(server, job["id"]) == "done"
        _, _, body = _get(server, f"/jobs/{job['id']}/result")
        served = json.loads(body)["artifact"]
        direct = sweep_artifact(run_sweep(sweep_config_from_mapping(self.CONFIG)))
        assert diff_artifacts(served, direct) == []

    def test_resubmit_coalesces(self, server):
        _, _, first = _post(server, "/jobs", self.CONFIG)
        _, _, second = _post(server, "/jobs", self.CONFIG)
        assert json.loads(first)["id"] == json.loads(second)["id"]
        _, _, listing = _get(server, "/jobs")
        assert len(json.loads(listing)["jobs"]) == 1
        _wait_for_job(server, json.loads(first)["id"])

    def test_result_before_done_is_409_or_ready(self, server):
        _, _, body = _post(server, "/jobs", self.CONFIG)
        job_id = json.loads(body)["id"]
        try:
            status, _, _ = _get(server, f"/jobs/{job_id}/result")
            assert status == 200  # tiny sweep may have already finished
        except urllib.error.HTTPError as exc:
            assert exc.code == 409
            assert "not ready" in json.loads(exc.read())["error"]
        _wait_for_job(server, job_id)

    def test_bad_config_is_400(self, server):
        for payload, fragment in [
            ({"tables": ["table9"]}, "unknown table"),
            ({"table": ["table1"]}, "unknown sweep config field"),
            ({"transforms": ["bogus"]}, "unknown transform pass"),
        ]:
            with pytest.raises(urllib.error.HTTPError) as exc:
                _post(server, "/jobs", payload)
            assert exc.value.code == 400
            assert fragment in json.loads(exc.value.read())["error"]

    def test_unknown_job_is_404(self, server):
        for path in ("/jobs/nope", "/jobs/nope/result"):
            with pytest.raises(urllib.error.HTTPError) as exc:
                _get(server, path)
            assert exc.value.code == 404


class TestRequestNormalization:
    """GET and POST spellings of one question share a fingerprint."""

    def test_query_strings_coerce_like_json(self):
        via_query = EstimateRequest.from_mapping(
            {"kind": "adder", "n": "4", "family": "cdkpm",
             "mc": "true", "mc_batch": "64", "seed": "3"})
        via_json = EstimateRequest.from_mapping(
            {"kind": "adder", "n": 4, "family": "cdkpm",
             "mc": True, "mc_batch": 64, "seed": 3})
        assert via_query == via_json
        assert via_query.fingerprint() == via_json.fingerprint()

    def test_transform_spellings_agree(self):
        via_csv = EstimateRequest.from_mapping(
            {"kind": "adder", "n": 4, "transforms": "lower_toffoli,cancel_adjacent"})
        via_list = EstimateRequest.from_mapping(
            {"kind": "adder", "n": 4,
             "transforms": ["lower_toffoli", "cancel_adjacent"]})
        assert via_csv.fingerprint() == via_list.fingerprint()

    def test_mc_knobs_change_the_fingerprint(self):
        base = EstimateRequest.from_mapping({"kind": "adder", "n": 4})
        reseeded = EstimateRequest.from_mapping({"kind": "adder", "n": 4, "seed": 1})
        wider = EstimateRequest.from_mapping({"kind": "adder", "n": 4, "mc_batch": 512})
        assert len({base.fingerprint(), reseeded.fingerprint(), wider.fingerprint()}) == 3

    def test_sweep_config_round_trips_sweepconfig_defaults(self):
        config = sweep_config_from_mapping({})
        assert config == SweepConfig()
