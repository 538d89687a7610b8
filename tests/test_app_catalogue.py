"""One Sec. V app catalogue, and what its consumers print pinned by digest.

``repro.apps.APPS`` is the only list of the four applications: the
fault campaign, the drift sweep, ``python -m repro.telemetry`` and
``python -m repro.analysis --app`` iterate it.  The digests below were
recorded before those consumers moved onto the catalogue, so a digest
that moves means a consumer now prints something else:

* the campaign document for seed 7, budget 8, apps ``atax,axpydot``;
* ``drift_report().to_dict()``;
* the ``(code, severity)`` list of ``python -m repro.analysis --app X
  --json`` for every app;
* the ``runs`` of ``python -m repro.telemetry atax --metrics``.

Run ids are stripped first (they count process-wide).
``python tests/test_app_catalogue.py`` prints the current digests.
"""

import contextlib
import hashlib
import io
import json

import numpy as np
import pytest

from repro.apps import APPS
from repro.host import FblasContext

EXPECTED = {
    "campaign":
        "f59649852c453ffb4745d4beccd3cddb6c161c7910866891c230f6fc95e2ed39",
    "drift":
        "d972ed920418176ecfa5c476fdd2e8b070f57b86762d85205f5f1e65b64e8b08",
    "analysis":
        "ddf317f20e224ca1ce1745688e3e4c379ad9d215b55958ee01f360ee8a34dbbd",
    "telemetry_atax_runs":
        "2941dfb458c6119f3fe83b948c282f525ca613d1f18942c2fdff65ceaa2a667b",
}


def _strip_run_ids(obj):
    if isinstance(obj, dict):
        return {k: _strip_run_ids(v) for k, v in obj.items()
                if k != "run_id"}
    if isinstance(obj, list):
        return [_strip_run_ids(v) for v in obj]
    return obj


def _digest(obj) -> str:
    blob = json.dumps(_strip_run_ids(obj), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _campaign_doc():
    from repro.faults.campaign import _to_plain, run_campaign
    return _to_plain(run_campaign(seed=7, budget=8, apps=("atax", "axpydot")))


def _drift_doc():
    from repro.telemetry.drift import drift_report
    return drift_report().to_dict()


def _analysis_doc():
    from repro.analysis.__main__ import main
    codes = {}
    for app in ("axpydot", "bicg", "atax", "gemver"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            main(["--app", app, "--json"])
        doc = json.loads(out.getvalue())
        codes[app] = [[d["code"], d["severity"]] for d in doc["diagnostics"]]
    return codes


def _telemetry_atax_runs(path):
    from repro.telemetry.cli import main
    assert main(["atax", "--metrics", str(path)]) == 0
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["runs"]


@pytest.fixture(scope="module")
def drift_doc():
    return _drift_doc()


class TestConsumersPrintWhatTheyPrinted:
    def test_campaign(self):
        assert _digest(_campaign_doc()) == EXPECTED["campaign"]

    def test_drift(self, drift_doc):
        assert _digest(drift_doc) == EXPECTED["drift"]

    def test_analysis_codes(self):
        assert _digest(_analysis_doc()) == EXPECTED["analysis"]

    def test_telemetry_atax_runs(self, tmp_path):
        runs = _telemetry_atax_runs(tmp_path / "m.json")
        assert _digest(runs) == EXPECTED["telemetry_atax_runs"]



class TestOneCatalogue:
    def test_consumers_take_exactly_the_catalogue_apps(self, drift_doc,
                                                       capsys):
        from repro.analysis.__main__ import build_parser
        from repro.faults.__main__ import main as faults_main
        from repro.faults.campaign import run_campaign
        from repro.telemetry.cli import _build_parser

        def choices(parser, dest):
            return next(a.choices for a in parser._actions if a.dest == dest)

        apps = tuple(APPS)
        assert choices(_build_parser(), "app") == (*apps, "drift", "report")
        assert choices(build_parser(), "app") == apps
        assert tuple(dict.fromkeys(
            e["app"] for e in drift_doc["entries"])) == apps
        assert set(run_campaign(budget=len(apps))["apps"]) == set(apps)
        with pytest.raises(SystemExit):
            faults_main(["campaign", "--apps", "nope"])
        assert ", ".join(apps) in capsys.readouterr().err

    def test_unwritable_campaign_out_is_one_line(self, tmp_path, capsys):
        """``--out`` in a missing directory: exit 2 and one line on
        stderr before any trial runs."""
        from repro.faults.__main__ import main as faults_main
        path = tmp_path / "absent" / "c.json"
        assert faults_main(["campaign", "--apps", "atax", "--budget", "2",
                            "--out", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"cannot write {path}: No such file or directory\n"

    @pytest.mark.parametrize("app", list(APPS))
    def test_drawn_run_matches_reference(self, app):
        spec = APPS[app]
        arrays = spec.draw(np.random.default_rng(5), 16)
        res = spec.run(FblasContext(), arrays, width=4, tile=4)
        want = spec.reference(*arrays, *spec.scalars)
        got, want = ((res.value, want) if isinstance(want, tuple)
                     else ((res.value,), (want,)))
        for g, w in zip(got, want, strict=True):
            np.testing.assert_allclose(g, w, rtol=1e-2, atol=1e-2)

    def test_fault_targets_come_from_one_clean_run(self):
        """What the executor wires: interface kernels take their node's
        name, on-chip edges are ``<src>__<dst>`` channels, a shared read
        fans out through ``fan_<node>``, and every app-bound buffer
        (zero addends and AXPYDOT's beta included) is a target."""
        from repro.faults.campaign import fault_targets
        assert fault_targets("axpydot", 8) == (
            ("read_w__axpy", "read_v__axpy", "read_u__dot", "axpy__dot",
             "dot__write_beta"),
            ("read_w", "read_v", "read_u", "axpy", "dot", "write_beta"),
            ("w", "v", "u", "axpydot_beta"))
        assert fault_targets("atax", 8) == (
            ("read_A__gemv", "read_A__gemvT", "read_x__gemv",
             "read_z1__gemv", "read_z2__gemvT", "gemv__gemvT",
             "gemvT__write_y", "read_A__fan"),
            ("read_A", "fan_read_A", "read_x", "read_z1", "read_z2", "gemv",
             "gemvT", "write_y"),
            ("A", "x", "atax_y", "atax_z1", "atax_z2"))
        assert fault_targets("bicg", 8)[2] == (
            "A", "p", "r", "bicg_q", "bicg_s", "bicg_zn", "bicg_zm")
        channels, kernels, buffers = fault_targets("gemver", 8)
        assert channels[-4:] == ("read_B__gemv", "read_x__gemv",
                                 "read_zeros__gemv", "gemv__write_w")
        assert kernels[-5:] == ("read_B", "read_x", "read_zeros", "gemv",
                                "write_w")
        assert buffers == ("A", "u1", "v1", "u2", "v2", "y", "z",
                           "gemver_B", "gemver_x", "gemver_w",
                           "gemver_zeros")

if __name__ == "__main__":          # print the current digests
    import tempfile

    with contextlib.redirect_stdout(io.StringIO()), \
            tempfile.TemporaryDirectory() as tmp:
        docs = {"campaign": _campaign_doc(), "drift": _drift_doc(),
                "analysis": _analysis_doc(),
                "telemetry_atax_runs": _telemetry_atax_runs(f"{tmp}/m.json")}
    for name, doc in docs.items():
        print(f'    "{name}":\n        "{_digest(doc)}",')
