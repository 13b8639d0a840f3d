"""The service CLI against a live in-process server.

The CI service-smoke job exercises these commands over a subprocess; the
tests here pin the same surface in-process — argument validation, the
exact summary lines the smoke job greps, and every client subcommand's
happy path and error rc.
"""

import json

import pytest

from repro.cli import main
from repro.service import ServerThread, job_key
from repro.service.protocol import JobSpec


class Sink:
    def __init__(self):
        self.lines = []

    def __call__(self, *args):
        self.lines.append(" ".join(str(a) for a in args))

    @property
    def text(self):
        return "\n".join(self.lines)


SUBMIT_ARGS = [
    "submit", "mcf", "--sizes", "2", "--interval", "40000", "--intervals", "1",
]


@pytest.fixture()
def server(tmp_path):
    with ServerThread(tmp_path / "state", tmp_path / "svc.sock") as srv:
        yield srv


def sock_args(server) -> list[str]:
    return ["--socket", str(server.socket_path)]


def expected_key() -> str:
    from repro.cli import _factory

    return job_key(
        JobSpec(
            workload=_factory("mcf", 1),
            sizes_mb=(2.0,),
            benchmark="mcf",
            interval_instructions=40_000.0,
            n_intervals=1,
            seed=1,
        )
    )


def test_submit_wait_then_cached_resubmit(server):
    out = Sink()
    assert main(SUBMIT_ARGS + ["--wait"] + sock_args(server), out=out) == 0
    assert "1 job(s): 1 queued, 0 deduped, 0 cached" in out.text
    assert "dedup/cache hits: 0/1 (0.0%)" in out.text
    assert "quarantined=0" in out.text
    again = Sink()
    assert main(SUBMIT_ARGS + sock_args(server), out=again) == 0
    assert "dedup/cache hits: 1/1 (100.0%)" in again.text
    assert "cached" in again.text


def test_status_fetch_watch_round_trip(server):
    out = Sink()
    assert main(SUBMIT_ARGS + ["--wait"] + sock_args(server), out=out) == 0
    key = expected_key()
    assert key[:12] in out.text

    status = Sink()
    assert main(["status", key] + sock_args(server), out=status) == 0
    assert f"{key[:12]} done" in status.text

    stats = Sink()
    assert main(["status"] + sock_args(server), out=stats) == 0
    assert "1 submitted, 1 executed" in stats.text

    stats_json = Sink()
    assert main(["status", "--json"] + sock_args(server), out=stats_json) == 0
    assert json.loads(stats_json.text)["stats"]["jobs_executed"] == 1

    fetch = Sink()
    assert main(["fetch", key] + sock_args(server), out=fetch) == 0
    assert "engine=measure" in fetch.text
    assert "measured=1" in fetch.text

    fetch_json = Sink()
    assert main(["fetch", key, "--json"] + sock_args(server), out=fetch_json) == 0
    assert json.loads(fetch_json.text)["key"] == key

    watch = Sink()
    assert main(["watch", key] + sock_args(server), out=watch) == 0
    events = [json.loads(line) for line in watch.lines]
    assert [e["type"] for e in events] == [
        "submitted", "queued", "started", "finished",
    ]


def test_submit_grid_expands_cells(server, tmp_path):
    config = {
        "name": "cli_grid",
        "seed": 3,
        "axes": {
            "workload": [{"family": "zipf", "working_set_mb": 1.0, "alpha": 1.0}],
            "policy": ["nru", "lru"],
            "pirate": [{"threads": 1, "sizes_mb": [2.0]}],
            "engine": ["surrogate"],
        },
        "sweep": {"interval_instructions": 30000.0, "n_intervals": 1},
    }
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(config))
    out = Sink()
    assert main(["submit", "--grid", str(path), "--wait"] + sock_args(server), out=out) == 0
    assert "2 job(s): 2 queued" in out.text


def test_cli_error_paths(server, tmp_path):
    cases = [
        (["submit"] + sock_args(server), "needs a benchmark name or --grid"),
        (["submit", "doom"] + sock_args(server), "unknown benchmark"),
        (
            ["submit", "mcf", "--grid", "x.yaml"] + sock_args(server),
            "--grid conflicts",
        ),
        (["submit", "mcf", "--intervals", "0"] + sock_args(server), "--intervals"),
        (["watch", "k", "--since", "-1"] + sock_args(server), "--since"),
        (["status", "f" * 64] + sock_args(server), "unknown job"),
        (["fetch", "f" * 64] + sock_args(server), "unknown job"),
        (
            ["status", "--socket", str(tmp_path / "nope.sock")],
            "error",
        ),
    ]
    for argv, needle in cases:
        out = Sink()
        assert main(argv, out=out) == 2, argv
        assert needle in out.text, (argv, out.text)


def test_serve_validates_arguments(tmp_path):
    out = Sink()
    assert main(["serve", "--state-dir", str(tmp_path / "s")], out=out) == 2
    assert "--socket" in out.text or "--host" in out.text
