"""error_rate counting: refused-after-retry submits and leaked children."""

import socket
import subprocess
import sys
import threading

import pytest

from common import ErrorLedger
from repro.net import GatewayClient, GatewayError
from repro.net.protocol import read_frame, retry_response, write_frame


@pytest.fixture
def always_busy_gateway():
    """A listener that answers every request with the backpressure reply."""
    server = socket.create_server(("127.0.0.1", 0))
    stop = threading.Event()

    def serve():
        server.settimeout(0.2)
        while not stop.is_set():
            try:
                conn, _ = server.accept()
            except OSError:
                continue
            with conn, conn.makefile("rwb") as stream:
                while (request := read_frame(stream)) is not None:
                    write_frame(stream, retry_response("full", request.get("id"), after_s=0.0))

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    yield server.getsockname()[1]
    stop.set()
    thread.join(5)
    server.close()


def test_refused_after_retries_counts_as_failure(always_busy_gateway):
    ledger = ErrorLedger()
    client = GatewayClient("127.0.0.1", always_busy_gateway, max_retries=2, backoff_base_s=0.001)
    ledger.attempt()
    with pytest.raises(GatewayError) as caught:
        client.submit("<task/>")
    client.close()
    ledger.submit_error(caught.value)
    assert caught.value.code == "queue_full"
    assert ledger.failures == {"refused": 1}
    assert ledger.rate == 1.0


def test_job_outcomes():
    ledger = ErrorLedger()
    for state in ("done", "done", "failed", None):
        ledger.attempt()
        ledger.job_outcome(state)
    assert ledger.failures == {"job_failed": 1, "lost": 1}
    assert ledger.rate == pytest.approx(0.5)


def test_leaked_child_at_teardown_counts_as_failure():
    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    try:
        ledger = ErrorLedger()
        ledger.attempt(8)  # eight jobs, all fine
        ledger.teardown({"listener": False, "child:0": child.poll() is None})
        assert ledger.attempted == 10
        assert ledger.failures == {"leaked:child": 1}
        assert ledger.rate == pytest.approx(0.1)
    finally:
        child.kill()
        child.wait(10)


def test_clean_teardown_is_not_a_failure():
    ledger = ErrorLedger()
    ledger.teardown({"listener": False, "child:0": False, "child:1": False})
    assert (ledger.attempted, ledger.failed) == (3, 0)
