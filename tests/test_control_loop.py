"""The hourly control loop against the capture in
``golden/control_loop.json`` (see ``tests/control_loop_capture.py``),
and its realised-savings query against the whole-history scan it
replaced (``tests/control_loop_oracle.py``) on that same run."""

from tests import control_loop_capture, control_loop_oracle, golden


def test_checks_match_the_golden():
    golden.check("control_loop", control_loop_capture.capture())


def test_the_capture_spans_eight_chunks_of_every_record_kind():
    lengths = golden.load("control_loop")["ledger_lengths"]
    assert min(lengths.values()) >= 8 * 512, lengths


def test_realized_savings_equal_the_oracle_on_every_window():
    run = control_loop_capture.fleet_run()
    nonzero = 0
    for name, windows in run.windows.items():
        manager = run.engine.fleet.manager_for(name)
        for since_s, until_s in windows:
            got = manager._realized_savings(since_s, until_s)
            assert got == control_loop_oracle.realized_savings(
                manager, since_s, until_s
            ), (name, since_s, until_s)
            nonzero += got > 0.0
    assert nonzero > 0



def test_realized_savings_equal_the_oracle_on_windows_that_cut_requests():
    """Windows that start and end between one request's executions: a
    request is classed by the regions of its executions in the window."""
    run = control_loop_capture.fleet_run()
    for name in run.windows:
        manager = run.engine.fleet.manager_for(name)
        starts = sorted(
            r.start_s for r in run.cloud.ledger.executions if r.workflow == name
        )
        for since_s in starts[:: len(starts) // 12]:
            for until_s in (since_s + 600.0, since_s + 3600.0):
                assert manager._realized_savings(since_s, until_s) == (
                    control_loop_oracle.realized_savings(manager, since_s, until_s)
                ), (name, since_s, until_s)
