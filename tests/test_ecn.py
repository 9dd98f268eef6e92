"""Tests for the Section 6.4 extension: ECN marking + EcnAimd."""


from repro import units
from repro.ccas.ecn import EcnAimd
from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.sim.queue import BottleneckQueue
from repro.spec import ElementSpec

from .conftest import flow, run_dumbbell

RM = units.ms(40)
RATE = units.mbps(12)


class Collector:
    def __init__(self):
        self.packets = []

    def receive(self, packet, now):
        self.packets.append(packet)


class TestQueueMarking:
    def test_marks_above_threshold_only(self):
        sim = Simulator()
        sink = Collector()
        queue = BottleneckQueue(sim, rate=1000.0,
                                ecn_threshold_bytes=1500.0)
        queue.register_sink(0, sink)
        for i in range(4):
            queue.receive(Packet(0, i, 1000, 0.0), 0.0)
        sim.run_all()
        # At each dequeue the remaining backlog is 3000/2000/1000/0;
        # marks happen while backlog > 1500 (first two dequeues).
        marked = [p.ecn_marked for p in sink.packets]
        assert marked == [True, True, False, False]
        assert queue.ecn_marks == 2

    def test_no_threshold_no_marks(self):
        sim = Simulator()
        sink = Collector()
        queue = BottleneckQueue(sim, rate=1000.0)
        queue.register_sink(0, sink)
        for i in range(4):
            queue.receive(Packet(0, i, 1000, 0.0), 0.0)
        sim.run_all()
        assert not any(p.ecn_marked for p in sink.packets)


def ecn_aimd(loss_seed=None, **kwargs):
    """An EcnAimd flow, with 2% random data loss under ``loss_seed``."""
    if loss_seed is not None:
        kwargs["data_elements"] = [ElementSpec(
            "random_loss", {"loss_prob": 0.02, "seed": loss_seed})]
    return flow("ecn-aimd", RM, **kwargs)


def run_ecn(flows, duration, warmup, buffer_bdp=4.0, threshold_bdp=0.5):
    """``flows`` on a link marking above ``threshold_bdp`` (None: no ECN)."""
    return run_dumbbell(
        flows, RATE, duration, warmup, buffer_bdp=buffer_bdp,
        ecn_threshold_bytes=(None if threshold_bdp is None
                             else threshold_bdp * RATE * RM))


class TestEcnAimd:
    def test_single_flow_utilizes_and_bounds_queue(self):
        result = run_ecn([ecn_aimd()], duration=20.0, warmup=10.0)
        assert result.utilization() > 0.85
        # The queue saw-tooths around the marking threshold, far below
        # the 4-BDP buffer a loss-based CCA would fill.
        assert result.stats[0].max_rtt < RM + 2.0 * RM

    def test_reacts_to_marks_not_losses(self):
        result = run_ecn([ecn_aimd(loss_seed=3)], duration=20.0,
                         warmup=10.0)
        cca = result.scenario.flows[0].sender.cca
        assert cca.ecn_responses > 0
        # 2% random loss barely dents utilization.
        assert result.utilization() > 0.8

    def test_asymmetric_loss_does_not_starve(self):
        """The Section 6.4 conjecture: the same 2%-loss asymmetry that
        starves PCC Allegro leaves ECN-driven AIMD roughly fair."""
        result = run_ecn([ecn_aimd(loss_seed=9, label="lossy"),
                          ecn_aimd(label="clean")],
                         duration=40.0, warmup=15.0)
        assert result.throughput_ratio() < 2.5
        assert result.utilization() > 0.85

    def test_heavy_loss_falls_back_to_aimd(self):
        """Above the tolerance (no-AQM path, buffer overflowing), the
        CCA must still cut like Reno for safety."""
        result = run_ecn([ecn_aimd()], duration=20.0, warmup=10.0,
                         buffer_bdp=0.5, threshold_bdp=None)
        # Survives (no collapse) and does not blow the queue forever.
        assert result.utilization() > 0.6
        assert result.stats[0].timeouts <= 2

    def test_two_clean_flows_fair(self):
        result = run_ecn([ecn_aimd(), ecn_aimd()], duration=40.0,
                         warmup=15.0)
        assert result.throughput_ratio() < 1.6
