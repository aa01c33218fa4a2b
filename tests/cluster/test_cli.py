"""CLI surface of the cluster subsystem: ``repro cluster``, clustered
``repro loadtest``."""

import json

import pytest

from repro.cli import CLUSTER_POLICIES, main
from tests.cluster.conftest import SCALE

CLUSTER_ARGS = ["--scale", str(SCALE), "--model", "GCN",
                "--hidden-dim", "16", "--layers", "2",
                "--capacity", "16", "--max-batch", "8",
                "--requests", "64", "--pool", "6", "--no-cache"]


class TestClusterCommand:
    def test_policy_choices_match_registry(self):
        from repro.cluster import POLICIES
        assert sorted(CLUSTER_POLICIES) == sorted(POLICIES)

    def test_summary_report(self, capsys):
        code = main(["cluster", *CLUSTER_ARGS, "--replicas", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cluster[hash-affinity]: 64/64 served" in out
        # Replica lines are per incarnation: "replica <id>.<inc>:".
        assert "replica 0.0:" in out and "replica 2.0:" in out

    def test_seeded_crash_replays_byte_identically(self, capsys):
        argv = ["cluster", *CLUSTER_ARGS, "--replicas", "3",
                "--crash-replica", "1", "--crash-after", "2", "--json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second           # byte-identical replay
        payload = json.loads(first[first.index("{"):])
        assert payload["crashed_replicas"] == 1
        assert payload["received"] == \
            payload["served"] + payload["failed"]

    def test_crash_report_mentions_failover(self, capsys):
        code = main(["cluster", *CLUSTER_ARGS, "--replicas", "3",
                     "--crash-replica", "1", "--crash-after", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "failover:" in out
        assert "CRASHED" in out

    def test_policy_flag(self, capsys):
        code = main(["cluster", *CLUSTER_ARGS, "--replicas", "2",
                     "--policy", "least-queue"])
        assert code == 0
        assert "cluster[least-queue]" in capsys.readouterr().out

    def test_bad_replica_count_exits_2(self, capsys):
        code = main(["cluster", *CLUSTER_ARGS, "--replicas", "0"])
        assert code == 2
        assert "num_replicas" in capsys.readouterr().err


class TestSelfHealingFlags:
    def test_recover_after_heals_the_fleet(self, capsys):
        argv = ["cluster", *CLUSTER_ARGS, "--replicas", "3",
                "--crash-replica", "1", "--crash-after", "1",
                "--recover-after", "0.05", "--retries", "4", "--json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second           # replay includes recovery
        payload = json.loads(first[first.index("{"):])
        assert payload["recovered_replicas"] == 1
        assert payload["rebalanced_arcs"] == 0   # arcs reclaimed
        assert payload["recoveries"][0]["replica_id"] == 1
        assert payload["received"] == (payload["served"]
                                       + payload["failed"]
                                       + payload["shed"])

    def test_recovery_report_shows_warmup(self, capsys):
        code = main(["cluster", *CLUSTER_ARGS, "--replicas", "3",
                     "--crash-replica", "1", "--crash-after", "1",
                     "--recover-after", "0.05", "--retries", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "recovery: replica 1 rejoined" in out
        assert "replica 1.1:" in out     # the second incarnation

    def test_slow_replica_with_breaker_hedges(self, capsys):
        code = main(["cluster", *CLUSTER_ARGS, "--replicas", "3",
                     "--slow-replica", "0", "--slow-factor", "3.0",
                     "--breaker-threshold", "2", "--retries", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "breaker:" in out and "hedged" in out

    def test_brownout_watermark_sheds(self, capsys):
        argv = ["cluster", *CLUSTER_ARGS, "--replicas", "3",
                "--crash-replica", "1", "--crash-replica", "2",
                "--crash-after", "0", "--brownout-watermark", "0.9",
                "--json"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["shed"] > 0
        assert payload["sheds"][0]["reason"] == "shed-capacity"
        assert payload["received"] == (payload["served"]
                                       + payload["failed"]
                                       + payload["shed"])

    def test_bad_brownout_watermark_exits_2(self, capsys):
        code = main(["cluster", *CLUSTER_ARGS, "--replicas", "2",
                     "--brownout-watermark", "1.5"])
        assert code == 2
        assert "brownout_watermark" in capsys.readouterr().err


class TestClusteredLoadtest:
    def test_replicas_flag_switches_to_cluster(self, capsys):
        code = main(["loadtest", *CLUSTER_ARGS, "--replicas", "3",
                     "--policy", "round-robin"])
        assert code == 0
        out = capsys.readouterr().out
        assert "3 replicas (round-robin)" in out
        assert "cluster[round-robin]" in out

    def test_default_stays_single_server(self, capsys):
        code = main(["loadtest", *CLUSTER_ARGS])
        assert code == 0
        out = capsys.readouterr().out
        assert "1 server" in out
        assert "serve:" in out and "cluster[" not in out

    def test_cluster_is_an_alias_of_loadtest(self, capsys):
        # One command behind both names: same flags, same JSON bytes.
        flags = [*CLUSTER_ARGS, "--replicas", "3", "--process", "bursty",
                 "--seed", "4", "--json"]
        assert main(["cluster", *flags]) == 0
        via_cluster = capsys.readouterr().out
        assert main(["loadtest", *flags]) == 0
        assert capsys.readouterr().out == via_cluster
        assert json.loads(via_cluster)["num_replicas"] == 3

    def test_clustered_json_is_cluster_stats(self, capsys):
        code = main(["loadtest", *CLUSTER_ARGS, "--replicas", "2",
                     "--json"])
        assert code == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["num_replicas"] == 2
        assert "tier" in payload and "replicas" in payload
