"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestCliCommands:
    def test_info(self, capsys):
        assert main(["info", "amazon", "--scale", "0.2"]) == 0
        output = capsys.readouterr().out
        assert "Amazon analogue" in output
        assert "metis" in output and "hash" in output

    def test_query(self, capsys):
        code = main(
            [
                "query",
                "stanford",
                "--scale",
                "0.15",
                "--partitions",
                "3",
                "--sources",
                "5",
                "--targets",
                "5",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "query |S|=5 |T|=5" in output
        assert "rounds" in output

    def test_query_without_equivalence(self, capsys):
        code = main(
            ["query", "notredame", "--scale", "0.15", "--no-equivalence", "--sources", "3",
             "--targets", "3"]
        )
        assert code == 0

    def test_compare(self, capsys):
        code = main(
            [
                "compare",
                "notredame",
                "--scale",
                "0.15",
                "--partitions",
                "3",
                "--sources",
                "4",
                "--targets",
                "4",
                "--approaches",
                "dsr,giraph++",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "dsr" in output and "giraph++" in output

    def test_compare_unknown_approach(self, capsys):
        assert main(["compare", "amazon", "--approaches", "magic"]) == 2

    def test_sparql_lubm(self, capsys):
        assert main(["sparql", "lubm", "--scale", "0.3", "--slaves", "2"]) == 0
        output = capsys.readouterr().out
        assert "L1" in output and "L3" in output

    def test_sparql_freebase(self, capsys):
        assert main(["sparql", "freebase", "--scale", "0.4", "--slaves", "2"]) == 0
        output = capsys.readouterr().out
        assert "F1" in output

    def test_communities(self, capsys):
        code = main(["communities", "--scale", "0.4", "--representatives", "5"])
        assert code == 0
        output = capsys.readouterr().out
        assert "community connectedness" in output

    def test_serve_self_test(self, capsys):
        code = main(
            ["serve", "amazon", "--scale", "0.15", "--partitions", "3",
             "--workers", "2", "--self-test"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "self-test passed" in output
        assert "serving metrics" in output

    def test_serve_self_test_without_cache(self, capsys):
        code = main(
            ["serve", "amazon", "--scale", "0.15", "--partitions", "3",
             "--workers", "2", "--no-cache", "--self-test"]
        )
        assert code == 0

    def test_serve_end_to_end_until_sigint(self):
        """The real thing: ``python -m repro.cli serve`` as a subprocess, a
        blocking client against it, Ctrl-C, exit code 0 and the metrics."""
        import os
        import signal
        import socket
        import subprocess
        import sys
        from pathlib import Path

        from repro.bench.datasets import load_dataset
        from repro.graph.traversal import reachable_pairs
        from repro.service import DSRClient, QueryResponse, StatsResponse

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "amazon",
             "--scale", "0.15", "--partitions", "3", "--port", str(port)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
            # A parent that ignores SIGINT (a backgrounded test run) would
            # hand that down, and the child's Ctrl-C handler with it.
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
        )
        try:
            banner = ""
            while "serving (binary frames)" not in banner:
                banner = server.stdout.readline()
                assert banner, f"server exited early: {server.stderr.read()}"
            assert f"127.0.0.1:{port}" in banner
            graph = load_dataset("amazon", scale=0.15, seed=7)
            vertices = sorted(graph.vertices())
            sources, targets = vertices[:6], vertices[40:46]
            with DSRClient("127.0.0.1", port, timeout=10.0) as client:
                stats = client.stats()
                response = client.query(sources, targets)
            assert isinstance(stats, StatsResponse)
            assert isinstance(response, QueryResponse) and not response.cached
            assert response.pair_set == reachable_pairs(graph, sources, targets)
            server.send_signal(signal.SIGINT)
            output, errors = server.communicate(timeout=30)
            assert server.returncode == 0, errors
            assert "serving metrics" in output
        finally:
            if server.poll() is None:
                server.kill()
                server.communicate()

    @pytest.mark.parametrize(
        "flag",
        [["--async"], ["--max-requests", "2"], ["--replicas", "3"], ["--local-index", "dfs"],
         ["--cache-ttl", "5"], ["--health-interval", "1"]],
    )
    def test_removed_serve_flags_are_usage_errors(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "amazon", "--scale", "0.1", "--self-test", *flag])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_query_local_index_is_for_the_baselines(self, capsys):
        from repro.api.config import ConfigError

        with pytest.raises(ConfigError, match="accepts only 'msbfs'"):
            main(["query", "stanford", "--scale", "0.15", "--local-index", "dfs"])
        code = main(
            ["query", "stanford", "--scale", "0.15", "--backend", "fan",
             "--local-index", "ferrari", "--sources", "3", "--targets", "3"]
        )
        assert code == 0

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            main(["info", "not-a-dataset"])


class TestAsyncServeCli:
    def test_serve_async_starts_and_stops(self, capsys, monkeypatch):
        # Let the command run its full path (engine build, real async server
        # on a thread, shutdown, metrics table) but return immediately
        # instead of blocking for Ctrl-C.
        from repro.service.aio import DSRAsyncServer

        monkeypatch.setattr(DSRAsyncServer, "wait", lambda self: None)
        code = main(
            [
                "serve", "amazon", "--scale", "0.1", "--partitions", "2",
                "--rate-limit-qps", "100",
                "--high-watermark", "8", "--low-watermark", "2",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "serving (binary frames)" in output
        assert "watermarks 2/8" in output
        assert "rate limit 100" in output
        assert "serving metrics" in output

    def test_serve_async_with_tcp_executor(self, capsys, monkeypatch):
        from repro.service.aio import DSRAsyncServer

        monkeypatch.setattr(DSRAsyncServer, "wait", lambda self: None)
        code = main(
            [
                "serve", "amazon", "--scale", "0.1", "--partitions", "2",
                "--executor", "tcp",
            ]
        )
        assert code == 0
        assert "serving (binary frames)" in capsys.readouterr().out

    def test_worker_host_command(self, capsys, monkeypatch):
        from repro.cluster.remote import WorkerHost

        # serve_forever blocks until Ctrl-C; the wiring is what we test.
        monkeypatch.setattr(WorkerHost, "serve_forever", lambda self: None)
        assert main(["worker-host", "--port", "0"]) == 0
        output = capsys.readouterr().out
        assert "worker host listening on 127.0.0.1:" in output

    def test_threads_executor_flag_is_refused(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "amazon", "--scale", "0.1", "--executor", "threads"])
        error = capsys.readouterr().err
        assert "invalid choice: 'threads'" in error
        assert "processes" in error and "serial" in error and "tcp" in error

    def test_worker_hosts_flag_requires_tcp_executor(self, capsys):
        from repro.api.config import ConfigError

        with pytest.raises(ConfigError, match="executor='tcp'"):
            main(
                [
                    "serve", "amazon", "--scale", "0.1",
                    "--worker-hosts", "127.0.0.1:9000",
                ]
            )
