"""Tests for the command-line interfaces (paper Fig. 2)."""

import json

import pytest

from repro.cli import build_arg_parser, main as ltqp_main
from repro.net import NoLatency
from repro.solidbench.cli import main as solidbench_main


class TestLtqpCli:
    def test_discover_query_prints_json_lines(self, capsys):
        code = ltqp_main(["--simulate", "0.01", "--discover", "1.5", "--no-latency"])
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out
        for line in out:
            parsed = json.loads(line)
            assert "messageId" in parsed

    def test_fig2_output_format(self, capsys):
        # Fig. 2 shows typed literals rendered as "value"^^datatype.
        ltqp_main(["--simulate", "0.01", "--discover", "6.1", "--no-latency"])
        first = json.loads(capsys.readouterr().out.strip().splitlines()[0])
        assert first["forumId"].startswith('"')
        assert "^^http://www.w3.org/2001/XMLSchema#long" in first["forumId"]
        assert first["forumTitle"].startswith('"')

    def test_custom_query_with_explicit_seed(self, capsys, tiny_universe):
        webid = tiny_universe.webid(0)
        query = (
            "PREFIX snvoc: <https://solidbench.linkeddatafragments.org/www.ldbc.eu/"
            "ldbc_socialnet/1.0/vocabulary/> "
            f"SELECT ?c WHERE {{ ?m snvoc:hasCreator <{webid}> ; snvoc:content ?c }}"
        )
        code = ltqp_main(["--simulate", "0.01", "--bench-seed", "7", "--no-latency", webid, query])
        assert code == 0
        assert capsys.readouterr().out.strip()

    def test_limit_flag(self, capsys):
        ltqp_main(["--simulate", "0.01", "--discover", "2.1", "--no-latency", "--limit", "3"])
        assert len(capsys.readouterr().out.strip().splitlines()) == 3

    def test_waterfall_flag_writes_stderr(self, capsys):
        ltqp_main(["--simulate", "0.01", "--discover", "1.1", "--no-latency", "--waterfall"])
        err = capsys.readouterr().err
        assert "total:" in err and "requests" in err

    def test_missing_query_errors(self, capsys):
        assert ltqp_main(["--simulate", "0.01"]) == 2

    def test_login_flag(self, capsys):
        code = ltqp_main(["--simulate", "0.01", "--discover", "1.1", "--no-latency", "--idp", "0"])
        assert code == 0
        assert "logged in as" in capsys.readouterr().err

    def test_arg_parser_defaults(self):
        args = build_arg_parser().parse_args([])
        assert args.simulate == 0.02 and args.idp == "void"


class TestTripleForms:
    """CONSTRUCT and DESCRIBE rows are ``?subject ?predicate ?object``
    bindings, and every front door prints them under those columns."""

    TRIPLE_KEYS = {"subject", "predicate", "object"}

    def construct(self, webid):
        return (
            "CONSTRUCT { ?s <http://example.org/named> ?o } "
            f"WHERE {{ <{webid}> <http://xmlns.com/foaf/0.1/name> ?o . BIND(<{webid}> AS ?s) }}"
        )

    def rows(self, out):
        return [json.loads(line) for line in out.strip().splitlines()]

    def test_describe_rows_carry_the_triple_columns(self, capsys, tiny_universe):
        webid = tiny_universe.webid(0)
        base = ["--simulate", "0.01", "--bench-seed", "7", "--no-latency"]
        assert ltqp_main([*base, "--query", f"DESCRIBE <{webid}>", webid]) == 0
        rows = self.rows(capsys.readouterr().out)
        assert rows and all(set(row) == self.TRIPLE_KEYS for row in rows)
        assert any(row["subject"] == webid for row in rows)

    def test_construct_rows_carry_the_triple_columns(self, capsys, tiny_universe):
        webid = tiny_universe.webid(0)
        base = ["--simulate", "0.01", "--bench-seed", "7", "--no-latency"]
        assert ltqp_main([*base, "--query", self.construct(webid), webid]) == 0
        (row,) = self.rows(capsys.readouterr().out)
        assert row["subject"] == webid and row["predicate"] == "http://example.org/named"

    def test_csv_header_is_the_triple_columns(self, capsys, tiny_universe):
        webid = tiny_universe.webid(0)
        argv = ["--simulate", "0.01", "--bench-seed", "7", "--no-latency", "--format", "csv"]
        assert ltqp_main([*argv, "--query", self.construct(webid), webid]) == 0
        header, row = capsys.readouterr().out.strip().splitlines()
        assert header == "subject,predicate,object"
        assert row.startswith(f"{webid},http://example.org/named,")

    def test_watch_prints_describe_rows_with_the_triple_columns(self, capsys):
        from repro.cli import watch_main
        from repro.solidbench import SolidBenchConfig, build_universe

        webid = build_universe(SolidBenchConfig(scale=0.005, seed=42)).webid(0)
        argv = ["--simulate", "0.005", "--no-latency", "--query", f"DESCRIBE <{webid}>", webid]
        assert watch_main(argv) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines and all(line.startswith("+1 {") for line in lines)
        assert all(set(json.loads(line[3:])) == self.TRIPLE_KEYS for line in lines)


class TestStatsFlag:
    def test_stats_footer_is_the_waterfall_summary(self, capsys):
        """``--stats`` prints the numbers ``--waterfall`` is built from."""
        from repro.bench.waterfall import build_waterfall
        from repro.obs import Tracer
        from repro.solidbench import SolidBenchConfig, build_universe, discover_query

        argv = ["--simulate", "0.01", "--discover", "1.1", "--no-latency", "--stats"]
        assert ltqp_main(argv) == 0
        footer = next(
            line for line in capsys.readouterr().err.splitlines()
            if line.startswith("# requests=")
        )
        universe = build_universe(SolidBenchConfig(scale=0.01, seed=42))
        named = discover_query(universe, 1, 1)
        tracer = Tracer()
        engine = universe.engine(latency=NoLatency())
        engine.query(named.text, seeds=named.seeds, tracer=tracer).run_sync()
        summary = build_waterfall(tracer).summary()
        assert footer == (
            f"# requests={summary['requests']} bytes={summary['total_bytes']} "
            f"depth={summary['max_depth']} parallelism={summary['max_parallelism']} "
            f"retries={summary['retries']}"
        )


    @pytest.mark.parametrize("fmt", ["cli", "csv"])
    def test_footer_is_printed_for_every_format(self, fmt, capsys):
        """Discover 1.5 at the default scale: 48 requests, all on the
        network, and a link queue 44 deep at its deepest."""
        argv = ["--discover", "1.5", "--no-latency", "--stats", "--format", fmt]
        assert ltqp_main(argv) == 0
        footer = [line for line in capsys.readouterr().err.splitlines() if line.startswith("# ")]
        assert any(line.startswith("# requests=48 ") for line in footer)
        latency = next(line for line in footer if line.startswith("# network="))
        tokens = dict(token.split("=", 1) for token in latency[2:].split())
        assert set(tokens) == {"network", "latency_p50", "latency_p95", "queue_max"}
        assert tokens["network"] == "48" and tokens["queue_max"] == "44"
        assert float(tokens["latency_p50"][:-1]) <= float(tokens["latency_p95"][:-1])
        assert any(line.startswith("# completeness: ") for line in footer)


class TestSolidbenchCli:
    def test_stats_report(self, capsys):
        code = solidbench_main(["--scale", "0.01"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["generated"]["pods"] == 15
        assert report["paper_default_scale"]["pods"] == 1531

    def test_queries_flag_prints_37(self, capsys):
        solidbench_main(["--scale", "0.01", "--queries"])
        out = capsys.readouterr().out
        assert out.count("### Discover") == 37

    def test_out_writes_turtle_files(self, tmp_path, capsys):
        solidbench_main(["--scale", "0.01", "--out", str(tmp_path)])
        files = list(tmp_path.rglob("*.ttl"))
        assert files
        card = next(p for p in files if p.name == "card.ttl")
        assert "publicTypeIndex" in card.read_text()


class TestCliFormatsAndExplain:
    def test_csv_format(self, capsys):
        from repro.cli import main as cli_main

        cli_main(["--simulate", "0.01", "--discover", "6.1", "--no-latency", "--format", "csv"])
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "forumId,forumTitle"

    def test_tsv_format(self, capsys):
        from repro.cli import main as cli_main

        cli_main(["--simulate", "0.01", "--discover", "6.1", "--no-latency", "--format", "tsv"])
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "?forumId\t?forumTitle"

    def test_json_format_is_sparql_results_document(self, capsys):
        import json as json_module

        from repro.cli import main as cli_main

        cli_main(["--simulate", "0.01", "--discover", "1.1", "--no-latency", "--format", "json"])
        document = json_module.loads(capsys.readouterr().out)
        assert document["head"]["vars"]
        assert document["results"]["bindings"]

    def test_xml_format(self, capsys):
        from repro.cli import main as cli_main

        cli_main(["--simulate", "0.01", "--discover", "1.1", "--no-latency", "--format", "xml"])
        out = capsys.readouterr().out
        assert out.startswith("<?xml")
        assert "sparql-results#" in out

    def test_explain_flag(self, capsys):
        from repro.cli import main as cli_main

        code = cli_main(["--simulate", "0.01", "--discover", "1.1", "--explain"])
        assert code == 0
        out = capsys.readouterr().out
        assert "zero-knowledge join order" in out
        assert "extractors:" in out


class TestQueuePolicyFlag:
    def test_default_is_fifo(self):
        assert build_arg_parser().parse_args([]).queue_policy == "fifo"

    def test_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_arg_parser().parse_args(["--queue-policy", "random"])

    @pytest.mark.parametrize("policy", ["fifo", "lifo", "priority"])
    def test_each_policy_runs_and_answers(self, policy, capsys):
        code = ltqp_main(
            [
                "--simulate", "0.01", "--bench-seed", "7",
                "--discover", "1.5", "--no-latency",
                "--queue-policy", policy,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        # The traversal order changes but the answer must not: all three
        # disciplines exhaust the same reachable subweb.
        assert len(out) == 33


class TestWatchCommand:
    """``watch`` end to end: initial ``+1`` lines, then one signed pair
    per accepted edit; a rejected edit is noted and skipped."""

    def test_accepted_edit_emits_one_signed_pair_and_rejected_edit_is_noted(
        self, tmp_path, capsys
    ):
        from repro.cli import watch_main
        from repro.rdf.namespaces import RDF, SNVOC
        from repro.rdf.terms import Variable, term_to_ntriples
        from repro.solidbench import SolidBenchConfig, build_universe, discover_query

        # The edits come from the same deterministic universe ``watch``
        # rebuilds (scale 0.005, default seed): one post of Discover
        # 1.1's person gets a new content literal — exactly one row.
        universe = build_universe(SolidBenchConfig(scale=0.005, seed=42))
        named = discover_query(universe, 1, 1)
        engine = universe.fast_engine()
        initial = engine.query(named.text, seeds=named.seeds).run_sync().bindings
        post = engine.query(
            f"SELECT ?message ?content WHERE {{ ?message <{SNVOC.hasCreator.value}> "
            f"<{named.seeds[0]}> ; <{RDF.type.value}> <{SNVOC.Post.value}> ; "
            f"<{SNVOC.content.value}> ?content }}",
            seeds=named.seeds,
        ).run_sync().bindings[0]
        message, old = post[Variable("message")].value, post[Variable("content")]
        document = message.split("#", 1)[0]
        accepted = (
            f"DELETE DATA {{ <{message}> <{SNVOC.content.value}> {term_to_ntriples(old)} }} ;\n"
            f'INSERT DATA {{ <{message}> <{SNVOC.content.value}> "edited by watch" }}'
        )
        updates = tmp_path / "edits.jsonl"
        updates.write_text(
            json.dumps({"url": message, "update": accepted})
            + "\n\n"  # blank lines are skipped
            + json.dumps({"url": document, "update": "NOT SPARQL UPDATE"})
            + "\n"
        )

        code = watch_main(
            ["--discover", "1.1", "--simulate", "0.005", "--no-latency",
             "--updates", str(updates)]
        )
        assert code == 0
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        count = len(initial)
        assert count > 1
        assert all(line.startswith("+1 {") for line in lines[:count])
        assert all("#" not in line.split("}")[-1] for line in lines[:count])
        retraction, addition = lines[count:]
        assert retraction.startswith("-1 {") and retraction.endswith(f"  # {document}")
        assert addition.startswith("+1 {") and addition.endswith(f"  # {document}")
        assert old.value in retraction and "edited by watch" in addition
        removed = json.loads(retraction[3:].rsplit("  # ", 1)[0])
        added = json.loads(addition[3:].rsplit("  # ", 1)[0])
        assert removed["messageId"] == added["messageId"]
        # The retracted row is one of the rows printed as initial results.
        assert "+1 " + retraction[3:].rsplit("  # ", 1)[0] in lines[:count]

        err = captured.err.splitlines()
        assert err[0].startswith("# Discover 1.1")
        assert f"# {count} initial results; watching" in err
        rejected = [line for line in err if line.startswith("# update rejected")]
        assert len(rejected) == 1 and document in rejected[0]
        assert err[-1] == (
            f"# 2 edits applied; {count} current results ({count + 2} events total)"
        )

    def test_watch_without_a_query_is_a_usage_error(self, capsys):
        from repro.cli import watch_main

        assert watch_main(["--simulate", "0.005"]) == 2
        assert "no query given" in capsys.readouterr().err


class TestServeCommand:
    def test_serve_parser_defaults(self):
        from repro.cli import build_serve_arg_parser

        args = build_serve_arg_parser().parse_args([])
        assert args.max_concurrent == 8 and args.max_queued == 32
        assert args.queue_policy == "fifo" and args.port == 8765
        assert args.store_path is None and not hasattr(args, "backend")

    def test_serve_stack_warm_restart_over_store_path(self, tmp_path):
        import urllib.request
        from urllib.parse import quote

        from repro.cli import build_serve_arg_parser, build_service_stack
        from repro.solidbench import discover_query

        argv = [
            "--simulate", "0.01", "--bench-seed", "7", "--port", "0",
            "--no-latency", "--store-path", str(tmp_path / "store.sqlite"),
        ]

        def run_lifetime():
            args = build_serve_arg_parser().parse_args(argv)
            server = build_service_stack(args)
            server.start()
            try:
                named = discover_query(server.universe, 1, 5)
                url = (
                    f"{server.url}sparql?query={quote(named.text)}"
                    f"&seeds={quote(','.join(named.seeds))}"
                )
                with urllib.request.urlopen(url, timeout=60) as response:
                    document = json.loads(response.read().decode("utf-8"))
                bindings = document["results"]["bindings"]
                with urllib.request.urlopen(server.url + "status.json", timeout=10) as r:
                    status = json.loads(r.read().decode("utf-8"))
                return bindings, status
            finally:
                server.stop()
                server.service_host.stop()

        cold_bindings, cold_status = run_lifetime()
        assert cold_status["service"]["storage"]["kind"] == "sqlite"
        assert cold_status["service"]["document_store"]["parses"] > 0

        # A brand-new stack over the same path answers from the store.
        warm_bindings, warm_status = run_lifetime()
        assert warm_bindings == cold_bindings
        assert warm_status["service"]["document_store"]["parses"] == 0
        assert warm_status["service"]["document_store"]["hits"] > 0
        # ... and without a round-trip, not even a 304: the reopened HTTP
        # entries are still inside their freshness window.
        assert cold_status["service"]["http_cache"]["misses"] > 0
        assert warm_status["service"]["http_cache"]["misses"] == 0
        assert warm_status["service"]["http_cache"]["revalidations"] == 0

    def test_serve_stack_answers_over_http(self):
        import urllib.request
        from urllib.parse import quote

        from repro.cli import build_serve_arg_parser, build_service_stack
        from repro.solidbench import discover_query

        args = build_serve_arg_parser().parse_args(
            ["--simulate", "0.01", "--bench-seed", "7", "--port", "0",
             "--no-latency", "--max-concurrent", "2"]
        )
        server = build_service_stack(args)
        server.start()
        try:
            named = discover_query(server.universe, 1, 5)
            url = (
                f"{server.url}sparql?query={quote(named.text)}"
                f"&seeds={quote(','.join(named.seeds))}"
            )
            with urllib.request.urlopen(url, timeout=60) as response:
                document = json.loads(response.read().decode("utf-8"))
            assert document["results"]["bindings"]
            with urllib.request.urlopen(server.url + "status.json", timeout=10) as r:
                status = json.loads(r.read().decode("utf-8"))
            assert status["schema"] == 2
            assert status["mode"] == "single"
            assert status["service"]["completed"] == 1
        finally:
            server.stop()
            server.service_host.stop()
