"""Golden positive/negative fixtures per lint rule.

Each rule gets at least one snippet that must fire and one that must
stay silent, exercised through :func:`repro.lint.lint_file` so findings
carry real line numbers.  Paths are synthetic — DET002's allowlist
keys off path components, so the same snippet can be checked inside and
outside the observability layer.
"""

import textwrap

import pytest

from repro.lint.engine import lint_file
from repro.lint.rules import default_rules, rule_table


def findings_for(source, path="src/repro/simnet/fake.py"):
    return lint_file(path, default_rules(), source=textwrap.dedent(source))


def rules_hit(source, path="src/repro/simnet/fake.py"):
    return sorted({finding.rule for finding in findings_for(source, path)})


class TestDET001UnseededRandom:
    def test_module_level_call_fires(self):
        findings = findings_for(
            """
            import random

            def jitter():
                return random.random()
            """
        )
        assert [f.rule for f in findings] == ["DET001"]
        assert findings[0].line == 5
        assert "unseeded" in findings[0].message

    def test_import_alias_is_tracked(self):
        assert rules_hit(
            """
            import random as rnd

            def pick():
                return rnd.randint(0, 7)
            """
        ) == ["DET001"]

    def test_from_import_of_function_fires_at_import(self):
        findings = findings_for(
            """
            from random import randint

            ROLL = randint
            """
        )
        assert [f.rule for f in findings] == ["DET001"]
        assert findings[0].line == 2

    def test_unseeded_random_instance_fires(self):
        assert rules_hit(
            """
            import random

            RNG = random.Random()
            """
        ) == ["DET001"]

    def test_seeded_instance_and_methods_are_clean(self):
        assert rules_hit(
            """
            import random

            RNG = random.Random(0xBEEF)

            def pick():
                return RNG.randint(0, 7)
            """
        ) == []

    def test_from_import_of_random_class_is_clean(self):
        assert rules_hit(
            """
            from random import Random

            RNG = Random(7)
            """
        ) == []


class TestDET002WallClock:
    def test_time_time_fires_outside_obs(self):
        findings = findings_for(
            """
            import time

            def stamp():
                return time.time()
            """
        )
        assert [f.rule for f in findings] == ["DET002"]
        assert findings[0].line == 5

    def test_perf_counter_from_import_fires(self):
        assert rules_hit(
            """
            from time import perf_counter

            def stamp():
                return perf_counter()
            """
        ) == ["DET002"]

    def test_datetime_now_fires_through_from_import(self):
        assert rules_hit(
            """
            from datetime import datetime

            def stamp():
                return datetime.now()
            """
        ) == ["DET002"]

    def test_module_alias_is_resolved(self):
        assert rules_hit(
            """
            import time as _wall

            def stamp():
                return _wall.monotonic()
            """
        ) == ["DET002"]

    def test_obs_layer_is_allowlisted(self):
        source = """
        import time

        def stamp():
            return time.time()
        """
        assert rules_hit(source, path="src/repro/obs/export.py") == []
        assert rules_hit(source, path="tools/check_things.py") == []
        assert rules_hit(source, path="benchmarks/bench_x.py") == []

    def test_time_sleep_is_not_a_clock_read(self):
        assert rules_hit(
            """
            import time

            def nap():
                time.sleep(1)
            """
        ) == []


class TestDET003Entropy:
    def test_mixed_entropy_sources_all_fire(self):
        findings = findings_for(
            """
            import os
            import secrets
            import uuid

            def token():
                return os.urandom(8), uuid.uuid4(), secrets.token_hex(4)
            """
        )
        assert [f.rule for f in findings] == ["DET003"] * 3

    def test_each_entropy_source_fires(self):
        for call in ("os.urandom(8)", "uuid.uuid4()", "secrets.token_hex(4)",
                     "random.SystemRandom()"):
            module = call.split(".")[0]
            findings = findings_for(
                "import %s\n\nVALUE = %s\n" % (module, call)
            )
            assert [f.rule for f in findings] == ["DET003"], call

    def test_uuid5_is_deterministic_and_clean(self):
        assert rules_hit(
            """
            import uuid

            def name_based(ns, name):
                return uuid.uuid5(ns, name)
            """
        ) == []


class TestDET004BuiltinHash:
    def test_builtin_hash_fires(self):
        findings = findings_for(
            """
            def key(value):
                return hash(value) & 0xFFFF
            """
        )
        assert [f.rule for f in findings] == ["DET004"]
        assert "blake2b" in findings[0].message

    def test_hashlib_is_clean(self):
        assert rules_hit(
            """
            import hashlib

            def key(value):
                return hashlib.blake2b(value, digest_size=8).digest()
            """
        ) == []


class TestDET005UnorderedIteration:
    def test_for_over_set_call_fires(self):
        assert rules_hit(
            """
            def emit(values):
                for value in set(values):
                    print(value)
            """
        ) == ["DET005"]

    def test_comprehension_over_set_literal_fires(self):
        assert rules_hit(
            """
            def emit():
                return [v for v in {3, 1, 2}]
            """
        ) == ["DET005"]

    def test_glob_iteration_fires(self):
        assert rules_hit(
            """
            import glob

            def emit():
                for path in glob.glob("*.pcap"):
                    print(path)
            """
        ) == ["DET005"]

    def test_sorted_wrapping_is_clean(self):
        assert rules_hit(
            """
            import os

            def emit(values):
                for value in sorted(set(values)):
                    print(value)
                for name in sorted(os.listdir(".")):
                    print(name)
            """
        ) == []

    def test_dict_iteration_is_clean(self):
        # Dict preserves insertion order in Python 3.7+: deterministic as
        # long as insertions are — not this rule's business.
        assert rules_hit(
            """
            def emit(mapping):
                for key in mapping:
                    print(key, mapping[key])
            """
        ) == []


class TestOBS001MetricNames:
    def test_bad_version_share_bucket_fires(self):
        findings = findings_for('METRIC = "version_share.clients.bogus"\n')
        assert [f.rule for f in findings] == ["OBS001"]
        assert "version_share" in findings[0].message

    def test_bare_registry_prefix_fires_nothing(self):
        # Bare prefixes are the grammar machinery itself (prefix tables,
        # startswith() checks) — only literals *naming* a metric count.
        assert rules_hit('PREFIXES = ("counter:", "gauge:", "timer:")\n') == []

    def test_valid_names_are_clean(self):
        assert rules_hit(
            'METRICS = ("rows.total", "counter:net.dropped",\n'
            '           "version_share.clients.QUICv1",\n'
            '           "scid_unique.Google",\n'
            '           "rto.backoff.Google", "scid_entropy.min.Google",\n'
            '           "length_top_packets.Facebook", "flood_events.Remaining",\n'
            '           "flood_victims")\n'
        ) == []

    def test_bad_scid_origin_fires(self):
        assert rules_hit('METRIC = "scid_unique.Akamai"\n') == ["OBS001"]

    @pytest.mark.parametrize(
        "typo",
        [
            "offnet.server", "rows.scan", "dropped.non_quic", "rto.sesions.",
            "resends.max", "scid_entropy.mid.Google", "length_top_packets.Akamai",
            "flood_events.Google.total", "flood_victims.Google",
        ],
    )
    def test_every_family_is_checked(self, typo):
        assert rules_hit('METRIC = "%s"\n' % typo) == ["OBS001"]

    def test_a_name_built_from_its_stem_is_clean(self):
        assert rules_hit(
            'A = "rto.sessions." + origin\nB = "dropped.acknowledged_scanner"\n'
            'C = "summary.Google.l7_load_balancers"\n'
        ) == []

    def test_templates_and_prose_are_not_names(self):
        assert rules_hit(
            'A = "sessions.%s.total"\nB = "packet_mix.{}.{}"\nC = "rows. of the table"\n'
        ) == []


class TestMP001MultiprocessingTargets:
    def test_lambda_pool_target_fires(self):
        assert rules_hit(
            """
            def run(pool, items):
                return pool.map(lambda item: item * 2, items)
            """
        ) == ["MP001"]

    def test_nested_function_target_fires(self):
        assert rules_hit(
            """
            def run(pool, items):
                def work(item):
                    return item * 2

                return pool.imap_unordered(work, items)
            """
        ) == ["MP001"]

    def test_process_lambda_target_fires(self):
        assert rules_hit(
            """
            import multiprocessing

            def run():
                worker = multiprocessing.Process(target=lambda: None)
                worker.start()
            """,
            path="tools/fake.py",  # under src/repro a Process( is IO001's too
        ) == ["MP001"]

    def test_toplevel_target_is_clean(self):
        assert rules_hit(
            """
            def work(item):
                return item * 2

            def run(pool, items):
                return pool.map(work, items)
            """
        ) == []


class TestRuleTable:
    def test_every_rule_is_listed_with_id_and_title(self):
        rows = rule_table()
        ids = [row[0] for row in rows]
        assert {"DET001", "DET002", "DET003", "DET004", "DET005",
                "OBS001", "MP001", "PERF001", "IO001", "IMP001"} == set(ids)
        for _id, title, doc in rows:
            assert title and doc


class TestPERF001PacketHotLoop:
    HOT = "src/repro/quic/fake.py"

    def test_bytes_accumulation_in_hot_loop_fires(self):
        findings = findings_for(
            """
            def build(packets):
                out = b""
                for packet in packets:
                    out += packet
                return out
            """,
            path=self.HOT,
        )
        assert [f.rule for f in findings] == ["PERF001"]
        assert findings[0].line == 5
        assert "O(n" in findings[0].message

    def test_schedule_builder_in_hot_loop_fires(self):
        assert rules_hit(
            """
            from repro.quic.crypto.gcm import AesGcm

            def seal_all(key, packets):
                for packet in packets:
                    AesGcm(key).seal(b"\\x00" * 12, packet, b"")
            """,
            path=self.HOT,
        ) == ["PERF001"]

    def test_derive_initial_keys_in_while_loop_fires(self):
        assert rules_hit(
            """
            from repro.quic.crypto.initial import derive_initial_keys

            def churn(dcids):
                while dcids:
                    keys = derive_initial_keys(1, dcids.pop())
            """,
            path="src/repro/netstack/fake.py",
        ) == ["PERF001"]

    def test_server_engine_is_hot(self):
        assert rules_hit(
            """
            def flights(conns):
                data = b""
                for conn in conns:
                    data += conn.flight
            """,
            path="src/repro/server/engine.py",
        ) == ["PERF001"]

    def test_cold_module_stays_silent(self):
        assert (
            rules_hit(
                """
                def build(packets):
                    out = b""
                    for packet in packets:
                        out += packet
                    return out
                """,
                path="src/repro/workloads/fake.py",
            )
            == []
        )

    def test_bytearray_accumulator_is_exempt(self):
        assert (
            rules_hit(
                """
                def build(packets):
                    out = bytearray()
                    for packet in packets:
                        out += packet
                    return bytes(out)
                """,
                path=self.HOT,
            )
            == []
        )

    def test_one_shot_work_outside_loop_is_silent(self):
        assert (
            rules_hit(
                """
                from repro.quic.crypto.gcm import AesGcm

                def seal_all(key, packets):
                    gcm = AesGcm(key)
                    sealed = b""
                    sealed += b"header"
                    return [gcm.seal(b"\\x00" * 12, p, b"") for p in packets]
                """,
                path=self.HOT,
            )
            == []
        )

    def test_hmac_new_digest_chain_fires(self):
        findings = findings_for(
            """
            import hashlib
            import hmac

            def tag(key, message):
                return hmac.new(key, message, hashlib.sha256).digest()[:16]
            """,
            path=self.HOT,
        )
        assert [f.rule for f in findings] == ["PERF001"]
        assert findings[0].line == 6
        assert "hmac_sha256" in findings[0].message

    def test_stdlib_hmac_under_quic_crypto_fires(self):
        """One implementation per behaviour: ``hkdf.py`` is the HMAC there."""
        findings = findings_for(
            """
            import hmac
            from hmac import new

            def tag(key, message):
                return hmac.digest(key, message, "sha256")[:16]

            def chained(key, message):
                return new(key, message, "sha256").digest()
            """,
            path="src/repro/quic/crypto/fake.py",
        )
        assert [(f.rule, f.line) for f in findings] == [("PERF001", 6), ("PERF001", 9)]
        assert all("HmacSha256" in f.message for f in findings)

    def test_compare_digest_under_quic_crypto_is_silent(self):
        assert (
            rules_hit(
                """
                import hmac
                from repro.quic.crypto.hkdf import hmac_sha256

                def verify(key, message, tag):
                    return hmac.compare_digest(hmac_sha256(key, message)[:16], tag)
                """,
                path="src/repro/quic/crypto/fake.py",
            )
            == []
        )

    def test_one_shot_and_incremental_hmac_are_silent(self):
        assert (
            rules_hit(
                """
                import hmac
                from hmac import new

                def tag(key, message):
                    return hmac.digest(key, message, "sha256")[:16]

                def streamed(key, chunks):
                    mac = new(key, digestmod="sha256")
                    for chunk in chunks:
                        mac.update(chunk)
                    return mac.digest()
                """,
                path=self.HOT,
            )
            == []
        )

    def test_pragma_suppresses(self):
        assert (
            rules_hit(
                """
                def build(packets):
                    out = b""
                    for packet in packets:
                        out += packet  # repro: allow(PERF001) -- tiny bounded loop
                    return out
                """,
                path=self.HOT,
            )
            == []
        )

    def test_nested_loop_reported_once(self):
        findings = findings_for(
            """
            def build(batches):
                out = b""
                for batch in batches:
                    for packet in batch:
                        out += packet
                return out
            """,
            path=self.HOT,
        )
        assert [f.rule for f in findings] == ["PERF001"]


class TestIO001OneWayOut:
    SOURCE = """
        import os
        from multiprocessing import Pool

        def write(path, mode, ctx):
            with open(path, "w") as out, open(path) as a, open(path, "rb") as b:
                out.write(a.read())
            open(path, mode=mode)
            os.replace(path + ".tmp", path)
            Pool(2)
            ctx.Pool(processes=2)
            raise SystemExit("repro x: no")
        """

    def test_each_construct_fires_under_src_repro(self):
        findings = findings_for(self.SOURCE)
        assert [(f.rule, f.line) for f in findings] == [
            ("IO001", line) for line in (6, 8, 9, 10, 11, 12)
        ]
        assert "atomic_output" in findings[0].message
        assert "run_pool" in findings[3].message
        assert "CommandError" in findings[5].message

    def test_the_helpers_cli_and_everything_outside_the_package_are_exempt(self):
        for path in (
            "src/repro/atomic.py",
            "src/repro/pool.py",
            "src/repro/cli.py",
            "tools/check_md_links.py",
            "benchmarks/bench_sweep.py",
        ):
            assert rules_hit(self.SOURCE, path=path) == [], path
        # ...by position, not by name
        assert rules_hit(self.SOURCE, path="src/repro/commands/cli.py") == ["IO001"]

    def test_an_append_log_says_why_in_a_pragma(self):
        assert (
            rules_hit(
                """
                def write_pcap(path, records):
                    # repro: allow(IO001) -- a pcap is an append log, read while it grows
                    with open(path, "wb") as fileobj:
                        fileobj.write(records)
                """
            )
            == []
        )

    def test_a_pragma_without_a_reason_suppresses_nothing(self):
        assert rules_hit(
            """
            def write_pcap(path):
                return open(path, "wb")  # repro: allow(IO001)
            """
        ) == ["IO001", "LNT001"]
