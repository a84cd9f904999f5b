"""Engine 1-RTT paths: continuation, migration, rotation, resets."""

import random

from repro.netstack.addr import parse_ip
from repro.netstack.udp import UdpDatagram
from repro.server.engine import ConnState, QuicServerEngine
from repro.server.profiles import facebook_profile, google_profile, quic_lb_profile
from repro.simnet.eventloop import EventLoop
from repro.workloads.clients import ClientConnection
from tests.server.metered import engine_events, metered

VIP = parse_ip("157.240.1.10")
CLIENT = parse_ip("198.51.100.7")


def establish(profile=None, seed=1, obs=None):
    """Engine with one fully established connection; returns the pieces."""
    loop = EventLoop()
    sent = []
    engine = QuicServerEngine(
        profile=profile or facebook_profile(),
        loop=loop,
        rng=random.Random(seed),
        send=sent.append,
        host_id=9,
        worker_id=2,
        obs=obs,
    )
    connection = ClientConnection(
        rng=random.Random(99),
        src_ip=CLIENT,
        src_port=5000,
        dst_ip=VIP,
        version=engine.profile.supported_versions[0],
    )
    engine.on_datagram(connection.initial_datagram(), 0.0)
    for datagram in list(sent):
        reply = connection.on_datagram(datagram, 0.01)
        if reply is not None:
            engine.on_datagram(reply, 0.02)
    # Deliver everything sent since (incl. the NEW_CONNECTION_ID packet);
    # already-seen flight datagrams are ignored by the client.
    for datagram in list(sent):
        connection.on_datagram(datagram, 0.03)
    return engine, loop, sent, connection


class TestContinuation:
    def test_ping_from_same_path_ponged(self):
        obs = metered()
        engine, loop, sent, connection = establish(obs=obs)
        before = len(sent)
        probe = connection.migration_datagram(5000)  # same port: no migration
        engine.on_datagram(probe, 1.0)
        assert len(sent) == before + 1
        assert engine_events(obs)["short_packets_received"] == 1
        assert engine_events(obs)["migrations_accepted"] == 0

    def test_client_counts_pong(self):
        engine, loop, sent, connection = establish()
        probe = connection.migration_datagram(5000)
        engine.on_datagram(probe, 1.0)
        connection.on_datagram(sent[-1], 1.01)
        assert connection.result.pongs == 1


class TestMigration:
    def test_new_path_accepted_and_address_updated(self):
        obs = metered()
        engine, loop, sent, connection = establish(obs=obs)
        probe = connection.migration_datagram(6111)
        engine.on_datagram(probe, 1.0)
        assert engine_events(obs)["migrations_accepted"] == 1
        conn = engine._by_scid[connection.result.server_scid]
        assert conn.client_port == 6111

    def test_rotated_cid_reaches_same_connection(self):
        obs = metered()
        engine, loop, sent, connection = establish(obs=obs)
        rotated = connection.result.new_connection_ids[0]
        probe = connection.migration_datagram(6222, dcid=rotated)
        engine.on_datagram(probe, 1.0)
        assert engine_events(obs)["migrations_accepted"] == 1
        assert engine_events(obs)["stateless_resets_sent"] == 0

    def test_quic_lb_rotated_cid_decodes_host(self):
        from repro.quic.cid import quic_lb

        engine, loop, sent, connection = establish(profile=quic_lb_profile())
        config = engine.profile.cid_scheme.config
        rotated = connection.result.new_connection_ids[0]
        server_id, _ = quic_lb.decode(config, rotated)
        assert server_id == engine.host_id


class TestBeforeHandshake:
    def test_early_short_packet_dropped_and_handshake_survives(self):
        """RFC 9001 §5.7: 1-RTT before the handshake completes is discarded;
        the half-open connection stays and no reset goes out."""
        obs = metered()
        loop = EventLoop()
        sent = []
        engine = QuicServerEngine(
            profile=facebook_profile(),
            loop=loop,
            rng=random.Random(1),
            send=sent.append,
            obs=obs,
        )
        connection = ClientConnection(
            rng=random.Random(99),
            src_ip=CLIENT,
            src_port=5000,
            dst_ip=VIP,
            version=engine.profile.supported_versions[0],
        )
        engine.on_datagram(connection.initial_datagram(), 0.0)
        flight = list(sent)
        confirmation = None
        for datagram in flight:
            confirmation = connection.on_datagram(datagram, 0.01) or confirmation
        engine.on_datagram(connection.migration_datagram(5000), 0.015)
        assert sent == flight  # no stateless reset
        engine.on_datagram(confirmation, 0.02)
        conn = engine._by_scid[connection.result.server_scid]
        assert conn.state is ConnState.ESTABLISHED
        events = engine_events(obs)
        assert events["discarded_before_handshake"] == 1
        assert events["connections_created"] == 1
        assert events["connections_established"] == 1
        assert events["stateless_resets_sent"] == 0
        assert events["connections_expired"] == 0


class TestResets:
    def test_unknown_cid_gets_stateless_reset(self):
        obs = metered()
        engine, loop, sent, connection = establish(obs=obs)
        before = len(sent)
        probe = connection.migration_datagram(6333, dcid=b"\x13" * 8)
        engine.on_datagram(probe, 1.0)
        assert engine_events(obs)["stateless_resets_sent"] == 1
        reset = sent[before]
        # Looks like a short-header packet and ends with a 16-byte token.
        assert not reset.payload[0] & 0x80
        assert reset.payload[0] & 0x40
        assert len(reset.payload) >= 21

    def test_expired_connection_resets(self):
        obs = metered()
        engine, loop, sent, connection = establish(obs=obs)
        idle = engine.profile.idle_timeout
        probe = connection.migration_datagram(5000)
        engine.on_datagram(probe, idle + 5.0)
        assert engine_events(obs)["connections_expired"] == 1
        assert engine_events(obs)["stateless_resets_sent"] == 1

    def test_garbled_short_packet_discarded_silently(self):
        obs = metered()
        engine, loop, sent, connection = establish(obs=obs)
        probe = connection.migration_datagram(5000)
        data = bytearray(probe.payload)
        data[-1] ^= 0xFF  # break the AEAD tag
        before = len(sent)
        engine.on_datagram(probe.with_payload(bytes(data)), 1.0)
        assert len(sent) == before
        assert engine_events(obs)["discarded_inconsistent"] == 1

    def test_no_reset_for_datagram_no_larger_than_a_reset(self):
        """RFC 9000 §10.3.3: a reset must be smaller than its trigger."""
        obs = metered()
        engine, loop, sent, connection = establish(obs=obs)
        before = len(sent)
        template = connection.migration_datagram(6333, dcid=b"\x13" * 8)
        engine.on_datagram(template.with_payload(template.payload[:22]), 1.0)
        assert len(sent) == before
        assert engine_events(obs)["stateless_resets_sent"] == 0
        engine.on_datagram(template.with_payload(template.payload[:23]), 1.0)
        assert len(sent) == before + 1
        assert len(sent[-1].payload) == 22

    def test_two_stateless_servers_do_not_ping_pong(self):
        """A spoofed source that is itself a server: each would answer the
        other's reset with a reset for ever without the §10.3.3 guard."""
        loop = EventLoop()
        other_vip = parse_ip("157.240.1.11")
        engines = {}
        obs = {VIP: metered(), other_vip: metered()}

        def deliver(datagram):
            target = engines[datagram.dst_ip]
            loop.schedule(0.01, lambda: target.on_datagram(datagram, loop.now))

        for vip, seed in ((VIP, 1), (other_vip, 2)):
            engines[vip] = QuicServerEngine(
                profile=facebook_profile(),
                loop=loop,
                rng=random.Random(seed),
                send=deliver,
                obs=obs[vip],
            )
        probe = UdpDatagram(
            src_ip=other_vip,
            dst_ip=VIP,
            src_port=443,
            dst_port=443,
            payload=b"\x40" + b"\x13" * 40,
        )
        deliver(probe)
        loop.run(max_events=20)  # raises if events remain past the budget
        assert engine_events(obs[VIP])["stateless_resets_sent"] == 1
        assert engine_events(obs[other_vip])["stateless_resets_sent"] == 0
        assert engine_events(obs[other_vip])["short_packets_received"] == 1


class TestRotationBookkeeping:
    def test_rotated_cid_removed_with_connection(self):
        engine, loop, sent, connection = establish()
        rotated = connection.result.new_connection_ids[0]
        assert rotated in engine._by_scid
        conn = engine._by_scid[connection.result.server_scid]
        engine._drop_connection(conn)
        assert rotated not in engine._by_scid
        assert connection.result.server_scid not in engine._by_scid

    def test_google_rotation_is_random_not_echo(self):
        engine, loop, sent, connection = establish(profile=google_profile())
        rotated = connection.result.new_connection_ids[0]
        assert rotated != connection.result.server_scid
        # Echoed SCID equals the client's original DCID prefix; the rotated
        # one must not (it cannot be derived from anything the LB sees).
        assert rotated != connection.dcid[:8]
