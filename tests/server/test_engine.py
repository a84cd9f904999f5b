"""QUIC server engine: flights, retransmission, state discard, expiry."""

import random

import pytest

from repro.netstack.addr import parse_ip
from repro.netstack.udp import UdpDatagram
from repro.quic.cid import mvfst
from repro.quic.packet import (
    LongHeaderPacket,
    PacketType,
    decode_datagram,
    encode_datagram,
    parse_long_header,
)
from repro.server.engine import QuicServerEngine
from repro.server.profiles import (
    cloudflare_profile,
    facebook_profile,
    google_profile,
)
from repro.simnet.eventloop import EventLoop
from repro.workloads.clients import ClientConnection
from tests.server.metered import engine_events, metered

VIP = parse_ip("157.240.1.10")
CLIENT = parse_ip("44.1.2.3")


def make_engine(profile=None, host_id=7, worker_id=3, seed=1, obs=None):
    loop = EventLoop()
    sent = []
    engine = QuicServerEngine(
        profile=profile or facebook_profile(),
        loop=loop,
        rng=random.Random(seed),
        send=sent.append,
        host_id=host_id,
        worker_id=worker_id,
        obs=obs,
    )
    return engine, loop, sent


def client_initial(rng=None, src_port=4242, version=None, dcid=None, scid=None):
    rng = rng or random.Random(99)
    profile_version = version or facebook_profile().supported_versions[0]
    connection = ClientConnection(
        rng=rng,
        src_ip=CLIENT,
        src_port=src_port,
        dst_ip=VIP,
        version=profile_version,
        dcid=dcid,
        scid=scid,
    )
    return connection, connection.initial_datagram()


class TestFlight:
    def test_initial_produces_two_datagrams_when_not_coalescing(self):
        engine, loop, sent = make_engine(facebook_profile())
        _conn, datagram = client_initial()
        engine.on_datagram(datagram, 0.0)
        assert len(sent) == 2
        first_types = [p.packet_type for p, _ in decode_datagram(sent[0].payload)]
        second_types = [p.packet_type for p, _ in decode_datagram(sent[1].payload)]
        assert first_types == [PacketType.INITIAL]
        assert second_types == [PacketType.HANDSHAKE]

    def test_flight_sizes_match_profile(self):
        profile = facebook_profile()
        engine, loop, sent = make_engine(profile)
        engine.on_datagram(client_initial()[1], 0.0)
        assert len(sent[0].payload) == profile.initial_datagram_size
        assert len(sent[1].payload) == profile.handshake_datagram_size

    def test_reply_source_is_vip(self):
        engine, loop, sent = make_engine()
        engine.on_datagram(client_initial()[1], 0.0)
        assert sent[0].src_ip == VIP
        assert sent[0].dst_ip == CLIENT
        assert sent[0].src_port == 443

    def test_scid_encodes_host_and_worker(self):
        engine, loop, sent = make_engine(host_id=4242, worker_id=9)
        engine.on_datagram(client_initial()[1], 0.0)
        parsed = parse_long_header(sent[0].payload)
        decoded = mvfst.decode(parsed.scid)
        assert decoded.host_id == 4242
        assert decoded.worker_id == 9

    def test_google_echoes_client_dcid(self):
        engine, loop, sent = make_engine(google_profile())
        conn, datagram = client_initial(version=1)
        engine.on_datagram(datagram, 0.0)
        parsed = parse_long_header(sent[0].payload)
        assert parsed.scid == conn.dcid[:8]

    def test_duplicate_initial_ignored(self):
        obs = metered()
        engine, loop, sent = make_engine(obs=obs)
        _conn, datagram = client_initial()
        engine.on_datagram(datagram, 0.0)
        engine.on_datagram(datagram, 0.1)
        assert engine_events(obs)["connections_created"] == 1
        assert len(sent) == 2

    def test_silent_drops_are_counted(self):
        """A repeated client Initial and a Handshake for no connection send
        nothing back, and each is counted under its own reason."""
        obs = metered()
        engine, loop, sent = make_engine(obs=obs)
        conn, datagram = client_initial()
        engine.on_datagram(datagram, 0.0)
        engine.on_datagram(datagram, 0.1)
        stray = LongHeaderPacket(
            packet_type=PacketType.HANDSHAKE,
            version=conn.version,
            dcid=bytes(8),
            scid=conn.scid,
            packet_number=0,
            payload=bytes(32),
            pn_length=1,
        )
        engine.on_datagram(
            UdpDatagram(
                src_ip=CLIENT,
                dst_ip=VIP,
                src_port=4242,
                dst_port=443,
                payload=encode_datagram([stray], conn.protection, is_server=False),
            ),
            0.2,
        )
        assert len(sent) == 2  # the first Initial's flight only
        events = engine_events(obs)
        assert events["duplicate_initial"] == 1
        assert events["unknown_connection"] == 1

    def test_non_quic_ignored(self):
        obs = metered()
        engine, loop, sent = make_engine(obs=obs)
        junk = UdpDatagram(
            src_ip=CLIENT, dst_ip=VIP, src_port=1, dst_port=443, payload=b"\x16\x03"
        )
        engine.on_datagram(junk, 0.0)
        assert sent == []
        assert engine_events(obs)["non_quic_ignored"] == 1


class TestCoalescence:
    def test_google_mostly_coalesces(self):
        engine, loop, sent = make_engine(google_profile(), seed=5)
        rng = random.Random(0)
        for port in range(200):
            engine.on_datagram(
                client_initial(rng=rng, src_port=port + 1024, version=1)[1], 0.0
            )
        coalesced = sum(
            1 for d in sent if len(decode_datagram(d.payload)) == 2
        )
        single = len(sent) - coalesced
        # ~69% of flights coalesce -> coalesced datagrams outnumber pairs.
        assert coalesced > 100
        assert single < 200

    def test_facebook_never_coalesces(self):
        engine, loop, sent = make_engine(facebook_profile())
        rng = random.Random(0)
        for port in range(50):
            engine.on_datagram(client_initial(rng=rng, src_port=port + 1024)[1], 0.0)
        assert all(len(decode_datagram(d.payload)) == 1 for d in sent)


class TestRetransmission:
    def test_rto_schedule_exponential(self):
        profile = facebook_profile()
        engine, loop, sent = make_engine(profile)
        engine.on_datagram(client_initial()[1], 0.0)
        flights_before = len(sent)
        loop.run()
        # Flights: initial + max_retransmits, two datagrams each.
        max_retrans = list(engine._by_origin.values())[0].max_retransmits if engine._by_origin else None
        assert len(sent) % 2 == 0
        total_flights = len(sent) // 2
        assert 7 + 1 <= total_flights <= 9 + 1  # profile range 7-9 resends
        assert flights_before == 2

    def test_retransmission_timing(self):
        engine, loop, sent = make_engine(facebook_profile())
        engine.on_datagram(client_initial()[1], 0.0)
        times = []
        original_send = engine._send

        loop.run_until(0.4)
        assert len(sent) == 4  # first retransmission at 0.4 s
        loop.run_until(1.19)
        assert len(sent) == 4
        loop.run_until(1.3)
        assert len(sent) == 6  # second at 0.4 + 0.8 = 1.2 s

    def test_ack_cancels_retransmissions(self):
        obs = metered()
        engine, loop, sent = make_engine(obs=obs)
        conn, datagram = client_initial()
        engine.on_datagram(datagram, 0.0)
        # Client answers: same 5-tuple, same client CID, DCID = server SCID.
        server_scid = parse_long_header(sent[0].payload).scid
        _c2, confirm = client_initial(
            src_port=4242, dcid=server_scid, scid=conn.scid
        )
        engine.on_datagram(confirm, 0.05)
        loop.run()
        # Flight (2 datagrams) + the NEW_CONNECTION_ID 1-RTT packet; no
        # retransmissions.
        assert len(sent) == 3
        assert engine_events(obs)["connections_established"] == 1
        assert engine_events(obs)["new_cids_issued"] == 1

    def test_max_retransmits_drawn_from_profile_range(self):
        lows = set()
        for seed in range(8):
            engine, _loop, _sent = make_engine(cloudflare_profile(), seed=seed)
            lows.add(engine._max_retransmits)
        assert lows <= set(range(3, 7))
        assert len(lows) > 1  # instances differ


class TestStateDiscard:
    """RFC 9000 §5.2 silent discard — the Appendix-D lever."""

    def setup_established(self, obs=None):
        engine, loop, sent = make_engine(obs=obs)
        conn, datagram = client_initial(src_port=5000)
        engine.on_datagram(datagram, 0.0)
        server_scid = parse_long_header(sent[0].payload).scid
        _c, confirm = client_initial(src_port=5000, dcid=server_scid, scid=conn.scid)
        engine.on_datagram(confirm, 0.01)
        return engine, loop, sent, server_scid

    def test_inconsistent_initial_silently_discarded(self):
        obs = metered()
        engine, loop, sent, server_scid = self.setup_established(obs)
        flights = len(sent)
        # Follow-up: different port, new client CID, same server CID.
        _c, followup = client_initial(src_port=6001, dcid=server_scid)
        engine.on_datagram(followup, 1.0)
        assert len(sent) == flights  # nothing sent back
        assert engine_events(obs)["discarded_inconsistent"] == 1

    def test_state_expires_after_idle_timeout(self):
        obs = metered()
        engine, loop, sent, server_scid = self.setup_established(obs)
        idle = engine.profile.idle_timeout
        _c, followup = client_initial(src_port=6001, dcid=server_scid)
        engine.on_datagram(followup, idle + 1.5)
        # Expired state: the follow-up starts a fresh connection.
        assert engine_events(obs)["connections_expired"] == 1
        assert engine_events(obs)["connections_created"] == 2

    def test_awaiting_connection_also_discards(self):
        obs = metered()
        engine, loop, sent = make_engine(obs=obs)
        _conn, datagram = client_initial(src_port=5000)
        engine.on_datagram(datagram, 0.0)
        server_scid = parse_long_header(sent[0].payload).scid
        _c, followup = client_initial(src_port=6001, dcid=server_scid)
        engine.on_datagram(followup, 0.1)
        assert engine_events(obs)["discarded_inconsistent"] == 1


class TestVersionNegotiation:
    def test_unsupported_version_triggers_vn(self):
        obs = metered()
        engine, loop, sent = make_engine(obs=obs)
        _conn, datagram = client_initial(version=0xFF00007F)
        engine.on_datagram(datagram, 0.0)
        assert len(sent) == 1
        parsed = parse_long_header(sent[0].payload)
        assert parsed.packet_type is PacketType.VERSION_NEGOTIATION
        assert set(parsed.supported_versions) == set(
            engine.profile.supported_versions
        )
        assert engine_events(obs)["version_negotiations"] == 1


class TestRetry:
    def test_retry_probability_one_always_retries(self):
        profile = facebook_profile()
        profile.retry_probability = 1.0
        obs = metered()
        engine, loop, sent = make_engine(profile, obs=obs)
        engine.on_datagram(client_initial()[1], 0.0)
        parsed = parse_long_header(sent[0].payload)
        assert parsed.packet_type is PacketType.RETRY
        assert engine_events(obs)["retries_sent"] == 1
        assert engine_events(obs)["connections_created"] == 0


class TestProfiles:
    def test_rto_schedule_helper(self):
        profile = google_profile()
        schedule = profile.rto_schedule(3)
        assert schedule == pytest.approx([0.3, 0.9, 2.1])

    def test_paper_table1_values(self):
        assert cloudflare_profile().initial_rto == 1.0
        assert facebook_profile().initial_rto == 0.4
        assert google_profile().initial_rto == 0.3
        assert cloudflare_profile().max_retransmits == (3, 6)
        assert facebook_profile().max_retransmits == (7, 9)
        assert google_profile().max_retransmits == (3, 6)
        assert facebook_profile().coalesce_probability == 0.0
        assert google_profile().coalesce_probability > 0.5
