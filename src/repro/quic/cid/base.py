"""Scheme interface and the baseline random connection-ID generator."""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass
class CidContext:
    """Deployment-side inputs a scheme may encode into a connection ID."""

    host_id: int = 0
    worker_id: int = 0
    process_id: int = 0
    #: The DCID the client used in its first Initial (needed by echo schemes).
    client_dcid: bytes = b""


@dataclass
class CidScheme:
    """Base class: a connection-ID generator with a fixed output length."""

    length: int = 8

    def generate(self, rng: random.Random, context: CidContext) -> bytes:
        raise NotImplementedError

    @property
    def name(self) -> str:
        return type(self).__name__


@dataclass
class RandomScheme(CidScheme):
    """Uniformly random IDs — what RFC 9000 suggests absent other needs."""

    def generate(self, rng: random.Random, context: CidContext) -> bytes:
        return rng.getrandbits(8 * self.length).to_bytes(self.length, "big")


@dataclass
class FixedPrefixScheme(CidScheme):
    """Random IDs behind a constant prefix; models assorted smaller stacks."""

    prefix: bytes = b""

    def generate(self, rng: random.Random, context: CidContext) -> bytes:
        tail = self.length - len(self.prefix)
        if tail < 0:
            raise ValueError("prefix longer than configured CID length")
        return self.prefix + rng.getrandbits(8 * tail).to_bytes(tail, "big")
