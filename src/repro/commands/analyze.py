"""``repro analyze``, apart from :mod:`repro.commands.capture` so that
``index`` and ``classify`` load no analysis (``repro.core.render``)."""

from __future__ import annotations

import argparse

from repro.commands.capture import load_capture, validate_tables
from repro.commands.common import finish_obs, make_obs
from repro.core.render import render_analysis


def cmd_analyze(args: argparse.Namespace) -> int:
    wanted = validate_tables(args)
    obs = make_obs(args)
    try:
        capture = load_capture(args, obs)
        with obs.span("analyze.render", local=True):
            print(render_analysis(capture, wanted))
        return 0
    finally:
        finish_obs(args, obs)
