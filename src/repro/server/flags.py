"""The ``repro serve`` and ``repro cluster`` flags, each declared once.

Every flag names one field of :class:`~repro.server.app.ServerConfig`
or :class:`~repro.cluster.gateway.ClusterConfig`, and a command gets
each flag whose field its config class has.  The field's default is the
flag's default and fixes its type, so the parser, the config and the
argv a cluster hands each replica subprocess cannot drift apart.
"""

from __future__ import annotations

import argparse
import dataclasses
from typing import Dict, List

#: flag -> (config field, help).  A boolean field takes a bare flag that
#: flips its default (``--supervise`` sets one, ``--no-lifecycle`` clears one).
FLAGS = {
    "--host": ("host", "bind address (default %(default)s)"),
    "--port": ("port", "bind port; 0 picks an ephemeral port (default %(default)s)"),
    "--replicas": ("replicas", "server subprocesses to run (default %(default)s)"),
    "--vnodes": ("vnodes", "virtual nodes per replica on the hash ring (default %(default)s)"),
    "--workers": (
        "workers",
        "concurrent diagnosis slots, per replica in a cluster (default %(default)s)",
    ),
    "--queue-size": (
        "queue_size",
        "requests allowed to wait for a slot before 503s, per replica in a "
        "cluster (default %(default)s)",
    ),
    "--cache-size": (
        "cache_size",
        "result-cache capacity, per replica in a cluster (default %(default)s)",
    ),
    "--timeout": ("timeout", "per-request budget in seconds (default %(default)s)"),
    "--retries": ("retries", "extra attempts for crashed jobs (default %(default)s)"),
    "--poll-interval": (
        "poll_interval", "replica health-poll period in seconds (default %(default)s)"
    ),
    "--gossip-interval": (
        "gossip_interval", "experience gossip period in seconds (default %(default)s)"
    ),
    "--max-streams": (
        "max_streams", "concurrent /v1/stream SSE connections (default %(default)s)"
    ),
    "--heartbeat": ("heartbeat", "SSE keep-alive cadence in seconds (default %(default)s)"),
    "--supervise": (
        "supervise",
        "engage the fleet supervisor (poison-job quarantine, worker health "
        "eviction), inside every replica of a cluster",
    ),
    "--faults": (
        "faults",
        "JSON fault plan (chaos testing only), armed server-wide, or in the "
        "cluster gateway for the cluster.* points; e.g. "
        '\'{"seed": 0, "rules": [{"point": "server.io", "rate": 0.2}]}\'',
    ),
    "--replica-faults": (
        "replica_faults", "JSON fault plan forwarded to every replica subprocess"
    ),
    "--store": (
        "store",
        "durable sqlite store: caches, experience, tenants and history survive "
        "restarts; a cluster's replicas share it and its gateway seeds gossip "
        "from it (default: in-memory only)",
    ),
    "--no-lifecycle": (
        "lifecycle",
        "skip the store maintenance loop (another process owns it, as the "
        "cluster gateway does for its replicas)",
    ),
    "--checkpoint-interval": (
        "checkpoint_interval",
        "seconds between WAL checkpoint/retention ticks, jittered; 0 never "
        "(default %(default)s)",
    ),
    "--retain-history": (
        "retain_history_days",
        "days of history to keep; 0 keeps forever (default %(default)s)",
    ),
    "--retain-history-rows": (
        "retain_history_rows",
        "history rows to keep at most; 0 unbounded (default %(default)s)",
    ),
    "--retain-cache": (
        "retain_cache_days",
        "days of cache rows to keep; 0 applies only the row bound (default %(default)s)",
    ),
}


def _defaults(config_cls) -> Dict[str, object]:
    return {field.name: field.default for field in dataclasses.fields(config_cls)}


def add_config_flags(parser: argparse.ArgumentParser, config_cls) -> None:
    """Declare on ``parser`` every flag whose field ``config_cls`` has."""
    defaults = _defaults(config_cls)
    for flag, (field, text) in FLAGS.items():
        if field not in defaults:
            continue
        default = defaults[field]
        if isinstance(default, bool):
            action = "store_false" if default else "store_true"
            parser.add_argument(flag, dest=field, action=action, help=text)
        else:
            parser.add_argument(
                flag, dest=field, type=type(default), default=default, help=text
            )


def config_from_args(config_cls, args: argparse.Namespace):
    """The config the parsed flags describe (``ValueError`` when invalid)."""
    defaults = _defaults(config_cls)
    return config_cls(
        **{field: getattr(args, field) for field, _ in FLAGS.values() if field in defaults}
    )


def config_argv(config) -> List[str]:
    """The flags that rebuild ``config``: one per field off its default."""
    defaults = _defaults(type(config))
    argv: List[str] = []
    for flag, (field, _) in FLAGS.items():
        if field not in defaults or getattr(config, field) == defaults[field]:
            continue
        value = getattr(config, field)
        argv.extend([flag] if isinstance(value, bool) else [flag, str(value)])
    return argv
