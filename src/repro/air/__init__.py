"""Air-index schemes: the paper's core contribution.

Every scheme pairs a server-side broadcast cycle builder with a client-side
query processor that tunes into the simulated channel selectively:

* :class:`DijkstraBroadcastScheme`, :class:`ArcFlagBroadcastScheme`,
  :class:`LandmarkBroadcastScheme` -- the full-cycle adaptations of
  Section 3.2,
* :class:`HiTiBroadcastScheme`, :class:`SPQBroadcastScheme` -- the
  pre-computation-heavy adaptations used to quantify oversized indexes,
* :class:`EllipticBoundaryScheme` (EB, Section 4) and
  :class:`NextRegionScheme` (NR, Section 5) -- the paper's novel methods,
  which share their server state and region client
  (:mod:`repro.air.region_scheme`).

Schemes self-register in a pluggable registry (:mod:`repro.air.registry`);
prefer constructing them by short name over hard-coding classes::

    from repro import air

    air.available_schemes()                    # ['DJ', 'NR', 'EB', ...]
    scheme = air.create("NR", network, num_regions=16)
    client = scheme.client(options=air.ClientOptions(loss_rate=0.05))
"""

from repro.air.base import AirClient, AirIndexScheme, ClientOptions, QueryResult
from repro.air.records import RecordLayout, DEFAULT_LAYOUT
from repro.air.border_paths import BorderPathPrecomputation
from repro.air.registry import (
    SchemeInfo,
    available_schemes,
    canonical_name,
    comparison_schemes,
    create,
    get_scheme,
    params_from_config,
    register_scheme,
    scheme_defaults,
)

# Importing the scheme modules populates the registry; the import order below
# fixes the order in which ``available_schemes()`` lists them (paper order:
# the baseline first, then the paper's methods, then the Table-1-only ones).
from repro.air.dijkstra_air import DijkstraBroadcastScheme, DJParams
from repro.air.nr import NextRegionScheme, NRParams
from repro.air.eb import EllipticBoundaryScheme, EBParams
from repro.air.landmark_air import LandmarkBroadcastScheme, LDParams
from repro.air.arcflag_air import ArcFlagBroadcastScheme, AFParams
from repro.air.spq_air import SPQBroadcastScheme, SPQParams
from repro.air.hiti_air import HiTiBroadcastScheme, HiTiParams

__all__ = [
    "AFParams",
    "AirClient",
    "AirIndexScheme",
    "ArcFlagBroadcastScheme",
    "BorderPathPrecomputation",
    "ClientOptions",
    "DEFAULT_LAYOUT",
    "DJParams",
    "DijkstraBroadcastScheme",
    "EBParams",
    "EllipticBoundaryScheme",
    "HiTiBroadcastScheme",
    "HiTiParams",
    "LDParams",
    "LandmarkBroadcastScheme",
    "NRParams",
    "NextRegionScheme",
    "QueryResult",
    "RecordLayout",
    "SPQBroadcastScheme",
    "SPQParams",
    "SchemeInfo",
    "available_schemes",
    "canonical_name",
    "comparison_schemes",
    "create",
    "get_scheme",
    "params_from_config",
    "register_scheme",
    "scheme_defaults",
]

#: Back-compat view of the registry: short name -> scheme class.  Prefer
#: :func:`available_schemes` / :func:`get_scheme` / :func:`create`.
SCHEME_REGISTRY = {name: get_scheme(name).cls for name in available_schemes()}
