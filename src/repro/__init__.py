"""CloudMirror/TAG reproduction — application-driven bandwidth guarantees.

Reproduces Lee et al., "Application-Driven Bandwidth Guarantees in
Datacenters" (SIGCOMM 2014): the Tenant Application Graph abstraction,
the CloudMirror placement algorithm with high-availability extensions,
baseline abstractions and placers (hose/VC, VOC/Oktopus, pipe/SecondNet),
TAG inference from raw traffic, and an ElasticSwitch-style enforcement
model — plus the full §5 evaluation harness.

Quickstart::

    from repro import Tag, CloudMirrorPlacer, Ledger, paper_datacenter

    tag = Tag("shop")
    tag.add_component("web", size=8)
    tag.add_component("db", size=4)
    tag.add_edge("web", "db", send=100.0, recv=200.0)
    tag.add_self_loop("db", 50.0)

    ledger = Ledger(paper_datacenter(scale=0.125))
    result = CloudMirrorPlacer(ledger).place(tag)
"""

from repro._lazy import lazy_exports

__version__ = "1.1.0"

__all__ = [
    "BandwidthDemand",
    "CloudMirrorPlacer",
    "Component",
    "DatacenterSpec",
    "Engine",
    "HaPolicy",
    "Ledger",
    "OktopusPlacer",
    "Placement",
    "Rejection",
    "Scenario",
    "ScenarioResult",
    "SecondNetPlacer",
    "Tag",
    "TagEdge",
    "TenantAllocation",
    "Topology",
    "TopologyCase",
    "Trial",
    "TrialResult",
    "Variant",
    "allocation_wcs",
    "paper_datacenter",
    "three_level_tree",
    "uplink_requirement",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core": (
        "BandwidthDemand", "Component", "Tag", "TagEdge", "uplink_requirement",
    ),
    "repro.engine": (
        "Engine", "Scenario", "ScenarioResult", "TopologyCase", "Trial", "TrialResult",
        "Variant",
    ),
    "repro.placement": (
        "CloudMirrorPlacer", "HaPolicy", "OktopusPlacer", "Placement", "Rejection",
        "SecondNetPlacer", "TenantAllocation", "allocation_wcs",
    ),
    "repro.topology": (
        "DatacenterSpec", "Ledger", "Topology", "paper_datacenter", "three_level_tree",
    ),
})
