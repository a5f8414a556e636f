"""The Solid decentralization substrate.

Pods (LDP document hierarchies), WebID profiles, Solid Type Indexes, the
source index a pod may publish about itself (:mod:`repro.solid.index`),
WAC access control, simulated Solid-OIDC authentication, and the pod
server app that exposes it all over :mod:`repro.net`.
"""

from .acl import AccessControlList, AccessMode, AclRule, acl_document_triples
from .auth import AuthSession, IdentityProvider
from .pod import Pod, PodDocument
from .server import SolidServer

__all__ = [
    "Pod",
    "PodDocument",
    "SolidServer",
    "AccessControlList",
    "AccessMode",
    "AclRule",
    "acl_document_triples",
    "IdentityProvider",
    "AuthSession",
]
