"""Remote link model and queueing-based contention."""

from .link import LinkShare, RemoteLink
from .queueing import (
    LinearQueueingModel,
    MD1QueueingModel,
    MM1QueueingModel,
    QUEUEING_MODELS,
    QueueingModel,
    make_queueing_model,
)

__all__ = [
    "LinkShare",
    "RemoteLink",
    "LinearQueueingModel",
    "MD1QueueingModel",
    "MM1QueueingModel",
    "QUEUEING_MODELS",
    "QueueingModel",
    "make_queueing_model",
]
