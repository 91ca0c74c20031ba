from .base import Archive, FeedbackSignal, InsertOutcome
from .gps import DegenerateDirectionError, GpsArchive, RayIndex, RaySpec, ray_of
from .grid import CellIndex, GridArchive, GridSpec, OutOfBoundsError, cell_of
from .rn import RnArchive

__all__ = [
    "Archive",
    "CellIndex",
    "DegenerateDirectionError",
    "FeedbackSignal",
    "GpsArchive",
    "GridArchive",
    "GridSpec",
    "InsertOutcome",
    "OutOfBoundsError",
    "RayIndex",
    "RaySpec",
    "RnArchive",
    "cell_of",
    "ray_of",
]
