from .base import Archive, FeedbackSignal, InsertOutcome
from .gps import DegenerateDirectionError, GpsArchive, RaySpec, ray_of
from .grid import GridArchive, GridSpec, OutOfBoundsError, cell_of
from .rn import RnArchive

__all__ = [
    "Archive",
    "DegenerateDirectionError",
    "FeedbackSignal",
    "GpsArchive",
    "GridArchive",
    "GridSpec",
    "InsertOutcome",
    "OutOfBoundsError",
    "RaySpec",
    "RnArchive",
    "cell_of",
    "ray_of",
]
