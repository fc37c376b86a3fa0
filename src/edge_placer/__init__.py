"""Cost/deadline-aware placement of offloaded applications on a three-tier topology."""

__version__ = "0.1.0"
