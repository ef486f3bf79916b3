"""BLOFF: anchor SHA-256 digests of log records on a permissioned chain so
any forensic stakeholder can later prove a presented log byte-identical to
what was produced, or detect that it was tampered with."""

__version__ = "0.1.0"
