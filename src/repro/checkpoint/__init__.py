"""Float-exact result digests and the CRC-framed record container.

* :mod:`.format` -- the on-disk container (magic, versioned header,
  CRC-checked records, torn-tail tolerance) that
  :class:`~repro.campaign.store.ResultStore` keeps its results log in;
* :mod:`.digest` -- :func:`run_result_digest`, float-exact digests the
  store verifies every hit against and the chaos drills compare across
  process boundaries.
"""

from repro.checkpoint.digest import run_result_digest

__all__ = ["run_result_digest"]
