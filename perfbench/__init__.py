"""Wall-clock benchmark of the PushdownDB reproduction (see README.md)."""
