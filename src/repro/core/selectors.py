"""The ``repro analyze --tables`` names, readable without loading the analyses."""

#: Table selectors understood by ``repro analyze --tables``.
VALID_TABLES = ("1", "2", "3", "4", "rto", "lengths")
