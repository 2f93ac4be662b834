"""Nothing: the execution-template cache is gone (DESIGN.md "Why there
is no template cache"). ``benchmarks/ledger/tracer.py`` imports this
name; it goes when the ledger's layer map stops listing it."""
