"""Test-side reference implementations (oracles) for byte-identity
contracts: each module here is a straightforward second implementation
of something ``src`` runs only one way."""
