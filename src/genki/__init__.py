"""Retrieval-augmented QA: retrieve passages, train knowledge-integrated
generators, format drafts, and pick the better of two answer paths.

Each stage is a submodule (genki.retriever, genki.generation,
genki.ensemble, ...) imported by its own name; the command line in
genki.cli wires them together from files.
"""
