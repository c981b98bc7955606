"""Repo benchmark for the HIX simulator's host time (see README.md)."""
