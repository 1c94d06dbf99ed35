"""Entry point for ``python -m moorecubes``."""
from .cli import run

run()
