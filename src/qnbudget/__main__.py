"""`python -m qnbudget ...` runs the command-line interface."""

from .cli import cli_entry

if __name__ == "__main__":
    cli_entry()
