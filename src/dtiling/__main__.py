"""``python -m dtiling``: the ``dtiling`` command."""

from .cli import main_entry

if __name__ == "__main__":
    main_entry()
