"""``python -m p3pshare``: the p3pshare command line."""

from .cli import run

if __name__ == "__main__":
    run()
