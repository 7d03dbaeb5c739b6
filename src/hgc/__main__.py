"""``python -m hgc``: the same front end as the ``hgc`` script."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
