"""Dynamic latent-graph inference + selective state-space sequence classifier."""

__version__ = "0.1.0"

_LAZY = {"Tensor": "tensor", "Tape": "tensor", "finite_diff_check": "tensor"}


def __getattr__(name):
    # Deferred so the CLI can pin thread env vars before numpy loads.
    if name in _LAZY:
        import importlib
        module = importlib.import_module(f".{_LAZY[name]}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
