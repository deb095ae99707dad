import os
import re
import threading
from pathlib import Path

import pytest

from convpipe import native

MNIST_FILES = ["train-images-idx3-ubyte", "train-labels-idx1-ubyte",
               "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"]


def find_mnist_dir():
    """Directory holding the four IDX files (plain or .gz), or None."""
    candidates = []
    env = os.environ.get("CONVPIPE_DATA_DIR")
    if env:
        candidates.append(Path(env))
    here = Path(__file__).resolve().parent
    candidates += [here / "data", here.parent / "data"]
    for cand in candidates:
        if cand.is_dir() and all(
                (cand / n).exists() or (cand / (n + ".gz")).exists()
                for n in MNIST_FILES):
            return cand
    return None


@pytest.fixture(scope="session")
def unsplit_kernels(tmp_path_factory):
    """The kernels built with split thresholds no call reaches, so that
    every call runs on its caller's thread alone; None without them."""
    if native.kernels() is None:
        return None
    source = native._SOURCE
    for name in ("SPLIT_PRODUCT", "SPLIT_HOST", "SPLIT_ADAM", "SPLIT_WORDS"):
        source, count = re.subn(rf"#define {name} \d+\n",
                                f"#define {name} PTRDIFF_MAX\n", source)
        assert count == 1, name
    path = tmp_path_factory.mktemp("unsplit") / "unsplit.so"
    native._build(path, source)
    return native._import(path)


@pytest.fixture
def on_a_marked_thread():
    """A function that returns call()'s result, made on a new thread that
    set_background marked, so that its split calls queue for the helper.
    It fails if the call takes a minute; the thread is a daemon, so that a
    hung call cannot hold the test process open."""
    lib = native.kernels()
    if lib is None:
        pytest.skip("no compiled kernels")

    def run(call):
        outcome = []

        def marked():
            lib.set_background(True)
            try:
                outcome.append((call(), None))
            except BaseException as exc:  # re-raised on the test's thread
                outcome.append((None, exc))
        thread = threading.Thread(target=marked, daemon=True)
        thread.start()
        thread.join(timeout=60)
        assert outcome, "a marked call did not return within a minute"
        result, exc = outcome[0]
        if exc is not None:
            raise exc
        return result
    return run
