import pytest

from polyvi import cli
from polyvi import sdpbackend as sb


@pytest.fixture(scope="session", autouse=True)
def one_blas_thread():
    """Run the suite on one BLAS thread, as every polyvi command does.

    A thread variable set in the environment wins here as it does there.
    """
    with cli.one_blas_thread():
        yield


@pytest.fixture()
def sdp_solves(monkeypatch):
    """The (problem, result) pair of every sb.solve call the test makes.

    sb.solve is wrapped at its module attribute, which is where momentsdp
    looks it up, so the relaxations of a whole solve are recorded.
    """
    calls = []
    original = sb.solve

    def recording(problem, *args, **kwargs):
        result = original(problem, *args, **kwargs)
        calls.append((problem, result))
        return result

    monkeypatch.setattr(sb, "solve", recording)
    return calls
