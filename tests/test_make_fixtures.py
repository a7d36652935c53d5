"""scripts/make_fixtures.py rebuilds the shipped data files byte for byte."""

import importlib.util
import json
import pathlib

import pytest

from entcap.fixtures import FIXTURE_NAMES, R1_WITNESS_NAME, fixture_text
from entcap.netmodel import dump_network

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "make_fixtures.py"


@pytest.fixture(scope="module")
def make_fixtures():
    # Importing runs no ``main()``, so no file is written.
    spec = importlib.util.spec_from_file_location("make_fixtures", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def built(make_fixtures):
    return make_fixtures.build_all()


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_network_files_match(built, name):
    assert dump_network(built[name]) == fixture_text(name)


def test_r1_witness_file_matches(make_fixtures, built):
    witness = make_fixtures.make_witness(built["n_d5_2"], target_rank=6)
    assert json.dumps(witness, indent=2) + "\n" == fixture_text(R1_WITNESS_NAME)
