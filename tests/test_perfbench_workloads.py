"""Every benchmark workload's synth profile and run config must parse, and
describe the run the benchmark's checks expect.

A parser change that rejects one of them would otherwise show only as a
failed benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from handover_intent.config import parse_config_text
from handover_intent.synth import parse_profile

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up here
    spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.mark.parametrize("name", sorted(load_workloads()))
def test_workload_profile_parses(name, tmp_path):
    workload = load_workloads()[name]
    path = tmp_path / "profile.txt"
    path.write_text(workload.profile)
    assert parse_profile(path).participants == workload.participants


@pytest.mark.parametrize("name", sorted(load_workloads()))
def test_workload_config_parses(name, tmp_path):
    workload = load_workloads()[name]
    cfg = parse_config_text(workload.config, origin=name, base_dir=tmp_path)
    assert cfg.model == workload.model
    assert (cfg.grid.first_end_s, cfg.grid.last_end_s, cfg.grid.step_s) == workload.grid
    tags = [m.value for m in cfg.modalities] + [s.tag() for s in cfg.fusion]
    assert sorted(tags) == sorted(workload.tags)
