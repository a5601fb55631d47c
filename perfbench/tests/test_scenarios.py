import scenarios
from storbind.scenario import build_scenario, load_scenario
import yaml


def test_same_seed_same_bytes_for_every_workload():
    for name in scenarios.WORKLOADS:
        assert scenarios.generate(name, 7).text == scenarios.generate(name, 7).text


def test_seeds_change_the_bytes_for_every_workload():
    for name in scenarios.WORKLOADS:
        assert scenarios.generate(name, 1).text != scenarios.generate(name, 2).text


def test_generated_tape_is_valid_for_storbind():
    for name in scenarios.WORKLOADS:
        gen = scenarios.generate(name, 3)
        data = yaml.load(gen.text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
        scenario = build_scenario(data)
        creates = [r for r in scenario.requests if r.op == "create"]
        assert len(creates) == gen.creates >= 1000
        assert len(scenario.requests) == sum(gen.tape_ops.values())


def test_cli_writes_the_generated_document(tmp_path):
    out = tmp_path / "s.yaml"
    assert scenarios.main(["--workload", "churn-gc", "--seed", "5", "--out", str(out)]) == 0
    assert out.read_text() == scenarios.generate("churn-gc", 5).text
    assert load_scenario(out).name == "churn-gc-s5"


def test_stratified_keeps_the_mix_in_every_block():
    import random

    values = scenarios._stratified(random.Random(1), [("a", 3), ("b", 1)], 40)
    for start in range(0, 40, 4):
        assert sorted(values[start : start + 4]) == ["a", "a", "a", "b"]
