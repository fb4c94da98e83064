from bench import gen
from bench.workloads import SPECS


def stream(seed, ops=3_000, name="mixed_sharded"):
    spec = SPECS[name]
    return gen.generate(seed, spec.mix, ops, 2_000, 0, 40_000, preload_deletes=200,
                        setup_fence_window=0.02, warmup_gets=100)


def test_same_seed_same_stream():
    first, second = stream(7), stream(7)
    assert first.setup == second.setup
    assert first.warmup == second.warmup
    assert first.ops == second.ops
    assert first.expected == second.expected
    assert first.model.digest() == second.model.digest()


def test_other_seed_other_stream():
    assert stream(7).ops != stream(8).ops


def test_a_shorter_stream_is_a_prefix():
    long, short = stream(7, ops=3_000), stream(7, ops=1_000)
    assert long.ops[:1_000] == short.ops
    assert long.expected[:1_000] == short.expected


def test_every_workload_mix_yields_its_op_kinds():
    for name, spec in SPECS.items():
        made = stream(3, ops=6_000, name=name)
        kinds = {op[0] for op in made.ops}
        assert (gen.RDEL in kinds) == bool(spec.mix.rdel_every), name
        assert (gen.SCAN in kinds) == bool(spec.mix.scan), name
        assert (gen.PUT in kinds) == bool(spec.mix.insert + spec.mix.update), name


def test_model_range_delete_takes_the_oldest_delete_keys():
    model = gen.Model()
    for delete_key, key in enumerate([5, 6, 7, 5]):
        model.put(key, f"v{delete_key}", delete_key)
    assert sorted(model.range_delete(1)) == [6]  # key 5 was rewritten later
    assert model.get(5) == "v3" and model.get(6) is None and model.get(7) == "v2"
    assert model.scan(0, 63) == [(5, "v3"), (7, "v2")]
