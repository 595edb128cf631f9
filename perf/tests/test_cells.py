import random

import cells
import verify

NAMES = ["w%02d" % index for index in range(16)]


def test_cells64_is_seeded_and_workload_major():
    first = cells.cells64(NAMES, random.Random(1))
    assert first == cells.cells64(NAMES, random.Random(1))
    assert first != cells.cells64(NAMES, random.Random(2))
    assert len({key for key, _ in first}) == 64
    workloads = [body["program"]["value"] for _, body in first]
    assert all(len(set(workloads[index:index + 4])) == 1
               for index in range(0, 64, 4))
    for _, body in first:
        assert (body["n_threads"], body["scale"], body["backend"],
                body["check"]) == (2, "ref", "fast", True)


def test_trace_cells_seed_changes_order_not_set():
    one = cells.trace_cells(NAMES, 16, random.Random(1))
    two = cells.trace_cells(NAMES, 16, random.Random(2))
    assert one != two
    assert sorted(key for key, _ in one) == sorted(key for key, _ in two)
    assert len({body["program"]["value"] for _, body in one}) == 16
    assert {body["technique"] for _, body in one} == {"gremio", "dswp"}
    assert all(body["trace"] and body["coco"] for _, body in one)
    assert len(cells.trace_cells(NAMES, 32, random.Random(1))) == 32


def test_zipf_ops_reproducible():
    ops = cells.cells64(NAMES, random.Random(0))
    assert cells.zipf_ops(ops, 500, random.Random(5)) == \
        cells.zipf_ops(ops, 500, random.Random(5))


def test_programs_are_unique_reproducible_and_balanced():
    generator = cells.ProgramGenerator(7)
    ops = generator.take(80) + generator.take(80)
    again = cells.ProgramGenerator(7).take(160)
    assert ops == again
    texts = [body["program"]["value"] for _, body in ops]
    assert len(set(texts)) == 160
    other = {body["program"]["value"]
             for _, body in cells.ProgramGenerator(8).take(160)}
    assert not other & set(texts)
    # Every (kernel, technique) combination sees every trip count equally
    # often, whatever the seed: total work does not depend on the seed.
    trips = sorted(text.split("range(")[1].split(")")[0] for text in texts)
    assert trips == sorted(str(count) for count in cells.TRIP_COUNTS * 20)
    assert [body["technique"] for _, body in ops[:4]] == \
        ["gremio", "dswp", "gremio", "dswp"]


def test_every_kernel_compiles_and_passes_the_cpython_oracle(api):
    ops = cells.ProgramGenerator(3).take(40)
    for _, body in ops:  # every text compiles
        api.resolve_program(api.ProgramSpec.from_dict(body["program"]))
    for _, body in ops[:10]:  # each kernel x technique through the oracle
        expected = verify.expected_answer(api, body, False)
        assert expected.errors == []
        assert expected.metrics["mt_cycles"] > 0
