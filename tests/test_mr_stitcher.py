"""MR workflow stitching into one Tez DAG (paper section 7)."""

import pytest

from repro.engines.mapreduce import (
    MRJob,
    MapReduceTezRunner,
    MapReduceYarnRunner,
    StitchError,
    run_stitched,
    stitch_pipeline,
)

from helpers import make_sim


def word_mapper(line):
    return [(w, 1) for w in line.split()]


def sum_reducer(key, values):
    return [(key, sum(values))]


def pipeline_jobs():
    """wordcount -> bucket counts by magnitude -> count buckets."""
    j1 = MRJob(
        name="wc", input_paths=["/in/text"], output_path="/t/wc",
        mapper=word_mapper, reducer=sum_reducer, num_reducers=2,
    )
    j2 = MRJob(
        name="bucket", input_paths=["/t/wc"], output_path="/t/buckets",
        mapper=lambda kv: [("big" if kv[1] >= 20 else "small", 1)],
        reducer=sum_reducer, num_reducers=2,
    )
    j3 = MRJob(
        name="fmt", input_paths=["/t/buckets"], output_path="/out/final",
        mapper=lambda kv: [(kv[0].upper(), kv[1])],
    )
    return [j1, j2, j3]


def write_text(sim):
    words = ["alpha"] * 25 + ["beta"] * 10 + ["gamma"] * 3
    lines = [" ".join(words[i: i + 4]) for i in range(0, len(words), 4)]
    sim.hdfs.write("/in/text", lines, record_bytes=48)


def expected():
    return {"BIG": 1, "SMALL": 2}


def test_stitched_dag_shape():
    dag = stitch_pipeline(pipeline_jobs(), "wf")
    # map+reduce for jobs 1-2, map-only job 3 -> 5 vertices, 4 edges.
    assert len(dag.vertices) == 5
    assert len(dag.edges) == 4
    dag.verify()
    # Only head reads HDFS, only tail commits.
    sources = [v for v in dag.vertices.values() if v.data_sources]
    sinks = [v for v in dag.vertices.values() if v.data_sinks]
    assert len(sources) == 1 and len(sinks) == 1


def test_stitched_matches_sequential_results():
    sim = make_sim()
    write_text(sim)
    yarn = MapReduceYarnRunner(sim.env, sim.rm, sim.hdfs, sim.shuffle)
    done = sim.env.process(yarn.run_pipeline(pipeline_jobs()))
    sim.env.run(until=done)
    assert all(r.succeeded for r in done.value)
    sequential = dict(sim.hdfs.read_file("/out/final"))

    sim2 = make_sim()
    write_text(sim2)
    client = sim2.tez_client(session=True)
    done2 = sim2.env.process(
        run_stitched(client, pipeline_jobs(), "wf")
    )
    sim2.env.run(until=done2)
    assert done2.value.succeeded, done2.value.diagnostics
    stitched = dict(sim2.hdfs.read_file("/out/final"))
    client.stop()

    assert stitched == sequential == expected()


def test_stitched_is_faster_and_skips_hdfs_intermediates():
    sim = make_sim()
    write_text(sim)
    yarn = MapReduceYarnRunner(sim.env, sim.rm, sim.hdfs, sim.shuffle)
    t0 = sim.env.now
    done = sim.env.process(yarn.run_pipeline(pipeline_jobs()))
    sim.env.run(until=done)
    mr_elapsed = sim.env.now - t0
    assert sim.hdfs.exists("/t/wc")       # materialized intermediate

    sim2 = make_sim()
    write_text(sim2)
    client = sim2.tez_client()
    t0 = sim2.env.now
    done2 = sim2.env.process(run_stitched(client, pipeline_jobs(), "wf"))
    sim2.env.run(until=done2)
    stitched_elapsed = sim2.env.now - t0
    assert not sim2.hdfs.exists("/t/wc")  # hand-off stayed off HDFS
    assert stitched_elapsed < mr_elapsed


def test_nonlinear_chain_rejected():
    j1 = MRJob(name="a", input_paths=["/x"], output_path="/t/a",
               mapper=lambda r: [(r, 1)])
    j2 = MRJob(name="b", input_paths=["/other"], output_path="/t/b",
               mapper=lambda r: [(r, 1)])
    with pytest.raises(StitchError):
        stitch_pipeline([j1, j2])


def test_distributed_cache_job_rejected():
    # The stitched map vertex has no distributed cache to read.
    job = MRJob(name="cached", input_paths=["/x"], output_path="/t/c",
                mapper=lambda r: [(r, 1)], cache_paths=["/dim"])
    with pytest.raises(StitchError, match="distributed cache"):
        stitch_pipeline([job])


def test_empty_chain_rejected():
    with pytest.raises(StitchError):
        stitch_pipeline([])


def test_combiner_preserved_in_stitched_dag():
    sim = make_sim()
    write_text(sim)
    job = MRJob(
        name="wc", input_paths=["/in/text"], output_path="/out/c",
        mapper=word_mapper, reducer=sum_reducer, combiner=sum_reducer,
        num_reducers=2,
    )
    client = sim.tez_client()
    done = sim.env.process(run_stitched(client, [job], "one"))
    sim.env.run(until=done)
    assert done.value.succeeded
    assert dict(sim.hdfs.read_file("/out/c")) == {
        "alpha": 25, "beta": 10, "gamma": 3,
    }
