"""MapReduce engine tests: native YARN baseline and MR-on-Tez."""

import pytest

from repro.engines.mapreduce import (
    MRJob,
    MapReduceTezRunner,
    MapReduceYarnRunner,
    StitchError,
    map_side_job,
    stitch_pipeline,
)
from repro.shuffle import RangePartitioner

from helpers import make_sim


def word_mapper(line):
    return [(w, 1) for w in line.split()]


def sum_reducer(key, values):
    return [(key, sum(values))]


def write_text(sim, path="/in/text", copies=40):
    words = "alpha beta gamma delta epsilon".split()
    lines = [" ".join(words[: 1 + i % 5]) for i in range(copies)]
    sim.hdfs.write(path, lines, record_bytes=64)
    expected = {}
    for line in lines:
        for w in line.split():
            expected[w] = expected.get(w, 0) + 1
    return expected


def drive(sim, gen):
    done = sim.env.process(gen)
    sim.env.run(until=done)
    return done.value


def wc_job(name="wc", out="/out/wc", reducers=2):
    return MRJob(
        name=name,
        input_paths=["/in/text"],
        output_path=out,
        mapper=word_mapper,
        reducer=sum_reducer,
        num_reducers=reducers,
    )


class TestYarnRunner:
    def test_wordcount(self):
        sim = make_sim()
        expected = write_text(sim)
        runner = MapReduceYarnRunner(sim.env, sim.rm, sim.hdfs, sim.shuffle)
        result = drive(sim, runner.run_job(wc_job()))
        assert result.succeeded, result.diagnostics
        assert dict(sim.hdfs.read_file("/out/wc")) == expected
        assert result.metrics["maps"] >= 1
        assert result.metrics["reduces"] == 2

    def test_map_only_job(self):
        sim = make_sim()
        write_text(sim)
        job = MRJob(
            name="filter",
            input_paths=["/in/text"],
            output_path="/out/filtered",
            mapper=lambda line: [(line, None)] if "beta" in line else [],
        )
        assert job.num_reducers == 0
        runner = MapReduceYarnRunner(sim.env, sim.rm, sim.hdfs, sim.shuffle)
        result = drive(sim, runner.run_job(job))
        assert result.succeeded, result.diagnostics
        rows = sim.hdfs.read_file("/out/filtered")
        assert rows and all("beta" in line for line, _ in rows)

    def test_combiner_reduces_shuffle_volume(self):
        sim = make_sim()
        expected = write_text(sim)
        job = wc_job(out="/out/wc_comb")
        job.combiner = sum_reducer
        runner = MapReduceYarnRunner(sim.env, sim.rm, sim.hdfs, sim.shuffle)
        result = drive(sim, runner.run_job(job))
        assert result.succeeded, result.diagnostics
        assert dict(sim.hdfs.read_file("/out/wc_comb")) == expected

    def test_pipeline_materializes_between_jobs(self):
        sim = make_sim()
        write_text(sim)
        j1 = wc_job(name="stage1", out="/out/s1")
        j2 = MRJob(
            name="stage2",
            input_paths=["/out/s1"],
            output_path="/out/s2",
            mapper=lambda kv: [(kv[1], kv[0])],   # count -> word
            reducer=lambda k, vs: [(k, sorted(vs))],
            num_reducers=1,
        )
        runner = MapReduceYarnRunner(sim.env, sim.rm, sim.hdfs, sim.shuffle)
        results = drive(sim, runner.run_pipeline([j1, j2]))
        assert len(results) == 2
        assert all(r.succeeded for r in results)
        assert sim.hdfs.exists("/out/s1")  # intermediate persisted
        assert sim.hdfs.exists("/out/s2")

    def test_failing_mapper_fails_job(self):
        sim = make_sim()
        write_text(sim)

        def bad_mapper(line):
            raise ValueError("corrupt input")

        job = MRJob(
            name="bad", input_paths=["/in/text"], output_path="/out/bad",
            mapper=bad_mapper, reducer=sum_reducer, num_reducers=1,
        )
        runner = MapReduceYarnRunner(sim.env, sim.rm, sim.hdfs, sim.shuffle)
        result = drive(sim, runner.run_job(job))
        assert not result.succeeded
        assert "corrupt input" in result.diagnostics

    def test_map_retry_on_transient_failure(self):
        sim = make_sim()
        write_text(sim)
        calls = {"n": 0}

        def flaky(line):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("blip")
            return word_mapper(line)

        job = MRJob(
            name="flaky", input_paths=["/in/text"],
            output_path="/out/flaky",
            mapper=flaky, reducer=sum_reducer, num_reducers=1,
        )
        runner = MapReduceYarnRunner(sim.env, sim.rm, sim.hdfs, sim.shuffle)
        result = drive(sim, runner.run_job(job))
        assert result.succeeded, result.diagnostics


class TestTezRunner:
    def test_wordcount_matches_yarn_runner(self):
        sim = make_sim()
        expected = write_text(sim)
        client = sim.tez_client()
        runner = MapReduceTezRunner(client)
        result = drive(sim, runner.run_job(wc_job(out="/out/tez_wc")))
        assert result.succeeded, result.diagnostics
        assert dict(sim.hdfs.read_file("/out/tez_wc")) == expected

    def test_map_only_on_tez(self):
        sim = make_sim()
        write_text(sim)
        job = MRJob(
            name="m", input_paths=["/in/text"], output_path="/out/m",
            mapper=lambda line: [(line.upper(), 1)],
        )
        runner = MapReduceTezRunner(sim.tez_client())
        result = drive(sim, runner.run_job(job))
        assert result.succeeded, result.diagnostics
        assert sim.hdfs.read_file("/out/m")

    def test_dag_translation_shape(self):
        # A job runs on Tez as the one-job stitch.
        dag = stitch_pipeline([wc_job()], "wc")
        assert set(dag.vertices) == {"map_0", "reduce_0"}
        assert len(dag.edges) == 1
        assert dag.vertices["reduce_0"].parallelism == 2
        dag.verify()

    def test_pipeline_in_session_beats_fresh_apps(self):
        sim = make_sim()
        write_text(sim, copies=100)
        jobs = [wc_job(name=f"j{i}", out=f"/out/p{i}") for i in range(3)]
        client = sim.tez_client(session=True)
        runner = MapReduceTezRunner(client)
        t0 = sim.env.now
        results = drive(sim, runner.run_pipeline(jobs))
        tez_elapsed = sim.env.now - t0
        client.stop()
        assert all(r.succeeded for r in results)

        sim2 = make_sim()
        write_text(sim2, copies=100)
        jobs2 = [wc_job(name=f"j{i}", out=f"/out/p{i}") for i in range(3)]
        yarn = MapReduceYarnRunner(sim2.env, sim2.rm, sim2.hdfs, sim2.shuffle)
        t0 = sim2.env.now
        results2 = drive(sim2, yarn.run_pipeline(jobs2))
        mr_elapsed = sim2.env.now - t0
        assert all(r.succeeded for r in results2)
        # The headline claim, in miniature: Tez pipelines beat MR.
        assert tez_elapsed < mr_elapsed


class TestTezRunnerHonoursTheJobContract:
    """MR-on-Tez commits what the native runner commits, in the same
    key order: the partitioner, a batch mapper and a descending sort
    are part of an MRJob, not hints."""

    @staticmethod
    def committed(runner_of, job):
        sim = make_sim()
        sim.hdfs.write("/in/nums", [f"{i % 40} {i}" for i in range(200)],
                       record_bytes=32)
        done = sim.env.process(runner_of(sim).run_job(job()))
        sim.env.run(until=done)
        assert done.value.succeeded, done.value.diagnostics
        return sim.hdfs.read_file(job().output_path)

    def same_on_both(self, job):
        on_yarn = self.committed(lambda sim: MapReduceYarnRunner(
            sim.env, sim.rm, sim.hdfs, sim.shuffle), job)
        on_tez = self.committed(
            lambda sim: MapReduceTezRunner(sim.tez_client()), job)
        assert on_tez == on_yarn
        return on_yarn

    def test_range_partitioned_job(self):
        def job():
            return MRJob(
                name="ranged", input_paths=["/in/nums"],
                output_path="/out/ranged",
                mapper=lambda line: [(int(line.split()[0]), 1)],
                reducer=sum_reducer, num_reducers=4,
                partitioner=RangePartitioner([10, 20, 30]))
        rows = self.same_on_both(job)
        # Range partitions commit in task order: globally sorted keys
        # (a hash partitioner interleaves them).
        assert [k for k, _n in rows] == list(range(40))

    def test_descending_job(self):
        def job():
            return MRJob(
                name="desc", input_paths=["/in/nums"],
                output_path="/out/desc",
                mapper=lambda line: [(int(line.split()[0]), 1)],
                reducer=sum_reducer, num_reducers=1, descending_sort=True)
        rows = self.same_on_both(job)
        assert [k for k, _n in rows] == list(range(39, -1, -1))

    def test_batch_mapper_job(self):
        def mapper(lines):
            return [(int(line.split()[0]), len(lines)) for line in lines]
        mapper.batch = True

        def job():
            return MRJob(
                name="batch", input_paths=["/in/nums"],
                output_path="/out/batch", mapper=mapper,
                reducer=lambda k, vs: [(k, len(vs))], num_reducers=1)
        rows = self.same_on_both(job)
        assert rows == [(k, 5) for k in range(40)]

    def test_per_path_mappers_are_refused(self):
        job = map_side_job(
            "sides", [(["/in/a"], list, list), (["/in/b"], list, list)],
            "/out/sides", reducer=sum_reducer)
        runner = MapReduceTezRunner(make_sim().tez_client())
        with pytest.raises(StitchError, match="per-path mappers"):
            next(runner.run_job(job))
