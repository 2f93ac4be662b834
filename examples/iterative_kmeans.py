"""Iterative k-means in one Tez session (paper sections 4.2 / 6.4).

Each k-means iteration is a small Pig dataflow submitted as its own
DAG. Running all iterations through one pre-warmed Tez session lets
every iteration after the first reuse warm containers — the effect
behind Figure 11 — while the MapReduce baseline pays container launch
and JVM warm-up every single iteration.

Run:  python examples/iterative_kmeans.py
"""

from repro import SimCluster
from repro.engines.pig import PigRunner
from repro.workloads import (
    centroids_from_rows,
    generate_points,
    initial_centroids,
    kmeans_iteration_script,
)

K = 4
ITERATIONS = 10


def run(backend: str) -> tuple[float, list]:
    sim = SimCluster(num_nodes=2, nodes_per_rack=2)
    points = generate_points(10_000, k=K)
    sim.hdfs.write("/km/points", points, record_bytes=24)
    runner = PigRunner(sim)
    if backend == "tez":
        runner.tez_client.prewarm(4)
        sim.env.run(until=sim.env.now + 20)

    centroids = initial_centroids(points, K)
    start = sim.env.now
    for i in range(ITERATIONS):
        script = kmeans_iteration_script(
            centroids, "/km/points", f"/km/{backend}/iter{i}"
        )
        result = runner.run(script, backend=backend)
        rows = result.outputs[f"/km/{backend}/iter{i}"]
        centroids = centroids_from_rows(rows, K, centroids)
    elapsed = sim.env.now - start
    runner.close()
    return elapsed, centroids


def main():
    tez_time, tez_centroids = run("tez")
    mr_time, mr_centroids = run("mr")
    print(f"{ITERATIONS} k-means iterations over 10,000 points:")
    print(f"  tez session : {tez_time:8.1f} simulated seconds")
    print(f"  mapreduce   : {mr_time:8.1f} simulated seconds")
    print(f"  speedup     : {mr_time / tez_time:.2f}x")
    for a, b in zip(tez_centroids, mr_centroids):
        assert all(abs(x - y) < 1e-6 for x, y in zip(a, b)), \
            "backends must converge identically"
    print("  centroids identical across backends")


if __name__ == "__main__":
    main()
