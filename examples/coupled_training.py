"""Fully coupled run: real SGD whose gradients travel the simulated network.

Unlike the other examples, nothing here is decoupled -- each iteration's
error-feedback-compressed gradients are aggregated *by* the packet-level
OmniReduce simulation, the optimizer consumes the network's output
tensor, and the loss curve and communication timeline come from one
self-consistent system.  The block-size autotuner runs each candidate
block size through the flow-mode engine on a real gradient sample and
keeps the fastest.

Run:  python examples/coupled_training.py
"""

import numpy as np

from repro.compression import BlockTopK, ErrorFeedback
from repro.core.autotune import autotune_block_size
from repro.ddl import EndToEndRun, MLP, SyntheticTask
from repro.netsim import ClusterSpec


def gradient_sample(task, hidden, workers, compressor_factory, seed=0):
    """One real compressed gradient per worker, for the autotuner."""
    x_train, y_train, _, _ = task.generate()
    model = MLP(task.features, hidden, seed=seed)
    shards = np.array_split(np.arange(x_train.shape[0]), workers)
    rng = np.random.default_rng(seed)
    samples = []
    for shard in shards:
        batch = rng.choice(shard, size=32, replace=False)
        _, grad = model.loss_and_grad(x_train[batch], y_train[batch])
        feedback = ErrorFeedback(compressor_factory())
        samples.append(feedback.step(grad, params=model.get_params()))
    return samples


def main() -> None:
    spec = ClusterSpec(workers=4, aggregators=4, bandwidth_gbps=10,
                       transport="rdma")
    task = SyntheticTask(seed=0)
    hidden = 512  # ~135 KB of float32 gradients per worker
    iterations = 120
    compressor = lambda: BlockTopK(0.1, 64)

    # Simulate each block size on real compressed gradients over this
    # cluster and keep the fastest (the §6.4 trade-off).
    sample = gradient_sample(task, hidden, spec.workers, compressor)
    choice = autotune_block_size(
        sample, candidates=(32, 64, 128, 256, 512), spec=spec
    )
    table = {bs: f"{t * 1e6:.0f}us" for bs, t in sorted(choice.predictions.items())}
    print(f"autotuned block size for 10% Block Top-k gradients: "
          f"{choice.block_size}  (simulated {table})")

    print(f"\n{'setup':>24} {'final loss':>11} {'F1':>7} {'comm (ms)':>10} "
          f"{'wire (MB)':>10} {'total (ms)':>11}")
    for label, factory in (
        ("uncompressed", None),
        ("Block Top-k 10% + EF", compressor),
    ):
        run = EndToEndRun(
            spec=spec,
            compressor_factory=factory,
            block_size=choice.block_size,
            hidden=hidden,
            task=task,
            lr=0.05,  # wider model needs a gentler step than the default
            seed=0,
        )
        report = run.run(iterations=iterations)
        final_loss = float(np.mean(report.losses[-10:]))
        print(f"{label:>24} {final_loss:>11.4f} {report.f1:>7.3f} "
              f"{report.total_comm_s * 1e3:>10.2f} "
              f"{sum(report.comm_bytes) / 1e6:>10.2f} "
              f"{report.total_time_s * 1e3:>11.2f}")

    print("\n(compression shrinks the communication share of each "
          "iteration while the loss curve stays on track -- Figures 11/12 "
          "in one coupled system)")


if __name__ == "__main__":
    main()
