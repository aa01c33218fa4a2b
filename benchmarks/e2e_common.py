"""Shared driver for the end-to-end convergence benchmarks (Figs. 11-14)."""

from benchmarks.conftest import print_table
from repro.datasets import load_dataset
from repro.train import run_convergence


def run_e2e(dataset_name, model_name, scale=0.015, hidden_dim=32,
            num_layers=3, batch_size=32, num_epochs=8, lr=3e-3, seed=0,
            csl_scale=1.0):
    """Train one dataset/model pair under both methods; print the curves."""
    loader_scale = csl_scale if dataset_name == "CSL" else scale
    dataset = load_dataset(dataset_name, scale=loader_scale)
    result = run_convergence(dataset, model_name, hidden_dim=hidden_dim,
                             num_layers=num_layers, batch_size=batch_size,
                             num_epochs=num_epochs, lr=lr, seed=seed)
    rows = []
    for base, mega in zip(result.baseline.records, result.mega.records):
        rows.append({
            "epoch": base.epoch,
            "loss": base.train_loss,
            "val metric": base.val_metric,
            "dgl clock (s)": base.sim_time_s,
            "mega clock (s)": mega.sim_time_s,
        })
    print_table(
        f"{dataset_name} + {model_name}: metric vs simulated wall clock",
        rows, ["epoch", "loss", "val metric", "dgl clock (s)",
               "mega clock (s)"])
    print(f"convergence speedup: {result.speedup:.2f}x  "
          f"(final metric: dgl={result.final_metric_baseline:.4f}, "
          f"mega={result.final_metric_mega:.4f})")
    return result
