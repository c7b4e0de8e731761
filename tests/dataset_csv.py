"""Write a Dataset as the CSV that logidp.pipeline.load_dataset_csv reads."""

import csv


def save_dataset_csv(dataset, path) -> None:
    """Header row f0..f{d-1},label; floats as repr so the round trip is exact."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(dataset.feature_dim)] + ["label"])
        for row, label in zip(dataset.features, dataset.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])
