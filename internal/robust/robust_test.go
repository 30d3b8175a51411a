package robust

import (
	"digfl/internal/dataset"
	"digfl/internal/tensor"
)

// corruptedFederation builds an n-participant task where bad of them hold
// 90% mislabeled data.
func corruptedFederation(seed int64, n, bad int) (parts []dataset.Dataset, train, val dataset.Dataset) {
	rng := tensor.NewRNG(seed)
	full := dataset.SynthImages(dataset.ImageConfig{
		Name: "rob", N: 1500, Side: 8, Classes: 10, Noise: 1.6, Seed: seed,
	})
	train, val = full.Split(0.2, rng)
	parts = dataset.PartitionIID(train, n, rng)
	for i := n - bad; i < n; i++ {
		parts[i] = dataset.Mislabel(parts[i], 0.9, rng.Split(int64(i)))
	}
	return parts, train, val
}
