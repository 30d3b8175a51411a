package core

import (
	"testing"

	"digfl/internal/dataset"
	"digfl/internal/hfl"
	"digfl/internal/metrics"
	"digfl/internal/nn"
	"digfl/internal/shapley"
	"digfl/internal/tensor"
)

// The paper's HFL models are CNNs; this end-to-end test runs the actual CNN
// (conv + pool + dense with hand-derived gradients) through federated
// training, DIG-FL estimation with the CNN's R-operator HVP, and the exact
// Shapley ground truth.
func TestCNNFederationEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("CNN federation is slow")
	}
	rng := tensor.NewRNG(99)
	full := dataset.SynthImages(dataset.ImageConfig{
		Name: "cnn-mnist", N: 480, Side: 8, Classes: 4, Noise: 0.6, Seed: 99,
	})
	train, val := full.Split(0.2, rng)
	parts := dataset.PartitionIID(train, 4, rng)
	parts[3] = dataset.Mislabel(parts[3], 0.8, rng)

	tr := &hfl.Trainer{
		Model: nn.NewCNN(8, 3, 4, 4, rng.Split(1)),
		Parts: parts,
		Val:   val,
		Cfg:   hfl.Config{Epochs: 8, LR: 0.2, KeepLog: true},
	}
	res := tr.Run()
	if res.FinalLoss >= res.InitLoss {
		t.Fatalf("CNN federation did not learn: %v -> %v", res.InitLoss, res.FinalLoss)
	}

	// Resource-saving estimate must isolate the corrupted participant.
	rs := EstimateHFL(res.Log, 4, ResourceSaving, nil)
	for i := 0; i < 3; i++ {
		if rs.Totals[3] >= rs.Totals[i] {
			t.Fatalf("mislabeled participant should rank last: %v", rs.Totals)
		}
	}

	// Interactive mode exercises the exact HVP of a non-convex model. The
	// second-order correction is sizeable at this learning rate, so the
	// variants agree on ranking rather than value.
	in := EstimateHFL(res.Log, 4, Interactive, LocalHVP(tr.Model, parts))
	if pcc := metrics.Pearson(rs.Totals, in.Totals); pcc < 0.75 {
		t.Fatalf("CNN interactive vs resource-saving PCC %.3f", pcc)
	}

	// And both must track the actual Shapley value.
	actual := shapley.Exact(4, func(s []int) float64 { return tr.Utility(s) })
	if pcc := metrics.Pearson(rs.Totals, actual); pcc < 0.7 {
		t.Fatalf("CNN DIG-FL vs actual PCC %.3f (est %v, actual %v)", pcc, rs.Totals, actual)
	}
}
