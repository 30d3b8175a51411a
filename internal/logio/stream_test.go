package logio

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"digfl/internal/hfl"
)

func streamEpochs() []*hfl.Epoch {
	return []*hfl.Epoch{
		{T: 1, Theta: []float64{0, 0}, Deltas: [][]float64{{1, 2}, {3, 4}},
			LR: 0.1, ValGrad: []float64{0.5, 0.5}, ValLoss: 1.0},
		{T: 2, Theta: []float64{-1, -2}, Deltas: [][]float64{{1, math.NaN()}},
			LR: 0.1, ValGrad: []float64{0.25, math.Inf(1)}, ValLoss: 0.5,
			Reported: []int{1}},
		{T: 3, Theta: []float64{-2, -3}, Deltas: [][]float64{{1, 1}, {2, 2}},
			LR: 0.05, ValGrad: []float64{0.1, 0.1}, ValLoss: 0.25,
			Weights: []float64{0.75, 0.25}},
	}
}

// The streaming writer must produce byte-identical output to the batch
// WriteHFL on the same epochs — including degraded (Reported) records and
// non-finite floats — so ReadHFL consumes both interchangeably.
func TestHFLWriterMatchesBatchWriter(t *testing.T) {
	log := streamEpochs()
	var batch bytes.Buffer
	if err := WriteHFL(&batch, log); err != nil {
		t.Fatalf("WriteHFL: %v", err)
	}
	var stream bytes.Buffer
	sw, err := NewHFLWriter(&stream, 2, 2)
	if err != nil {
		t.Fatalf("NewHFLWriter: %v", err)
	}
	for _, ep := range log {
		if err := sw.WriteEpoch(ep); err != nil {
			t.Fatalf("WriteEpoch(%d): %v", ep.T, err)
		}
	}
	if sw.Epochs() != len(log) {
		t.Errorf("Epochs() = %d, want %d", sw.Epochs(), len(log))
	}
	if !bytes.Equal(batch.Bytes(), stream.Bytes()) {
		t.Fatalf("stream output differs from batch:\nbatch:  %q\nstream: %q",
			batch.String(), stream.String())
	}
	back, err := ReadHFL(&stream)
	if err != nil {
		t.Fatalf("ReadHFL(stream): %v", err)
	}
	if len(back) != len(log) {
		t.Fatalf("read %d epochs, want %d", len(back), len(log))
	}
}

func TestHFLWriterRejectsBadShapes(t *testing.T) {
	if _, err := NewHFLWriter(&bytes.Buffer{}, 0, 3); err == nil {
		t.Error("zero params accepted")
	}
	sw, err := NewHFLWriter(&bytes.Buffer{}, 2, 2)
	if err != nil {
		t.Fatalf("NewHFLWriter: %v", err)
	}
	// Out-of-order epoch.
	if err := sw.WriteEpoch(streamEpochs()[1]); err == nil {
		t.Fatal("out-of-order epoch accepted")
	}
	if sw.Err() == nil {
		t.Error("error not sticky")
	}
	// Sticky: even a valid epoch is now refused.
	if err := sw.WriteEpoch(streamEpochs()[0]); err == nil {
		t.Error("write after sticky error accepted")
	}

	sw2, _ := NewHFLWriter(&bytes.Buffer{}, 2, 3)
	if err := sw2.WriteEpoch(streamEpochs()[0]); err == nil ||
		!strings.Contains(err.Error(), "shape") {
		t.Errorf("delta-count drift not rejected: %v", err)
	}
}
