package logio

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"digfl/internal/core"
	"digfl/internal/dataset"
	"digfl/internal/hfl"
	"digfl/internal/nn"
	"digfl/internal/tensor"
	"digfl/internal/vfl"
)

func hflLog(t *testing.T) []*hfl.Epoch {
	t.Helper()
	rng := tensor.NewRNG(1)
	full := dataset.MNISTLike(300, 1)
	train, val := full.Split(0.2, rng)
	tr := &hfl.Trainer{
		Model: nn.NewSoftmaxRegression(train.Dim(), train.Classes),
		Parts: dataset.PartitionIID(train, 3, rng),
		Val:   val,
		Cfg:   hfl.Config{Epochs: 4, LR: 0.3, KeepLog: true},
	}
	return tr.Run().Log
}

func vflLog(t *testing.T) ([]*vfl.Epoch, []dataset.Block) {
	t.Helper()
	full := dataset.SynthTabular(dataset.TabularConfig{
		Name: "t", N: 200, D: 6, Task: dataset.Regression, Informative: 4, Noise: 0.2, Seed: 2,
	})
	train, val := full.Split(0.2, tensor.NewRNG(2))
	prob := &vfl.Problem{Train: train, Val: val, Blocks: dataset.VerticalBlocks(6, 3), Kind: vfl.LinReg}
	tr := &vfl.Trainer{Problem: prob, Cfg: vfl.Config{Epochs: 4, LR: 0.05, KeepLog: true}}
	return tr.Run().Log, prob.Blocks
}

func TestHFLRoundTrip(t *testing.T) {
	log := hflLog(t)
	var buf bytes.Buffer
	if err := WriteHFL(&buf, log); err != nil {
		t.Fatal(err)
	}
	got, err := ReadHFL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(log) {
		t.Fatalf("round trip lost epochs: %d vs %d", len(got), len(log))
	}
	for i := range log {
		if got[i].T != log[i].T || got[i].LR != log[i].LR {
			t.Fatalf("epoch %d metadata mismatch", i)
		}
		for j := range log[i].Theta {
			if got[i].Theta[j] != log[i].Theta[j] {
				t.Fatalf("epoch %d theta mismatch", i)
			}
		}
		for k := range log[i].Deltas {
			for j := range log[i].Deltas[k] {
				if got[i].Deltas[k][j] != log[i].Deltas[k][j] {
					t.Fatalf("epoch %d delta mismatch", i)
				}
			}
		}
	}
}

// The whole point: contributions from a reloaded log equal contributions
// from the live log.
func TestHFLOfflineEstimationFromFile(t *testing.T) {
	log := hflLog(t)
	var buf bytes.Buffer
	if err := WriteHFL(&buf, log); err != nil {
		t.Fatal(err)
	}
	reloaded, err := ReadHFL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	live := core.EstimateHFL(log, 3, core.ResourceSaving, nil)
	offline := core.EstimateHFL(reloaded, 3, core.ResourceSaving, nil)
	for i := range live.Totals {
		if math.Abs(live.Totals[i]-offline.Totals[i]) > 1e-15 {
			t.Fatal("offline estimate differs from live estimate")
		}
	}
}

func TestVFLRoundTrip(t *testing.T) {
	log, blocks := vflLog(t)
	var buf bytes.Buffer
	if err := WriteVFL(&buf, log); err != nil {
		t.Fatal(err)
	}
	got, err := ReadVFL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	live := core.EstimateVFL(log, blocks, core.ResourceSaving, nil)
	offline := core.EstimateVFL(got, blocks, core.ResourceSaving, nil)
	for i := range live.Totals {
		if live.Totals[i] != offline.Totals[i] {
			t.Fatal("offline VFL estimate differs")
		}
	}
}

func TestErrors(t *testing.T) {
	log := hflLog(t)
	vlog, _ := vflLog(t)

	if err := WriteHFL(&bytes.Buffer{}, nil); err == nil {
		t.Fatal("empty HFL log must error")
	}
	if err := WriteVFL(&bytes.Buffer{}, nil); err == nil {
		t.Fatal("empty VFL log must error")
	}
	// Wrong format header.
	var hbuf, vbuf bytes.Buffer
	if err := WriteHFL(&hbuf, log); err != nil {
		t.Fatal(err)
	}
	if err := WriteVFL(&vbuf, vlog); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadVFL(bytes.NewReader(hbuf.Bytes())); err == nil {
		t.Fatal("reading HFL file as VFL must error")
	}
	if _, err := ReadHFL(bytes.NewReader(vbuf.Bytes())); err == nil {
		t.Fatal("reading VFL file as HFL must error")
	}
	// Garbage.
	if _, err := ReadHFL(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage must error")
	}
	// Header only, no epochs.
	recs := records(t, hbuf.Bytes())
	if _, err := ReadHFL(bytes.NewReader(recs[0])); err == nil {
		t.Fatal("epoch-less log must error")
	}
	// Truncated epoch record.
	full := hbuf.Bytes()
	if _, err := ReadHFL(bytes.NewReader(full[:len(full)-20])); err == nil {
		t.Fatal("truncated log must error")
	}
	// Out-of-order epochs.
	reordered := hflLog(t)
	reordered[1].T = 99
	var obuf bytes.Buffer
	if err := WriteHFL(&obuf, reordered); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadHFL(&obuf); err == nil {
		t.Fatal("out-of-order epochs must error")
	}
	// Shape drift across epochs.
	drift := hflLog(t)
	drift[2].Deltas = drift[2].Deltas[:1]
	if err := WriteHFL(&bytes.Buffer{}, drift); err == nil {
		t.Fatal("shape drift must error on write")
	}
	// Unsupported version, behind a valid checksum.
	bad := bytes.Clone(recs[0])
	binary.LittleEndian.PutUint32(bad[8:], 9)
	if _, err := ReadHFL(bytes.NewReader(append(reseal(bad), full[len(recs[0]):]...))); err == nil {
		t.Fatal("future version must error")
	}
}
