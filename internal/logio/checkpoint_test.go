package logio

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"digfl/internal/core"
	"digfl/internal/dataset"
	"digfl/internal/faults"
	"digfl/internal/hfl"
	"digfl/internal/nn"
	"digfl/internal/tensor"
	"digfl/internal/vfl"
)

// faultedHFLCheckpoint trains under dropout with checkpointing and captures
// the last checkpoint together with the online estimator's state.
func faultedHFLCheckpoint(t *testing.T) (*HFLCheckpoint, int) {
	t.Helper()
	log := hflLog(t)
	n, p := len(log[0].Deltas), len(log[0].Theta)
	est := core.NewHFLEstimator(n, p, core.ResourceSaving, nil)
	for _, ep := range log {
		est.Observe(ep)
	}
	ck := &HFLCheckpoint{
		Trainer: hfl.Checkpoint{
			Epoch:        len(log),
			Theta:        log[len(log)-1].Theta,
			ValLossCurve: make([]float64, len(log)+1),
			Log:          log,
		},
		Estimator: est.State(),
	}
	for i := range ck.Trainer.ValLossCurve {
		ck.Trainer.ValLossCurve[i] = 1 / float64(i+1)
	}
	return ck, p
}

func TestHFLCheckpointRoundTrip(t *testing.T) {
	ck, p := faultedHFLCheckpoint(t)
	var buf bytes.Buffer
	if err := WriteHFLCheckpoint(&buf, ck); err != nil {
		t.Fatal(err)
	}
	got, err := ReadHFLCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ck) {
		t.Fatal("HFL checkpoint round trip is not bit-exact")
	}
	// The restored estimator state must reinstall cleanly and continue.
	n := len(ck.Estimator.Totals)
	est := core.NewHFLEstimator(n, p, core.ResourceSaving, nil)
	if err := est.SetState(got.Estimator); err != nil {
		t.Fatalf("restored state rejected: %v", err)
	}
	if !reflect.DeepEqual(est.Attribution().Totals, ck.Estimator.Totals) {
		t.Fatal("restored attribution differs")
	}
}

func TestHFLCheckpointRoundTripNonFinite(t *testing.T) {
	ck, _ := faultedHFLCheckpoint(t)
	// A diverged run: poison model, curve, estimator state and one delta.
	ck.Trainer.Theta[0] = math.NaN()
	ck.Trainer.Theta[1] = math.Inf(1)
	ck.Trainer.ValLossCurve[0] = math.Inf(-1)
	ck.Estimator.Totals[0] = math.NaN()
	ck.Estimator.PerEpoch[0][1] = math.Inf(1)
	ck.Trainer.Log[0].Deltas[0][0] = math.NaN()
	ck.Trainer.Log[0].Theta[0] = math.NaN()
	ck.Trainer.Log[1].ValGrad[0] = math.Float64frombits(0xfff0_0000_0000_0abc) // a signalling NaN's payload
	ck.Trainer.ValLossCurve[1] = math.Copysign(0, -1)

	var buf bytes.Buffer
	if err := WriteHFLCheckpoint(&buf, ck); err != nil {
		t.Fatal(err)
	}
	got, err := ReadHFLCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(got, ck) {
		t.Fatal("a non-finite float lost bits in the checkpoint round trip")
	}
	if !math.IsNaN(got.Trainer.Theta[0]) || !math.IsInf(got.Trainer.Theta[1], 1) {
		t.Fatal("theta non-finite values lost")
	}
	if !math.IsInf(got.Trainer.ValLossCurve[0], -1) {
		t.Fatal("curve non-finite value lost")
	}
	if !math.IsNaN(got.Estimator.Totals[0]) || !math.IsInf(got.Estimator.PerEpoch[0][1], 1) {
		t.Fatal("estimator non-finite values lost")
	}
	if !math.IsNaN(got.Trainer.Log[0].Deltas[0][0]) {
		t.Fatal("log delta non-finite value lost")
	}
}

func TestHFLCheckpointInteractiveState(t *testing.T) {
	ck, p := faultedHFLCheckpoint(t)
	n := len(ck.Estimator.Totals)
	// Hand-build an Interactive-shaped state (with a ΔG-sum) and round-trip.
	ck.Estimator.DeltaGSum = make([][]float64, n)
	for i := range ck.Estimator.DeltaGSum {
		ck.Estimator.DeltaGSum[i] = make([]float64, p)
		ck.Estimator.DeltaGSum[i][0] = float64(i) + 0.5
	}
	var buf bytes.Buffer
	if err := WriteHFLCheckpoint(&buf, ck); err != nil {
		t.Fatal(err)
	}
	got, err := ReadHFLCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Estimator.DeltaGSum, ck.Estimator.DeltaGSum) {
		t.Fatal("ΔG-sum round trip lost data")
	}
}

func TestVFLCheckpointRoundTrip(t *testing.T) {
	log, blocks := vflLog(t)
	p := len(log[0].Theta)
	est := core.NewVFLEstimator(blocks, p, core.ResourceSaving, nil)
	for _, ep := range log {
		est.Observe(ep)
	}
	curve := make([]float64, len(log)+1)
	for i := range curve {
		curve[i] = float64(i)
	}
	ck := &VFLCheckpoint{
		Trainer: vfl.Checkpoint{
			Epoch: len(log), Theta: log[len(log)-1].Theta,
			ValLossCurve: curve, Log: log,
		},
		Estimator: est.State(),
	}
	var buf bytes.Buffer
	if err := WriteVFLCheckpoint(&buf, ck); err != nil {
		t.Fatal(err)
	}
	got, err := ReadVFLCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ck) {
		t.Fatal("VFL checkpoint round trip is not bit-exact")
	}
}

func TestCheckpointWithoutEstimator(t *testing.T) {
	ck, _ := faultedHFLCheckpoint(t)
	ck.Estimator = nil
	ck.Trainer.Log = nil // KeepLog off
	var buf bytes.Buffer
	if err := WriteHFLCheckpoint(&buf, ck); err != nil {
		t.Fatal(err)
	}
	got, err := ReadHFLCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Estimator != nil || got.Trainer.Log != nil {
		t.Fatal("absent estimator/log should read back absent")
	}
	if !reflect.DeepEqual(got.Trainer.Theta, ck.Trainer.Theta) {
		t.Fatal("theta lost")
	}
}

func TestCheckpointValidation(t *testing.T) {
	ck, _ := faultedHFLCheckpoint(t)
	var buf bytes.Buffer
	if err := WriteHFLCheckpoint(&buf, ck); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadVFLCheckpoint(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("VFL reader accepted an HFL checkpoint")
	}
	bad := *ck
	bad.Trainer.Epoch = 0
	if err := WriteHFLCheckpoint(&bytes.Buffer{}, &bad); err == nil {
		t.Fatal("epoch-0 checkpoint accepted")
	}
	bad = *ck
	bad.Trainer.ValLossCurve = bad.Trainer.ValLossCurve[:1]
	if err := WriteHFLCheckpoint(&bytes.Buffer{}, &bad); err == nil {
		t.Fatal("truncated curve accepted")
	}
}

// Degraded epochs — including an all-dropped one — survive the log and
// checkpoint round trips, and fault-free logs stay byte-identical to logs
// written before the Reported field existed.
func TestReportedRoundTrip(t *testing.T) {
	log := hflLog(t)
	// Make epoch 2 degraded (survivors 0 and 2) and epoch 3 all-dropped.
	log[1].Deltas = [][]float64{log[1].Deltas[0], log[1].Deltas[2]}
	log[1].Reported = []int{0, 2}
	log[2].Deltas = nil
	log[2].Reported = []int{}

	var buf bytes.Buffer
	if err := WriteHFL(&buf, log); err != nil {
		t.Fatal(err)
	}
	got, err := ReadHFL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Reported != nil {
		t.Fatal("full epoch gained a Reported list")
	}
	if !reflect.DeepEqual(got[1].Reported, []int{0, 2}) {
		t.Fatalf("survivor list lost: %v", got[1].Reported)
	}
	if got[2].Reported == nil || len(got[2].Reported) != 0 {
		t.Fatalf("all-dropped epoch must read back as empty non-nil, got %v", got[2].Reported)
	}
	if len(got[1].Deltas) != 2 || len(got[2].Deltas) != 0 {
		t.Fatal("survivor delta counts lost")
	}

	// A fault-free epoch record carries no Reported list: flags and r are 0.
	clean := hflLog(t)
	var cleanBuf bytes.Buffer
	if err := WriteHFL(&cleanBuf, clean); err != nil {
		t.Fatal(err)
	}
	for i, rec := range records(t, cleanBuf.Bytes())[1:] {
		flags, r := binary.LittleEndian.Uint32(rec[8+20:]), binary.LittleEndian.Uint32(rec[8+28:])
		if flags&hasReported != 0 || r != 0 {
			t.Fatalf("fault-free epoch %d serializes a Reported list (flags %#x, r=%d)", i+1, flags, r)
		}
	}
}

func TestReportedRejectsOutOfRange(t *testing.T) {
	log := hflLog(t)
	log[1].Deltas = log[1].Deltas[:1]
	log[1].Reported = []int{7} // only 3 parties exist in epoch 1's full record
	var buf bytes.Buffer
	err := WriteHFL(&buf, log)
	if err == nil {
		t.Fatal("out-of-range survivor index accepted")
	}
}

// A degraded VFL log round-trips its Reported lists too.
func TestVFLReportedRoundTrip(t *testing.T) {
	log, _ := vflLog(t)
	log[1].Reported = []int{1, 2}
	var buf bytes.Buffer
	if err := WriteVFL(&buf, log); err != nil {
		t.Fatal(err)
	}
	got, err := ReadVFL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got[1].Reported, []int{1, 2}) || got[0].Reported != nil {
		t.Fatal("VFL Reported round trip failed")
	}
}

// Training under real injected dropout, checkpointing through the real
// serializer, must resume bit-identically — the end-to-end wiring of
// trainer, estimator, and file format.
func TestCheckpointFileResume(t *testing.T) {
	newTrainer := func() *hfl.Trainer {
		rng := tensor.NewRNG(3)
		full := dataset.MNISTLike(300, 3)
		train, val := full.Split(0.2, rng)
		return &hfl.Trainer{
			Model: nn.NewSoftmaxRegression(train.Dim(), train.Classes),
			Parts: dataset.PartitionIID(train, 3, rng),
			Val:   val,
			Cfg:   hfl.Config{Epochs: 8, LR: 0.3, KeepLog: true},
		}
	}
	fcfg := faults.Config{Seed: 4, Dropout: 0.3, CrashEpoch: 5}

	ref := newTrainer()
	ref.Cfg.Faults = faults.MustNew(fcfg).WithoutCrash()
	want, err := ref.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	var file bytes.Buffer
	crash := newTrainer()
	crash.Cfg.Faults = faults.MustNew(fcfg)
	crash.Cfg.CheckpointEvery = 2
	crash.Cfg.CheckpointFunc = func(ck *hfl.Checkpoint) error {
		file.Reset()
		return WriteHFLCheckpoint(&file, &HFLCheckpoint{Trainer: *ck})
	}
	if _, err := crash.RunContext(context.Background()); err == nil {
		t.Fatal("expected injected crash")
	}

	restored, err := ReadHFLCheckpoint(&file)
	if err != nil {
		t.Fatal(err)
	}
	resume := newTrainer()
	resume.Cfg.Faults = faults.MustNew(fcfg).WithoutCrash()
	resume.Cfg.Resume = &restored.Trainer
	got, err := resume.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Model.Params(), got.Model.Params()) {
		t.Fatal("file-mediated resume is not bit-identical")
	}
	if !reflect.DeepEqual(want.ValLossCurve, got.ValLossCurve) {
		t.Fatal("file-mediated resume changed the loss curve")
	}
	if len(want.Log) != len(got.Log) {
		t.Fatalf("log lengths differ: %d vs %d", len(want.Log), len(got.Log))
	}
	for i := range want.Log {
		if !reflect.DeepEqual(want.Log[i], got.Log[i]) {
			t.Fatalf("log epoch %d differs after file-mediated resume", i+1)
		}
	}
}

// A checkpoint cut at any record boundary is refused, not read as a shorter
// one: right after its meta record a KeepLog checkpoint would otherwise
// read back with no log, and a resume would rebuild the log from epoch e+1.
// An epoch record appended to a checkpoint that kept no log is refused too.
func TestCheckpointCutAtRecordBoundaryRefused(t *testing.T) {
	ck, _ := faultedHFLCheckpoint(t)
	var buf bytes.Buffer
	if err := WriteHFLCheckpoint(&buf, ck); err != nil {
		t.Fatal(err)
	}
	file := buf.Bytes()
	recs := records(t, file)
	if len(recs) != 2+len(ck.Trainer.Log) {
		t.Fatalf("checkpoint of %d log epochs has %d records", len(ck.Trainer.Log), len(recs))
	}
	cut := 0
	for i, rec := range recs[:len(recs)-1] {
		cut += len(rec)
		if got, err := ReadHFLCheckpoint(bytes.NewReader(file[:cut])); err == nil {
			t.Errorf("checkpoint cut after record %d read back with %d log epochs", i, len(got.Trainer.Log))
		}
	}
	if _, err := ReadHFLCheckpoint(bytes.NewReader(file)); err != nil {
		t.Fatalf("whole checkpoint refused: %v", err)
	}

	noLog := *ck
	noLog.Trainer.Log = nil
	buf.Reset()
	if err := WriteHFLCheckpoint(&buf, &noLog); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadHFLCheckpoint(bytes.NewReader(buf.Bytes())); err != nil || got.Trainer.Log != nil {
		t.Fatalf("checkpoint without a log read back as %v, %v", got, err)
	}
	buf.Write(recs[2])
	if _, err := ReadHFLCheckpoint(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("checkpoint that kept no log read back with an appended epoch record")
	}
}
