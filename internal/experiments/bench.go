package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// BenchFormat and BenchVersion identify the digfl-bench -json schema. v2
// wraps the records in a versioned envelope and appends runs instead of
// overwriting them, so one BENCH_*.json accumulates the perf trajectory
// across PRs; v1 files (a bare record array) are still readable and are
// upgraded in place on the first append.
const (
	BenchFormat  = "digfl-bench"
	BenchVersion = 2
)

// BenchEntry is one machine-readable benchmark record. The core timing
// fields are filled for every experiment; the wire fields (Codec,
// BytesOnWire, AllocsPerRound) and the load fields (Clients, Requests) are
// filled by the runners that measure them and omitted otherwise.
type BenchEntry struct {
	Exp    string  `json:"exp"`
	WallMS float64 `json:"wall_ms"`
	// Epochs counts the training epochs the experiment ran (across every
	// run it performed).
	Epochs int64 `json:"epochs"`
	// RoundP50MS/RoundP99MS summarize per-round latency: epoch durations
	// for in-process runs plus closed-round durations for networked ones.
	RoundP50MS float64 `json:"round_p50_ms"`
	RoundP99MS float64 `json:"round_p99_ms"`
	Rounds     int     `json:"rounds"`
	// Codec names the wire encoding a wire-benchmark entry measured:
	// digfl-fednet/2 today; BENCH_7…10 also hold digfl-fednet/1 (JSON bulk
	// path, since deleted) entries.
	Codec string `json:"codec,omitempty"`
	// BytesOnWire totals request+response bytes over the measured rounds.
	BytesOnWire int64 `json:"bytes_on_wire,omitempty"`
	// BytesJournaled totals coordinator write-ahead-log bytes over the
	// measured rounds (the chaos benchmark's WAL-on entry).
	BytesJournaled int64 `json:"bytes_journaled,omitempty"`
	// AllocsPerRound is the heap-allocation count per round, pools warm.
	AllocsPerRound float64 `json:"allocs_per_round,omitempty"`
	// Clients/Requests describe a load-test entry's concurrency and volume.
	Clients  int   `json:"clients,omitempty"`
	Requests int64 `json:"requests,omitempty"`
	// Engine names the contribution engine an engine-matrix entry
	// measured; UtilityEvals counts its distinct validation-loss
	// evaluations and KendallTau its rank agreement with exact Shapley.
	Engine       string  `json:"engine,omitempty"`
	UtilityEvals int64   `json:"utility_evals,omitempty"`
	KendallTau   float64 `json:"kendall_tau,omitempty"`
	// Arm identifies an async-topology entry's (mode, straggler-rate)
	// cell, e.g. "async-fold/r0.4"; EpochsToTarget is the first epoch
	// that arm's validation loss reached the no-fault reference target
	// (0 = never).
	Arm            string `json:"arm,omitempty"`
	EpochsToTarget int    `json:"epochs_to_target,omitempty"`
}

// BenchFile is the versioned on-disk form of digfl-bench -json output.
type BenchFile struct {
	Format  string       `json:"format"`
	Version int          `json:"version"`
	Entries []BenchEntry `json:"entries"`
}

// ReadBench parses either schema: a v2 envelope, or a v1 bare record array
// (upgraded to a v2 file in memory). An empty input is an empty v2 file.
func ReadBench(data []byte) (*BenchFile, error) {
	f := &BenchFile{Format: BenchFormat, Version: BenchVersion}
	trimmed := bytes.TrimSpace(data)
	if len(trimmed) == 0 {
		return f, nil
	}
	if trimmed[0] == '[' {
		if err := json.Unmarshal(trimmed, &f.Entries); err != nil {
			return nil, fmt.Errorf("experiments: bench v1 records: %w", err)
		}
		return f, nil
	}
	if err := json.Unmarshal(trimmed, f); err != nil {
		return nil, fmt.Errorf("experiments: bench file: %w", err)
	}
	if f.Format != BenchFormat {
		return nil, fmt.Errorf("experiments: bench file format %q, want %q", f.Format, BenchFormat)
	}
	if f.Version < 1 || f.Version > BenchVersion {
		return nil, fmt.Errorf("experiments: bench file version %d unsupported (max %d)", f.Version, BenchVersion)
	}
	f.Version = BenchVersion
	return f, nil
}

// Append adds this run's entries to the file.
func (f *BenchFile) Append(entries ...BenchEntry) {
	f.Entries = append(f.Entries, entries...)
}

// Marshal renders the file in the current (v2) schema.
func (f *BenchFile) Marshal() ([]byte, error) {
	f.Format, f.Version = BenchFormat, BenchVersion
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
