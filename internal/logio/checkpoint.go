package logio

import (
	"fmt"
	"io"

	"digfl/internal/core"
	"digfl/internal/framing"
	"digfl/internal/hfl"
	"digfl/internal/vfl"
)

// Checkpoint files make crash/resume durable: a trainer configured with
// Config.CheckpointEvery hands periodic snapshots to Config.CheckpointFunc,
// which typically serializes them here; after a crash the snapshot is read
// back and handed to Config.Resume (plus Estimator into
// core.{HFL,VFL}Estimator.SetState), and the resumed run is bit-identical
// to one that never stopped.
//
// A checkpoint is the log's header, a meta record, then the retained log's
// l epoch records (l = 0 or e). With p = params, e = epoch, n participants:
//
//	meta  u32 e | u32 flags | u32 lastEpoch | u32 n | u32 rows | u32 l |
//	      p×f64 θ | (e+1)×f64 loss curve | [rows·n×f64 φ per epoch |
//	      n×f64 φ totals | [n·p×f64 ΔG-sums]]
//
// Flag 1 marks the estimator state, flag 2 its ΔG-sums (Interactive mode).
// A file cut at a record boundary holds other than l epoch records: refused.

const (
	formatHFLCkpt = "digfl-hfl-ckpt"
	formatVFLCkpt = "digfl-vfl-ckpt"
	metaHdrLen    = 6 * 4
	hasEstimator  = 1 << 0 // meta flags
	hasDeltaG     = 1 << 1
)

// HFLCheckpoint bundles everything needed to resume an HFL run: the
// trainer snapshot and, when contribution evaluation runs online alongside
// training, the estimator state (nil when there is no online estimator).
type HFLCheckpoint struct {
	Trainer   hfl.Checkpoint
	Estimator *core.EstimatorState
}

// VFLCheckpoint is the VFL counterpart of HFLCheckpoint.
type VFLCheckpoint struct {
	Trainer   vfl.Checkpoint
	Estimator *core.EstimatorState
}

// ckptMeta is a checkpoint's meta record: the trainer snapshot minus the
// retained log, whose epochs follow as records of their own.
type ckptMeta struct {
	Epoch        int
	Theta, Curve []float64
	Est          *core.EstimatorState
	LogLen       int
}

func checkCkptMeta(m *ckptMeta, logLen int) error {
	ok := m.Epoch >= 1 && len(m.Theta) > 0 && len(m.Curve) == m.Epoch+1 && (m.LogLen == 0 || m.LogLen == m.Epoch) &&
		logLen == m.LogLen
	if s := m.Est; s != nil {
		ok = ok && s.LastEpoch >= 0 && (s.DeltaGSum == nil || len(s.DeltaGSum) == len(s.Totals))
		for _, row := range s.PerEpoch {
			ok = ok && len(row) == len(s.Totals)
		}
		for _, row := range s.DeltaGSum {
			ok = ok && len(row) == len(m.Theta)
		}
	}
	if !ok {
		return fmt.Errorf("logio: checkpoint at epoch %d (want ≥ 1) has %d params, %d loss-curve points (want epoch+1) "+
			"and %d log epochs of %d declared (want 0 or epoch), or an estimator state not of n participants over the params",
			m.Epoch, len(m.Theta), len(m.Curve), logLen, m.LogLen)
	}
	return nil
}

// metaSize is the meta record's payload length for p params, e epochs, n
// participants and rows per-epoch rows.
func metaSize(flags int, p, e, n, rows uint64) uint64 {
	size := metaHdrLen + 8*p + 8*(e+1)
	if flags&hasEstimator != 0 {
		size += 8 * (rows*n + n)
	}
	if flags&hasDeltaG != 0 {
		size += 8 * n * p
	}
	return size
}

// writeCheckpoint writes a checkpoint: header, meta, then log's epochs.
func writeCheckpoint[E any](w io.Writer, h header, m ckptMeta, log []E, encode func(io.Writer, E, header, int) error) error {
	m.LogLen = len(log)
	if err := checkCkptMeta(&m, len(log)); err != nil {
		return err
	}
	flags, last, n, rows := 0, 0, 0, 0
	if s := m.Est; s != nil {
		flags, last, n, rows = hasEstimator, s.LastEpoch, len(s.Totals), len(s.PerEpoch)
		if s.DeltaGSum != nil {
			flags |= hasDeltaG
		}
	}
	rec, c, err := newRecord(metaSize(flags, uint64(h.Params), uint64(m.Epoch), uint64(n), uint64(rows)))
	if err != nil {
		return fmt.Errorf("logio: checkpoint meta: %w", err)
	}
	for _, v := range [...]int{m.Epoch, flags, last, n, rows, m.LogLen} {
		c.PutU32(v)
	}
	c.PutVec(m.Theta)
	c.PutVec(m.Curve)
	if s := m.Est; s != nil {
		for _, row := range s.PerEpoch {
			c.PutVec(row)
		}
		c.PutVec(s.Totals)
		for _, row := range s.DeltaGSum {
			c.PutVec(row)
		}
	}
	return writeLog(w, h, rec, log, encode)
}

// readCheckpoint reads a checkpoint of the given format.
func readCheckpoint[E any](r io.Reader, format string, decode func([]byte, header, int) (E, error)) (*ckptMeta, []E, error) {
	var m *ckptMeta
	log, err := readLog(r, format, func(b []byte, p int) (err error) { m, err = readMeta(b, p); return err }, decode)
	if err == nil {
		err = checkCkptMeta(m, len(log))
	}
	return m, log, err
}

// readMeta decodes a meta record for p params.
func readMeta(b []byte, p int) (*ckptMeta, error) {
	if len(b) < metaHdrLen {
		return nil, fmt.Errorf("meta of %d bytes", len(b))
	}
	c := framing.Cursor(b)
	e, flags, last, n, rows, logLen := c.U32(), c.U32(), c.U32(), c.U32(), c.U32(), c.U32()
	m := &ckptMeta{Epoch: e, LogLen: logLen}
	est := flags&hasEstimator != 0
	if rest := uint64(len(c)) / 8; flags&^(hasEstimator|hasDeltaG) != 0 || !est && (flags != 0 || last|n|rows != 0) || min(last, logLen) < 0 ||
		uint64(m.Epoch) > rest || uint64(n) > rest || uint64(rows) > rest ||
		metaSize(flags, uint64(p), uint64(m.Epoch), uint64(n), uint64(rows)) != uint64(len(b)) {
		return nil, fmt.Errorf("malformed meta: %d bytes, flags %#x, epoch %d, n=%d rows=%d",
			len(b), flags, m.Epoch, n, rows)
	}
	m.Theta, m.Curve = c.Vec(p), c.Vec(m.Epoch+1)
	if est {
		m.Est = &core.EstimatorState{LastEpoch: last, PerEpoch: make([][]float64, rows)}
		for i := range m.Est.PerEpoch {
			m.Est.PerEpoch[i] = c.Vec(n)
		}
		m.Est.Totals = c.Vec(n)
		if flags&hasDeltaG != 0 {
			m.Est.DeltaGSum = make([][]float64, n)
			for i := range m.Est.DeltaGSum {
				m.Est.DeltaGSum[i] = c.Vec(p)
			}
		}
	}
	return m, nil
}

// WriteHFLCheckpoint serializes an HFL checkpoint.
func WriteHFLCheckpoint(w io.Writer, ck *HFLCheckpoint) error {
	tr := &ck.Trainer
	h := header{formatHFLCkpt, len(tr.Theta), hflParties(tr.Log)}
	return writeCheckpoint(w, h, ckptMeta{Epoch: tr.Epoch, Theta: tr.Theta, Curve: tr.ValLossCurve, Est: ck.Estimator},
		tr.Log, encodeHFL)
}

// ReadHFLCheckpoint deserializes an HFL checkpoint, validating shapes.
func ReadHFLCheckpoint(r io.Reader) (*HFLCheckpoint, error) {
	m, log, err := readCheckpoint(r, formatHFLCkpt, decodeHFL)
	if err != nil {
		return nil, err
	}
	return &HFLCheckpoint{Trainer: hfl.Checkpoint{Epoch: m.Epoch, Theta: m.Theta, ValLossCurve: m.Curve, Log: log},
		Estimator: m.Est}, nil
}

// WriteVFLCheckpoint serializes a VFL checkpoint.
func WriteVFLCheckpoint(w io.Writer, ck *VFLCheckpoint) error {
	tr := &ck.Trainer
	h := header{formatVFLCkpt, len(tr.Theta), 0}
	return writeCheckpoint(w, h, ckptMeta{Epoch: tr.Epoch, Theta: tr.Theta, Curve: tr.ValLossCurve, Est: ck.Estimator},
		tr.Log, encodeVFL)
}

// ReadVFLCheckpoint deserializes a VFL checkpoint, validating shapes.
func ReadVFLCheckpoint(r io.Reader) (*VFLCheckpoint, error) {
	m, log, err := readCheckpoint(r, formatVFLCkpt, decodeVFL)
	if err != nil {
		return nil, err
	}
	return &VFLCheckpoint{Trainer: vfl.Checkpoint{Epoch: m.Epoch, Theta: m.Theta, ValLossCurve: m.Curve, Log: log},
		Estimator: m.Est}, nil
}
