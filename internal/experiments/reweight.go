package experiments

import (
	"fmt"
	"io"

	"digfl/internal/core"
	"digfl/internal/dataset"
	"digfl/internal/hfl"
	"digfl/internal/nn"
	"digfl/internal/plot"
	"digfl/internal/tensor"
)

// ReweightPoint is one (m, accuracy) measurement of Fig. 7 panels (a)/(c).
type ReweightPoint struct {
	M          int
	PlainAcc   float64
	ReweighAcc float64
}

// ReweightCurves holds the accuracy-vs-epoch curves of panels (b)/(d) at the
// heaviest corruption level.
type ReweightCurves struct {
	M        int
	Plain    []float64
	Reweight []float64
}

// ReweightResult aggregates the Fig. 7 reproduction for one dataset.
type ReweightResult struct {
	Dataset    string
	Corruption Corruption
	Points     []ReweightPoint
	Curves     ReweightCurves
}

// Reweight reproduces Fig. 7 for one dataset: final accuracy as the number
// of low-quality participants m grows (FedSGD baseline vs DIG-FL reweight),
// plus the convergence curves at the heaviest m.
func Reweight(name string, corruption Corruption, o Opts) *ReweightResult {
	o.validate()
	res := &ReweightResult{Dataset: name, Corruption: corruption}
	const n = 5
	for m := 0; m <= n-1; m++ {
		s := HFLSetting{
			Dataset: name, N: n, M: m, Corruption: corruption, MislabelFrac: 0.9,
			// Extra pixel noise makes the task hard enough that corrupted
			// gradients genuinely slow convergence — the regime Fig. 7 studies.
			NoiseBoost: 0.6,
			Samples:    o.samples(2500), Epochs: o.epochs(25), LR: 0.3,
			Seed: o.Seed + int64(m), Sink: o.Sink,
		}
		if corruption == NonIID {
			// Non-IID damage only appears with deep local training, extreme
			// class restriction (client drift, Sec. V-E), and a dataset
			// small/noisy enough that drift is not averaged away.
			s.LocalSteps = 5
			s.MaxClasses = 2
			s.LR = 0.5
			s.NoiseBoost = 0.9
			s.Samples = o.samples(1200)
		}
		plainCurve := accuracyCurve(BuildHFL(s), nil)
		rwCurve := accuracyCurve(BuildHFL(s), &core.HFLReweighter{})
		res.Points = append(res.Points, ReweightPoint{
			M:          m,
			PlainAcc:   plainCurve[len(plainCurve)-1],
			ReweighAcc: rwCurve[len(rwCurve)-1],
		})
		if m == n-1 {
			res.Curves = ReweightCurves{M: m, Plain: plainCurve, Reweight: rwCurve}
		}
	}
	return res
}

// accuracyCurve trains with the given reweighter and returns the validation
// accuracy of θ_t for t = 0..epochs.
func accuracyCurve(tr *hfl.Trainer, rw hfl.Reweighter) []float64 {
	tr.Reweighter = rw
	tr.Cfg.KeepLog = false
	eval := tr.Model.Clone()
	classifier := eval.(nn.Classifier)
	acc := func(theta []float64) float64 {
		eval.SetParams(theta)
		hits := 0
		pred := classifier.Predict(tr.Val.X)
		for i, p := range pred {
			if p == int(tr.Val.Y[i]) {
				hits++
			}
		}
		return float64(hits) / float64(tr.Val.Len())
	}
	curve := []float64{acc(tr.Model.Params())}
	tr.Observer = func(ep *hfl.Epoch) {
		// θ_{t-1} is observed at round t; append it from round 2 on so the
		// final model is appended after the run.
		if ep.T > 1 {
			curve = append(curve, acc(ep.Theta))
		}
	}
	res := tr.Run()
	curve = append(curve, acc(res.Model.Params()))
	return curve
}

// mislabelPart corrupts one participant's labels with a fixed seed (helper
// shared with the Fig. 6 runner).
func mislabelPart(d dataset.Dataset, frac float64, seed int64) dataset.Dataset {
	return dataset.Mislabel(d, frac, tensor.NewRNG(seed))
}

// Render writes the Fig. 7 panels.
func (r *ReweightResult) Render(w io.Writer) {
	writeHeader(w, fmt.Sprintf("Fig. 7 — reweight mechanism on %s (%s)", r.Dataset, r.Corruption))
	fmt.Fprintf(w, "%3s %12s %12s\n", "m", "FedSGD", "DIG-FL rw")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%3d %12.3f %12.3f\n", p.M, p.PlainAcc, p.ReweighAcc)
	}
	fmt.Fprintf(w, "convergence at m=%d:\n  plain:    ", r.Curves.M)
	for _, v := range r.Curves.Plain {
		fmt.Fprintf(w, "%6.3f", v)
	}
	fmt.Fprintf(w, "\n  reweight: ")
	for _, v := range r.Curves.Reweight {
		fmt.Fprintf(w, "%6.3f", v)
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, plot.Chart(
		fmt.Sprintf("validation accuracy vs epoch (m=%d)", r.Curves.M), 60, 10,
		plot.Series{Name: "FedSGD", Values: r.Curves.Plain},
		plot.Series{Name: "DIG-FL reweight", Values: r.Curves.Reweight},
	))
}
