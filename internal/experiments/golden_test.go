package experiments

import (
	"slices"
	"strings"
	"testing"
)

// The goldens below are each runtime study's results as the parent of the
// federation-builder refactor printed them (commit 8bbf457, QuickOpts; the
// wire gate at its own Opts{Scale: 0.02, Seed: 7}). Every value that is a
// pure function of Opts is pinned — φ totals, losses, epochs-to-target, τ,
// utility-evaluation counts, restart and fold counts, journal bytes,
// bit-identity flags — so a change to how a study builds its federation,
// attaches its estimator or compares its runs fails here. A value that
// depends on the wall clock or on goroutine scheduling (the chaos harness's
// rejoins, the wire gate's allocations, an engine's wall time) is zeroed or
// left out by its test. The struct goldens hold their floats as the
// shortest decimals that print them, so they compare bit for bit; the row
// goldens hold theirs at eight significant digits (f). The adversarial
// goldens were printed again when the buffered aggregate took the fold's
// order (sum, then one scale by 1/Σ r), and again when the reweighted
// aggregate took its canonical form (weights w_k = ∇loss^v·δ_k without φ̂'s
// 1/|S|, held slots summed last; |S| = 10 is not a power of two): their
// losses and φ moved in the last digits.

// checkGoldenRows compares a study's rows, formatted by its test, with
// their golden.
func checkGoldenRows(t *testing.T, study string, got, want []string) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Errorf("%s differs from its golden:\n%s\nwant:\n%s", study, strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

var goldenNet = netResult{
	participants: 3, epochs: 5, rounds: 5, requests: 36, timeouts: 0, bitIdentical: true,
	totals: []float64{0.8476104501009396, 0.9246641757871051, 0.8421218830440486},
}

var goldenChaos = chaosResult{
	epochs: 5, restarts: 6, asyncRestarts: 6,
	walTransparent: true, crashIdentical: true, asyncIdentical: true,
	recoveries: 12, asyncStaleFolds: 15, walBytes: 394644,
}

var goldenFaults = faultTolResult{
	epochs: 5, crashEpoch: 3, every: 2, resumedFrom: 2,
	dropouts: 5, stragglers: 4, degraded: 4, checkpoints: 1,
	resumeIdentical: true, deterministic: true, secureRetries: 1, secureTransparent: true,
	totals: []float64{0.24973720490267698, 0.5562539637928475, 0.6736676519614585, 0.6448036166623353, 0.507598442637201},
}

// goldenAsync holds the rows rate,mode,epochs_to_target,final_loss,
// async_commits,stale_folds,stale_rejects.
var goldenAsync = []string{
	"0,sync-drop,5,0.049476875,0,0,0",
	"0,async-fold,5,0.049476875,15,0,0",
	"0.2,sync-drop,5,0.049476875,0,0,0",
	"0.2,async-fold,5,0.049476875,15,0,0",
	"0.4,sync-drop,0,0.44504777,0,0,0",
	"0.4,async-fold,8,0.064169782,15,7,0",
}

// goldenEngines holds the rows engine,kendall_tau,pearson,utility_evals.
var goldenEngines = []string{
	"dpvs,0.92857143,0.98668609,540",
	"exact,1,1,1280",
	"gt,0.14285714,0.61540318,144",
	"gtg,0.92857143,0.9925253,453",
	"tmc,0.92857143,0.99349321,675",
}

var goldenWire = wireResult{
	wireProblem:  wireProblem{pop: 2000, cohort: 64, epochs: 4, dim: 128, seed: 7},
	bytes:        541184,
	controlBytes: 4608,
	frames:       512,
	bitIdentical: true,
}

// goldenAdversarial is indexed by seed − 1 (seeds 1, 2, 3).
var goldenAdversarial = []advResult{
	{
		epochs: 5, attackers: []int{0, 1, 2},
		cleanLoss: 0.1563669388837278, undefendedLoss: 4.57342267680852, defendedLoss: 0.15954558164041213,
		undefendedRatio: 29.24801565764008, defendedRatio: 1.0203280999127822,
		attacksInjected: 15, updatesRejected: 0, updatesClipped: 0, quarantined: []int{0, 1, 2},
		totals:     []float64{-0.8148930671563247, -0.7808494116223303, -0.7934520209033493, 0.2920949720533604, 0.26604413194032644, 0.253411156118902, 0.27718500973887544, 0.26435887352342435, 0.2510303218151943, 0.24163086313835905},
		rankedLast: true, bitIdenticalNoAttack: true,
	},
	{
		epochs: 5, attackers: []int{0, 1, 2},
		cleanLoss: 0.14825828784494197, undefendedLoss: 4.523117657416474, defendedLoss: 0.156507340829196,
		undefendedRatio: 30.50836296010002, defendedRatio: 1.0556397426691009,
		attacksInjected: 15, updatesRejected: 0, updatesClipped: 0, quarantined: []int{0, 1, 2},
		totals:     []float64{-0.7978168756031597, -0.8651599762519594, -0.82446606177331, 0.3009016224379665, 0.23578172290914198, 0.2634844498864919, 0.2723790923229329, 0.2359092522507914, 0.2709979411861725, 0.3001293285652631},
		rankedLast: true, bitIdenticalNoAttack: true,
	},
	{
		epochs: 5, attackers: []int{0, 1, 2},
		cleanLoss: 0.12503335116368772, undefendedLoss: 4.872334330903086, defendedLoss: 0.12993013116169885,
		undefendedRatio: 38.968277547999634, defendedRatio: 1.0391637907201297,
		attacksInjected: 15, updatesRejected: 0, updatesClipped: 1, quarantined: []int{0, 1, 2},
		totals:     []float64{-0.9385443901975226, -0.7576554041340251, -0.8438126018713493, 0.2733009937309209, 0.3145543191683715, 0.24522271602095164, 0.2742116846712355, 0.24179810221842196, 0.2588670508499268, 0.2738279350388465},
		rankedLast: true, bitIdenticalNoAttack: true,
	},
}

// goldenVolatility is indexed by seed − 1 (seeds 1, 2, 3). Its rows are
// engine,seeds,min_tau,mean_tau,max_tau,patterns,part_min_tau,part_mean_tau,
// part_max_tau,async_tau_k2,async_tau_k4,async_tau_k8.
var goldenVolatility = [][]string{
	{
		"dpvs,4,0.92857143,0.96428571,1,3,0.71428571,0.80952381,0.85714286,0.40006613,0.57142857,0.57142857",
		"exact,4,1,1,1,3,0.85714286,0.9047619,0.92857143,0.40006613,0.64285714,0.57142857",
		"gt,4,0.42857143,0.64285714,0.85714286,3,0.35714286,0.57142857,0.78571429,0.036369648,0,-0.14285714",
		"gtg,4,0.78571429,0.88095238,0.92857143,3,0.78571429,0.80952381,0.85714286,0.25458754,0.64285714,0.57142857",
		"tmc,4,0.92857143,0.96428571,1,3,0.71428571,0.80952381,0.85714286,0.40006613,0.64285714,0.57142857",
	},
	{
		"dpvs,4,1,1,1,3,0.92857143,0.95238095,1,0.25458754,0.64285714,0.71428571",
		"exact,4,1,1,1,3,0.85714286,0.9047619,0.92857143,0.47280543,0.64285714,0.71428571",
		"gt,4,0.57142857,0.6547619,0.78571429,3,0.28571429,0.52380952,0.92857143,0.18184824,0.42857143,0.57142857",
		"gtg,4,0.92857143,0.96428571,1,3,0.85714286,0.9047619,0.92857143,0.25458754,0.57142857,0.71428571",
		"tmc,4,1,1,1,3,0.92857143,0.95238095,1,0.32732684,0.5,0.85714286",
	},
	{
		"dpvs,4,0.92857143,0.96428571,1,3,0.92857143,0.95238095,1,0.61828402,0.85714286,0.92857143",
		"exact,4,1,1,1,3,0.92857143,0.95238095,1,0.61828402,0.85714286,0.85714286",
		"gt,4,0.28571429,0.48809524,0.71428571,3,0.42857143,0.52380952,0.64285714,0.18184824,0.21428571,0.35714286",
		"gtg,4,0.85714286,0.92857143,1,3,0.85714286,0.9047619,0.92857143,0.54554473,1,0.92857143",
		"tmc,4,1,1,1,3,0.85714286,0.9047619,0.92857143,0.69102332,0.85714286,0.85714286",
	},
}
