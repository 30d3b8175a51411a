package shapley

import (
	"math"
	"reflect"
	"testing"

	"digfl/internal/hfl"
	"digfl/internal/tensor"
)

// goldenGame is a seeded non-additive 6-player game with V(∅) ≠ 0 that
// saturates early, so TMC's 0.01 truncation fires on most permutations.
func goldenGame() Utility {
	noise := tensor.NewRNG(5).NormalVec(64, 0, 0.002)
	return func(s []int) float64 {
		var w float64
		for _, i := range s {
			w += float64(i + 1)
		}
		return 0.25 + 1 - tensor.Exp(-0.5*w) + noise[subsetToMask(s)]
	}
}

// goldenLog is a 4-epoch, 6-participant log: epoch 1 full, epoch 2 degraded
// to 3 reporters, epoch 3 to 2, epoch 4 all-dropped.
func goldenLog() []*hfl.Epoch {
	log := synthLog(6, 8, 4, 61)
	for t, keep := range [][]int{nil, {0, 3, 5}, {4, 1}, {}} {
		if keep == nil {
			continue
		}
		deltas := make([][]float64, len(keep))
		for k, i := range keep {
			deltas[k] = log[t].Deltas[i]
		}
		log[t].Reported, log[t].Deltas = keep, deltas
	}
	return log
}

func floatBits(v []float64) []uint64 {
	out := make([]uint64, len(v))
	for i, x := range v {
		out[i] = math.Float64bits(x)
	}
	return out
}

// TestGoldenEstimators pins the retraining-game estimators bit for bit: every
// literal below was printed by the implementation that carried one scan per
// estimator (commit 2407758), so any change to the summation order, the RNG
// draw sequence or the evaluation accounting of the shared kernels fails here.
func TestGoldenEstimators(t *testing.T) {
	u := goldenGame()
	exact := &Counter{U: u}
	exactPhi := Exact(6, exact.Call)
	tmcPhi, tmcEvals := TMC(6, u, TMCConfig{MaxEvals: BudgetTMC(6), Tolerance: 0.01, RNG: tensor.NewRNG(11)})
	mcPhi, mcEvals := PermutationMC(6, u, 7, tensor.NewRNG(12))
	gtPhi, gtEvals := GT(6, u, GTConfig{Samples: BudgetGT(6), RNG: tensor.NewRNG(13)})
	got := map[string][]float64{"exact": exactPhi, "tmc": tmcPhi, "permmc": mcPhi, "gt": gtPhi}
	evals := map[string]int64{"exact": exact.Evals, "tmc": tmcEvals, "permmc": mcEvals, "gt": gtEvals}
	for _, g := range []struct {
		name  string
		evals int64
		phi   []uint64
	}{
		{"exact", 64, []uint64{0x3fb3f1de2cc37fee, 0x3fc108b1c1490cf8, 0x3fc5c458c37e4031, 0x3fc8b46ca3f44fcb, 0x3fcaa58018c75d43, 0x3fcbe2012e216133}},
		{"tmc", 51, []uint64{0x3fb6281fa091e14f, 0x3fc108cea11c26dc, 0x3fc0b5466d909587, 0x3fc58621587ce7e6, 0x3fcb56a2f61a6050, 0x3fd0f574811545b8}},
		{"permmc", 25, []uint64{0x3f63280720f66db7, 0x3fbb2bb93268cf90, 0x3f94626c8f9edf65, 0x3fd40f81bb93416e, 0x3fd1bac0910cabc5, 0x3fd1ff4c528d11d1}},
		{"gt", 17, []uint64{0x3fbda49ffdfc2298, 0xbfe5474809fdf4cd, 0x3fe3992801f873dc, 0xbfcbb3a3058189ae, 0x3fdb83003e95d8b5, 0x3fe7256e8bdcf98a}},
	} {
		if evals[g.name] != g.evals || !reflect.DeepEqual(floatBits(got[g.name]), g.phi) {
			t.Errorf("%s: evals %d φ bits %#x, golden %d %#x", g.name, evals[g.name], floatBits(got[g.name]), g.evals, g.phi)
		}
	}
}

// TestGoldenEngines pins the five round engines on goldenLog the same way
// (literals from commit 2407758; engine seed 29). One exact cell moved by
// two ulps when exactPhi's Shapley weights took tensor.Exp on amd64's plain
// sequence, and back when tensor.Exp took the FMA sequence with math.FMA.
func TestGoldenEngines(t *testing.T) {
	for _, g := range []struct {
		name  string
		evals int64
		rows  [][]uint64
	}{
		{"exact", 76, [][]uint64{
			{0x3f77e19960c04937, 0xbf8782caf0bf9c5a, 0xbfa5aadb8f437898, 0x3f7aa044a6e29788, 0x3f9861edf7cd049b, 0x3fa8a01ea5c7f05f},
			{0x3f7b97aae3c07381, 0x0, 0x0, 0x3f8cdd04d2222390, 0x0, 0x3f75ceb8c2bf9221},
			{0x0, 0x3fabe0b11c2f8ac8, 0x0, 0x0, 0xbfbd0f9b07f82244, 0x0},
			{0x0, 0x0, 0x0, 0x0, 0x0, 0x0},
		}},
		{"tmc", 76, [][]uint64{
			{0x3f6fb80db299dc56, 0xbf874411e6d0f332, 0xbfa4d0758ea5c022, 0x3f780e0fd31d0c8e, 0x3f97d4bb6d2a6f3a, 0x3fa94f9c9366f516},
			{0x3f79eb177ccbd560, 0x0, 0x0, 0x3f8c255d5bc50c47, 0x0, 0x3f78ea9b166e5ed2},
			{0x0, 0x3f7dff5129d923ab, 0x0, 0x0, 0xbfb95a22b73efeeb, 0x0},
			{0x0, 0x0, 0x0, 0x0, 0x0, 0x0},
		}},
		{"gt", 27, [][]uint64{
			{0xbf6d6903fca1ba74, 0xbf66ea13963084dc, 0xbf8e8105104f0266, 0xbf810430e79f1294, 0x3f994eba8d509bfe, 0x3fa214e4c7afca4e},
			{0xbf7b87b0d3dbf5ea, 0x0, 0x0, 0x3fa4038f42eaa302, 0x0, 0xbf79745bf8b4d56a},
			{0x0, 0x3fabe0b11c2f8ac8, 0x0, 0x0, 0xbfbd0f9b07f82244, 0x0},
			{0x0, 0x0, 0x0, 0x0, 0x0, 0x0},
		}},
		{"gtg", 66, [][]uint64{
			{0x3f66fc2edff69755, 0xbf877b41bb496b99, 0xbfa2bd4aa5bce60d, 0x3f6192d648bf1920, 0x3f962e52d15b4ad9, 0x3faa8dd083c209d8},
			{0x3f73141f21fb4ab3, 0x0, 0x0, 0x3f906450aacbc8a0, 0x0, 0x3f767b0b7d99df8d},
			{0x0, 0x3fa82b38cb766770, 0x0, 0x0, 0xbfbb34dedf9b9098, 0x0},
			{0x0, 0x0, 0x0, 0x0, 0x0, 0x0},
		}},
		{"dpvs", 70, [][]uint64{
			{0x3f6197cfb3c30cf4, 0xbf8a564e84deaaf3, 0xbfa2f1941cf5d545, 0x3f5b3d8d92b35ea8, 0x3f94ae94ff2b4c2e, 0x3faccc490ad004a0},
			{0x3f78de8ed7c4871c, 0x0, 0x0, 0x3f8cb8cb7adefdf0, 0x0, 0x3f78d0477d41c9c4},
			{0x0, 0x3fa91896dfa4b046, 0x0, 0x0, 0xbfbbab8de9b2b502, 0x0},
			{0x0, 0x0, 0x0, 0x0, 0x0, 0x0},
		}},
	} {
		rep := feed(t, g.name, EngineSpec{N: 6, Loss: quadLoss, Seed: 29}, goldenLog())
		rows := make([][]uint64, len(rep.PerEpoch))
		for r, row := range rep.PerEpoch {
			rows[r] = floatBits(row)
		}
		if rep.Cost.UtilityEvals != g.evals || !reflect.DeepEqual(rows, g.rows) {
			t.Errorf("engine %s: evals %d φ bits %#x, golden %d %#x", g.name, rep.Cost.UtilityEvals, rows, g.evals, g.rows)
		}
	}
}
