package experiments

import (
	"reflect"
	"strings"
	"testing"
)

// TestEngineMatrixAcceptance is the PR-level accuracy-vs-cost gate: the
// guided samplers (gtg, dpvs) must recover the exact contribution ranking
// (Kendall τ ≥ 0.9) while spending fewer utility evaluations than plain
// TMC sampling does.
func TestEngineMatrixAcceptance(t *testing.T) {
	res := EngineMatrix(QuickOpts())
	rows := make(map[string]EngineMatrixRow, len(res.Rows))
	for _, row := range res.Rows {
		rows[row.Engine] = row
	}
	for _, name := range []string{"exact", "tmc", "gt", "gtg", "dpvs"} {
		if _, ok := rows[name]; !ok {
			t.Fatalf("matrix is missing engine %q", name)
		}
	}
	if tau := rows["exact"].KendallTau; tau != 1 {
		t.Fatalf("exact: τ vs exact = %v, want exactly 1", tau)
	}
	tmc := rows["tmc"]
	for _, name := range []string{"gtg", "dpvs"} {
		row := rows[name]
		if row.KendallTau < 0.9 {
			t.Fatalf("%s: Kendall τ %.3f < 0.9", name, row.KendallTau)
		}
		if row.UtilityEvals >= tmc.UtilityEvals {
			t.Fatalf("%s: %d utility evals, must undercut tmc's %d",
				name, row.UtilityEvals, tmc.UtilityEvals)
		}
	}
	if tmc.UtilityEvals >= rows["exact"].UtilityEvals {
		t.Fatalf("tmc: %d utility evals should undercut exact's %d",
			tmc.UtilityEvals, rows["exact"].UtilityEvals)
	}

	var sb strings.Builder
	res.Render(&sb)
	if !strings.Contains(sb.String(), "rank accuracy vs cost") {
		t.Fatal("render incomplete")
	}
	// Wall is the time spent inside Observe.
	checkGolden(t, res.Tables(), goldenEngines, "wall_seconds")
}

// TestVolatilityDeterministic is the verify-engines rerun gate: the whole
// volatility report is a pure function of Opts, so rerunning it under the
// same options — across several seeds — must be bit-identical.
func TestVolatilityDeterministic(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		o := QuickOpts()
		o.Seed = seed
		first := Volatility(o)
		second := Volatility(o)
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("seed %d: volatility rerun diverged:\n%+v\nvs\n%+v", seed, first, second)
		}
		checkGolden(t, first.Tables(), goldenVolatility[seed-1])
		for _, row := range first.Rows {
			if row.MinTau > row.MeanTau || row.MeanTau > row.MaxTau {
				t.Fatalf("seed %d: %s: min/mean/max out of order: %+v", seed, row.Engine, row)
			}
			if row.PartMinTau > row.PartMeanTau || row.PartMeanTau > row.PartMaxTau {
				t.Fatalf("seed %d: %s: participation spread out of order: %+v", seed, row.Engine, row)
			}
			if row.Engine == "exact" && (row.MinTau != 1 || row.MaxTau != 1) {
				t.Fatalf("seed %d: exact must be seed-invariant, got %+v", seed, row)
			}
			if len(row.AsyncTaus) != len(asyncQuorums) {
				t.Fatalf("seed %d: %s: %d async taus, want one per quorum %v",
					seed, row.Engine, len(row.AsyncTaus), asyncQuorums)
			}
			for k, tau := range row.AsyncTaus {
				if tau < -1 || tau > 1 {
					t.Fatalf("seed %d: %s: async tau k=%d out of range: %v",
						seed, row.Engine, asyncQuorums[k], tau)
				}
			}
		}
	}
}
