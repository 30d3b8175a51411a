package experiments

import (
	"slices"
	"strings"
	"testing"
)

// The literals below are each study's Tables() as the parent of the
// federation-builder refactor printed them (commit 8bbf457, QuickOpts; the
// wire gate at its own Opts{Scale: 0.02, Seed: 7}): rows joined by newlines,
// cells by commas. Every cell that is a pure function of Opts is pinned — φ
// totals, losses, epochs-to-target, τ, utility-evaluation counts, restart and
// fold counts, journal bytes, bit-identity flags — so a change to how a study
// builds its federation, attaches its estimator or compares its runs fails
// here. A "*" stands for a cell that is not such a function; checkGolden's
// callers name those. The adversarial tables were printed again when the
// buffered aggregate took the fold's order (sum, then one scale by 1/Σ r),
// and again when the reweighted aggregate took its canonical form (weights
// w_k = ∇loss^v·δ_k without φ̂'s 1/|S|, held slots summed last; |S| = 10 is
// not a power of two): their losses and φ moved in the last digits.

// checkGolden compares tables with golden. volatile names the cells that
// depend on the wall clock or on goroutine scheduling: a header cell masks
// its column, a row's first cell masks the rest of that row.
func checkGolden(t *testing.T, tables map[string][][]string, golden map[string]string, volatile ...string) {
	t.Helper()
	if len(tables) != len(golden) {
		t.Errorf("study has tables %v, golden has %d", keys(tables), len(golden))
	}
	for name, want := range golden {
		rows := tables[name]
		lines := make([]string, len(rows))
		for i, row := range rows {
			cells := slices.Clone(row)
			for c := range cells {
				if i > 0 && (slices.Contains(volatile, rows[0][c]) || c > 0 && slices.Contains(volatile, row[0])) {
					cells[c] = "*"
				}
			}
			lines[i] = strings.Join(cells, ",")
		}
		if got := strings.Join(lines, "\n"); got != want {
			t.Errorf("table %q differs from the parent commit's:\n%s\nwant:\n%s", name, got, want)
		}
	}
}

var goldenNet = map[string]string{
	"net": `metric,value
participants,3
epochs,5
rounds,5
requests,36
timeouts,0
bit_identical,true
phi_0,0.8476104501009396
phi_1,0.9246641757871051
phi_2,0.8421218830440486`,
}

var goldenChaos = map[string]string{
	"chaos": `metric,value
participants,4
epochs,5
restarts,6
recoveries,12
rejoins,*
wal_transparent,true
crash_identical,true
async_identical,true
async_restarts,6
async_stale_folds,15
wal_bytes,394644`,
}

var goldenFaults = map[string]string{
	"fault_tolerance": `metric,value
epochs,5
crash_epoch,3
checkpoint_every,2
resumed_from,2
dropouts,5
stragglers,4
degraded_epochs,4
checkpoints,1
resume_bit_identical,true
deterministic,true
secure_retries,1
secure_transparent,true
phi_0,0.24973720490267698
phi_1,0.5562539637928475
phi_2,0.6736676519614585
phi_3,0.6448036166623353
phi_4,0.507598442637201`,
}

var goldenAsync = map[string]string{
	"async_gates": `gate,passed
fresh_identical,true
deterministic,true
straggler_advantage,true`,
	"async_topology": `rate,mode,epochs_to_target,final_loss,async_commits,stale_folds,stale_rejects
0,sync-drop,5,0.049476875,0,0,0
0,async-fold,5,0.049476875,15,0,0
0.2,sync-drop,5,0.049476875,0,0,0
0.2,async-fold,5,0.049476875,15,0,0
0.4,sync-drop,0,0.44504777,0,0,0
0.4,async-fold,8,0.064169782,15,7,0`,
}

var goldenEngines = map[string]string{
	"engines_matrix": `engine,kendall_tau,pearson,utility_evals,wall_seconds
dpvs,0.92857143,0.98668609,540,*
exact,1,1,1280,*
gt,0.14285714,0.61540318,144,*
gtg,0.92857143,0.9925253,453,*
tmc,0.92857143,0.99349321,675,*`,
}

var goldenWire = map[string]string{
	"wire": `codec,bytes_on_wire,control_bytes,allocs_per_round,frames
digfl-fednet/2,541184,4608,*,512
bit_identical,true,,*,`,
}

// goldenAdversarial is indexed by seed − 1 (seeds 1, 2, 3).
var goldenAdversarial = []map[string]string{
	{
		"adversarial": `metric,value
kind,sign_flip
attackers,3
participants,10
epochs,5
clean_loss,0.1563669388837278
undefended_loss,4.57342267680852
defended_loss,0.15954558164041213
undefended_ratio,29.24801565764008
defended_ratio,1.0203280999127822
attacks_injected,15
updates_rejected,0
updates_clipped,0
quarantined,3
attackers_ranked_last,true
bit_identical_no_attack,true
phi_0,-0.8148930671563247
phi_1,-0.7808494116223303
phi_2,-0.7934520209033493
phi_3,0.2920949720533604
phi_4,0.26604413194032644
phi_5,0.253411156118902
phi_6,0.27718500973887544
phi_7,0.26435887352342435
phi_8,0.2510303218151943
phi_9,0.24163086313835905`,
	},
	{
		"adversarial": `metric,value
kind,sign_flip
attackers,3
participants,10
epochs,5
clean_loss,0.14825828784494197
undefended_loss,4.523117657416474
defended_loss,0.156507340829196
undefended_ratio,30.50836296010002
defended_ratio,1.0556397426691009
attacks_injected,15
updates_rejected,0
updates_clipped,0
quarantined,3
attackers_ranked_last,true
bit_identical_no_attack,true
phi_0,-0.7978168756031597
phi_1,-0.8651599762519594
phi_2,-0.82446606177331
phi_3,0.3009016224379665
phi_4,0.23578172290914198
phi_5,0.2634844498864919
phi_6,0.2723790923229329
phi_7,0.2359092522507914
phi_8,0.2709979411861725
phi_9,0.3001293285652631`,
	},
	{
		"adversarial": `metric,value
kind,sign_flip
attackers,3
participants,10
epochs,5
clean_loss,0.12503335116368772
undefended_loss,4.872334330903086
defended_loss,0.12993013116169885
undefended_ratio,38.968277547999634
defended_ratio,1.0391637907201297
attacks_injected,15
updates_rejected,0
updates_clipped,1
quarantined,3
attackers_ranked_last,true
bit_identical_no_attack,true
phi_0,-0.9385443901975226
phi_1,-0.7576554041340251
phi_2,-0.8438126018713493
phi_3,0.2733009937309209
phi_4,0.3145543191683715
phi_5,0.24522271602095164
phi_6,0.2742116846712355
phi_7,0.24179810221842196
phi_8,0.2588670508499268
phi_9,0.2738279350388465`,
	},
}

// goldenVolatility is indexed by seed − 1 (seeds 1, 2, 3).
var goldenVolatility = []map[string]string{
	{
		"engines_volatility": `engine,seeds,min_tau,mean_tau,max_tau,patterns,part_min_tau,part_mean_tau,part_max_tau,async_tau_k2,async_tau_k4,async_tau_k8
dpvs,4,0.92857143,0.96428571,1,3,0.71428571,0.80952381,0.85714286,0.40006613,0.57142857,0.57142857
exact,4,1,1,1,3,0.85714286,0.9047619,0.92857143,0.40006613,0.64285714,0.57142857
gt,4,0.42857143,0.64285714,0.85714286,3,0.35714286,0.57142857,0.78571429,0.036369648,0,-0.14285714
gtg,4,0.78571429,0.88095238,0.92857143,3,0.78571429,0.80952381,0.85714286,0.25458754,0.64285714,0.57142857
tmc,4,0.92857143,0.96428571,1,3,0.71428571,0.80952381,0.85714286,0.40006613,0.64285714,0.57142857`,
	},
	{
		"engines_volatility": `engine,seeds,min_tau,mean_tau,max_tau,patterns,part_min_tau,part_mean_tau,part_max_tau,async_tau_k2,async_tau_k4,async_tau_k8
dpvs,4,1,1,1,3,0.92857143,0.95238095,1,0.25458754,0.64285714,0.71428571
exact,4,1,1,1,3,0.85714286,0.9047619,0.92857143,0.47280543,0.64285714,0.71428571
gt,4,0.57142857,0.6547619,0.78571429,3,0.28571429,0.52380952,0.92857143,0.18184824,0.42857143,0.57142857
gtg,4,0.92857143,0.96428571,1,3,0.85714286,0.9047619,0.92857143,0.25458754,0.57142857,0.71428571
tmc,4,1,1,1,3,0.92857143,0.95238095,1,0.32732684,0.5,0.85714286`,
	},
	{
		"engines_volatility": `engine,seeds,min_tau,mean_tau,max_tau,patterns,part_min_tau,part_mean_tau,part_max_tau,async_tau_k2,async_tau_k4,async_tau_k8
dpvs,4,0.92857143,0.96428571,1,3,0.92857143,0.95238095,1,0.61828402,0.85714286,0.92857143
exact,4,1,1,1,3,0.92857143,0.95238095,1,0.61828402,0.85714286,0.85714286
gt,4,0.28571429,0.48809524,0.71428571,3,0.42857143,0.52380952,0.64285714,0.18184824,0.21428571,0.35714286
gtg,4,0.85714286,0.92857143,1,3,0.85714286,0.9047619,0.92857143,0.54554473,1,0.92857143
tmc,4,1,1,1,3,0.85714286,0.9047619,0.92857143,0.69102332,0.85714286,0.85714286`,
	},
}
