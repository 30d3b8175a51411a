package digfl_test

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"path/filepath"
	"testing"

	"digfl"
	"digfl/internal/obs"
	"digfl/internal/tensor"
)

// TestFacadeEndToEndHFL exercises the public API exactly as the README
// quickstart does: build data, train, estimate contributions, reweight.
func TestFacadeEndToEndHFL(t *testing.T) {
	rng := tensor.NewRNG(1)
	full := quickstartData(800, 1)
	train, val := full.Split(0.2, rng)
	parts := digfl.PartitionIID(train, 4, rng)
	parts[3] = digfl.Mislabel(parts[3], 0.8, rng)

	tr := &digfl.HFLTrainer{
		Model: digfl.NewSoftmaxRegression(train.Dim(), train.Classes),
		Parts: parts,
		Val:   val,
		Cfg:   digfl.HFLConfig{Epochs: 15, LR: 0.3, KeepLog: true},
	}
	res := tr.Run()
	attr := digfl.EstimateHFL(res.Log, 4, digfl.ResourceSaving, nil)
	if len(attr.Totals) != 4 {
		t.Fatalf("got %d totals", len(attr.Totals))
	}
	for i := 0; i < 3; i++ {
		if attr.Totals[3] >= attr.Totals[i] {
			t.Fatalf("mislabeled participant should rank last: %v", attr.Totals)
		}
	}
	// Reweighted training via the facade.
	tr2 := &digfl.HFLTrainer{
		Model:      digfl.NewSoftmaxRegression(train.Dim(), train.Classes),
		Parts:      parts,
		Val:        val,
		Cfg:        digfl.HFLConfig{Epochs: 15, LR: 0.3},
		Reweighter: &digfl.HFLReweighter{},
	}
	if acc := digfl.HFLAccuracy(tr2.Run().Model, val); acc < 0.5 {
		t.Fatalf("reweighted accuracy %v too low", acc)
	}
}

func TestFacadeEndToEndVFL(t *testing.T) {
	full := vflData(300, 2)
	train, val := full.Split(0.2, tensor.NewRNG(2))
	prob := &digfl.VFLProblem{
		Train:  train,
		Val:    val,
		Blocks: digfl.VerticalBlocks(train.Dim(), 3),
		Kind:   digfl.VFLLinReg,
	}
	tr := &digfl.VFLTrainer{Problem: prob, Cfg: digfl.VFLConfig{Epochs: 25, LR: 0.05, KeepLog: true}}
	res := tr.Run()
	attr := digfl.EstimateVFL(res.Log, prob.Blocks, digfl.ResourceSaving, nil)
	actual := digfl.ExactShapley(3, func(s []int) float64 { return tr.Utility(s) })
	if pcc := digfl.Pearson(attr.Totals, actual); pcc < 0.8 {
		t.Fatalf("facade VFL PCC %.3f", pcc)
	}
}

// quickstartData builds the image dataset the quickstart example uses.
func quickstartData(n int, seed int64) digfl.Dataset {
	return digfl.MNISTLike(n, seed)
}

// vflData builds a tabular regression dataset with noise features at the end.
func vflData(n int, seed int64) digfl.Dataset {
	return digfl.SynthTabular(digfl.TabularConfig{
		Name: "facade", N: n, D: 6, Task: digfl.Regression,
		Informative: 4, Noise: 0.2, Seed: seed,
	})
}

// TestFacadeMatchesExamples keeps the facade small by test, not by review:
// the exported names of digfl.go are exactly the digfl.X selectors the
// programs under examples/ and example_test.go use. It fails when an alias
// is added that no example uses, and when an example's name is dropped.
func TestFacadeMatchesExamples(t *testing.T) {
	fset := token.NewFileSet()
	parse := func(path string) *ast.File {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	exported := map[string]bool{}
	for _, decl := range parse("digfl.go").Decls {
		gen, ok := decl.(*ast.GenDecl)
		if !ok {
			t.Fatalf("digfl.go declares something other than aliases, constants and variables at %s", fset.Position(decl.Pos()))
		}
		for _, spec := range gen.Specs {
			switch spec := spec.(type) {
			case *ast.TypeSpec:
				exported[spec.Name.Name] = true
			case *ast.ValueSpec:
				for _, name := range spec.Names {
					exported[name.Name] = true
				}
			}
		}
	}
	used := map[string]bool{}
	mains, err := filepath.Glob("examples/*/*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range append(mains, "example_test.go") {
		ast.Inspect(parse(path), func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "digfl" {
					used[sel.Sel.Name] = true
				}
			}
			return true
		})
	}
	for name := range exported {
		if !used[name] {
			t.Errorf("digfl.%s is exported but no example uses it", name)
		}
	}
	for name := range used {
		if !exported[name] {
			t.Errorf("an example uses digfl.%s, which digfl.go does not export", name)
		}
	}
}

// TestFacadeSurface builds and calls the facade names no other facade test
// reaches, so a re-export pointing at the wrong thing fails here before any
// consumer sees it.
func TestFacadeSurface(t *testing.T) {
	rng := tensor.NewRNG(5)
	d := digfl.SynthImages(digfl.ImageConfig{Name: "s", N: 60, Side: 4, Classes: 3, Noise: 0.5, Seed: 5})
	if d.Len() != 60 {
		t.Fatalf("SynthImages produced %d samples", d.Len())
	}
	if parts := digfl.PartitionNonIID(digfl.MNISTLike(60, 5),
		digfl.NonIIDConfig{N: 3, M: 1}, rng); len(parts) != 3 {
		t.Fatal("PartitionNonIID returned wrong part count")
	}
	if r := digfl.RankParticipants([]float64{0.1, -0.2, 0.4}); r[0] != 2 {
		t.Fatalf("rank = %v", r)
	}
	var _ digfl.Block
	if digfl.Regression == digfl.Classification || digfl.VFLLinReg == digfl.VFLLogReg {
		t.Fatal("facade constants collapsed")
	}
}

// TestFacadeObservability drives the new Runtime surface end to end through
// the facade: a Tee of both sinks, exact counters, a readable trace, and
// bit-identical attributions with and without observability.
func TestFacadeObservability(t *testing.T) {
	rng := tensor.NewRNG(6)
	full := quickstartData(400, 6)
	train, val := full.Split(0.2, rng)
	parts := digfl.PartitionIID(train, 3, rng)
	build := func(rt digfl.Runtime) *digfl.HFLTrainer {
		return &digfl.HFLTrainer{
			Model: digfl.NewSoftmaxRegression(train.Dim(), train.Classes),
			Parts: parts, Val: val,
			Cfg: digfl.HFLConfig{Epochs: 6, LR: 0.3, KeepLog: true, Runtime: rt},
		}
	}
	plain := build(digfl.Runtime{}).Run()

	collector := &digfl.Collector{}
	var buf bytes.Buffer
	tw := digfl.NewTraceWriter(&buf)
	observed := build(digfl.Runtime{Sink: digfl.Tee(collector, tw)}).Run()
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}

	a := digfl.EstimateHFL(plain.Log, 3, digfl.ResourceSaving, nil)
	b := digfl.EstimateHFL(observed.Log, 3, digfl.ResourceSaving, nil)
	for i := range a.Totals {
		if a.Totals[i] != b.Totals[i] {
			t.Fatalf("observability perturbed attribution %d: %v vs %v", i, a.Totals[i], b.Totals[i])
		}
	}

	snap := collector.Snapshot()
	if snap.Epochs != 6 || snap.LocalUpdates != 18 || snap.Aggregates != 6 {
		t.Fatalf("snapshot counters wrong: %s", snap)
	}
	events, err := digfl.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var starts, ends int
	for _, e := range events {
		switch e.Kind {
		case obs.KindEpochStart:
			starts++
		case obs.KindEpochEnd:
			ends++
		case obs.KindLocalUpdate, obs.KindAggregate, obs.KindPoolTask:
		default:
			t.Fatalf("unexpected event kind %v in a trainer's trace", e.Kind)
		}
	}
	if starts != 6 || ends != 6 {
		t.Fatalf("trace has %d starts / %d ends, want 6/6", starts, ends)
	}
}

func TestFacadeShapleyTools(t *testing.T) {
	u := func(s []int) float64 { return float64(len(s)) }
	exact := digfl.ExactShapley(3, u)
	for _, v := range exact {
		if math.Abs(v-1) > 1e-12 {
			t.Fatalf("exact = %v", exact)
		}
	}
	w := digfl.ReweightWeights([]float64{1, -1, 3})
	if math.Abs(w[0]-0.25) > 1e-12 || w[1] != 0 || math.Abs(w[2]-0.75) > 1e-12 {
		t.Fatalf("weights = %v", w)
	}
}
