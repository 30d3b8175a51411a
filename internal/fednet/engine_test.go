package fednet

import (
	"bytes"
	"context"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"digfl/internal/dataset"
	"digfl/internal/hfl"
	"digfl/internal/nn"
	"digfl/internal/shapley"
)

// engineLoss builds the engine's validation-loss oracle over the server's
// validation set.
func engineLoss(model nn.Model, val dataset.Dataset) shapley.ValLoss {
	m := model.Clone()
	return func(theta []float64) float64 {
		m.SetParams(theta)
		return m.Loss(val.X, val.Y)
	}
}

// TestEngineLoopbackBitIdenticalToLocal: every registered engine attached
// to a fault-free loopback run produces a φ matrix bit-identical to the
// same engine fed by the in-process trainer — the wire changes nothing
// about contribution evaluation.
func TestEngineLoopbackBitIdenticalToLocal(t *testing.T) {
	const seed, engSeed = 2, 40
	for _, name := range shapley.Engines() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			mkSpec := func(model nn.Model, val dataset.Dataset) shapley.EngineSpec {
				return shapley.EngineSpec{N: testN, Loss: engineLoss(model, val), Seed: engSeed}
			}

			// In-process reference: the trainer feeds the engine via
			// Cfg.Engine.
			model, parts, val := problem(seed)
			localEng, err := shapley.NewEngine(name, mkSpec(model, val))
			if err != nil {
				t.Fatal(err)
			}
			cfg := testConfig()
			cfg.Engine = localEng
			tr := &hfl.Trainer{Model: model, Parts: parts, Val: val, Cfg: cfg}
			if _, err := tr.RunContext(context.Background()); err != nil {
				t.Fatalf("local run: %v", err)
			}
			want := localEng.Finalize()

			// The same training over the wire, the coordinator observing
			// Cfg.Engine in its locked observer chain.
			model2, parts2, val2 := problem(seed)
			netEng, err := shapley.NewEngine(name, mkSpec(model2, val2))
			if err != nil {
				t.Fatal(err)
			}
			netCfg := testConfig()
			netCfg.Engine = netEng
			coord := &Coordinator{N: testN, Model: model2, Val: val2, Cfg: netCfg}
			_, perrs, err := Loopback(context.Background(), coord, func(i int) *Participant {
				return &Participant{Index: i, Model: model2, Data: parts2[i], Retries: 2}
			})
			if err != nil {
				t.Fatalf("loopback run: %v", err)
			}
			for i, perr := range perrs {
				if perr != nil {
					t.Fatalf("participant %d: %v", i, perr)
				}
			}
			got := netEng.Finalize()

			if !reflect.DeepEqual(want.PerEpoch, got.PerEpoch) {
				t.Errorf("φ matrix differs:\nlocal %v\nnet   %v", want.PerEpoch, got.PerEpoch)
			}
			if !sameVec(want.Totals, got.Totals) {
				t.Errorf("φ totals differ:\nlocal %v\nnet   %v", want.Totals, got.Totals)
			}
			if want.Cost.UtilityEvals != got.Cost.UtilityEvals {
				t.Errorf("evals differ: local %d net %d", want.Cost.UtilityEvals, got.Cost.UtilityEvals)
			}
			if got.Epochs != testEpochs {
				t.Errorf("engine saw %d epochs, want %d", got.Epochs, testEpochs)
			}
		})
	}
}

// TestScoreReportsEngine: /v1/score names the active engine and carries
// its totals and eval cost; with an estimator attached too, both views are
// served from one reply.
func TestScoreReportsEngine(t *testing.T) {
	model, parts, val := problem(21)
	eng, err := shapley.NewEngine("gtg", shapley.EngineSpec{N: testN, Loss: engineLoss(model, val), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Engine = eng
	coord := &Coordinator{N: testN, Model: model, Val: val, Cfg: cfg}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	done := make(chan error, testN)
	for i := 0; i < testN; i++ {
		p := &Participant{Index: i, BaseURL: srv.URL, Model: model, Data: parts[i], Retries: 2}
		go func() { done <- p.Run(context.Background()) }()
	}
	if _, err := coord.Run(context.Background()); err != nil {
		t.Fatalf("run: %v", err)
	}
	for i := 0; i < testN; i++ {
		if perr := <-done; perr != nil {
			t.Fatalf("participant: %v", perr)
		}
	}

	var score scoreReply
	getJSON(t, srv.URL+"/v1/score", &score)
	rep := eng.Finalize()
	if score.Engine != "gtg" {
		t.Errorf("score engine = %q, want gtg", score.Engine)
	}
	if !sameVec(score.EngineTotals, rep.Totals) {
		t.Errorf("wire engine φ = %v, want %v", score.EngineTotals, rep.Totals)
	}
	if score.EngineEpochs != testEpochs || score.Epochs != testEpochs {
		t.Errorf("score epochs = %d/%d, want %d", score.Epochs, score.EngineEpochs, testEpochs)
	}
	if score.EngineEvals != rep.Cost.UtilityEvals || score.EngineEvals == 0 {
		t.Errorf("score evals = %d, want %d", score.EngineEvals, rep.Cost.UtilityEvals)
	}
	if score.Totals != nil {
		t.Errorf("no estimator attached, but score carries estimator φ %v", score.Totals)
	}
}

// TestEngineCompositionErrors: the engine needs the buffered path and an
// unjournaled run; misconfigurations fail fast, before the join barrier.
func TestEngineCompositionErrors(t *testing.T) {
	model, _, val := problem(5)
	mkEngine := func() shapley.Engine {
		eng, err := shapley.NewEngine("exact", shapley.EngineSpec{N: testN, Loss: engineLoss(model, val)})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	mkCoord := func() *Coordinator {
		c := &Coordinator{N: testN, Model: model, Val: val, Cfg: testConfig()}
		c.Cfg.Engine = mkEngine()
		return c
	}

	c := mkCoord()
	c.Stream = hfl.MeanStream{}
	if _, err := c.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "Stream") {
		t.Fatalf("Engine+Stream should fail fast: %v", err)
	}

	c = mkCoord()
	c.Journal = &bytes.Buffer{}
	if _, err := c.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "Journal") {
		t.Fatalf("Engine+Journal should fail fast: %v", err)
	}

	// A config-carried engine that is not a shapley.Engine is rejected.
	c = &Coordinator{N: testN, Model: model, Val: val, Cfg: testConfig()}
	c.Cfg.Engine = bogusEngine{}
	if _, err := c.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "shapley.Engine") {
		t.Fatalf("non-shapley Cfg.Engine should fail fast: %v", err)
	}
}

// bogusEngine satisfies hfl.ContributionEngine but not shapley.Engine.
type bogusEngine struct{}

func (bogusEngine) Name() string          { return "bogus" }
func (bogusEngine) Observe(ep *hfl.Epoch) {}
