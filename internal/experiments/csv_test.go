package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"digfl/internal/metrics"
)

// checkTables asserts every table has a header and rectangular rows.
func checkTables(t *testing.T, tables map[string][][]string, wantNames ...string) {
	t.Helper()
	for _, name := range wantNames {
		rows, ok := tables[name]
		if !ok {
			t.Fatalf("missing table %q (have %v)", name, keys(tables))
		}
		if len(rows) < 2 {
			t.Fatalf("table %q has no data rows", name)
		}
		width := len(rows[0])
		for i, row := range rows {
			if len(row) != width {
				t.Fatalf("table %q row %d has %d cells, want %d", name, i, len(row), width)
			}
		}
	}
}

func keys(m map[string][][]string) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestSecondTermTables(t *testing.T) {
	res := SecondTerm(QuickOpts())
	tables := res.Tables()
	checkTables(t, tables, "table2", "fig2_hfl", "fig2_vfl")
	if got := len(tables["table2"]) - 1; got != 14 {
		t.Fatalf("table2 has %d data rows, want 14", got)
	}
	var vflOrder []string
	for _, row := range res.Rows[len(strings.Fields(hflRunOrder)):] {
		vflOrder = append(vflOrder, row.Dataset)
	}
	checkRunOrder(t, res, "fig2_hfl", hflRunOrder)
	checkRunOrder(t, res, "fig2_vfl", strings.Join(vflOrder, " "))
}

func TestReweightTables(t *testing.T) {
	res := Reweight("MOTOR", Mislabeled, QuickOpts())
	tables := res.Tables()
	checkTables(t, tables, "fig7_MOTOR_points", "fig7_MOTOR_curves")
	// Points rows must parse back to the result values.
	for i, p := range res.Points {
		row := tables["fig7_MOTOR_points"][i+1]
		if row[2] != strconv.Itoa(p.M) {
			t.Fatalf("row %d m = %s, want %d", i, row[2], p.M)
		}
		v, err := strconv.ParseFloat(row[3], 64)
		if err != nil || v < p.PlainAcc-1e-6 || v > p.PlainAcc+1e-6 {
			t.Fatalf("row %d plain = %s, want ≈%v", i, row[3], p.PlainAcc)
		}
	}
}

func TestComparisonAndActualTables(t *testing.T) {
	vfl := VFLvsActual(QuickOpts())
	checkTables(t, vfl.Tables(), "table3")
	cmp := VFLComparison(QuickOpts())
	checkTables(t, cmp.Tables(), "table5")
	// HFL comparison table stem differs.
	hflCmp := &ComparisonResult{Kind: "HFL", Rows: []ComparisonRow{{
		Dataset: "X", N: 5,
		Scores: map[string]MethodScore{"DIG-FL": {PCC: 1, Cost: metrics.Cost{}}},
	}}}
	checkTables(t, hflCmp.Tables(), "table4")
}

func TestPerEpochAndFig3Tables(t *testing.T) {
	pe := PerEpoch(QuickOpts())
	checkTables(t, pe.Tables(), "fig6")
	checkRunOrder(t, pe, "fig6", hflRunOrder)
	ha := HFLvsActual(QuickOpts())
	checkTables(t, ha.Tables(), "fig3_scatter", "fig3_summary")
	checkRunOrder(t, ha, "fig3_summary", hflRunOrder)
}

// hflRunOrder is the order every HFL runner visits the image datasets in.
const hflRunOrder = "MNIST CIFAR10 MOTOR REAL"

// checkRunOrder is the output-order gate: the per-dataset maps behind Fig. 2,
// Fig. 3 and Fig. 6 must be emitted in run order, so 20 renderings of one
// result are the same bytes and the named table's first column visits the
// datasets as the runner did (want, space-separated).
func checkRunOrder(t *testing.T, r Report, table, want string) {
	t.Helper()
	emit := func() string {
		var buf bytes.Buffer
		r.Render(&buf)
		if err := WriteCSV(&buf, r.Tables()[table]); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	first := emit()
	for i := 1; i < 20; i++ {
		if emit() != first {
			t.Fatalf("%s: rendering %d differs from the first", table, i)
		}
	}
	var order []string
	for _, row := range r.Tables()[table][1:] {
		if len(order) == 0 || order[len(order)-1] != row[0] {
			order = append(order, row[0])
		}
	}
	if got := strings.Join(order, " "); got != want {
		t.Fatalf("%s lists datasets as %q, want run order", table, got)
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	rows := [][]string{{"a", "b"}, {"1", "2"}}
	if err := WriteCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	got := strings.TrimSpace(buf.String())
	if got != "a,b\n1,2" {
		t.Fatalf("csv = %q", got)
	}
}
