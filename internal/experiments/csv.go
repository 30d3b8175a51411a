package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// Tables returns the result's data as named CSV-ready tables (file stem →
// header row + data rows), so figures can be re-plotted outside Go. Every
// result type implements CSVer.
type CSVer interface {
	Tables() map[string][][]string
}

var (
	_ CSVer = (*SecondTermResult)(nil)
	_ CSVer = (*HFLActualResult)(nil)
	_ CSVer = (*VFLActualResult)(nil)
	_ CSVer = (*ComparisonResult)(nil)
	_ CSVer = (*PerEpochResult)(nil)
	_ CSVer = (*ReweightResult)(nil)
)

func f(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }

// Tables implements CSVer: the Table II rows plus one per-epoch series
// table per federation kind (the Fig. 2 panels).
func (r *SecondTermResult) Tables() map[string][][]string {
	rows := [][]string{{"model", "dataset", "phi", "phi_hat", "rel_err"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Model, row.Dataset, f(row.Phi), f(row.PhiHat), f(row.RelErr)})
	}
	series := func(m map[string]Series) [][]string {
		out := [][]string{{"dataset", "epoch", "phi", "phi_hat"}}
		for _, name := range r.seriesOrder(m) {
			s := m[name]
			for t := range s.Phi {
				out = append(out, []string{name, strconv.Itoa(t + 1), f(s.Phi[t]), f(s.PhiHat[t])})
			}
		}
		return out
	}
	return map[string][][]string{
		"table2":   rows,
		"fig2_hfl": series(r.HFLSeries),
		"fig2_vfl": series(r.VFLSeries),
	}
}

// Tables implements CSVer: one scatter row per (setting, participant) pair
// plus the per-dataset summary (Fig. 3 panels).
func (r *HFLActualResult) Tables() map[string][][]string {
	scatter := [][]string{{"dataset", "corruption", "n", "m", "participant", "estimated", "actual"}}
	for _, row := range r.Rows {
		for i := range row.Estimated {
			scatter = append(scatter, []string{
				row.Dataset, row.Corruption.String(),
				strconv.Itoa(row.N), strconv.Itoa(row.M), strconv.Itoa(i),
				f(row.Estimated[i]), f(row.Actual[i]),
			})
		}
	}
	summary := [][]string{{"dataset", "pcc", "digfl_seconds", "actual_seconds", "actual_retrains", "actual_comm_bytes"}}
	for _, name := range r.datasets() {
		dig, act := r.CostDIGFL[name], r.CostActual[name]
		summary = append(summary, []string{
			name, f(r.PCC[name]), f(dig.Seconds()), f(act.Seconds()),
			strconv.FormatInt(act.Retrains, 10), strconv.FormatInt(act.ExtraBytes, 10),
		})
	}
	return map[string][][]string{"fig3_scatter": scatter, "fig3_summary": summary}
}

// Tables implements CSVer: the Table III rows.
func (r *VFLActualResult) Tables() map[string][][]string {
	rows := [][]string{{"model", "dataset", "n", "pcc", "t_digfl_s", "t_actual_s", "retrains"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Model, row.Dataset, strconv.Itoa(row.N), f(row.PCC),
			f(row.TDIGFL), f(row.TActual), strconv.FormatInt(row.Retrains, 10),
		})
	}
	return map[string][][]string{"table3": rows}
}

// Tables implements CSVer: one row per (dataset, method) with accuracy and
// cost columns (Tables IV/V and the Fig. 4/5 cost panels).
func (r *ComparisonResult) Tables() map[string][][]string {
	rows := [][]string{{"dataset", "n", "method", "pcc", "seconds", "retrains", "utility_evals", "comm_bytes"}}
	for _, row := range r.Rows {
		for _, m := range r.Methods() {
			s := row.Scores[m]
			rows = append(rows, []string{
				row.Dataset, strconv.Itoa(row.N), m, f(s.PCC),
				f(s.Cost.Seconds()), strconv.FormatInt(s.Cost.Retrains, 10),
				strconv.FormatInt(s.Cost.UtilityEvals, 10), strconv.FormatInt(s.Cost.ExtraBytes, 10),
			})
		}
	}
	name := "table4"
	if r.Kind == "VFL" {
		name = "table5"
	}
	return map[string][][]string{name: rows}
}

// Tables implements CSVer: the Fig. 6 per-epoch curves.
func (r *PerEpochResult) Tables() map[string][][]string {
	rows := [][]string{{"dataset", "participant", "kind", "epoch", "estimated", "actual"}}
	for _, name := range r.order {
		for i, s := range r.Series[name] {
			for t := range s.Estimated {
				rows = append(rows, []string{
					name, strconv.Itoa(i), string(s.Kind), strconv.Itoa(t + 1),
					f(s.Estimated[t]), f(s.Actual[t]),
				})
			}
		}
	}
	return map[string][][]string{"fig6": rows}
}

// Tables implements CSVer: the Fig. 7 accuracy-vs-m points and the
// convergence curves.
func (r *ReweightResult) Tables() map[string][][]string {
	points := [][]string{{"dataset", "corruption", "m", "plain_acc", "reweight_acc"}}
	for _, p := range r.Points {
		points = append(points, []string{
			r.Dataset, r.Corruption.String(), strconv.Itoa(p.M), f(p.PlainAcc), f(p.ReweighAcc),
		})
	}
	curves := [][]string{{"dataset", "epoch", "plain_acc", "reweight_acc"}}
	for t := range r.Curves.Plain {
		curves = append(curves, []string{
			r.Dataset, strconv.Itoa(t), f(r.Curves.Plain[t]), f(r.Curves.Reweight[t]),
		})
	}
	stem := "fig7_" + r.Dataset
	return map[string][][]string{stem + "_points": points, stem + "_curves": curves}
}

// WriteCSV renders one named table to w.
func WriteCSV(w io.Writer, rows [][]string) error {
	cw := csv.NewWriter(w)
	if err := cw.WriteAll(rows); err != nil {
		return fmt.Errorf("experiments: writing csv: %w", err)
	}
	return nil
}
