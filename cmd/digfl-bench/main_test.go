package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestTable pins the experiment table: exactly the paper's seven artifacts,
// in the order -exp all runs them, no id naming two rows.
func TestTable(t *testing.T) {
	seen := map[string]bool{}
	var rows []string
	for _, e := range table() {
		for _, id := range e.ids {
			if seen[id] || id == "all" {
				t.Errorf("id %q is taken", id)
			}
			seen[id] = true
		}
		rows = append(rows, strings.Join(e.ids, "/"))
	}
	if got, want := strings.Join(rows, " "), "fig2/table2 fig3 table3 fig4/table4 fig5/table5 fig6 fig7"; got != want {
		t.Errorf("table has rows %q, want %q", got, want)
	}
}

func TestListPrintsEveryRow(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run([]string{"-list"}, &out, &errs); code != 0 || errs.Len() != 0 {
		t.Fatalf("-list exited %d, stderr %q", code, errs.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	rows := table()
	if len(lines) != len(rows) {
		t.Fatalf("-list printed %d lines for %d rows", len(lines), len(rows))
	}
	for i, e := range rows {
		if !strings.HasPrefix(lines[i], strings.Join(e.ids, "/")+" ") || !strings.Contains(lines[i], e.desc) {
			t.Errorf("line %d = %q, want row %v", i, lines[i], e.ids)
		}
	}
}

// TestUsageErrors: every malformed invocation is refused with exit code 2
// and a message before any experiment runs — the removed -json, -load,
// -faults and -attacks flags, the removed runtime-study ids, a NaN scale and
// a forgotten -exp among them.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "load"},
		{"-exp", "chaos"},
		{"-exp", "faults"},
		{"-exp", "nope"},
		{"fig3"},
		{"-exp", "fig6", "extra"},
		{"-exp", "fig6", "-scale", "0"},
		{"-exp", "fig6", "-scale", "NaN"},
		{"-json", "x"},
		{"-load", "clients=1"},
		{"-faults", "bogus=1"},
		{"-exp", "adversarial", "-attacks", "frac=nan"},
		{"-exp", "faults", "-faults", "dropout=2"},
		{"-exp", "faults", "-faults", "dropout=nan"},
	} {
		var out, errs bytes.Buffer
		if code := run(args, &out, &errs); code != 2 || errs.Len() == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want 2 and a message", args, code, out.String(), errs.String())
		}
	}
}
