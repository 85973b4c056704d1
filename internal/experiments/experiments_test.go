package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strings"
	"testing"
)

// Test scales keep the suite fast while preserving topology and pressure.
const testScale = 0.008

// pinTable asserts the SHA-256 of table's rendering. The rendered tables
// define the experiments' behaviour: a refactor keeps them byte-identical,
// and a deliberate change updates the constant with an explanation in the
// commit message. On a mismatch the rendered table is logged.
func pinTable(t *testing.T, table *Table, want string) {
	t.Helper()
	out := renderString(table)
	sum := sha256.Sum256([]byte(out))
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("table %q: sha256 %s, pinned %s; rendered:\n%s", table.Title, got, want, out)
	}
}

func renderString(t *Table) string {
	var sb strings.Builder
	t.Render(&sb)
	return sb.String()
}

func TestExpA_Grid5000Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment; skipped with -short")
	}
	p := G5KHarmony().Scaled(testScale)
	rows, table := RunExpA(p, []float64{0.20, 0.40}, 3)
	if testing.Verbose() {
		table.Render(os.Stderr)
	}
	pinTable(t, table, "a971f9b362aeb920f897d8fda6b90c039cca7bd945e9294e582bd7530dfb1191")
	assertExpAShape(t, rows)
}

func TestExpA_EC2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment; skipped with -short")
	}
	p := EC2Harmony().Scaled(testScale)
	rows, table := RunExpA(p, []float64{0.40, 0.60}, 3)
	if testing.Verbose() {
		table.Render(os.Stderr)
	}
	pinTable(t, table, "cf5f4e1f328278a73661923d0e035d4189948381dacc25942b8f8f6a9132eccd")
	assertExpAShape(t, rows)
}

// assertExpAShape checks the orderings the paper reports: Harmony cuts
// staleness massively versus eventual while beating strong throughput,
// and strong reads are never stale.
func assertExpAShape(t *testing.T, rows []ExpARow) {
	t.Helper()
	eventual, strong := rows[0], rows[1]
	if eventual.Throughput <= strong.Throughput {
		t.Errorf("eventual throughput %.0f should exceed strong %.0f",
			eventual.Throughput, strong.Throughput)
	}
	if strong.StaleRate != 0 {
		t.Errorf("strong (read ALL) must be fresh, got %.3f", strong.StaleRate)
	}
	for _, h := range rows[2:] {
		if h.StaleRate >= eventual.StaleRate {
			t.Errorf("%s: stale %.3f not below eventual %.3f", h.Approach, h.StaleRate, eventual.StaleRate)
		}
		if h.Throughput <= strong.Throughput {
			t.Errorf("%s: throughput %.0f not above strong %.0f", h.Approach, h.Throughput, strong.Throughput)
		}
		if h.AvgReadK <= 1.0-1e-9 || h.AvgReadK > 3.0 {
			t.Errorf("%s: avg read level %.2f outside [1, RF]", h.Approach, h.AvgReadK)
		}
	}
}

func TestExpB1CostShape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment; skipped with -short")
	}
	p := EC2Cost().Scaled(testScale)
	rows, table := RunExpB1(p, 3)
	if testing.Verbose() {
		table.Render(os.Stderr)
	}
	pinTable(t, table, "5a64cf71f77191cd34e4427a3a176d9ccc9afba3f65cfcc3e3691595b00d8be5")
	if len(rows) != p.RF {
		t.Fatalf("want %d levels, got %d", p.RF, len(rows))
	}
	// Total cost must not decrease with stronger levels; staleness must
	// not increase.
	for i := 1; i < len(rows); i++ {
		if rows[i].Bill.Total() < rows[i-1].Bill.Total()*0.98 {
			t.Errorf("cost not monotone: %v $%.3f < %v $%.3f",
				rows[i].Level, rows[i].Bill.Total(), rows[i-1].Level, rows[i-1].Bill.Total())
		}
		if rows[i].StaleRate > rows[i-1].StaleRate+0.02 {
			t.Errorf("staleness not decreasing: %v %.3f > %v %.3f",
				rows[i].Level, rows[i].StaleRate, rows[i-1].Level, rows[i-1].StaleRate)
		}
	}
	one := rows[0]
	if one.RelToAll > 0.75 {
		t.Errorf("ONE should cut cost substantially vs ALL, got rel %.2f", one.RelToAll)
	}
	if one.StaleRate < 0.05 {
		t.Errorf("ONE at RF5 under heavy updates should be substantially stale, got %.3f", one.StaleRate)
	}
	quorum := rows[p.RF/2]
	if quorum.StaleRate != 0 {
		t.Errorf("QUORUM must read fresh, got %.3f", quorum.StaleRate)
	}
	if quorum.RelToAll >= 1.0 {
		t.Errorf("QUORUM should be cheaper than ALL, rel %.2f", quorum.RelToAll)
	}
}

func TestExpB2MetricShape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment; skipped with -short")
	}
	p := EC2Cost().Scaled(testScale)
	samples, table := RunExpB2Metric(p, 3)
	if testing.Verbose() {
		table.Render(os.Stderr)
	}
	pinTable(t, table, "623862427796dfc740eb625e411e3214dcf1df2f6e46168235c775fc6f93d64e")
	for _, s := range samples {
		if s.Best && s.StaleRate > 0.25 {
			t.Errorf("most-efficient level %s (%s) has stale rate %.3f > 25%%",
				s.Level, s.Pattern, s.StaleRate)
		}
	}
}

func TestExpCBismarShape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment; skipped with -short")
	}
	p := G5KCost().Scaled(testScale)
	rows, table := RunExpC(p, testScale, 3)
	if testing.Verbose() {
		table.Render(os.Stderr)
	}
	pinTable(t, table, "829cb428237e35a32aefdcfd6820899022778b645a683a456833faba0a71d1d3")
	var bismarRow, quorumRow, oneRow *ExpCRow
	for i := range rows {
		switch rows[i].Approach {
		case "bismar":
			bismarRow = &rows[i]
		case "static QUORUM":
			quorumRow = &rows[i]
		case "static ONE":
			oneRow = &rows[i]
		}
	}
	if bismarRow == nil || quorumRow == nil || oneRow == nil {
		t.Fatal("missing approaches in results")
	}
	if bismarRow.CostPerMops >= quorumRow.CostPerMops {
		t.Errorf("bismar $%.4f/Mops should undercut static QUORUM $%.4f/Mops",
			bismarRow.CostPerMops, quorumRow.CostPerMops)
	}
	if bismarRow.StaleRate > 0.15 {
		t.Errorf("bismar stale rate %.3f too high (paper: 3.5%%)", bismarRow.StaleRate)
	}
	if oneRow.CostPerMops >= quorumRow.CostPerMops {
		t.Errorf("static ONE should be the cheapest static level")
	}
	if oneRow.StaleRate <= bismarRow.StaleRate {
		t.Errorf("static ONE should be staler than bismar")
	}
}
