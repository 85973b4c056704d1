package experiments

import (
	"math"
	"os"
	"testing"
)

func TestFig1ModelValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment; skipped with -short")
	}
	rows, table := RunFig1Validation(11)
	if testing.Verbose() {
		table.Render(os.Stderr)
	}
	pinTable(t, table, "6fc30a6843f5f613414aa1d874ef97f6a67bde945372bfdad825b353f2205df0")
	// The model must track ground truth: same ordering in k, rough
	// agreement in magnitude.
	for _, r := range rows {
		if r.ReadK == 5 && (r.Predicted != 0 || r.Measured > 0.01) {
			t.Errorf("k=RF must be fresh: predicted %.3f measured %.3f", r.Predicted, r.Measured)
		}
		if diff := math.Abs(r.Predicted - r.Measured); diff > 0.15 {
			t.Errorf("λw=%.0f k=%d: predicted %.3f vs measured %.3f (|Δ|=%.3f > 0.15)",
				r.WriteRate, r.ReadK, r.Predicted, r.Measured, diff)
		}
	}
	// Monotonicity: measured and predicted stale rates decrease in k for
	// each write rate.
	byRate := map[float64][]Fig1Row{}
	for _, r := range rows {
		byRate[r.WriteRate] = append(byRate[r.WriteRate], r)
	}
	for rate, rs := range byRate {
		for i := 1; i < len(rs); i++ {
			if rs[i].Predicted > rs[i-1].Predicted+1e-9 {
				t.Errorf("λw=%.0f: predicted stale not monotone at k=%d", rate, rs[i].ReadK)
			}
		}
	}
}
