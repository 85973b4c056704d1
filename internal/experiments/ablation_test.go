package experiments

import (
	"os"
	"testing"

	"repro/internal/netsim"
)

// Ablation smoke tests run at a small scale and assert the orderings the
// ablation tables are meant to show.

func TestAblationDigestReadsCutsTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment; skipped with -short")
	}
	p := EC2Cost()
	p.Threads = 64
	results, table := RunAblationDigestReads(p.Scaled(0.004), 5)
	if testing.Verbose() {
		table.Render(os.Stderr)
	}
	pinTable(t, table, "0b3ae8e4c9d9476b596702c2d322fcb543c194ba11bf86955830c5073d5b26cf")
	with := results[0].Traffic.Bytes[netsim.InterDC] + results[0].Traffic.Bytes[netsim.IntraDC]
	without := results[1].Traffic.Bytes[netsim.InterDC] + results[1].Traffic.Bytes[netsim.IntraDC]
	if float64(with) > float64(without)*0.8 {
		t.Errorf("digest reads should cut replica traffic substantially: %d vs %d bytes", with, without)
	}
}

func TestAblationPerKeyHoldsLowerLevels(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment; skipped with -short")
	}
	p := G5KHarmony()
	results, table := RunAblationPerKeyRates(p.Scaled(0.004), 0.20, 5)
	if testing.Verbose() {
		table.Render(os.Stderr)
	}
	pinTable(t, table, "7554bf8f80e99ffda4fb841cafa1bd7b4d3f99a867795d78954cebbeb2123ca1")
	agg, per := results[0], results[1]
	if per.AvgReadK > agg.AvgReadK+0.01 {
		t.Errorf("per-key estimator should not hold higher levels: %.2f vs %.2f",
			per.AvgReadK, agg.AvgReadK)
	}
	if per.Metrics.StaleRate() > 0.20*1.5 {
		t.Errorf("per-key estimator exceeded tolerance: %.3f", per.Metrics.StaleRate())
	}
}

func TestExtensionsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment; skipped with -short")
	}
	p := EC2Harmony()
	p.Threads = 48
	sp := p.Scaled(0.002)
	power := RunExtPower(sp, 5)
	if len(power.Rows) != 9 {
		t.Errorf("power table rows = %d, want 9", len(power.Rows))
	}
	pinTable(t, power, "b43e0f46556adddfe35fa4897738c962e7f3dad45f80c13b3061b9f71dc1601a")
	prov := RunExtProvisioning(5)
	if len(prov.Rows) == 0 {
		t.Error("provisioning table empty")
	}
	pinTable(t, prov, "bd6cdedb8fb2b77d05fb50a43efd1456fb978f38fe613eed414674e7b1742186")
	fresh := RunExtFreshness(sp, 5)
	if len(fresh.Rows) != 3 {
		t.Errorf("freshness table rows = %d, want 3", len(fresh.Rows))
	}
	pinTable(t, fresh, "4cc1ceae1fc79c17f5f62567f5e2b7c4933900aa4b7ac3122a7acea483f012dc")
}
