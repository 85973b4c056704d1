package experiments

import "testing"

func TestRunStorageCost(t *testing.T) {
	res, table := RunStorageCost(EC2Cost(), 0.002, 7)
	if len(res.Engines) != 2 {
		t.Fatalf("engines = %d, want 2", len(res.Engines))
	}
	mem, lsm := res.Engines[0], res.Engines[1]

	// The memory engine pays no durability I/O; the LSM pays all three.
	if mem.WALBytesPerOp != 0 || mem.FsyncsPerOp != 0 || mem.CompactedBytesPerOp != 0 {
		t.Errorf("mem measured I/O rates: %+v", mem)
	}
	if lsm.WALBytesPerOp <= 0 || lsm.FsyncsPerOp <= 0 {
		t.Errorf("lsm measured no durability I/O: %+v", lsm)
	}

	// Free durability: both engines price identically per million ops.
	if mem.BaseCostPM != lsm.BaseCostPM {
		t.Errorf("base $/Mops differ: mem %f, lsm %f", mem.BaseCostPM, lsm.BaseCostPM)
	}
	// Priced durability: the memory engine is strictly cheaper, and the
	// zero-rate engine's bill does not move at all.
	if mem.IOCostPM != mem.BaseCostPM {
		t.Errorf("mem bill moved under +io: %f -> %f", mem.BaseCostPM, mem.IOCostPM)
	}
	if lsm.IOCostPM <= mem.IOCostPM {
		t.Errorf("lsm $/Mops %f not above mem %f under +io", lsm.IOCostPM, mem.IOCostPM)
	}

	// Provisioning: free durability favors the LSM (fewer nodes);
	// pricing it reverses the choice to the memory engine.
	if res.BaseChoice.Profile.Name != "lsm" {
		t.Errorf("base provisioning chose %s, want lsm", res.BaseChoice.Profile.Name)
	}
	if res.IOChoice.Profile.Name != "mem" {
		t.Errorf("+io provisioning chose %s, want mem", res.IOChoice.Profile.Name)
	}

	pinTable(t, table, "b78068df384d30d3d83d2965864dd2121fbc2fc980c9a9f9cba046e1107a1972")
}
