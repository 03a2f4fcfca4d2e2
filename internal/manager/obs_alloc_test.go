package manager

import (
	"testing"

	"retail/internal/obs"
)

// TestRetailDecideZeroAllocWithLedger pins the observability plane's
// acceptance criterion: the complete decision path stays at 0 allocs/op
// in steady state even with an obs.NodeLedger on the hooks chain AND
// receiving the decision stream — attribution must be free enough to
// leave on for any run that wants a report.
func TestRetailDecideZeroAllocWithLedger(t *testing.T) {
	rig, m := benchDecideRig(t, 8, func(cfg *ReTailConfig) {
		cfg.InferenceCost = 1e-15
	})
	led := obs.AttachLedger(rig.srv, rig.app.qos)
	m.SetDecisionSink(led)
	w := rig.srv.Workers()[0]
	head := w.Current()
	step := func() {
		m.decide(rig.e, w, head, 0.25, nil)
		rig.e.Run(rig.e.Now() + 1e-9)
	}
	for i := 0; i < 64; i++ {
		step() // warm the slots, pools, and the ledger's pending map
	}
	if avg := testing.AllocsPerRun(200, step); avg != 0 {
		t.Fatalf("decide with ledger attached allocates %v allocs/op, want 0", avg)
	}
}
